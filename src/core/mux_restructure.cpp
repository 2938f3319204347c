#include "core/mux_restructure.hpp"

#include "obs/trace.hpp"
#include "rtlil/topo.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace smartly::core {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Module;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

/// One conjunctive control pattern: ctrl is true iff sel_bits == consts.
struct EqPattern {
  std::vector<int> sel_index;  ///< indices into the tree's selector bit list
  std::vector<bool> value;
};

/// A tree mux's control = OR of patterns (multi-label case items).
struct CtrlFunc {
  std::vector<EqPattern> patterns;
  std::vector<Cell*> driver_cells; ///< eq / not / logic_or cells implementing it
};

struct TreeNode {
  Cell* cell = nullptr;
  int a_child = -1;     ///< index into tree nodes, or -1 when A is a leaf
  int b_child = -1;
  SigSpec a_leaf, b_leaf;
  CtrlFunc ctrl;
};

class Restructurer {
public:
  Restructurer(Module& module, const MuxRestructureOptions& options,
               MuxRestructureStats& stats)
      : module_(module), options_(options), stats_(stats), index_(build_index(module)) {}

  bool run_once() {
    const obs::Span span("rebuild", "rebuild.trees");
    bool changed = false;
    // Identify tree-internal muxes: whole output read exactly once, by a mux,
    // through a data port, and the port slice equals the output exactly.
    std::unordered_set<Cell*> internal;
    for (const auto& cptr : module_.cells()) {
      Cell* c = cptr.get();
      if (c->type() != CellType::Mux)
        continue;
      if (unique_tree_parent(c))
        internal.insert(c);
    }
    // Snapshot roots: try_rebuild adds cells and must not invalidate this
    // iteration.
    std::vector<Cell*> roots;
    for (const auto& cptr : module_.cells()) {
      Cell* c = cptr.get();
      if (c->type() == CellType::Mux && !internal.count(c))
        roots.push_back(c);
    }
    for (Cell* c : roots) {
      if (consumed_.count(c))
        continue;
      ++stats_.trees_seen;
      if (try_rebuild(c))
        changed = true;
    }
    for (const auto& [lhs, rhs] : connects_)
      module_.connect(lhs, rhs);
    connects_.clear();
    module_.remove_cells(std::vector<Cell*>(consumed_.begin(), consumed_.end()));
    consumed_.clear();
    return changed;
  }

private:
  static rtlil::NetlistIndex build_index(const Module& module) {
    const obs::Span span("rebuild", "rebuild.index");
    return rtlil::NetlistIndex(module);
  }

  /// Parent mux that reads this cell's entire Y as exactly one data port
  /// (A, or one B part of equal width), with no other readers.
  Cell* unique_tree_parent(Cell* c) {
    const SigSpec y = index_.sigmap()(c->port(Port::Y));
    Cell* parent = nullptr;
    for (const SigBit& bit : y) {
      if (!bit.is_wire() || index_.drives_output_port(bit))
        return nullptr;
      const auto& readers = index_.readers(bit);
      if (readers.size() != 1)
        return nullptr;
      if (parent && readers[0] != parent)
        return nullptr;
      parent = readers[0];
    }
    if (!parent || parent->type() != CellType::Mux)
      return nullptr;
    // The parent's A or B port must equal y exactly.
    if (index_.sigmap()(parent->port(Port::A)) == y)
      return parent;
    if (index_.sigmap()(parent->port(Port::B)) == y)
      return parent;
    return nullptr;
  }

  /// Try to match a control bit as a function of selector bits
  /// (eq-with-const / raw bit / inverted bit / OR of such). Returns false if
  /// the structure is anything else. Appends the selector bits it uses to
  /// `sel_bits_` (deduplicated via sel_index_).
  bool match_ctrl(const SigBit& raw, CtrlFunc& out, int depth = 0) {
    const SigBit bit = index_.sigmap()(raw);
    if (!bit.is_wire())
      return false; // constant control: opt_expr's job, not ours
    // Any bit without a recognizable eq/not/or structure is treated as a raw
    // selector bit (ctrl = (bit == 1)): this covers 1-bit `case` selectors,
    // register-driven controls, and keeps the table construction exact.
    auto raw_bit = [&]() {
      EqPattern p;
      p.sel_index.push_back(sel_index_of(bit));
      p.value.push_back(true);
      out.patterns.push_back(std::move(p));
      return true;
    };
    if (depth > 4)
      return raw_bit();
    Cell* d = index_.driver(bit);
    if (!d || d->type() == CellType::Dff)
      return raw_bit();
    switch (d->type()) {
    case CellType::Eq: {
      const SigSpec a = index_.sigmap()(d->port(Port::A));
      const SigSpec b = index_.sigmap()(d->port(Port::B));
      const SigSpec* var = &a;
      const SigSpec* cst = &b;
      if (a.is_fully_const())
        std::swap(var, cst);
      if (!cst->is_fully_const() || !cst->is_fully_def())
        return raw_bit();
      if (d->port(Port::Y).size() != 1)
        return raw_bit();
      EqPattern p;
      const int w = std::max(var->size(), cst->size());
      for (int i = 0; i < w; ++i) {
        const SigBit vb = i < var->size() ? (*var)[i] : SigBit(State::S0);
        const State cb = i < cst->size() ? (*cst)[i].data : State::S0;
        if (vb.is_const()) {
          if ((vb.data == State::S1) != (cb == State::S1))
            return raw_bit(); // degenerate constant-0 control: keep it opaque
          continue;
        }
        p.sel_index.push_back(sel_index_of(vb));
        p.value.push_back(cb == State::S1);
      }
      out.patterns.push_back(std::move(p));
      out.driver_cells.push_back(d);
      return true;
    }
    case CellType::Not:
    case CellType::LogicNot: {
      const SigSpec a = index_.sigmap()(d->port(Port::A));
      if (a.size() != 1 || !a[0].is_wire() || d->port(Port::Y).size() != 1)
        return raw_bit();
      // Inverted raw selector bit only (inverting an eq would need negated
      // patterns, which an OR of conjunctions cannot express).
      if (Cell* ad = index_.driver(a[0]); ad && ad->type() != CellType::Dff)
        return raw_bit();
      EqPattern p;
      p.sel_index.push_back(sel_index_of(a[0]));
      p.value.push_back(false);
      out.patterns.push_back(std::move(p));
      out.driver_cells.push_back(d);
      return true;
    }
    case CellType::LogicOr:
    case CellType::Or: {
      if (d->port(Port::Y).size() != 1 || d->port(Port::A).size() != 1 ||
          d->port(Port::B).size() != 1)
        return raw_bit();
      if (!match_ctrl(d->port(Port::A)[0], out, depth + 1))
        return false;
      if (!match_ctrl(d->port(Port::B)[0], out, depth + 1))
        return false;
      out.driver_cells.push_back(d);
      return true;
    }
    default:
      return raw_bit();
    }
  }

  int sel_index_of(const SigBit& bit) {
    auto it = sel_index_.find(bit);
    if (it != sel_index_.end())
      return it->second;
    const int idx = static_cast<int>(sel_bits_.size());
    sel_bits_.push_back(bit);
    sel_index_.emplace(bit, idx);
    return idx;
  }

  /// Gather the tree under `root`. Returns node indices (0 = root) or empty
  /// on ineligibility (OnlyEq / SingleCtrl / width constraints violated).
  std::vector<TreeNode> gather_tree(Cell* root) {
    sel_bits_.clear();
    sel_index_.clear();
    std::vector<TreeNode> nodes;
    std::vector<Cell*> queue{root};
    std::unordered_map<Cell*, int> id_of;
    id_of.emplace(root, 0);
    nodes.emplace_back();
    nodes[0].cell = root;

    for (size_t qi = 0; qi < queue.size(); ++qi) {
      Cell* c = queue[qi];
      const int id = id_of[c];
      if (!match_ctrl(c->port(Port::S)[0], nodes[static_cast<size_t>(id)].ctrl))
        return {};
      if (static_cast<int>(sel_bits_.size()) > options_.max_sel_width)
        return {};
      for (Port p : {Port::A, Port::B}) {
        const SigSpec sig = index_.sigmap()(c->port(p));
        Cell* child = data_port_child(c, sig);
        int child_id = -1;
        if (child) {
          auto [it, inserted] = id_of.emplace(child, static_cast<int>(nodes.size()));
          if (!inserted)
            return {}; // shared child: not a tree
          child_id = it->second;
          nodes.emplace_back();
          nodes.back().cell = child;
          queue.push_back(child);
        }
        auto& node = nodes[static_cast<size_t>(id)];
        if (p == Port::A) {
          node.a_child = child_id;
          if (child_id < 0)
            node.a_leaf = c->port(Port::A);
        } else {
          node.b_child = child_id;
          if (child_id < 0)
            node.b_leaf = c->port(Port::B);
        }
      }
    }
    return nodes;
  }

  /// Mux driving this entire data port exclusively (tree edge), or nullptr.
  Cell* data_port_child(Cell* reader, const SigSpec& sig) {
    if (sig.empty() || !sig[0].is_wire())
      return nullptr;
    Cell* d = index_.driver(sig[0]);
    if (!d || d->type() != CellType::Mux || consumed_.count(d))
      return nullptr;
    if (index_.sigmap()(d->port(Port::Y)) != sig)
      return nullptr;
    for (const SigBit& bit : sig) {
      if (index_.drives_output_port(bit))
        return nullptr;
      const auto& readers = index_.readers(bit);
      if (readers.size() != 1 || readers[0] != reader)
        return nullptr;
    }
    return d;
  }

  static bool pattern_matches(const EqPattern& p, uint64_t v) {
    for (size_t i = 0; i < p.sel_index.size(); ++i) {
      const bool bit = (v >> p.sel_index[i]) & 1;
      if (bit != p.value[i])
        return false;
    }
    return true;
  }

  static bool ctrl_value(const CtrlFunc& f, uint64_t v) {
    for (const EqPattern& p : f.patterns)
      if (pattern_matches(p, v))
        return true;
    return false;
  }

  /// Rough AIG AND-count of a control cell (for the Check() gain estimate).
  static size_t ctrl_cell_cost(const Cell* c) {
    switch (c->type()) {
    case CellType::Eq: {
      // xnor-with-const is free; the AND-reduction costs width-1.
      const int w = std::max(c->port(Port::A).size(), c->port(Port::B).size());
      return w > 1 ? static_cast<size_t>(w - 1) : 0;
    }
    case CellType::LogicOr:
    case CellType::Or:
      return 1;
    default:
      return 0; // inverters are free in an AIG
    }
  }

  bool try_rebuild(Cell* root) {
    const std::vector<TreeNode> tree = gather_tree(root);
    if (tree.size() < 2 || sel_bits_.empty())
      return false;
    // Algorithm 1's SingleCtrl condition: every control is a function of one
    // shared selector signal. Mixed-wire controls belong to the SAT engine.
    for (const SigBit& b : sel_bits_)
      if (b.wire != sel_bits_[0].wire)
        return false;
    ++stats_.trees_eligible;

    const int h = static_cast<int>(sel_bits_.size());
    const int width = root->params().width;

    // --- terminal table over all selector values ------------------------
    std::vector<SigSpec> terminals;
    std::unordered_map<SigSpec, int> terminal_id;
    auto intern = [&](const SigSpec& s) {
      auto [it, inserted] = terminal_id.emplace(s, static_cast<int>(terminals.size()));
      if (inserted)
        terminals.push_back(s);
      return it->second;
    };

    std::vector<int> table(size_t(1) << h);
    for (uint64_t v = 0; v < table.size(); ++v) {
      int node = 0;
      for (;;) {
        const TreeNode& n = tree[static_cast<size_t>(node)];
        const bool take_b = ctrl_value(n.ctrl, v);
        const int child = take_b ? n.b_child : n.a_child;
        if (child < 0) {
          table[v] = intern(take_b ? n.b_leaf : n.a_leaf);
          break;
        }
        node = child;
      }
    }

    const AddResult add = options_.greedy_order
                              ? build_add(table, h)
                              : build_add_fixed_order(table, h);

    // --- CountRemoved: control cells whose fanout is only tree S ports ---
    std::unordered_set<Cell*> tree_cells;
    for (const TreeNode& n : tree)
      tree_cells.insert(n.cell);
    std::unordered_set<Cell*> ctrl_cells;
    for (const TreeNode& n : tree)
      for (Cell* c : n.ctrl.driver_cells)
        ctrl_cells.insert(c);
    size_t removed_eq_gain = 0;
    size_t removable_eq = 0;
    for (Cell* c : ctrl_cells) {
      bool only_tree = true;
      for (const SigBit& raw : c->port(Port::Y)) {
        const SigBit bit = index_.sigmap()(raw);
        if (!bit.is_wire() || index_.drives_output_port(bit)) {
          only_tree = false;
          break;
        }
        for (Cell* r : index_.readers(bit)) {
          // Readers must be tree muxes or other (also removable) ctrl cells.
          if (!tree_cells.count(r) && !ctrl_cells.count(r)) {
            only_tree = false;
            break;
          }
        }
        if (!only_tree)
          break;
      }
      if (only_tree) {
        removed_eq_gain += ctrl_cell_cost(c);
        ++removable_eq;
      }
    }

    // --- Check(): estimated AIG gain must be positive --------------------
    // A W-bit mux costs ~3W AND nodes after aigmap.
    const size_t old_cost = 3 * static_cast<size_t>(width) * tree.size();
    const size_t new_cost = 3 * static_cast<size_t>(width) * add.internal_nodes();
    const bool beneficial =
        old_cost + removed_eq_gain > new_cost && add.height() <= h;
    if (!options_.skip_check && !beneficial) {
      log_debug("restructure: skip tree at %s (old=%zu new=%zu eq=%zu)",
                root->name().c_str(), old_cost, new_cost, removed_eq_gain);
      return false;
    }

    // --- Rebuild ----------------------------------------------------------
    // Bottom-up over the ADD DAG; shared nodes become shared muxes.
    std::unordered_map<int, SigSpec> value_of;
    auto node_value = [&](auto&& self, int ref) -> SigSpec {
      if (add_is_terminal(ref))
        return terminals[static_cast<size_t>(add_terminal_id(ref))];
      auto it = value_of.find(ref);
      if (it != value_of.end())
        return it->second;
      const AddNode& n = add.nodes[static_cast<size_t>(ref)];
      const SigSpec lo = self(self, n.lo);
      const SigSpec hi = self(self, n.hi);
      const SigSpec y =
          module_.Mux(lo, hi, SigSpec(sel_bits_[static_cast<size_t>(n.var)]));
      ++stats_.mux_added;
      value_of.emplace(ref, y);
      return y;
    };
    const SigSpec result = node_value(node_value, add.root);
    connects_.emplace_back(root->port(Port::Y), result);

    for (const TreeNode& n : tree)
      consumed_.insert(n.cell);
    stats_.mux_removed += tree.size();
    stats_.eq_disconnected += removable_eq;
    ++stats_.trees_rebuilt;
    return true;
  }

  Module& module_;
  const MuxRestructureOptions& options_;
  MuxRestructureStats& stats_;
  NetlistIndex index_;
  /// The iteration's connects, applied in order when it ends: until then
  /// the index and every read see the module's map as the iteration found it.
  std::vector<std::pair<SigSpec, SigSpec>> connects_;
  std::unordered_set<Cell*> consumed_;
  std::vector<SigBit> sel_bits_;
  std::unordered_map<SigBit, int> sel_index_;
};

} // namespace

MuxRestructureStats mux_restructure(Module& module, const MuxRestructureOptions& options) {
  MuxRestructureStats stats;
  // One structural sweep is enough for chains; a second pass catches trees
  // exposed by the first (e.g. after shared-node rebuilds).
  for (int iter = 0; iter < 4; ++iter) {
    const obs::Span span("rebuild", "rebuild.iteration", "iter", static_cast<uint64_t>(iter + 1));
    Restructurer r(module, options, stats);
    if (!r.run_once())
      break;
  }
  return stats;
}

} // namespace smartly::core
