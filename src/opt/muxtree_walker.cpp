#include "opt/muxtree_walker.hpp"

#include "util/log.hpp"

#include <algorithm>
#include <unordered_set>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Module;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

uint64_t trace_hash(const SigBit& ctrl, CtrlDecision d) {
  const uint64_t h = ctrl.is_wire()
                         ? hash_combine(std::hash<std::string>{}(ctrl.wire->name()),
                                        static_cast<uint64_t>(ctrl.offset))
                         : hash_mix(static_cast<uint64_t>(ctrl.data));
  return hash_combine(h, static_cast<uint64_t>(d));
}

std::vector<uint64_t> canonical_trace(const DecisionTrace& trace) {
  // Group per root, preserving order (per root, iterations ascend because
  // both engines append iteration-by-iteration).
  std::unordered_map<uint32_t, std::vector<const DecisionTrace::Entry*>> by_root;
  std::vector<uint32_t> roots;
  for (const auto& e : trace.entries) {
    auto [it, inserted] = by_root.try_emplace(e.root);
    if (inserted)
      roots.push_back(e.root);
    it->second.push_back(&e);
  }
  std::sort(roots.begin(), roots.end());

  std::vector<uint64_t> out;
  std::vector<uint64_t> block, prev;
  for (uint32_t root : roots) {
    const auto& entries = by_root[root];
    prev.clear();
    size_t i = 0;
    while (i < entries.size()) {
      const uint32_t iter = entries[i]->iteration;
      block.clear();
      for (; i < entries.size() && entries[i]->iteration == iter; ++i)
        block.push_back(entries[i]->hash);
      if (block == prev)
        continue; // replay of an unchanged tree: schedule noise, drop it
      uint64_t h = hash_mix(0xb10c0000u + root);
      for (uint64_t v : block)
        h = hash_combine(h, v);
      out.push_back(h);
      std::swap(prev, block);
    }
  }
  return out;
}

/// Output-port bits and non-mux readers disqualify.
Cell* unique_mux_parent(const NetlistIndex& index, Cell* c) {
  Cell* parent = nullptr;
  for (const SigBit& raw : c->port(c->output_port())) {
    const SigBit bit = index.sigmap()(raw);
    if (!bit.is_wire())
      return nullptr;
    if (index.drives_output_port(bit))
      return nullptr;
    const auto& readers = index.readers(bit);
    if (readers.size() != 1)
      return nullptr;
    Cell* r = readers[0];
    if (r->type() != CellType::Mux && r->type() != CellType::Pmux)
      return nullptr;
    // Must be read through a data port (A or B), not S.
    for (const SigBit& sraw : r->port(Port::S))
      if (index.sigmap()(sraw) == bit)
        return nullptr;
    if (parent && parent != r)
      return nullptr;
    parent = r;
  }
  return parent;
}

MuxtreeForest muxtree_forest(const Module& module, const NetlistIndex& index) {
  MuxtreeForest forest;
  // `parent[c] = p` when every output bit of mux/pmux `c` is read only by
  // mux/pmux `p`, through its A or B port. Such cells are tree-internal and
  // safe to rewrite under the path condition of the unique path to them.
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    if (c->type() != CellType::Mux && c->type() != CellType::Pmux)
      continue;
    Cell* p = unique_mux_parent(index, c);
    if (p)
      forest.parent.emplace(c, p);
  }
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    if (c->type() != CellType::Mux && c->type() != CellType::Pmux)
      continue;
    if (forest.parent.count(c))
      continue; // internal: reached from its root
    forest.roots.push_back(c);
  }
  return forest;
}

class MuxtreeWalker::Impl {
public:
  Impl(const NetlistIndex& index, MuxtreeOracle& oracle, MuxtreeStats& stats,
       SweepJournal& journal, DecisionTrace* trace, uint32_t iteration)
      : index_(index), oracle_(oracle), stats_(stats), journal_(journal),
        trace_(trace), iteration_(iteration) {}

  void walk_root(Cell* root) {
    if (removed_.count(root))
      return;
    root_id_ = root->id();
    KnownMap* known = acquire_known();
    visit(root, *known);
    release_known(known);
  }

  bool changed_ = false;

private:
  // --- known-map pool ------------------------------------------------------
  // One KnownMap per live path-stack level, recycled across nodes and roots
  // so the per-node cost is entry insertion, not hash-table construction.
  // owned_ holds every map ever created (leak-free even if decide() throws
  // mid-recursion); free_ is the recycling stack of checked-in maps.
  KnownMap* acquire_known() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<KnownMap>());
      return owned_.back().get();
    }
    KnownMap* m = free_.back();
    free_.pop_back();
    m->clear();
    return m;
  }
  void release_known(KnownMap* m) { free_.push_back(m); }

  CtrlDecision decide(SigBit ctrl_raw, const KnownMap& known) {
    const SigBit ctrl = index_.sigmap()(ctrl_raw);
    if (ctrl.is_const())
      return ctrl.data == State::S1 ? CtrlDecision::One : CtrlDecision::Zero;
    ++stats_.oracle_queries;
    const CtrlDecision d = oracle_.decide(ctrl, known);
    if (trace_)
      trace_->entries.push_back({iteration_, root_id_, trace_hash(ctrl, d)});
    return d;
  }

  void journal_mutated(Cell* c) {
    if (mutated_.insert(c).second)
      journal_.mutated.push_back(c);
    changed_ = true;
  }

  /// Replace known data-port bits with their constants (paper Fig. 2).
  void substitute_data_bits(Cell* c, const KnownMap& known) {
    if (known.empty())
      return;
    for (Port p : {Port::A, Port::B}) {
      SigSpec sig = c->port(p);
      bool mutated = false;
      for (int i = 0; i < sig.size(); ++i) {
        const SigBit bit = index_.sigmap()(sig[i]);
        if (!bit.is_wire())
          continue;
        auto it = known.find(bit);
        if (it == known.end())
          continue;
        sig[i] = SigBit(it->second ? State::S1 : State::S0);
        mutated = true;
        ++stats_.data_bits_replaced;
      }
      if (mutated) {
        c->set_port(p, sig);
        journal_mutated(c);
      }
    }
  }

  /// Mux/pmux cells driving bits of `data` that are exclusively read by
  /// `reader` (single fanout, no output-port escape). Only such cells may be
  /// rewritten under the path condition of the edge reader->child.
  std::unordered_set<Cell*> branch_children(Cell* reader, const SigSpec& data) {
    std::unordered_set<Cell*> children;
    for (const SigBit& raw : data) {
      const SigBit bit = index_.sigmap()(raw);
      if (!bit.is_wire())
        continue;
      Cell* d = index_.driver(bit);
      if (!d || (d->type() != CellType::Mux && d->type() != CellType::Pmux))
        continue;
      if (removed_.count(d))
        continue;
      bool exclusive = true;
      for (const SigBit& oraw : d->port(d->output_port())) {
        const SigBit obit = index_.sigmap()(oraw);
        if (!obit.is_wire() || index_.drives_output_port(obit)) {
          exclusive = false;
          break;
        }
        const auto& readers = index_.readers(obit);
        if (readers.size() != 1 || readers[0] != reader) {
          exclusive = false;
          break;
        }
      }
      if (exclusive)
        children.insert(d);
    }
    return children;
  }

  /// Visit the children of several branches. A child reachable from more
  /// than one branch is visited under the intersection of the branch
  /// conditions — i.e. the parent's own `known` — since each branch's extra
  /// constraint only holds on its own path.
  void descend_branches(Cell* reader, const KnownMap& parent_known,
                        const std::vector<std::pair<SigSpec, const KnownMap*>>& branches) {
    std::unordered_map<Cell*, int> hits; // child -> first branch index or -2 (multi)
    for (size_t i = 0; i < branches.size(); ++i) {
      for (Cell* child : branch_children(reader, branches[i].first)) {
        auto [it, inserted] = hits.emplace(child, static_cast<int>(i));
        if (!inserted && it->second != static_cast<int>(i))
          it->second = -2;
      }
    }
    for (const auto& [child, idx] : hits)
      visit(child, idx == -2 ? parent_known : *branches[static_cast<size_t>(idx)].second);
  }

  void visit(Cell* c, const KnownMap& known) {
    if (removed_.count(c))
      return;
    substitute_data_bits(c, known);

    if (c->type() == CellType::Mux) {
      const CtrlDecision d = decide(c->port(Port::S)[0], known);
      if (d == CtrlDecision::One || d == CtrlDecision::Zero ||
          d == CtrlDecision::DeadPath) {
        // DeadPath: the cell's output is never observed on this (sole) path;
        // either input is acceptable — pick A.
        const Port pick = (d == CtrlDecision::One) ? Port::B : Port::A;
        const SigSpec kept = c->port(pick);
        journal_.connects.emplace_back(c->port(Port::Y), kept);
        removed_.insert(c);
        journal_.removed.push_back(c);
        ++stats_.mux_collapsed;
        changed_ = true;
        descend_branches(c, known, {{kept, &known}}); // no new constraint
        return;
      }
      const SigBit s = index_.sigmap()(c->port(Port::S)[0]);
      KnownMap* k0 = acquire_known();
      KnownMap* k1 = acquire_known();
      *k0 = known;
      *k1 = known;
      if (s.is_wire()) {
        (*k0)[s] = false;
        (*k1)[s] = true;
      }
      descend_branches(c, known, {{c->port(Port::A), k0}, {c->port(Port::B), k1}});
      release_known(k1);
      release_known(k0);
      return;
    }

    // Pmux. Priority semantics: branch i active iff S[i]=1 and S[j]=0 ∀ j<i.
    const SigSpec s = c->port(Port::S);
    const SigSpec b = c->port(Port::B);
    const int width = c->params().width;

    SigSpec new_s, new_b;
    SigSpec new_a = c->port(Port::A);
    std::vector<SigBit> kept_sel; // canonical select bits kept so far
    bool truncated = false;
    bool mutated = false;
    for (int i = 0; i < s.size() && !truncated; ++i) {
      const CtrlDecision d = decide(s[i], known);
      if (d == CtrlDecision::Zero || d == CtrlDecision::DeadPath) {
        mutated = true; // never-active branch: drop it
        ++stats_.pmux_branches_removed;
        continue;
      }
      if (d == CtrlDecision::One) {
        // Selected unless an earlier kept branch fires; later branches and
        // the default are dead.
        new_a = b.extract(i * width, width);
        truncated = true;
        mutated = true;
        ++stats_.pmux_branches_removed;
        continue;
      }
      new_s.append(s[i]);
      new_b.append(b.extract(i * width, width));
      kept_sel.push_back(index_.sigmap()(s[i]));
    }

    if (mutated)
      changed_ = true;

    // Recurse into surviving branches with their path conditions.
    std::vector<KnownMap*> branch_known;
    std::vector<std::pair<SigSpec, const KnownMap*>> branches;
    for (int i = 0; i < new_s.size(); ++i) {
      KnownMap* k = acquire_known();
      *k = known;
      for (int j = 0; j < i; ++j)
        if (kept_sel[static_cast<size_t>(j)].is_wire())
          (*k)[kept_sel[static_cast<size_t>(j)]] = false;
      const SigBit si = index_.sigmap()(new_s[i]);
      if (si.is_wire())
        (*k)[si] = true;
      branch_known.push_back(k);
      branches.emplace_back(new_b.extract(i * width, width), k);
    }
    {
      KnownMap* k = acquire_known();
      *k = known;
      for (const SigBit& sb : kept_sel)
        if (sb.is_wire())
          (*k)[sb] = false;
      branch_known.push_back(k);
      branches.emplace_back(new_a, k);
    }
    descend_branches(c, known, branches);
    for (auto it = branch_known.rbegin(); it != branch_known.rend(); ++it)
      release_known(*it);

    if (!mutated)
      return;
    // Rewrite the cell with the surviving branches. A one-branch pmux stays
    // a pmux here (opt_expr converts it to $mux later): adding replacement
    // cells mid-sweep would leave the Y bits double-driven until removal.
    if (new_s.empty()) {
      journal_.connects.emplace_back(c->port(Port::Y), new_a);
      removed_.insert(c);
      journal_.removed.push_back(c);
    } else {
      c->set_port(Port::A, new_a);
      c->set_port(Port::B, new_b);
      c->set_port(Port::S, new_s);
      c->infer_widths();
      journal_mutated(c);
    }
  }

private:
  const NetlistIndex& index_;
  MuxtreeOracle& oracle_;
  MuxtreeStats& stats_;
  SweepJournal& journal_;
  DecisionTrace* trace_;
  uint32_t iteration_;
  uint32_t root_id_ = 0;
  std::unordered_set<Cell*> removed_;
  std::unordered_set<Cell*> mutated_;
  std::vector<std::unique_ptr<KnownMap>> owned_;
  std::vector<KnownMap*> free_;
};

MuxtreeWalker::MuxtreeWalker(const NetlistIndex& index, MuxtreeOracle& oracle,
                             MuxtreeStats& stats, SweepJournal& journal,
                             DecisionTrace* trace, uint32_t iteration)
    : impl_(std::make_unique<Impl>(index, oracle, stats, journal, trace, iteration)) {}

MuxtreeWalker::~MuxtreeWalker() = default;

void MuxtreeWalker::walk_root(Cell* root) { impl_->walk_root(root); }

bool MuxtreeWalker::changed() const noexcept { return impl_->changed_; }

void apply_sweep_journal(Module& module, NetlistIndex& index, const SweepJournal& journal,
                         bool finalize) {
  // Removals first: their driver entries must be gone before aliasing merges
  // their output class onto the kept input (a rebuild of the edited module
  // sees exactly one driver per merged net).
  for (Cell* c : journal.removed)
    index.remove_cell(c);
  // Added cells (fraig inverters) next: they read nets whose drivers the
  // removals did not touch and take freed topo positions, so indexing them
  // before the aliases keeps their reader entries keyed like a rebuild's
  // (the connects below only merge classes *onto* surviving representatives).
  for (const SweepJournal::AddedCell& a : journal.added)
    index.add_cell(a.cell, a.topo_pos);
  // Connects next, through the index into the module, whose map the index
  // reads.
  for (const auto& [lhs, rhs] : journal.connects)
    index.connect(module, lhs, rhs);
  // Mutated survivors last, so their fresh reader entries are keyed under
  // the post-connect canonical bits.
  std::unordered_set<Cell*> dead(journal.removed.begin(), journal.removed.end());
  for (Cell* c : journal.mutated)
    if (!dead.count(c))
      index.refresh_cell_reads(c);
  module.remove_cells(journal.removed);
  if (finalize)
    index.compact_topo();
}

MuxtreeStats optimize_muxtrees(Module& module, MuxtreeOracle& oracle, DecisionTrace* trace) {
  MuxtreeStats stats;
  NetlistIndex index(module);
  SweepJournal journal;
  for (size_t i = 0; i < kMaxSweepIterations; ++i) {
    ++stats.iterations;
    oracle.begin_module(module, index);
    journal.clear();
    MuxtreeWalker walker(index, oracle, stats, journal, trace, static_cast<uint32_t>(i));
    const MuxtreeForest forest = muxtree_forest(module, index);
    for (Cell* root : forest.roots)
      walker.walk_root(root);
    if (!walker.changed())
      break;
    apply_sweep_journal(module, index, journal);
  }
  return stats;
}

} // namespace smartly::opt
