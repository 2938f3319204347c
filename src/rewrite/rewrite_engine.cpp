#include "rewrite/rewrite_engine.hpp"

#include "aig/aigmap.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/muxtree_walker.hpp" // SweepJournal + apply_sweep_journal
#include "rewrite/cut_enum.hpp"
#include "rewrite/npn.hpp"
#include "rewrite/rewrite_lib.hpp"
#include "rtlil/id_set.hpp"
#include "rtlil/topo.hpp"
#include "sim/packed_sim.hpp"
#include "sweep/equiv_classes.hpp" // shared structural keys
#include "util/fault.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace smartly::rewrite {

// The engine extracts cut functions under sim::cut_projection and interprets
// them under rewrite::kProjection (cofactors, programs, NPN transforms). The
// two definitions live in layers that must not depend on each other, so pin
// their equality here, where both are visible.
static_assert(sim::cut_projection(0) == kProjection[0] &&
                  sim::cut_projection(1) == kProjection[1] &&
                  sim::cut_projection(2) == kProjection[2] &&
                  sim::cut_projection(3) == kProjection[3],
              "sim::cut_projection and rewrite::kProjection must agree");

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

/// Anchors: per AIG literal (node, polarity) the module bit with the lowest
/// rtlil::bit_id (wire creation order, then offset) whose value equals it,
/// so the choice is a pure function of the module. A literal-indexed table
/// holds each anchor's position in a list of the anchored bits; both are
/// refilled every round.
class AnchorTable {
public:
  void fill(const aig::AigMap& blast) {
    slot_.assign(2 * blast.aig.num_nodes(), kNone);
    bits_.clear();
    blast.for_each_bit([&](const SigBit& bit, aig::Lit lit) {
      uint32_t& slot = slot_[lit];
      if (slot == kNone) {
        slot = static_cast<uint32_t>(bits_.size());
        bits_.push_back(bit);
      }
    });
  }
  /// The anchor of `lit`, or nullptr.
  const SigBit* find(aig::Lit lit) const {
    return slot_[lit] == kNone ? nullptr : &bits_[slot_[lit]];
  }

private:
  static constexpr uint32_t kNone = 0xffffffffu;
  std::vector<uint32_t> slot_; ///< by literal: index into bits_, or kNone
  std::vector<SigBit> bits_;
};

struct LeafRef {
  SigBit bit;
  aig::Lit lit = 0; ///< leaf literal the truth table was extracted over
};

struct BitCandidate {
  bool valid = false;
  uint8_t nleaves = 0;
  std::array<LeafRef, 4> leaves;
  TruthTable tt = 0;
  uint16_t npn_class = 0;
  const GateProgram* prog = nullptr;
  /// Per program op: an anchored live bit computing the op's function (the
  /// optimistic DAG-sharing credit); default-constructed when none.
  std::array<SigBit, kMaxProgramOps> op_reuse;
  uint32_t new_ops = 0;
  /// Estimated AIG gain: cone nodes a commit would free (deref walk over
  /// global fanout counts, root unconditionally freed because its net is
  /// re-driven) minus the AIG cost of the non-reused program gates. The
  /// primary ranking signal; the RTLIL cell gate still decides the commit.
  int gain_est = 0;
};

/// AIG node cost of one program gate (Not is free on complement edges;
/// constant mux legs fold: x?0:g is one AND, x?g:1 is two).
int gate_aig_cost(const GateOp& op) {
  switch (op.type) {
  case CellType::Not: return 0;
  case CellType::And:
  case CellType::Or: return 1;
  case CellType::Mux:
    if (op.b.kind == GateOperand::Const0)
      return 1;
    if (op.a.kind == GateOperand::Const1)
      return 2;
    return 3;
  default: return 3; // Xor
  }
}

/// Cone nodes freed if `root_node`'s net were re-driven: the root plus every
/// interior node whose references all come from freed nodes (leaves stop the
/// walk). `nfan` holds whole-graph reference counts including outputs;
/// `remaining` (sized for `g`) holds the walk's decremented counts.
int freed_cone_nodes(const aig::Aig& g, uint32_t root_node, const aig::Lit* leaves,
                     size_t num_leaves, const std::vector<uint32_t>& nfan,
                     sim::NodeScratch& remaining) {
  const auto is_leaf = [&](uint32_t n) {
    for (size_t i = 0; i < num_leaves; ++i)
      if (aig::lit_node(leaves[i]) == n)
        return true;
    return false;
  };
  remaining.begin();
  int freed = 0;
  std::vector<uint32_t>& stack = remaining.stack;
  stack.assign(1, root_node);
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    ++freed;
    for (const aig::Lit f : {g.fanin0(n), g.fanin1(n)}) {
      const uint32_t c = aig::lit_node(f);
      if (!g.is_and(c) || is_leaf(c))
        continue;
      if (!remaining.has(c))
        remaining.set(c, nfan[c]);
      if (remaining[c] > 0 && --remaining[c] == 0)
        stack.push_back(c);
    }
  }
  return freed;
}

/// The round's root work list, flat: per root its cell and a range of the
/// per-output-bit arrays, refilled every round.
struct RootList {
  struct Root {
    Cell* cell;
    uint32_t first, last; ///< output bits [first, last) of raw/canon/lits
  };
  std::vector<Root> roots;
  std::vector<SigBit> raw;    ///< output port bits, port order
  std::vector<SigBit> canon;  ///< canonical counterparts
  std::vector<aig::Lit> lits; ///< blast literals (AND-backed)

  void clear() {
    roots.clear();
    raw.clear();
    canon.clear();
    lits.clear();
  }
};
using RootWork = RootList::Root;

/// Stable id of a root: its first canonical output bit's name hash. The
/// recovery layer quarantines roots under this id ("rewrite.eval"), and
/// unit-keyed fault plans key on it. Wire-name-based (not cell-name-based)
/// so the id survives a write_verilog round-trip in repro bundles.
uint64_t root_unit_id(const RootList& list, const RootWork& work) {
  const SigBit& bit = list.canon[work.first];
  return bit.is_wire() ? util::bit_unit_id(bit.wire->name(), bit.offset) : 1;
}

/// Structural key -> the first cell given that key (the notion shared with
/// opt_merge and the fraig pre-merge), in open addressing with linear
/// probing, at most half full; kept across rounds.
class StructMap {
public:
  void reset(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected)
      cap *= 2;
    slots_.assign(cap, Slot{});
    used_ = 0;
  }
  Cell* find(const Hash128& key) const {
    const Slot& s = slots_[probe(key)];
    return s.cell;
  }
  /// Add `cell` under `key` unless the key already has a cell.
  void insert(const Hash128& key, Cell* cell) {
    Slot& s = slots_[probe(key)];
    if (s.cell != nullptr)
      return;
    s = {key, cell};
    if (++used_ * 2 > slots_.size()) {
      std::vector<Slot> old(slots_.size() * 2);
      old.swap(slots_);
      for (const Slot& o : old)
        if (o.cell != nullptr)
          slots_[probe(o.key)] = o;
    }
  }

private:
  struct Slot {
    Hash128 key;
    Cell* cell = nullptr; ///< nullptr: empty
  };
  size_t probe(const Hash128& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash128Hasher{}(key) & mask;
    while (slots_[i].cell != nullptr && slots_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }
  std::vector<Slot> slots_;
  size_t used_ = 0;
};

/// Deterministic candidate priority: larger estimated AIG gain, then fewer
/// new gates, then shorter program, then smaller cut, then truth table, then
/// leaf literals.
bool better_candidate(const BitCandidate& a, const BitCandidate& b) {
  if (!b.valid)
    return a.valid;
  if (!a.valid)
    return false;
  if (a.gain_est != b.gain_est)
    return a.gain_est > b.gain_est;
  if (a.new_ops != b.new_ops)
    return a.new_ops < b.new_ops;
  if (a.prog->ops.size() != b.prog->ops.size())
    return a.prog->ops.size() < b.prog->ops.size();
  if (a.nleaves != b.nleaves)
    return a.nleaves < b.nleaves;
  if (a.tt != b.tt)
    return a.tt < b.tt;
  for (size_t i = 0; i < a.nleaves; ++i)
    if (a.leaves[i].lit != b.leaves[i].lit)
      return a.leaves[i].lit < b.leaves[i].lit;
  return false;
}

/// Status of one program op inside a plan. New ops become Shared once
/// materialized, so downstream operand resolution is uniform.
struct OpPlan {
  enum Kind : uint8_t { Reused, Shared, New } kind = New;
  uint32_t first = 0; ///< Shared: its output bits start at RoundState::op_bits[first]
  uint32_t width = 0; ///< Shared: 1 for an op uniform across its group, else the group size
};

/// A root's output bits sharing (program, reuse pattern, mux selects).
struct Group {
  const GateProgram* prog = nullptr;
  uint32_t first = 0, last = 0; ///< members: RoundState::order[first, last)
  std::array<OpPlan, kMaxProgramOps> ops;
};

/// Ports of one group op, built alike for the structural-key dry probe and
/// the real cell, so the probed key is the built cell's. An op whose
/// operands agree across the word (shared selector logic) gets width 1.
struct OpPorts {
  SigSpec a, b, s, y;
  int width = 0;
  /// Y: `width` bits of `wire`, or constant 0 bits for a probe.
  void set_output(rtlil::Wire* wire) {
    y.clear();
    for (int i = 0; i < width; ++i)
      y.append(wire != nullptr ? SigBit(wire, i) : SigBit(State::S0));
  }
};

/// A root's plan: its groups (RoundState::groups), predicted-dead cone
/// (RoundState::mffc) and the cells committing it adds and credits.
struct Plan {
  size_t new_cells = 0, reused_ops = 0, shared_ops = 0;
  long gain = 0; ///< RTLIL cells freed (root + predicted-dead cone) minus cells added
};

/// The state a sweep's rounds share, refilled in place so that no phase
/// allocates per root: the round-start tables evaluation reads, the overlays
/// through which planning sees this round's earlier commits, and scratch.
struct RoundState {
  RoundState(rtlil::Module& m, const RewriteOptions& o)
      : module(m), options(o), index(m), library(RewriteLibrary::instance()),
        npn(NpnTable::instance()), class_seen(npn.num_classes(), 0) {}
  rtlil::Module& module;
  const RewriteOptions& options;
  rtlil::NetlistIndex index;
  const RewriteLibrary& library;
  const NpnTable& npn;
  RewriteStats stats;
  std::vector<uint8_t> class_seen; ///< per NPN class: chosen by a complete evaluation

  // Round-start tables.
  aig::AigMap blast;
  CutSet cutset;
  std::vector<uint32_t> nfan; ///< whole-graph reference counts (fanins + outputs)
  AnchorTable anchors;
  RootList roots;
  sim::NodeScratch cone_scratch;

  // Commit overlays.
  StructMap struct_map;      ///< round-start cells, then every cell materialized
  rtlil::IdSet claimed;      ///< roots committed for removal
  rtlil::IdSet counted_dead; ///< MFFC cells already credited
  rtlil::IdMap new_cell_pos; ///< cells materialized this round -> their topo position
  opt::SweepJournal journal;
  size_t total_commits = 0, positive_commits = 0, skipped = 0;

  // Per-root scratch, refilled for each root.
  std::vector<BitCandidate> best; ///< by output bit offset in the root; grows, never shrinks
  std::vector<uint64_t> keys;      ///< the root's group keys, back to back
  std::vector<uint32_t> key_first; ///< output bit j's key: keys[key_first[j], key_first[j + 1])
  std::vector<uint32_t> order;     ///< the root's output-bit indices, grouped
  std::vector<Group> groups;
  std::vector<SigBit> op_bits; ///< output bits of Shared ops
  OpPorts ports;
  std::vector<Cell> probes; ///< detached probe cells, one per gate type
  rtlil::IdSet keep_alive;  ///< cells the replacement keeps reading
  std::vector<Cell*> mffc, cone, frontier, next;
  rtlil::IdSet cone_seen, cone_dead;
  /// The detached cell probing ops of `type`, reused so its ports keep storage.
  Cell& probe(CellType type) {
    for (Cell& c : probes)
      if (c.type() == type)
        return c;
    return probes.emplace_back(&module, "$rewrite_probe", type);
  }
};

/// Build the round-start tables (blast, cuts, then under rewrite.setup the
/// counts, anchors, roots and structural-key map); empty the overlays.
void setup_round(RoundState& st) {
  {
    const obs::Span s("rewrite", "rewrite.blast");
    st.blast = aig::aigmap(st.module, st.index);
  }
  if (st.stats.rounds == 1)
    st.stats.aig_nodes = st.blast.aig.num_nodes();
  {
    const obs::Span s("rewrite", "rewrite.cuts");
    enumerate_cuts(st.blast.aig, CutOptions{st.options.cut_limit}, st.cutset);
  }
  st.stats.cuts += st.cutset.arena.size();
  const obs::Span setup_span("rewrite", "rewrite.setup");
  const aig::Aig& g = st.blast.aig;
  const rtlil::NetlistIndex& index = st.index;
  // Whole-graph reference counts (fanins + outputs) for the candidate
  // ranking's deref walks.
  st.nfan.assign(g.num_nodes(), 0);
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    if (!g.is_and(n))
      continue;
    ++st.nfan[aig::lit_node(g.fanin0(n))];
    ++st.nfan[aig::lit_node(g.fanin1(n))];
  }
  for (size_t i = 0; i < g.num_outputs(); ++i)
    ++st.nfan[aig::lit_node(g.output(static_cast<int>(i)))];
  st.cone_scratch.resize(g.num_nodes());

  // Anchors: the bit id is the deterministic tie-break here and in the
  // group keys (bit hashes are pointer-based and would leak allocator
  // layout into the result).
  st.anchors.fill(st.blast);

  // Root work list: combinational cells whose every output bit is a live,
  // canonically self-driven wire bit backed by an AND node.
  RootList& roots = st.roots;
  roots.clear();
  for (const auto& cptr : st.module.cells()) {
    Cell* cell = cptr.get();
    if (cell->type() == CellType::Dff)
      continue;
    RootWork work{cell, static_cast<uint32_t>(roots.raw.size()), 0};
    bool ok = true, any_read = false;
    for (const SigBit& raw : cell->port(cell->output_port())) {
      const SigBit c = index.sigmap()(raw);
      const aig::Lit lit =
          c.is_wire() && index.driver(c) == cell ? st.blast.find(c) : aig::kNoLit;
      if (lit == aig::kNoLit || !g.is_and(aig::lit_node(lit))) {
        ok = false;
        break;
      }
      if (index.fanout(c) > 0)
        any_read = true;
      roots.raw.push_back(raw);
      roots.canon.push_back(c);
      roots.lits.push_back(lit);
    }
    work.last = static_cast<uint32_t>(roots.raw.size());
    const bool keep = ok && any_read && work.last != work.first;
    if (keep && st.options.quarantine != nullptr &&
        st.options.quarantine->contains("rewrite.eval", root_unit_id(roots, work))) {
      // Quarantined root: never evaluated.
      ++st.stats.quarantined;
    } else if (keep) {
      roots.roots.push_back(work);
      continue;
    }
    roots.raw.resize(work.first); // drop the rejected root's bits
    roots.canon.resize(work.first);
    roots.lits.resize(work.first);
  }
  st.stats.roots_evaluated += roots.roots.size();

  // Structural-key map over the round-start module (the notion shared with
  // opt_merge and the fraig pre-merge): planned cells fold onto existing
  // twins instead of duplicating them. Commits add the cells they
  // materialize.
  st.struct_map.reset(st.module.cell_count());
  for (const auto& cptr : st.module.cells())
    if (cptr->type() != CellType::Dff)
      st.struct_map.insert(sweep::cell_structural_key(*cptr, index.sigmap()), cptr.get());

  st.claimed.clear();
  st.counted_dead.clear();
  st.new_cell_pos = rtlil::IdMap();
  st.total_commits = st.positive_commits = st.skipped = 0;
}

/// The AIG literal of a program operand, given the literals of the cut's
/// leaves and of the program's earlier ops.
aig::Lit operand_lit(const GateOperand& o, const aig::Lit* leaves, const aig::Lit* ops) {
  switch (o.kind) {
  case GateOperand::Const0: return aig::kFalse;
  case GateOperand::Const1: return aig::kTrue;
  case GateOperand::Leaf: return leaves[o.index];
  case GateOperand::Node: return ops[o.index];
  }
  return aig::kNoLit;
}

/// The existing AIG literal that computes `op` (strash probes that fold as
/// the builders do), or kNoLit.
aig::Lit find_op(const aig::Aig& g, const GateOp& op, const aig::Lit* leaves,
                 const aig::Lit* ops) {
  const auto lit = [&](const GateOperand& o) { return operand_lit(o, leaves, ops); };
  switch (op.type) {
  case CellType::Not: return aig::find_not(lit(op.a));
  case CellType::And: return g.find_and(lit(op.a), lit(op.b));
  case CellType::Or: return g.find_or(lit(op.a), lit(op.b));
  case CellType::Xor: return g.find_xor(lit(op.a), lit(op.b));
  // y = s ? t : e; the GateOp convention is y = s ? b : a.
  case CellType::Mux: return g.find_mux(lit(op.s), lit(op.b), lit(op.a));
  default: return aig::kNoLit;
  }
}

/// Evaluate phase: the best candidate of each output bit of `work` into
/// st.best, from the round-start tables only, charging the candidates it
/// ranks. False at the first bit without a candidate.
bool evaluate_root(RoundState& st, const RootWork& work) {
  const obs::Span root_span("rewrite", "rewrite.eval", "root",
                            obs::tracing_enabled() ? root_unit_id(st.roots, work) : 0);
  const aig::Aig& g = st.blast.aig;
  const int root_pos = st.index.topo_position(work.cell);
  // An anchor is wireable from this root's replacement (which takes the
  // root's topo slot) only if its driver sits strictly before the root.
  // Structurally identical cells strash to one node, so an anchor can sit
  // anywhere in the netlist, including after the root.
  const auto wireable = [&](const SigBit& bit) {
    Cell* drv = st.index.driver(bit);
    if (drv == work.cell)
      return false;
    if (!drv || drv->type() == CellType::Dff)
      return true;
    return st.index.topo_position(drv) < root_pos;
  };
  if (st.best.size() < work.last - work.first)
    st.best.resize(work.last - work.first);
  for (uint32_t i = work.first; i < work.last; ++i) {
    const aig::Lit root_lit = st.roots.lits[i];
    const uint32_t node = aig::lit_node(root_lit);
    BitCandidate& best = st.best[i - work.first];
    best.valid = false;
    for (const Cut& cut : st.cutset.cuts(node)) {
      BitCandidate cand;
      cand.nleaves = cut.size;
      bool usable = true;
      aig::Lit leaf_lits[4];
      for (size_t li = 0; li < cut.size; ++li) {
        const SigBit* pos = st.anchors.find(aig::mk_lit(cut.leaves[li]));
        const SigBit* a =
            pos != nullptr ? pos : st.anchors.find(aig::mk_lit(cut.leaves[li], true));
        if (a == nullptr || !wireable(*a)) {
          usable = false;
          break;
        }
        cand.leaves[li].bit = *a;
        cand.leaves[li].lit = aig::mk_lit(cut.leaves[li], pos == nullptr);
        leaf_lits[li] = cand.leaves[li].lit;
      }
      if (!usable ||
          !sim::cut_truth_table(g, root_lit, leaf_lits, cut.size, cand.tt, st.cone_scratch))
        continue;
      cand.valid = true;
      cand.npn_class = st.npn.class_id(cand.tt);
      cand.prog = &st.library.program(cand.tt);
      ++st.stats.candidates;
      // Optimistic DAG-sharing: compose each op's AIG literal from strash
      // probes; an anchored wireable bit of the right polarity is a reuse
      // credit (validated again in the plan phase).
      const GateProgram& prog = *cand.prog;
      std::array<aig::Lit, kMaxProgramOps> op_lits{};
      int build_cost = 0;
      for (size_t k = 0; k < prog.ops.size(); ++k) {
        const aig::Lit lit = find_op(g, prog.ops[k], leaf_lits, op_lits.data());
        op_lits[k] = lit;
        const SigBit* a = lit != aig::kNoLit && lit != aig::kFalse && lit != aig::kTrue
                              ? st.anchors.find(lit)
                              : nullptr;
        if (a != nullptr && wireable(*a)) {
          cand.op_reuse[k] = *a;
        } else {
          ++cand.new_ops;
          build_cost += gate_aig_cost(prog.ops[k]);
        }
      }
      // A candidate whose output resolves to the root's own literal
      // reconstructs the existing implementation (or merges onto a twin
      // fraig already handles): committing it could never shrink the
      // graph, and it would shadow genuinely restructuring candidates.
      if (operand_lit(prog.out, leaf_lits, op_lits.data()) == root_lit)
        continue;
      cand.gain_est =
          freed_cone_nodes(g, node, leaf_lits, cut.size, st.nfan, st.cone_scratch) - build_cost;
      if (better_candidate(cand, best))
        best = cand;
    }
    if (!best.valid)
      return false;
  }
  return true;
}

/// Whether a replacement in topo slot `root_pos` may read a bit driven by
/// `d`: not if this round already credited `d` as dead (its death is priced
/// into an earlier gain), and only if `d` sits before the root.
bool driver_valid(const RoundState& st, const Cell* d, int root_pos) {
  if (!d || d->type() == CellType::Dff)
    return true;
  if (st.counted_dead.contains(d->id()))
    return false;
  const uint32_t new_pos = st.new_cell_pos.find(d->id());
  const int pos =
      new_pos != rtlil::IdMap::kAbsent ? static_cast<int>(new_pos) : st.index.topo_position(d);
  return pos >= 0 && pos < root_pos;
}

/// Group the root's output bits: members sharing (program, reuse pattern,
/// mux selects) become one wide cell per non-reused op. Groups follow their
/// keys' order and members their bit order: a pure function of the module.
void group_members(RoundState& st, const RootWork& work) {
  const uint32_t n = work.last - work.first;
  st.keys.clear();
  st.key_first.clear();
  for (uint32_t j = 0; j < n; ++j) {
    const BitCandidate& cand = st.best[j];
    const GateProgram& prog = *cand.prog;
    st.key_first.push_back(static_cast<uint32_t>(st.keys.size()));
    st.keys.push_back(cand.tt);
    uint64_t reuse_mask = 0;
    for (size_t k = 0; k < prog.ops.size(); ++k)
      if (cand.op_reuse[k].is_wire())
        reuse_mask |= 1ull << k;
    st.keys.push_back(reuse_mask);
    // A Mux cell has a single select bit, so members only vectorize when
    // their selects resolve identically: key on the concrete select bit
    // (leaf select) or on the bits of the select cone's support (computed
    // select — identical support bits give identical cones).
    for (const GateOp& op : prog.ops) {
      if (op.type != CellType::Mux)
        continue;
      if (op.s.kind == GateOperand::Leaf) {
        st.keys.push_back(rtlil::bit_id(cand.leaves[op.s.index].bit));
      } else if (op.s.kind == GateOperand::Node) {
        const uint8_t support = tt_support(prog.ops[op.s.index].tt);
        for (uint8_t v = 0; v < 4; ++v)
          if (support & (1u << v))
            st.keys.push_back(rtlil::bit_id(cand.leaves[v].bit));
      }
    }
  }
  st.key_first.push_back(static_cast<uint32_t>(st.keys.size()));
  const auto key_less = [&](uint32_t a, uint32_t b) {
    const auto k = st.keys.begin();
    return std::lexicographical_compare(k + st.key_first[a], k + st.key_first[a + 1],
                                        k + st.key_first[b], k + st.key_first[b + 1]);
  };
  // Sorted by key, equal keys in bit order: a stable sort without its buffer.
  st.order.resize(n);
  std::iota(st.order.begin(), st.order.end(), 0u);
  std::sort(st.order.begin(), st.order.end(), [&](uint32_t a, uint32_t b) {
    return key_less(a, b) || (!key_less(b, a) && a < b);
  });
  st.groups.clear();
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || key_less(st.order[i - 1], st.order[i]))
      st.groups.push_back({st.best[st.order[i]].prog, i, i, {}});
    st.groups.back().last = i + 1;
  }
}

/// A group member's bit for a program operand, once the group's earlier ops
/// are decided. `m` is the member's position within the group (the lane of
/// a Shared op's output).
SigBit member_operand(const RoundState& st, const Group& g, const GateOperand& o, uint32_t m) {
  const BitCandidate& cand = st.best[st.order[g.first + m]];
  switch (o.kind) {
  case GateOperand::Const0: return SigBit(State::S0);
  case GateOperand::Const1: return SigBit(State::S1);
  case GateOperand::Leaf: return cand.leaves[o.index].bit;
  case GateOperand::Node: {
    const OpPlan& src = g.ops[o.index];
    return src.kind == OpPlan::Reused ? cand.op_reuse[o.index]
                                      : st.op_bits[src.first + (src.width == 1 ? 0 : m)];
  }
  }
  return SigBit(State::S0);
}

/// Fill st.ports' inputs and width for group op `op`.
void build_op_ports(RoundState& st, const Group& g, const GateOp& op) {
  OpPorts& ports = st.ports;
  const bool needs_b = op.type != CellType::Not;
  const uint32_t size = g.last - g.first;
  const SigBit a0 = member_operand(st, g, op.a, 0);
  const SigBit b0 = needs_b ? member_operand(st, g, op.b, 0) : SigBit();
  bool uniform = true;
  for (uint32_t m = 1; m < size && uniform; ++m)
    uniform = member_operand(st, g, op.a, m) == a0 &&
              (!needs_b || member_operand(st, g, op.b, m) == b0);
  ports.width = uniform ? 1 : static_cast<int>(size);
  ports.a.clear();
  ports.b.clear();
  ports.s.clear();
  for (int m = 0; m < ports.width; ++m) {
    ports.a.append(member_operand(st, g, op.a, static_cast<uint32_t>(m)));
    if (needs_b)
      ports.b.append(member_operand(st, g, op.b, static_cast<uint32_t>(m)));
  }
  if (op.type == CellType::Mux)
    ports.s.append(member_operand(st, g, op.s, 0));
}

void connect_op_ports(Cell& cell, const GateOp& op, const OpPorts& ports) {
  cell.set_port(Port::A, ports.a);
  if (op.type != CellType::Not)
    cell.set_port(Port::B, ports.b);
  if (op.type == CellType::Mux)
    cell.set_port(Port::S, ports.s);
  cell.set_port(Port::Y, ports.y);
  cell.infer_widths();
}

/// Whether `twin`, a cell under the probe's structural key, can stand in for
/// the probed op of a root at topo slot `root_pos`.
bool twin_usable(const RoundState& st, const Cell& probe, Cell* twin, int root_pos) {
  if (st.claimed.contains(twin->id()) || !driver_valid(st, twin, root_pos) ||
      !sweep::cell_structurally_identical(probe, *twin, st.index.sigmap()))
    return false;
  if (st.new_cell_pos.find(twin->id()) != rtlil::IdMap::kAbsent)
    return true; // materialized this round, onto a fresh wire
  for (const SigBit& raw : twin->port(twin->output_port())) {
    const SigBit c = st.index.sigmap()(raw);
    if (!c.is_wire() || st.index.driver(c) != twin)
      return false;
  }
  return true;
}

/// Decide each group op: Reused (AIG credit), Shared (structural twin) or
/// New. Ops whose operands reference a New op cannot be probed — no twin can
/// exist for wires not yet created. False when the root itself is a twin: a
/// no-op rewrite that would only churn names.
bool plan_ops(RoundState& st, const RootWork& work, int root_pos, Plan& plan) {
  const rtlil::SigMap& sigmap = st.index.sigmap();
  st.op_bits.clear();
  for (Group& g : st.groups) {
    const GateProgram& prog = *g.prog;
    const BitCandidate& first = st.best[st.order[g.first]];
    for (size_t k = 0; k < prog.ops.size(); ++k) {
      if (first.op_reuse[k].is_wire()) {
        g.ops[k].kind = OpPlan::Reused;
        ++plan.reused_ops;
        continue;
      }
      const GateOp& op = prog.ops[k];
      const auto resolvable = [&](const GateOperand& o) {
        return o.kind != GateOperand::Node || g.ops[o.index].kind != OpPlan::New;
      };
      if (resolvable(op.a) && (op.type == CellType::Not || resolvable(op.b)) &&
          (op.type != CellType::Mux || resolvable(op.s))) {
        // Dry probe: a detached cell with the ports the op would get.
        build_op_ports(st, g, op);
        st.ports.set_output(nullptr);
        Cell& probe = st.probe(op.type);
        connect_op_ports(probe, op, st.ports);
        Cell* twin = st.struct_map.find(sweep::cell_structural_key(probe, sigmap));
        if (twin == work.cell)
          return false;
        if (twin != nullptr && twin_usable(st, probe, twin, root_pos)) {
          g.ops[k] = {OpPlan::Shared, static_cast<uint32_t>(st.op_bits.size()), 0};
          for (const SigBit& raw : twin->port(twin->output_port()))
            st.op_bits.push_back(sigmap(raw));
          g.ops[k].width = static_cast<uint32_t>(st.op_bits.size()) - g.ops[k].first;
          st.keep_alive.insert(twin->id());
          ++plan.shared_ops;
          continue;
        }
      }
      ++plan.new_cells;
    }
  }
  return true;
}

/// Predicted-dead fanin cone of `root` (the RTLIL MFFC) into st.mffc: cells
/// none of whose output bits reach an output port or a reader outside the
/// dying set. The cone is bounded (depth/size) and stops at st.keep_alive and
/// at cells this round already claimed or counted. It only feeds the gain
/// accounting (opt_clean removes), so a miss costs quality, not correctness.
void predicted_mffc(RoundState& st, Cell* root) {
  constexpr size_t kMaxCone = 64;
  constexpr int kMaxDepth = 6;
  const rtlil::NetlistIndex& index = st.index;
  std::vector<Cell*>& cone = st.cone;
  cone.clear();
  st.cone_seen.clear();
  st.cone_seen.insert(root->id());
  st.frontier.assign(1, root);
  for (int depth = 0; depth < kMaxDepth && !st.frontier.empty() && cone.size() < kMaxCone;
       ++depth) {
    st.next.clear();
    for (size_t f = 0; f < st.frontier.size() && cone.size() < kMaxCone; ++f) {
      const Cell* c = st.frontier[f];
      for (Port p : c->input_ports()) {
        for (const SigBit& raw : c->port(p)) {
          if (cone.size() >= kMaxCone)
            break;
          const SigBit b = index.sigmap()(raw);
          if (!b.is_wire())
            continue;
          Cell* d = index.driver(b);
          if (!d || d->type() == CellType::Dff || st.keep_alive.contains(d->id()) ||
              st.claimed.contains(d->id()) || st.counted_dead.contains(d->id()) ||
              !st.cone_seen.insert(d->id()))
            continue;
          cone.push_back(d);
          st.next.push_back(d);
        }
      }
    }
    std::swap(st.frontier, st.next);
  }

  // A cone cell dies once every reader of each of its output bits dies.
  const auto dies = [&](const Cell* c) {
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit b = index.sigmap()(raw);
      if (!b.is_wire())
        continue;
      if (index.driver(b) != c || index.drives_output_port(b))
        return false;
      for (const Cell* r : index.readers(b))
        if (!st.cone_dead.contains(r->id()))
          return false;
    }
    return true;
  };
  st.cone_dead.clear();
  st.cone_dead.insert(root->id());
  for (bool changed = true; changed;) {
    changed = false;
    for (const Cell* c : cone) {
      if (!st.cone_dead.contains(c->id()) && dies(c)) {
        st.cone_dead.insert(c->id());
        changed = true;
      }
    }
  }
  st.mffc.clear();
  for (Cell* c : cone)
    if (st.cone_dead.contains(c->id()))
      st.mffc.push_back(c);
}

/// Plan phase: re-validate the root's candidates against this round's
/// earlier commits, group its output bits, probe each group op for a
/// structural twin and gate the plan on its gain. True when the plan is to
/// be committed.
bool plan_root(RoundState& st, const RootWork& work, Plan& plan) {
  Cell* root = work.cell;
  if (st.claimed.contains(root->id()) || st.counted_dead.contains(root->id()))
    return false;
  const int root_pos = st.index.topo_position(root);
  // Re-validate each bit's leaves and reuse credits, collecting the cells
  // the replacement keeps reading.
  st.keep_alive.clear();
  long plan_gain_est = 0;
  for (uint32_t j = 0; j < work.last - work.first; ++j) {
    BitCandidate& cand = st.best[j];
    for (size_t li = 0; li < cand.nleaves; ++li) {
      const Cell* d = st.index.driver(cand.leaves[li].bit);
      if (!driver_valid(st, d, root_pos))
        return false; // the next round re-evaluates against the updated netlist
      if (d != nullptr)
        st.keep_alive.insert(d->id());
    }
    for (size_t k = 0; k < cand.prog->ops.size(); ++k) {
      SigBit& bit = cand.op_reuse[k];
      const Cell* d = bit.is_wire() ? st.index.driver(bit) : nullptr;
      if (!driver_valid(st, d, root_pos))
        bit = SigBit(); // drop the credit; the op is materialized instead
      else if (d != nullptr)
        st.keep_alive.insert(d->id());
    }
    plan_gain_est += cand.gain_est;
  }
  group_members(st, work);
  if (!plan_ops(st, work, root_pos, plan)) {
    ++st.stats.plans_noop;
    return false;
  }
  // Gain in RTLIL cells: the root plus its predicted-dead cone against the
  // cells actually materialized.
  predicted_mffc(st, root);
  plan.gain = 1 + static_cast<long>(st.mffc.size()) - static_cast<long>(plan.new_cells);
  // Cell-neutral commits reshape logic without freeing cells, which the
  // fraig stage after them can often merge, but they must still shrink the
  // AIG (the paper's area metric): the summed per-bit estimates gate out
  // pure churn. Rounds whose commits are all cell-neutral end the sweep.
  if (plan.gain < 0 || (plan.gain == 0 && plan_gain_est <= 0)) {
    ++st.stats.plans_rejected;
    return false;
  }
  return true;
}

/// Commit phase: materialize the plan's New ops, re-drive the root's bits
/// and record both in the round's journal and overlays. New cells take the
/// root's topo position in program order, which compact_topo's stable sort
/// preserves, so intra-plan dependencies stay topologically valid.
void commit_plan(RoundState& st, const RootWork& work, const Plan& plan) {
  const obs::Span commit_span("rewrite", "rewrite.commit", "root",
                              obs::tracing_enabled() ? root_unit_id(st.roots, work) : 0);
  const int root_pos = st.index.topo_position(work.cell);
  for (Group& g : st.groups) {
    for (size_t k = 0; k < g.prog->ops.size(); ++k) {
      if (g.ops[k].kind != OpPlan::New)
        continue;
      const GateOp& op = g.prog->ops[k];
      build_op_ports(st, g, op);
      st.ports.set_output(st.module.new_wire(st.ports.width, "$rewrite"));
      Cell* cell = st.module.add_cell(op.type);
      connect_op_ports(*cell, op, st.ports);
      st.journal.added.push_back({cell, root_pos});
      st.new_cell_pos.set(cell->id(), static_cast<uint32_t>(root_pos));
      st.struct_map.insert(sweep::cell_structural_key(*cell, st.index.sigmap()), cell);
      g.ops[k] = {OpPlan::Shared, static_cast<uint32_t>(st.op_bits.size()),
                  static_cast<uint32_t>(st.ports.width)};
      st.op_bits.insert(st.op_bits.end(), st.ports.y.begin(), st.ports.y.end());
      ++st.stats.cells_added;
    }
  }
  SigSpec lhs, rhs;
  for (const Group& g : st.groups) {
    for (uint32_t m = 0; m < g.last - g.first; ++m) {
      lhs.append(st.roots.raw[work.first + st.order[g.first + m]]);
      rhs.append(member_operand(st, g, g.prog->out, m));
    }
  }
  st.journal.removed.push_back(work.cell);
  st.journal.connects.emplace_back(std::move(lhs), std::move(rhs));
  // Per-commit gain histogram: fed in canonical root order from
  // deterministic plan accounting.
  static obs::Histogram& h_gain = obs::histogram("rewrite.gain");
  h_gain.observe(static_cast<uint64_t>(plan.gain));
  st.claimed.insert(work.cell->id());
  for (const Cell* c : st.mffc)
    st.counted_dead.insert(c->id());
  ++st.total_commits;
  if (plan.gain > 0)
    ++st.positive_commits;
  ++st.stats.rewrites;
  if (plan.gain == 0)
    ++st.stats.zero_gain_rewrites;
  st.stats.gates_reused += plan.reused_ops;
  st.stats.cells_shared += plan.shared_ops;
  st.stats.predicted_dead += st.mffc.size();
}

} // namespace

RewriteStats& operator+=(RewriteStats& acc, const RewriteStats& s) {
  acc.rounds += s.rounds;
  acc.aig_nodes += s.aig_nodes;
  acc.cuts += s.cuts;
  acc.roots_evaluated += s.roots_evaluated;
  acc.candidates += s.candidates;
  acc.npn_classes += s.npn_classes;
  acc.rewrites += s.rewrites;
  acc.zero_gain_rewrites += s.zero_gain_rewrites;
  acc.plans_rejected += s.plans_rejected;
  acc.plans_noop += s.plans_noop;
  acc.cells_added += s.cells_added;
  acc.gates_reused += s.gates_reused;
  acc.cells_shared += s.cells_shared;
  acc.predicted_dead += s.predicted_dead;
  acc.skipped_roots += s.skipped_roots;
  acc.quarantined += s.quarantined;
  acc.halted += s.halted;
  return acc;
}

bool same_work(const RewriteStats& a, const RewriteStats& b) {
  return a.rounds == b.rounds && a.aig_nodes == b.aig_nodes && a.cuts == b.cuts &&
         a.roots_evaluated == b.roots_evaluated && a.candidates == b.candidates &&
         a.npn_classes == b.npn_classes && a.rewrites == b.rewrites &&
         a.zero_gain_rewrites == b.zero_gain_rewrites &&
         a.plans_rejected == b.plans_rejected && a.plans_noop == b.plans_noop &&
         a.cells_added == b.cells_added &&
         a.gates_reused == b.gates_reused && a.cells_shared == b.cells_shared &&
         a.predicted_dead == b.predicted_dead && a.skipped_roots == b.skipped_roots &&
         a.quarantined == b.quarantined && a.halted == b.halted;
}

RewriteStats rewrite_sweep(rtlil::Module& module, const RewriteOptions& options) {
  const obs::Span engine_span("rewrite", "rewrite.sweep", "cells",
                              static_cast<uint64_t>(module.cell_count()));
  RoundState st(module, options);
  util::ResourceGuard* guard = options.guard;
  if (guard != nullptr)
    guard->set_growth_baseline(module.cell_count());

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // The growth cap is checked against the post-commit cell count.
    const util::RoundEntry entry = util::enter_round(guard, options.quarantine, "rewrite.round",
                                                     round + 1, module.cell_count());
    if (entry == util::RoundEntry::Skip) {
      ++st.stats.quarantined;
      continue;
    }
    if (entry == util::RoundEntry::Halt) {
      ++st.stats.halted;
      break;
    }
    ++st.stats.rounds;
    const obs::Span round_span("rewrite", "rewrite.round", "round",
                               static_cast<uint64_t>(round + 1));
    setup_round(st);

    // One canonical loop: evaluate root i against the round-start tables,
    // then plan and commit it against the overlays of the commits before
    // it. The index follows the commits only when the journal is applied.
    bool faulted = false;
    try {
      const obs::Span s("rewrite", "rewrite.roots", "roots",
                        static_cast<uint64_t>(st.roots.roots.size()));
      for (const RootWork& work : st.roots.roots) {
        // Mid-round halts come only from deadline/cancel: deterministic
        // budgets arm the sticky flag at the round barrier above.
        const bool halted = guard != nullptr && guard->poll();
        const bool complete = !halted && evaluate_root(st, work);
        // Fault point: one "rewrite.eval" event per evaluated root, in
        // canonical order. A throw ends the loop, leaving the committed prefix.
        if (halted || (util::faults_active() &&
                       util::fault_unknown("rewrite.eval", root_unit_id(st.roots, work)))) {
          ++st.skipped;
          continue;
        }
        if (!complete)
          continue;
        for (uint32_t j = 0; j < work.last - work.first; ++j)
          st.class_seen[st.best[j].npn_class] = 1;
        Plan plan;
        if (plan_root(st, work, plan))
          commit_plan(st, work, plan);
      }
    } catch (const util::FaultInjected& e) {
      // The committed prefix is already materialized and journaled. Injected
      // faults are absorbed; real errors keep propagating.
      faulted = true;
      util::halt_on_fault(guard, e);
    }
    st.blast = aig::AigMap(); // freed now, or two blasts would coexist in the next round
    if (!faulted) {
      st.stats.skipped_roots += st.skipped;
      if (guard != nullptr && st.skipped > 0)
        guard->note_skipped_rewrites(st.skipped);
    }
    if (!st.journal.empty()) {
      // Applied even on a faulted round: the committed prefix's cells and
      // connects are already in the module, and the index must follow them
      // for the post-halt consistency check.
      const obs::Span apply_span("rewrite", "rewrite.apply");
      opt::apply_sweep_journal(module, st.index, st.journal);
      st.journal.clear();
    }
    if (faulted) {
      ++st.stats.halted;
      break;
    }
    if (st.total_commits == 0 || st.positive_commits == 0)
      break; // idle round, or a zero-gain-only round (committed once, stop)
  }

  st.stats.npn_classes =
      static_cast<size_t>(std::count(st.class_seen.begin(), st.class_seen.end(), 1));
  if (options.check_index && !rtlil::index_consistent(module, st.index))
    throw std::logic_error("rewrite: incremental NetlistIndex diverged from rebuild");

  // Deterministic totals from the stats struct, published once per sweep.
  static obs::Counter& m_rounds = obs::counter("rewrite.rounds");
  static obs::Counter& m_roots = obs::counter("rewrite.roots_evaluated");
  static obs::Counter& m_rewrites = obs::counter("rewrite.rewrites");
  static obs::Counter& m_added = obs::counter("rewrite.cells_added");
  static obs::Counter& m_rejected = obs::counter("rewrite.plans_rejected");
  m_rounds.add(st.stats.rounds);
  m_roots.add(st.stats.roots_evaluated);
  m_rewrites.add(st.stats.rewrites);
  m_added.add(st.stats.cells_added);
  m_rejected.add(st.stats.plans_rejected);
  return st.stats;
}

} // namespace smartly::rewrite
