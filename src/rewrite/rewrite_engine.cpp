#include "rewrite/rewrite_engine.hpp"

#include "aig/aigmap.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/muxtree_walker.hpp" // SweepJournal + apply_sweep_journal
#include "rewrite/cut_enum.hpp"
#include "rewrite/npn.hpp"
#include "rewrite/rewrite_lib.hpp"
#include "rtlil/topo.hpp"
#include "sim/packed_sim.hpp"
#include "sweep/equiv_classes.hpp" // shared structural keys
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

#include <array>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

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

// --- strash probes ----------------------------------------------------------
//
// Price a program gate against the blast AIG without mutating it: compose
// the gate's AIG shape from find_and probes, propagating "no such node"
// (kNoLit). Each helper mirrors the folding of the corresponding Aig
// builder, so a probe resolves exactly when building the gate would not have
// grown the graph.

aig::Lit probe_not(aig::Lit a) { return a == aig::kNoLit ? aig::kNoLit : aig::lit_not(a); }

aig::Lit probe_and(const aig::Aig& g, aig::Lit a, aig::Lit b) {
  if (a == aig::kNoLit || b == aig::kNoLit)
    return aig::kNoLit;
  return g.find_and(a, b);
}

aig::Lit probe_or(const aig::Aig& g, aig::Lit a, aig::Lit b) {
  return probe_not(probe_and(g, probe_not(a), probe_not(b)));
}

aig::Lit probe_xor(const aig::Aig& g, aig::Lit a, aig::Lit b) {
  if (a == aig::kNoLit || b == aig::kNoLit)
    return aig::kNoLit;
  if (a == aig::kFalse)
    return b;
  if (a == aig::kTrue)
    return aig::lit_not(b);
  if (b == aig::kFalse)
    return a;
  if (b == aig::kTrue)
    return aig::lit_not(a);
  if (a == b)
    return aig::kFalse;
  if (a == aig::lit_not(b))
    return aig::kTrue;
  const aig::Lit t0 = probe_and(g, a, probe_not(b));
  const aig::Lit t1 = probe_and(g, probe_not(a), b);
  return probe_not(probe_and(g, probe_not(t0), probe_not(t1)));
}

/// y = s ? t : e (the GateOp convention is y = s ? b : a).
aig::Lit probe_mux(const aig::Aig& g, aig::Lit s, aig::Lit t, aig::Lit e) {
  if (s == aig::kNoLit || t == aig::kNoLit || e == aig::kNoLit)
    return aig::kNoLit;
  if (s == aig::kTrue)
    return t;
  if (s == aig::kFalse)
    return e;
  if (t == e)
    return t;
  if (t == aig::kTrue && e == aig::kFalse)
    return s;
  if (t == aig::kFalse && e == aig::kTrue)
    return aig::lit_not(s);
  return probe_not(probe_and(g, probe_not(probe_and(g, s, t)),
                             probe_not(probe_and(g, probe_not(s), e))));
}

// --- per-round evaluation structures ---------------------------------------

/// Best module bit for one (AIG node, polarity): a bit whose value equals
/// the literal. Rank = rtlil::bit_id (wire creation order, then offset), so
/// the choice is a pure function of the module, never of hash-map iteration
/// order.
struct Anchor {
  SigBit bit;
  uint64_t rank = 0;
  bool valid = false;
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
  std::vector<SigBit> op_reuse;
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
/// walk). `nfan` holds whole-graph reference counts including outputs.
int freed_cone_nodes(const aig::Aig& g, uint32_t root_node, const aig::Lit* leaves,
                     size_t num_leaves, const std::vector<uint32_t>& nfan) {
  std::unordered_map<uint32_t, uint32_t> remaining;
  const auto is_leaf = [&](uint32_t n) {
    for (size_t i = 0; i < num_leaves; ++i)
      if (aig::lit_node(leaves[i]) == n)
        return true;
    return false;
  };
  int freed = 0;
  std::vector<uint32_t> stack{root_node};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    ++freed;
    for (const aig::Lit f : {g.fanin0(n), g.fanin1(n)}) {
      const uint32_t c = aig::lit_node(f);
      if (!g.is_and(c) || is_leaf(c))
        continue;
      auto it = remaining.find(c);
      if (it == remaining.end())
        it = remaining.emplace(c, nfan[c]).first;
      if (it->second > 0 && --it->second == 0)
        stack.push_back(c);
    }
  }
  return freed;
}

struct RootWork {
  Cell* cell = nullptr;
  std::vector<SigBit> raw;    ///< output port bits, port order
  std::vector<SigBit> canon;  ///< canonical counterparts
  std::vector<aig::Lit> lits; ///< blast literals (AND-backed)
};

/// Stable id of a root: its first canonical output bit's name hash. The
/// recovery layer quarantines roots under this id ("rewrite.eval"), and
/// unit-keyed fault plans key on it. Wire-name-based (not cell-name-based)
/// so the id survives a write_verilog round-trip in repro bundles.
uint64_t root_unit_id(const RootWork& work) {
  const SigBit& bit = work.canon.front();
  return bit.is_wire() ? util::bit_unit_id(bit.wire->name(), bit.offset) : 1;
}

struct RootEval {
  std::vector<BitCandidate> bits;
  bool complete = false;
  bool skipped = false; ///< halt/fault observed before evaluation started
  size_t candidates = 0;
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

/// Predicted-dead fanin cone of `root` (the RTLIL MFFC): cells none of whose
/// output bits reach an output port or a reader outside the dying set. The
/// cone is bounded (depth/size) and stops at `keep_alive` (leaf and reuse
/// drivers the replacement keeps reading) and at the cells of the
/// `claimed` and `counted` sets (roots an earlier plan already claimed, cells
/// it already counted). The sets are read in place: they grow over a round,
/// so copying them per root would make the round quadratic. Removal is left
/// to opt_clean; this set only feeds the gain accounting, so a miss costs
/// quality, not correctness.
std::vector<Cell*> predicted_mffc(const rtlil::NetlistIndex& index, Cell* root,
                                  const std::unordered_set<Cell*>& keep_alive,
                                  const std::unordered_set<Cell*>& claimed,
                                  const std::unordered_set<Cell*>& counted) {
  constexpr size_t kMaxCone = 64;
  constexpr int kMaxDepth = 6;
  std::vector<Cell*> cone;
  std::unordered_set<Cell*> seen{root};
  std::vector<Cell*> frontier{root};
  for (int depth = 0; depth < kMaxDepth && !frontier.empty() && cone.size() < kMaxCone;
       ++depth) {
    std::vector<Cell*> next;
    for (Cell* c : frontier) {
      for (Port p : c->input_ports()) {
        for (const SigBit& raw : c->port(p)) {
          const SigBit b = index.sigmap()(raw);
          if (!b.is_wire())
            continue;
          Cell* d = index.driver(b);
          if (!d || d->type() == CellType::Dff || seen.count(d) || keep_alive.count(d) ||
              claimed.count(d) || counted.count(d))
            continue;
          seen.insert(d);
          cone.push_back(d);
          next.push_back(d);
          if (cone.size() >= kMaxCone)
            break;
        }
        if (cone.size() >= kMaxCone)
          break;
      }
      if (cone.size() >= kMaxCone)
        break;
    }
    frontier = std::move(next);
  }

  std::unordered_set<Cell*> dead{root};
  bool changed = true;
  while (changed) {
    changed = false;
    for (Cell* c : cone) {
      if (dead.count(c))
        continue;
      bool dies = true;
      for (const SigBit& raw : c->port(c->output_port())) {
        const SigBit b = index.sigmap()(raw);
        if (!b.is_wire())
          continue;
        if (index.driver(b) != c || index.drives_output_port(b)) {
          dies = false;
          break;
        }
        for (Cell* r : index.readers(b)) {
          if (!dead.count(r)) {
            dies = false;
            break;
          }
        }
        if (!dies)
          break;
      }
      if (dies) {
        dead.insert(c);
        changed = true;
      }
    }
  }

  std::vector<Cell*> out;
  for (Cell* c : cone)
    if (dead.count(c))
      out.push_back(c);
  return out;
}

/// Status of one program op inside a plan. New ops become Shared once
/// materialized, so downstream operand resolution is uniform.
struct OpPlan {
  enum Kind : uint8_t { Reused, Shared, New } kind = New;
  Cell* shared_cell = nullptr;
  std::vector<SigBit> shared_bits; ///< one per group member (Shared only)
};

struct GroupPlan {
  const GateProgram* prog = nullptr;
  std::vector<size_t> members; ///< root output-bit indices, port order
  std::vector<OpPlan> ops;
};

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
  return acc; // threads_used intentionally untouched
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
  // threads_used intentionally excluded: it reflects the machine, not the work.
}

RewriteStats rewrite_sweep(rtlil::Module& module, const RewriteOptions& options) {
  const obs::Span engine_span("rewrite", "rewrite.sweep", "cells",
                              static_cast<uint64_t>(module.cell_count()));
  RewriteStats stats;
  rtlil::NetlistIndex index(module);
  index.sigmap().flatten();
  util::ThreadPool pool(util::resolve_thread_count(options.threads));
  stats.threads_used = pool.size();

  const NpnTable& npn = NpnTable::instance();
  const RewriteLibrary& library = RewriteLibrary::instance();
  std::unordered_set<uint16_t> classes_seen;

  util::ResourceGuard* guard = options.guard;
  if (guard != nullptr)
    guard->set_growth_baseline(module.cell_count());

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // The growth cap is checked against the post-commit cell count.
    const util::RoundEntry entry = util::enter_round(guard, options.quarantine, "rewrite.round",
                                                     round + 1, module.cell_count());
    if (entry == util::RoundEntry::Skip) {
      ++stats.quarantined;
      continue;
    }
    if (entry == util::RoundEntry::Halt) {
      ++stats.halted;
      break;
    }
    ++stats.rounds;
    const obs::Span round_span("rewrite", "rewrite.round", "round",
                               static_cast<uint64_t>(round + 1));
    const aig::AigMap blast = [&] {
      const obs::Span s("rewrite", "rewrite.blast");
      return aig::aigmap(module, index);
    }();
    if (round == 0)
      stats.aig_nodes = blast.aig.num_nodes();
    const CutSet cutset = [&] {
      const obs::Span s("rewrite", "rewrite.cuts");
      return enumerate_cuts(blast.aig, CutOptions{options.cut_limit});
    }();
    stats.cuts += cutset.total;

    // Whole-graph reference counts (fanins + outputs) for the candidate
    // ranking's deref walks.
    std::vector<uint32_t> nfan(blast.aig.num_nodes(), 0);
    for (uint32_t n = 0; n < blast.aig.num_nodes(); ++n) {
      if (!blast.aig.is_and(n))
        continue;
      ++nfan[aig::lit_node(blast.aig.fanin0(n))];
      ++nfan[aig::lit_node(blast.aig.fanin1(n))];
    }
    for (size_t i = 0; i < blast.aig.num_outputs(); ++i)
      ++nfan[aig::lit_node(blast.aig.output(static_cast<int>(i)))];

    // Anchors: AIG node + polarity -> best module bit. The dense bit id is
    // the deterministic tie-break rank here and in the group keys below (bit
    // hashes are pointer-based and would leak allocator layout into the
    // result).
    std::vector<std::array<Anchor, 2>> anchors(blast.aig.num_nodes());
    for (const auto& entry : blast.bits) {
      Anchor& slot = anchors[aig::lit_node(entry.second)]
                            [aig::lit_compl(entry.second) ? 1 : 0];
      const uint64_t rank = rtlil::bit_id(entry.first);
      if (!slot.valid || rank < slot.rank)
        slot = {entry.first, rank, true};
    }

    // Root work list: combinational cells whose every output bit is a live,
    // canonically self-driven wire bit backed by an AND node.
    std::vector<RootWork> roots;
    for (const auto& cptr : module.cells()) {
      Cell* cell = cptr.get();
      if (cell->type() == CellType::Dff)
        continue;
      RootWork work;
      work.cell = cell;
      bool ok = true, any_read = false;
      for (const SigBit& raw : cell->port(cell->output_port())) {
        const SigBit c = index.sigmap()(raw);
        if (!c.is_wire() || index.driver(c) != cell) {
          ok = false;
          break;
        }
        const auto it = blast.bits.find(c);
        if (it == blast.bits.end() || !blast.aig.is_and(aig::lit_node(it->second))) {
          ok = false;
          break;
        }
        if (index.fanout(c) > 0)
          any_read = true;
        work.raw.push_back(raw);
        work.canon.push_back(c);
        work.lits.push_back(it->second);
      }
      if (ok && any_read && !work.raw.empty()) {
        if (options.quarantine != nullptr &&
            options.quarantine->contains("rewrite.eval", root_unit_id(work))) {
          // Quarantined root: never evaluated. The work list is built in
          // module cell order, so the filter is thread-count-deterministic.
          ++stats.quarantined;
          continue;
        }
        roots.push_back(std::move(work));
      }
    }
    stats.roots_evaluated += roots.size();

    // --- parallel evaluation, then one canonical commit loop ----------------
    //
    // Workers evaluate every root in parallel against the frozen round-start
    // state (index, blast, cuts, anchors); each writes only its own slot of
    // `evals`. Then one serial loop commits the roots in canonical order:
    // every commit decision and every module mutation happens there, so
    // netlists, stats and decision traces are byte-identical at every thread
    // count.

    // Structural-key map over the round-start module (the notion shared with
    // opt_merge and the fraig pre-merge): planned cells fold onto existing
    // twins instead of duplicating them. The commit loop maintains it as
    // commits materialize cells.
    std::unordered_map<Hash128, Cell*, Hash128Hasher> struct_map;
    struct_map.reserve(module.cell_count());
    for (const auto& cptr : module.cells())
      if (cptr->type() != CellType::Dff)
        struct_map.emplace(sweep::cell_structural_key(*cptr, index.sigmap()), cptr.get());

    std::vector<RootEval> evals(roots.size());

    // Round-scoped commit state: only commit_root below touches any of it.
    std::unordered_set<Cell*> claimed;           // roots committed for removal
    std::unordered_set<Cell*> counted_dead;      // MFFC cells already credited
    std::unordered_map<Cell*, int> new_cell_pos; // cells materialized this round
    opt::SweepJournal journal;
    size_t positive_commits = 0, total_commits = 0, round_skipped = 0;

    const auto evaluate_root = [&](size_t ri) {
      const RootWork& work = roots[ri];
      RootEval& eval = evals[ri];
      // Mid-phase halts come only from deadline/cancel — deterministic
      // budgets arm the sticky flag at the round barrier above, and the
      // "rewrite.eval" fault point fires in the commit loop, in canonical
      // order, so the same roots fault at every thread count.
      if (guard != nullptr && guard->poll()) {
        eval.skipped = true;
        return;
      }
      const obs::Span root_span("rewrite", "rewrite.eval", "root", root_unit_id(work));
      const int root_pos = index.topo_position(work.cell);
      // An anchor is wireable from this root's replacement (which takes the
      // root's topo slot) only if its driver sits strictly before the root.
      // Structurally identical cells strash to one node, so an anchor can
      // sit anywhere in the netlist, including after the root.
      const auto wireable = [&](const SigBit& bit) {
        Cell* drv = index.driver(bit);
        if (drv == work.cell)
          return false;
        if (!drv || drv->type() == CellType::Dff)
          return true;
        return index.topo_position(drv) < root_pos;
      };
      eval.bits.resize(work.raw.size());
      eval.complete = true;
      for (size_t j = 0; j < work.raw.size(); ++j) {
        const aig::Lit root_lit = work.lits[j];
        const uint32_t node = aig::lit_node(root_lit);
        BitCandidate best;
        const std::vector<Cut>& cuts = cutset.cuts[node];
        for (size_t ci = 0; ci + 1 < cuts.size(); ++ci) { // last cut is trivial
          const Cut& cut = cuts[ci];
          BitCandidate cand;
          cand.nleaves = cut.size;
          bool usable = true;
          aig::Lit leaf_lits[4];
          for (size_t li = 0; li < cut.size; ++li) {
            const auto& slots = anchors[cut.leaves[li]];
            const Anchor& a = slots[0].valid ? slots[0] : slots[1];
            if (!a.valid || !wireable(a.bit)) {
              usable = false;
              break;
            }
            cand.leaves[li].bit = a.bit;
            cand.leaves[li].lit = aig::mk_lit(cut.leaves[li], !slots[0].valid);
            leaf_lits[li] = cand.leaves[li].lit;
          }
          if (!usable ||
              !sim::cut_truth_table(blast.aig, root_lit, leaf_lits, cut.size, cand.tt))
            continue;
          cand.valid = true;
          cand.npn_class = npn.class_id(cand.tt);
          cand.prog = &library.program(cand.tt);
          ++eval.candidates;

          // Optimistic DAG-sharing: compose each op's AIG literal from
          // strash probes; an anchored wireable bit of the right polarity is
          // a reuse credit (validated again in the commit loop).
          const GateProgram& prog = *cand.prog;
          std::vector<aig::Lit> op_lits(prog.ops.size(), aig::kNoLit);
          cand.op_reuse.assign(prog.ops.size(), SigBit());
          const auto operand_lit = [&](const GateOperand& o) -> aig::Lit {
            switch (o.kind) {
            case GateOperand::Const0: return aig::kFalse;
            case GateOperand::Const1: return aig::kTrue;
            case GateOperand::Leaf: return leaf_lits[o.index];
            case GateOperand::Node: return op_lits[o.index];
            }
            return aig::kNoLit;
          };
          for (size_t k = 0; k < prog.ops.size(); ++k) {
            const GateOp& op = prog.ops[k];
            aig::Lit lit = aig::kNoLit;
            switch (op.type) {
            case CellType::Not:
              lit = probe_not(operand_lit(op.a));
              break;
            case CellType::And:
              lit = probe_and(blast.aig, operand_lit(op.a), operand_lit(op.b));
              break;
            case CellType::Or:
              lit = probe_or(blast.aig, operand_lit(op.a), operand_lit(op.b));
              break;
            case CellType::Xor:
              lit = probe_xor(blast.aig, operand_lit(op.a), operand_lit(op.b));
              break;
            case CellType::Mux:
              lit = probe_mux(blast.aig, operand_lit(op.s), operand_lit(op.b),
                              operand_lit(op.a));
              break;
            default:
              break;
            }
            op_lits[k] = lit;
            if (lit != aig::kNoLit && lit != aig::kFalse && lit != aig::kTrue) {
              const Anchor& a = anchors[aig::lit_node(lit)][aig::lit_compl(lit) ? 1 : 0];
              if (a.valid && wireable(a.bit)) {
                cand.op_reuse[k] = a.bit;
                continue;
              }
            }
            ++cand.new_ops;
          }
          // A candidate whose output resolves to the root's own literal
          // reconstructs the existing implementation (or merges onto a twin
          // fraig already handles): committing it could never shrink the
          // graph, and it would shadow genuinely restructuring candidates.
          aig::Lit out_lit = aig::kNoLit;
          switch (prog.out.kind) {
          case GateOperand::Const0: out_lit = aig::kFalse; break;
          case GateOperand::Const1: out_lit = aig::kTrue; break;
          case GateOperand::Leaf: out_lit = leaf_lits[prog.out.index]; break;
          case GateOperand::Node: out_lit = op_lits[prog.out.index]; break;
          }
          if (out_lit == root_lit)
            continue;
          int build_cost = 0;
          for (size_t k = 0; k < prog.ops.size(); ++k)
            if (!cand.op_reuse[k].is_wire())
              build_cost += gate_aig_cost(prog.ops[k]);
          cand.gain_est =
              freed_cone_nodes(blast.aig, node, leaf_lits, cut.size, nfan) - build_cost;
          if (better_candidate(cand, best))
            best = std::move(cand);
        }
        if (!best.valid) {
          eval.complete = false;
          break;
        }
        eval.bits[j] = std::move(best);
      }
    };
    // Commit one root. Runs for every root in strictly canonical order; every
    // decision below reads only the commit loop's overlays and round-start
    // snapshots, so the result is a pure function of the module.
    const auto commit_root = [&](size_t ri) {
      const RootWork& work = roots[ri];
      RootEval& eval = evals[ri];
      Cell* root = work.cell;
      stats.candidates += eval.candidates;
      // Deterministic fault point: one "rewrite.eval" event per root, fired
      // here in canonical order instead of from the parallel evaluation
      // tasks, so event-counter plans hit the same root — and leave the same
      // committed prefix — at every thread count. A throw ends the loop.
      if (!eval.skipped && util::fault_unknown("rewrite.eval", root_unit_id(work)))
        eval.skipped = true;
      if (eval.skipped) {
        ++round_skipped;
        return;
      }
      if (eval.complete)
        for (const BitCandidate& c : eval.bits)
          classes_seen.insert(c.npn_class);
      if (!eval.complete || claimed.count(root) || counted_dead.count(root))
        return;
      const int root_pos = index.topo_position(root);

      // Re-validate against this round's earlier commits: a bit whose driver
      // was already credited as dead must not be read (its death is priced
      // into an earlier gain), and a round-new driver must sit before the
      // root.
      const auto driver_valid = [&](Cell* d) {
        if (!d || d->type() == CellType::Dff)
          return true;
        if (counted_dead.count(d))
          return false;
        const auto it = new_cell_pos.find(d);
        const int pos = it != new_cell_pos.end() ? it->second : index.topo_position(d);
        return pos >= 0 && pos < root_pos;
      };
      bool rejected = false;
      for (BitCandidate& cand : eval.bits) {
        for (size_t li = 0; li < cand.nleaves && !rejected; ++li)
          if (!driver_valid(index.driver(cand.leaves[li].bit)))
            rejected = true;
        if (rejected)
          break;
        for (size_t k = 0; k < cand.op_reuse.size(); ++k) {
          SigBit& bit = cand.op_reuse[k];
          if (bit.is_wire() && !driver_valid(index.driver(bit))) {
            bit = SigBit(); // drop the credit; the op is materialized instead
            ++cand.new_ops;
          }
        }
      }
      if (rejected)
        return; // the next round re-evaluates against the updated netlist

      // Group the output bits: members sharing (program, reuse pattern, mux
      // selects) become one wide cell per non-reused op. std::map keys keep
      // group order a pure function of the module.
      std::map<std::vector<uint64_t>, GroupPlan> groups;
      for (size_t j = 0; j < eval.bits.size(); ++j) {
        const BitCandidate& cand = eval.bits[j];
        std::vector<uint64_t> key{cand.tt};
        uint64_t reuse_mask = 0;
        for (size_t k = 0; k < cand.op_reuse.size(); ++k)
          if (cand.op_reuse[k].is_wire())
            reuse_mask |= 1ull << k;
        key.push_back(reuse_mask);
        // A Mux cell has a single select bit, so members only vectorize when
        // their selects resolve identically: key on the concrete select bit
        // (leaf select) or on the bits of the select cone's support
        // (computed select — identical support bits give identical cones).
        for (const GateOp& op : cand.prog->ops) {
          if (op.type != CellType::Mux)
            continue;
          if (op.s.kind == GateOperand::Leaf) {
            key.push_back(rtlil::bit_id(cand.leaves[op.s.index].bit));
          } else if (op.s.kind == GateOperand::Node) {
            const uint8_t support = tt_support(cand.prog->ops[op.s.index].tt);
            for (uint8_t v = 0; v < 4; ++v)
              if (support & (1u << v))
                key.push_back(rtlil::bit_id(cand.leaves[v].bit));
          }
        }
        GroupPlan& group = groups[std::move(key)];
        group.prog = cand.prog;
        group.members.push_back(j);
      }

      // Operand resolution once a group's earlier ops are decided. `m` is
      // the member's position within the group (selects the lane of a
      // Shared op's output vector).
      const auto member_operand = [&](const GroupPlan& group, const GateOperand& o,
                                      size_t j, size_t m) -> SigBit {
        const BitCandidate& cand = eval.bits[j];
        switch (o.kind) {
        case GateOperand::Const0: return SigBit(State::S0);
        case GateOperand::Const1: return SigBit(State::S1);
        case GateOperand::Leaf: return cand.leaves[o.index].bit;
        case GateOperand::Node: {
          const OpPlan& src = group.ops[o.index];
          return src.kind == OpPlan::Reused ? cand.op_reuse[o.index]
                                            : src.shared_bits[m];
        }
        }
        return SigBit(State::S0);
      };

      // Input ports of one materialized group op, shared verbatim by the
      // structural-key dry probe and the real cell so the probed key can
      // never diverge from the key of the cell actually built. An op whose
      // operands are identical across the word (shared selector logic,
      // typically) gets width 1.
      struct OpPorts {
        SigSpec a, b;
        SigBit s;
        int width = 0;
      };
      const auto build_op_ports = [&](const GroupPlan& group, const GateOp& op) {
        OpPorts ports;
        const bool needs_b = op.type != CellType::Not;
        bool uniform = true;
        for (size_t m = 0; m < group.members.size(); ++m) {
          const SigBit ab = member_operand(group, op.a, group.members[m], m);
          uniform = uniform && (m == 0 || ab == ports.a[0]);
          ports.a.append(ab);
          if (needs_b) {
            const SigBit bb = member_operand(group, op.b, group.members[m], m);
            uniform = uniform && (m == 0 || bb == ports.b[0]);
            ports.b.append(bb);
          }
        }
        ports.width = uniform ? 1 : static_cast<int>(group.members.size());
        if (uniform) {
          ports.a = SigSpec(ports.a[0]);
          if (needs_b)
            ports.b = SigSpec(ports.b[0]);
        }
        if (op.type == CellType::Mux)
          ports.s = member_operand(group, op.s, group.members.front(), 0);
        return ports;
      };
      const auto connect_op_ports = [](Cell& cell, const GateOp& op, const OpPorts& ports,
                                       SigSpec y) {
        cell.set_port(Port::A, ports.a);
        if (op.type != CellType::Not)
          cell.set_port(Port::B, ports.b);
        if (op.type == CellType::Mux)
          cell.set_port(Port::S, ports.s);
        cell.set_port(Port::Y, std::move(y));
        cell.infer_widths();
      };

      // Plan each group's ops: Reused (AIG credit), Shared (structural twin)
      // or New. Ops whose operands reference a New op cannot be probed — no
      // twin can exist for wires not yet created.
      bool abort_plan = false;
      size_t new_cells = 0, reused_ops = 0, shared_ops = 0;
      std::unordered_set<Cell*> keep_alive;
      for (auto& group_entry : groups) {
        GroupPlan& group = group_entry.second;
        const GateProgram& prog = *group.prog;
        const BitCandidate& first = eval.bits[group.members.front()];
        group.ops.resize(prog.ops.size());
        for (size_t k = 0; k < prog.ops.size() && !abort_plan; ++k) {
          if (first.op_reuse[k].is_wire()) {
            group.ops[k].kind = OpPlan::Reused;
            ++reused_ops;
            continue;
          }
          const GateOp& op = prog.ops[k];
          const auto resolvable = [&](const GateOperand& o) {
            return o.kind != GateOperand::Node || group.ops[o.index].kind != OpPlan::New;
          };
          const bool needs_b = op.type != CellType::Not;
          if (resolvable(op.a) && (!needs_b || resolvable(op.b)) &&
              (op.type != CellType::Mux || resolvable(op.s))) {
            // Dry probe with a detached cell: ports built by the same helper
            // the materialization uses, no module registration.
            const OpPorts ports = build_op_ports(group, op);
            Cell temp(&module, "$rewrite_probe", op.type);
            connect_op_ports(temp, op, ports,
                             SigSpec(std::vector<SigBit>(
                                 static_cast<size_t>(ports.width), SigBit(State::S0))));
            const auto hit =
                struct_map.find(sweep::cell_structural_key(temp, index.sigmap()));
            if (hit != struct_map.end()) {
              Cell* twin = hit->second;
              if (twin == root) {
                // The plan reproduces the root's own structure: a no-op
                // rewrite that would only churn names. Abort.
                abort_plan = true;
                break;
              }
              bool twin_ok =
                  !claimed.count(twin) && driver_valid(twin) &&
                  sweep::cell_structurally_identical(temp, *twin, index.sigmap());
              if (twin_ok && !new_cell_pos.count(twin)) {
                for (const SigBit& raw : twin->port(twin->output_port())) {
                  const SigBit c = index.sigmap()(raw);
                  if (!c.is_wire() || index.driver(c) != twin) {
                    twin_ok = false;
                    break;
                  }
                }
              }
              if (twin_ok) {
                group.ops[k].kind = OpPlan::Shared;
                group.ops[k].shared_cell = twin;
                std::vector<SigBit>& bits = group.ops[k].shared_bits;
                for (const SigBit& raw : twin->port(twin->output_port()))
                  bits.push_back(index.sigmap()(raw));
                if (bits.size() == 1 && group.members.size() > 1)
                  bits.assign(group.members.size(), bits[0]); // uniform op
                keep_alive.insert(twin);
                ++shared_ops;
                continue;
              }
            }
          }
          group.ops[k].kind = OpPlan::New;
          ++new_cells;
        }
        if (abort_plan)
          break;
      }
      if (abort_plan) {
        ++stats.plans_noop;
        return;
      }

      // Gain in RTLIL cells: the root plus its predicted-dead cone against
      // the cells actually materialized.
      for (const BitCandidate& cand : eval.bits) {
        for (size_t li = 0; li < cand.nleaves; ++li)
          if (Cell* d = index.driver(cand.leaves[li].bit))
            keep_alive.insert(d);
        for (const SigBit& bit : cand.op_reuse)
          if (bit.is_wire())
            if (Cell* d = index.driver(bit))
              keep_alive.insert(d);
      }
      const std::vector<Cell*> dead =
          predicted_mffc(index, root, keep_alive, claimed, counted_dead);
      const long gain = 1 + static_cast<long>(dead.size()) - static_cast<long>(new_cells);
      // Cell-neutral commits must still shrink the AIG (the paper's area
      // metric): the summed per-bit estimates gate out pure churn.
      long plan_gain_est = 0;
      for (const BitCandidate& cand : eval.bits)
        plan_gain_est += cand.gain_est;
      if (gain < 0 || (gain == 0 && !(options.zero_gain && plan_gain_est > 0))) {
        ++stats.plans_rejected;
        return;
      }

      // --- materialize ----------------------------------------------------
      // New cells take the root's topo position; journal append order is
      // program order, which compact_topo's stable sort preserves, so
      // intra-plan dependencies stay topologically valid.
      const obs::Span commit_span("rewrite", "rewrite.commit", "root",
                                  root_unit_id(work));
      for (auto& group_entry : groups) {
        GroupPlan& group = group_entry.second;
        const GateProgram& prog = *group.prog;
        for (size_t k = 0; k < prog.ops.size(); ++k) {
          if (group.ops[k].kind != OpPlan::New)
            continue;
          const GateOp& op = prog.ops[k];
          const OpPorts ports = build_op_ports(group, op);
          rtlil::Wire* wire = module.new_wire(ports.width, "$rewrite");
          Cell* cell = module.add_cell(op.type);
          connect_op_ports(*cell, op, ports, SigSpec(wire));
          journal.added.push_back({cell, root_pos});
          new_cell_pos.emplace(cell, root_pos);
          struct_map.emplace(sweep::cell_structural_key(*cell, index.sigmap()), cell);
          group.ops[k].kind = OpPlan::Shared;
          group.ops[k].shared_cell = cell;
          std::vector<SigBit>& bits = group.ops[k].shared_bits;
          if (ports.width == 1)
            bits.assign(group.members.size(), SigBit(wire, 0));
          else
            for (int i = 0; i < ports.width; ++i)
              bits.emplace_back(wire, i);
          ++stats.cells_added;
        }
      }

      SigSpec lhs, rhs;
      for (const auto& group_entry : groups) {
        const GroupPlan& group = group_entry.second;
        for (size_t m = 0; m < group.members.size(); ++m) {
          const size_t j = group.members[m];
          lhs.append(work.raw[j]);
          rhs.append(member_operand(group, group.prog->out, j, m));
        }
      }
      journal.removed.push_back(root);
      journal.connects.emplace_back(lhs, rhs);

      // Per-commit gain histogram: fed from the commit loop, in canonical
      // root order, from deterministic plan accounting.
      static obs::Histogram& h_gain = obs::histogram("rewrite.gain");
      h_gain.observe(static_cast<uint64_t>(gain));
      claimed.insert(root);
      for (Cell* c : dead)
        counted_dead.insert(c);
      ++total_commits;
      if (gain > 0)
        ++positive_commits;
      ++stats.rewrites;
      if (gain == 0)
        ++stats.zero_gain_rewrites;
      stats.gates_reused += reused_ops;
      stats.cells_shared += shared_ops;
      stats.predicted_dead += dead.size();
    };

    {
      const obs::Span s("rewrite", "rewrite.eval_phase", "roots",
                        static_cast<uint64_t>(roots.size()));
      pool.run_batch(roots.size(), [&](int, size_t ri) { evaluate_root(ri); });
    }
    bool faulted = false;
    try {
      const obs::Span s("rewrite", "rewrite.commit_phase", "roots",
                        static_cast<uint64_t>(roots.size()));
      for (size_t ri = 0; ri < roots.size(); ++ri)
        commit_root(ri);
    } catch (const util::FaultInjected& e) {
      // The "rewrite.eval" fault point fires in the commit loop in canonical
      // order, so the committed prefix — already materialized and journaled —
      // is identical at every thread count. Injected faults are absorbed;
      // real errors keep propagating.
      faulted = true;
      util::halt_on_fault(guard, e);
    }

    if (!faulted) {
      stats.skipped_roots += round_skipped;
      if (guard != nullptr && round_skipped > 0)
        guard->note_skipped_rewrites(round_skipped);
    }
    if (!journal.empty()) {
      // Applied even on a faulted round: the committed prefix's cells and
      // connects are already in the module, and the index must follow them
      // for the post-halt consistency check.
      opt::apply_sweep_journal(module, index, journal);
      journal.clear();
    }
    if (faulted) {
      ++stats.halted;
      break;
    }
    if (total_commits == 0 || positive_commits == 0)
      break; // idle round, or a zero-gain-only round (committed once, stop)
  }

  stats.npn_classes = classes_seen.size();
  if (options.check_index && !rtlil::index_consistent(module, index))
    throw std::logic_error("rewrite: incremental NetlistIndex diverged from rebuild");

  // Deterministic totals from the stats struct (identical at every thread
  // count), published once per sweep.
  static obs::Counter& m_rounds = obs::counter("rewrite.rounds");
  static obs::Counter& m_roots = obs::counter("rewrite.roots_evaluated");
  static obs::Counter& m_rewrites = obs::counter("rewrite.rewrites");
  static obs::Counter& m_added = obs::counter("rewrite.cells_added");
  static obs::Counter& m_rejected = obs::counter("rewrite.plans_rejected");
  m_rounds.add(stats.rounds);
  m_roots.add(stats.roots_evaluated);
  m_rewrites.add(stats.rewrites);
  m_added.add(stats.cells_added);
  m_rejected.add(stats.plans_rejected);
  return stats;
}

} // namespace smartly::rewrite
