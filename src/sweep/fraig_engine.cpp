#include "sweep/fraig_engine.hpp"

#include "aig/cnf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/muxtree_walker.hpp"
#include "opt/opt_merge.hpp"
#include "rtlil/id_set.hpp"
#include "sat/solver.hpp"
#include "util/fault.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace smartly::sweep {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

constexpr uint32_t kNone = 0xffffffffu;

/// A proven substitute for one duplicate bit.
struct Replacement {
  SigBit rep;             ///< valid when !is_const (snapshot-canonical)
  bool invert = false;    ///< dup == NOT(rep): merge through an inverter
  bool is_const = false;  ///< dup is stuck at const_one
  bool const_one = false;
};

/// The target half of one (dup, target, polarity) proof obligation: the
/// representative's rtlil::bit_id or the constant, with the polarity flags.
/// Together with the duplicate's bit id it names the obligation exactly.
uint64_t pair_target(const Replacement& r) {
  const uint64_t target = r.is_const ? (r.const_one ? 1u : 0u) : rtlil::bit_id(r.rep);
  return target << 2 | (r.invert ? 2u : 0u) | (r.is_const ? 1u : 0u);
}

/// The pair outcomes of one sweep, by the duplicate's rtlil::bit_id (open
/// addressing, sized by the duplicates it holds). Outcomes are
/// deterministic (per-class solvers, canonical query order), so an
/// obligation is settled forever after its first attempt: proven pairs wait
/// for their cell to become fully covered, disproved and unknown pairs are
/// never retried. A duplicate keeps its first proof.
class PairTable {
public:
  bool settled(const SigBit& dup, uint64_t target) const {
    for (uint32_t e = settled_head_.find(id(dup)); e != kNone; e = settled_[e].next)
      if (settled_[e].target == target)
        return true;
    return false;
  }
  void settle(const SigBit& dup, uint64_t target) {
    settled_.push_back({target, settled_head_.find(id(dup))});
    settled_head_.set(id(dup), static_cast<uint32_t>(settled_.size() - 1));
  }
  /// The duplicate's proof, or nullptr.
  const Replacement* proof(const SigBit& dup) const {
    const uint32_t p = proof_of_.find(id(dup));
    return p == kNone ? nullptr : &proofs_[p];
  }
  void prove(const SigBit& dup, const Replacement& r) {
    if (proof_of_.find(id(dup)) != kNone)
      return;
    proof_of_.set(id(dup), static_cast<uint32_t>(proofs_.size()));
    proofs_.push_back(r);
  }

private:
  static_assert(rtlil::IdMap::kAbsent == kNone, "absent entries read as kNone");
  struct Settled {
    uint64_t target;
    uint32_t next; ///< the bit's previous entry, or kNone
  };
  static uint32_t id(const SigBit& bit) { return static_cast<uint32_t>(rtlil::bit_id(bit)); }

  rtlil::IdMap settled_head_; ///< bit id -> its latest entry in settled_
  std::vector<Settled> settled_;
  rtlil::IdMap proof_of_; ///< bit id -> index into proofs_
  std::vector<Replacement> proofs_;
};

/// One round's work in round-level arrays, kept across the sweep's rounds:
/// the classes, then every class's outcomes back to back in class order.
/// The barrier applies them; a faulted round drops them wholesale.
struct Round {
  struct Proof {
    SigBit dup;
    Replacement repl;
  };
  /// A class's solver totals, charged to the guard in class order.
  struct Cost {
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    size_t skipped = 0; ///< queries not solved at all (halt already observed)
  };

  ClassSet classes;
  std::vector<Proof> proofs;
  /// (dup, pair_target) of every obligation with a decided outcome.
  std::vector<std::pair<SigBit, uint64_t>> attempted;
  std::vector<std::pair<SigBit, bool>> cex_values; ///< counterexamples, back to back
  std::vector<uint32_t> cex_ends;                  ///< end of each in cex_values
  std::vector<Cost> costs;                         ///< per class
  FraigStats counts; ///< the round's sat_queries and proof outcomes
  std::vector<sat::Lit> assumptions; ///< one query's, reused

  void clear_outcomes() {
    proofs.clear();
    attempted.clear();
    cex_values.clear();
    cex_ends.clear();
    costs.clear();
    counts = FraigStats{};
  }
};

/// Stable id of a class: the minimum bit_unit_id over its wire-bit members.
/// The recovery layer quarantines classes under this id ("fraig.solve"), and
/// unit-keyed fault plans key on it. Min-over-members (not the rep's id) so
/// the id survives a write_verilog round-trip: membership is a function of
/// name-seeded simulation, but the rep choice rides on creation order, which
/// reparsing permutes — repro bundles must fault the same class.
uint64_t class_unit_id(const ClassSet& set, const EquivClass& cls) {
  uint64_t best = 0;
  for (const EquivMember* m = set.begin(cls); m != set.end(cls); ++m) {
    if (!m->bit.is_wire())
      continue;
    const uint64_t id = util::bit_unit_id(m->bit.wire->name(), m->bit.offset);
    if (best == 0 || id < best)
      best = id;
  }
  return best == 0 ? 1 : best;
}

/// Prove one class's open pairs, appending the outcomes to `round`. The
/// solver and encoder are made on the first pair that needs SAT, so a class
/// whose pairs are all settled or structural builds neither; its unit id is
/// derived only when a fault plan reads it.
void prove_class(const EquivClass& cls, const EquivClasses& eq, const FraigOptions& options,
                 const PairTable& pairs, aig::CnfTable& cnf, Round& round) {
  const ClassSet& set = round.classes;
  Round::Cost cost;
  std::optional<sat::Solver> solver;
  std::optional<aig::ConeCnfEncoder> enc; // destroyed first: it resets `cnf`
  const auto encoder = [&]() -> aig::ConeCnfEncoder& {
    if (!enc) {
      solver.emplace();
      if (options.guard != nullptr && options.guard->wants_interrupts())
        solver->set_interrupt_check([g = options.guard] { return g->poll(); });
      enc.emplace(*solver, eq.blast().aig, cnf);
    }
    return *enc;
  };

  const auto solve_budgeted = [&](sat::Lit assumption) {
    // A halt observed mid-phase can only come from the nondeterministic
    // sources (deadline/cancel) or a fault plan: deterministic budgets arm
    // the sticky flag at barriers only, so this skip never fires under them.
    if ((options.guard != nullptr && options.guard->poll()) ||
        (util::faults_active() && util::fault_unknown("fraig.solve", class_unit_id(set, cls)))) {
      ++cost.skipped;
      return sat::Result::Unknown;
    }
    solver->set_conflict_budget(static_cast<int64_t>(solver->stats().conflicts) +
                                kFraigConflictBudget);
    ++round.counts.sat_queries;
    round.assumptions.assign(1, assumption);
    return solver->solve(round.assumptions);
  };
  const auto harvest_cex = [&]() {
    for (const uint32_t node : enc->encoded_inputs()) {
      const SigBit& bit = eq.input_bit(node);
      if (!bit.is_wire())
        continue; // unmapped input (mirrors the equiv_classes pattern guard)
      const sat::Var v = sat::var(enc->lit(aig::mk_lit(node)));
      round.cex_values.emplace_back(bit, solver->model_value(v));
    }
    round.cex_ends.push_back(static_cast<uint32_t>(round.cex_values.size()));
  };
  const auto decide = [&](const SigBit& dup, const Replacement& repl, uint64_t target,
                          sat::Result r) {
    if (r == sat::Result::Unsat) {
      if (repl.is_const) {
        ++round.counts.proved_constant;
      } else {
        ++round.counts.proved_equal;
        if (repl.invert)
          ++round.counts.proved_complement;
      }
      round.proofs.push_back({dup, repl});
    } else if (r == sat::Result::Sat) {
      ++round.counts.disproved;
      harvest_cex();
    } else {
      ++round.counts.unknown;
    }
    round.attempted.emplace_back(dup, target);
  };

  if (cls.constant) {
    for (const EquivMember* m = set.begin(cls); m != set.end(cls); ++m) {
      if (!m->driver)
        continue; // free bits are never stuck
      Replacement repl;
      repl.is_const = true;
      repl.const_one = m->inverted;
      const uint64_t target = pair_target(repl);
      if (pairs.settled(m->bit, target))
        continue;
      const sat::Lit ml = encoder().ensure(m->lit);
      // Candidate value is const_one; refute by assuming the opposite.
      decide(m->bit, repl, target, solve_budgeted(m->inverted ? ~ml : ml));
    }
  } else {
    const EquivMember& rep = set.front(cls);
    sat::Lit rl{};
    bool rep_encoded = false;
    for (const EquivMember* m = set.begin(cls) + 1; m != set.end(cls); ++m) {
      if (!m->driver)
        continue; // free bits can only serve as the representative
      if (m->driver == rep.driver)
        continue; // two bits of one cell: nothing to remove
      Replacement repl;
      repl.rep = rep.bit;
      repl.invert = m->inverted != rep.inverted;
      const uint64_t target = pair_target(repl);
      if (pairs.settled(m->bit, target))
        continue;

      // Structural fast path: strash already proved the cones identical (or
      // complement) — no solver needed.
      if (m->lit == (repl.invert ? aig::lit_not(rep.lit) : rep.lit)) {
        ++round.counts.proved_structural;
        round.proofs.push_back({m->bit, repl});
        round.attempted.emplace_back(m->bit, target);
        continue;
      }

      aig::ConeCnfEncoder& e = encoder();
      if (!rep_encoded) {
        rl = e.ensure(rep.lit);
        rep_encoded = true;
      }
      const sat::Lit ml = e.ensure(m->lit);
      // Activation-guarded miter clause group: under `act` the clauses force
      // dup != target (target = rep or NOT rep); UNSAT proves the candidate.
      const sat::Lit act = sat::mk_lit(solver->new_var());
      if (!repl.invert) {
        solver->add_clause(~act, rl, ml);
        solver->add_clause(~act, ~rl, ~ml);
      } else {
        solver->add_clause(~act, ~rl, ml);
        solver->add_clause(~act, rl, ~ml);
      }
      decide(m->bit, repl, target, solve_budgeted(act));
      solver->add_clause(~act); // retire this query's clause group
    }
  }
  if (solver) {
    cost.conflicts = solver->stats().conflicts;
    cost.propagations = solver->stats().propagations;
  }
  round.costs.push_back(cost);
}

/// commit_merges' round-level arrays, kept across the sweep's barriers.
struct MergeScratch {
  /// A cell whose every live output bit is proven: its bits are lhs/rhs
  /// [first, last), its pending inverters pending[inv_first, inv_last).
  struct Plan {
    Cell* cell;
    int topo_pos;
    uint32_t first, last;
    uint32_t inv_first, inv_last;
    /// Cells provably freed by this commit: the cell itself plus input-net
    /// drivers nothing else reads. Gates inverter-costly complement merges.
    size_t freed_budget;
  };
  /// A barrier inverter: representative bit -> its output bit and journal
  /// entry.
  struct Inverter {
    SigBit rep;
    SigBit out;
    size_t added;
  };
  std::vector<Plan> plans;
  std::vector<SigBit> lhs, rhs;
  /// Positions in rhs still waiting for a shared barrier inverter of the
  /// recorded representative bit.
  std::vector<std::pair<uint32_t, SigBit>> pending;
  std::vector<Inverter> inverters;
  std::vector<SigBit> fresh;
  /// One complement plan's nets kept alive (bit ids, sorted) and input
  /// drivers counted as freed (cell ids).
  std::vector<uint32_t> kept, counted;
};

/// The earliest existing single-bit inverter of canonical bit `rc` — the Not
/// cell with the smallest topo position (then cell id) among rc's readers,
/// on its first position whose input is rc and whose output it drives — or
/// a non-wire bit when there is none. Lets complement merges land on an
/// inverter the module already has; a later inverter of the same bit is
/// itself mergeable onto it.
SigBit earliest_inverter(const rtlil::NetlistIndex& index, const SigBit& rc) {
  const rtlil::SigMap& sigmap = index.sigmap();
  const Cell* best = nullptr;
  int best_pos = 0;
  SigBit best_bit;
  for (Cell* cell : index.readers(rc)) {
    if (cell->type() != CellType::Not || cell == best)
      continue;
    const int pos = index.topo_position(cell);
    if (best != nullptr && (pos > best_pos || (pos == best_pos && cell->id() > best->id())))
      continue;
    const SigSpec& a = cell->port(Port::A);
    const SigSpec& y = cell->port(Port::Y);
    for (int i = 0; i < y.size() && i < a.size(); ++i) {
      if (sigmap(a[i]) != rc)
        continue;
      const SigBit yc = sigmap(y[i]);
      if (!yc.is_wire() || index.driver(yc) != cell)
        continue;
      best = cell;
      best_pos = pos;
      best_bit = yc;
      break;
    }
  }
  return best_bit;
}

/// Commit every cell whose entire output is proven redundant: journal the
/// removal + alias (plus an inverter for complement-merged positions) and
/// apply through the index's incremental maintenance. Returns removed cells.
///
/// Complement merges need care to terminate: a dup that already *is* an
/// inverter of its representative must not be "merged" into a freshly built
/// identical inverter (that rebuilds the same cell under a new name every
/// round). Existing inverters of a representative bit are therefore reused
/// as replacement drivers, at most one new inverter is created per
/// representative bit per barrier, and a cell that is itself the canonical
/// inverter of its representative is left alone.
size_t commit_merges(rtlil::Module& module, rtlil::NetlistIndex& index, const PairTable& pairs,
                     MergeScratch& sc, FraigStats& stats) {
  const obs::Span commit_span("fraig", "fraig.commit");
  const rtlil::SigMap& sigmap = index.sigmap();
  sc.plans.clear();
  sc.lhs.clear();
  sc.rhs.clear();
  sc.pending.clear();

  // Module cell order: the stable canonical commit order (and the order the
  // inverters below are named in).
  for (const auto& cptr : module.cells()) {
    Cell* cell = cptr.get();
    if (cell->type() == CellType::Dff)
      continue;
    const int cell_pos = index.topo_position(cell);
    MergeScratch::Plan plan{cell,
                            cell_pos,
                            static_cast<uint32_t>(sc.lhs.size()),
                            0,
                            static_cast<uint32_t>(sc.pending.size()),
                            0,
                            1};
    bool ok = true;
    int yi = -1;
    for (const SigBit& raw : cell->port(cell->output_port())) {
      ++yi;
      const SigBit c = sigmap(raw);
      if (!c.is_wire())
        continue; // already aliased to a constant: no replacement needed
      if (index.driver(c) != cell) {
        ok = false; // net canonically driven elsewhere: leave untouched
        break;
      }
      const Replacement* r = pairs.proof(c);
      if (r == nullptr) {
        ok = false; // a live bit without a proof: cell must survive
        break;
      }
      SigBit repl;
      if (r->is_const) {
        repl = SigBit(r->const_one ? State::S1 : State::S0);
      } else {
        // Re-canonicalize the recorded representative: earlier commits may
        // have aliased it onward (including through an inverter wire).
        const SigBit rc = sigmap(r->rep);
        if (rc.is_const()) {
          if (rc.data != State::S0 && rc.data != State::S1) {
            ok = false;
            break;
          }
          const bool one = (rc.data == State::S1) != r->invert;
          repl = SigBit(one ? State::S1 : State::S0);
        } else {
          // The replacement's driver must sit strictly before this cell so
          // the merge (and any inserted inverter, which takes this cell's
          // freed topo position) keeps the stored topo order valid. Free
          // inputs and dff Q bits are sources and always qualify.
          Cell* drv = index.driver(rc);
          if (drv == cell ||
              (drv && drv->type() != CellType::Dff &&
               index.topo_position(drv) >= cell_pos)) {
            ok = false;
            break;
          }
          if (r->invert) {
            // A Not cell that already computes NOT(rep) from rep itself is
            // the inverter we would build: replacing it with a fresh
            // identical one is pure churn and, repeated per round, the
            // inverter ping-pong failure mode. Leave it alone, whatever the
            // position bookkeeping says.
            if (cell->type() == CellType::Not && yi < cell->port(Port::A).size() &&
                sigmap(cell->port(Port::A)[yi]) == rc) {
              ok = false;
              break;
            }
            const SigBit inv = earliest_inverter(index, rc);
            SigBit existing;
            if (inv.is_wire() && inv != c) {
              Cell* idrv = index.driver(inv);
              if (idrv && idrv != cell && idrv->type() != CellType::Dff &&
                  index.topo_position(idrv) < cell_pos)
                existing = inv;
            }
            if (existing.is_wire()) {
              repl = existing;
            } else {
              sc.pending.emplace_back(static_cast<uint32_t>(sc.rhs.size()), rc);
              repl = SigBit(); // patched once the barrier inverter exists
            }
          } else {
            repl = rc;
          }
        }
      }
      sc.lhs.push_back(raw);
      sc.rhs.push_back(repl);
    }
    plan.last = static_cast<uint32_t>(sc.lhs.size());
    plan.inv_last = static_cast<uint32_t>(sc.pending.size());
    if (!ok || plan.last == plan.first) {
      sc.lhs.resize(plan.first); // drop the partial plan
      sc.rhs.resize(plan.first);
      sc.pending.resize(plan.inv_first);
      continue;
    }
    if (plan.inv_last != plan.inv_first) {
      // Cells guaranteed dead once this cell goes: input-net drivers whose
      // every output bit is read only by this cell, reaches no output port,
      // and is not a net the commit itself keeps alive (a replacement bit —
      // aliased onward, or read by a new inverter). A 1-level approximation;
      // deeper cone death only adds benefit, so the gate stays conservative.
      sc.kept.clear();
      sc.counted.clear();
      for (uint32_t k = plan.first; k < plan.last; ++k)
        if (sc.rhs[k].is_wire())
          sc.kept.push_back(static_cast<uint32_t>(rtlil::bit_id(sc.rhs[k])));
      for (uint32_t k = plan.inv_first; k < plan.inv_last; ++k)
        sc.kept.push_back(static_cast<uint32_t>(rtlil::bit_id(sc.pending[k].second)));
      std::sort(sc.kept.begin(), sc.kept.end());
      const auto kept = [&](const SigBit& b) {
        return std::binary_search(sc.kept.begin(), sc.kept.end(),
                                  static_cast<uint32_t>(rtlil::bit_id(b)));
      };
      for (const Port port : cell->input_ports()) {
        for (const SigBit& raw : cell->port(port)) {
          const SigBit cbit = sigmap(raw);
          if (!cbit.is_wire())
            continue;
          Cell* drv = index.driver(cbit);
          if (!drv || drv == cell || drv->type() == CellType::Dff ||
              std::find(sc.counted.begin(), sc.counted.end(), drv->id()) != sc.counted.end())
            continue;
          bool dies = true;
          for (const SigBit& draw : drv->port(drv->output_port())) {
            const SigBit db = sigmap(draw);
            if (!db.is_wire())
              continue;
            dies = dies && !index.drives_output_port(db) && !kept(db);
            for (Cell* reader : index.readers(db))
              dies = dies && reader == cell;
          }
          if (dies) {
            sc.counted.push_back(drv->id());
            ++plan.freed_budget;
          }
        }
      }
    }
    sc.plans.push_back(plan);
  }

  // Materialize at most one new inverter per representative bit, shared by
  // every surviving plan that requested it. Its topo position is the minimum
  // of the requesting cells' freed positions: after every requester's driver
  // (each plan's guard checked rep's driver precedes it) and before every
  // requester's readers.
  opt::SweepJournal journal;
  sc.inverters.clear();
  const auto find_inverter = [&](const SigBit& rep) {
    for (MergeScratch::Inverter& inv : sc.inverters)
      if (inv.rep == rep)
        return &inv;
    return static_cast<MergeScratch::Inverter*>(nullptr);
  };
  for (const MergeScratch::Plan& plan : sc.plans) {
    // Net-benefit gate: a complement merge must not insert more new
    // inverters than the cells it provably frees, or a single wide merge
    // could grow the netlist. Inverters another plan already materialized
    // this barrier are free.
    if (plan.inv_last != plan.inv_first) {
      sc.fresh.clear();
      for (uint32_t k = plan.inv_first; k < plan.inv_last; ++k) {
        const SigBit& rep_bit = sc.pending[k].second;
        if (find_inverter(rep_bit) == nullptr &&
            std::find(sc.fresh.begin(), sc.fresh.end(), rep_bit) == sc.fresh.end())
          sc.fresh.push_back(rep_bit);
      }
      if (sc.fresh.size() > plan.freed_budget)
        continue; // defer: the merge would cost more cells than it frees
    }
    for (uint32_t k = plan.inv_first; k < plan.inv_last; ++k) {
      const auto& [pos, rep_bit] = sc.pending[k];
      MergeScratch::Inverter* inv = find_inverter(rep_bit);
      if (inv == nullptr) {
        rtlil::Wire* w = module.new_wire(1, "$fraig_inv");
        Cell* cell = module.add_cell(CellType::Not);
        cell->set_port(Port::A, rep_bit);
        cell->set_port(Port::Y, SigSpec(w));
        cell->infer_widths();
        journal.added.push_back({cell, plan.topo_pos});
        sc.inverters.push_back({rep_bit, SigBit(w, 0), journal.added.size() - 1});
        inv = &sc.inverters.back();
        ++stats.inverter_cells;
      } else {
        auto& slot = journal.added[inv->added];
        slot.topo_pos = std::min(slot.topo_pos, plan.topo_pos);
      }
      sc.rhs[pos] = inv->out;
    }
    journal.removed.push_back(plan.cell);
    journal.connects.emplace_back(
        SigSpec(std::vector<SigBit>(sc.lhs.begin() + plan.first, sc.lhs.begin() + plan.last)),
        SigSpec(std::vector<SigBit>(sc.rhs.begin() + plan.first, sc.rhs.begin() + plan.last)));
    ++stats.merged_cells;
  }
  if (!journal.empty())
    opt::apply_sweep_journal(module, index, journal);
  return journal.removed.size();
}

} // namespace

FraigStats& operator+=(FraigStats& acc, const FraigStats& s) {
  acc.rounds += s.rounds;
  acc.candidate_bits += s.candidate_bits;
  acc.classes += s.classes;
  acc.sat_queries += s.sat_queries;
  acc.proved_equal += s.proved_equal;
  acc.proved_complement += s.proved_complement;
  acc.proved_constant += s.proved_constant;
  acc.proved_structural += s.proved_structural;
  acc.disproved += s.disproved;
  acc.unknown += s.unknown;
  acc.cex_patterns += s.cex_patterns;
  acc.merged_cells += s.merged_cells;
  acc.inverter_cells += s.inverter_cells;
  acc.pre_merged += s.pre_merged;
  acc.skipped_solves += s.skipped_solves;
  acc.quarantined += s.quarantined;
  acc.halted += s.halted;
  acc.solver_conflicts += s.solver_conflicts;
  return acc;
}

bool same_work(const FraigStats& a, const FraigStats& b) {
  return a.rounds == b.rounds && a.candidate_bits == b.candidate_bits &&
         a.classes == b.classes && a.sat_queries == b.sat_queries &&
         a.proved_equal == b.proved_equal && a.proved_complement == b.proved_complement &&
         a.proved_constant == b.proved_constant &&
         a.proved_structural == b.proved_structural && a.disproved == b.disproved &&
         a.unknown == b.unknown && a.cex_patterns == b.cex_patterns &&
         a.merged_cells == b.merged_cells && a.inverter_cells == b.inverter_cells &&
         a.pre_merged == b.pre_merged && a.skipped_solves == b.skipped_solves &&
         a.quarantined == b.quarantined && a.halted == b.halted &&
         a.solver_conflicts == b.solver_conflicts;
}

FraigStats fraig_sweep(rtlil::Module& module, const FraigOptions& options,
                       PatternSlots* slots) {
  const obs::Span engine_span("fraig", "fraig.sweep", "cells",
                              static_cast<uint64_t>(module.cells().size()));
  FraigStats stats;
  {
    // Structural pre-pass: merge trivially-identical cells (opt_merge, which
    // shares cell_structural_key) before any simulation or SAT.
    const obs::Span pre_merge_span("fraig", "fraig.pre_merge");
    stats.pre_merged = opt::opt_merge(module);
  }

  rtlil::NetlistIndex index = [&] {
    const obs::Span index_span("fraig", "fraig.index");
    return rtlil::NetlistIndex(module);
  }();

  EquivClasses eq({}, slots);
  PairTable pairs;
  aig::CnfTable cnf; // every class's encoder, one after another
  Round round;
  MergeScratch merge;

  util::ResourceGuard* guard = options.guard;
  if (guard != nullptr)
    guard->set_growth_baseline(module.cells().size());

  bool module_changed = true; // the module only mutates inside commit_merges
  for (size_t r = 0; r < options.max_rounds; ++r) {
    const util::RoundEntry entry = util::enter_round(guard, options.quarantine, "fraig.round",
                                                     r + 1, module.cells().size());
    if (entry == util::RoundEntry::Skip) {
      ++stats.quarantined;
      continue;
    }
    if (entry == util::RoundEntry::Halt) {
      ++stats.halted;
      break;
    }
    ++stats.rounds;
    const obs::Span round_span("fraig", "fraig.round", "round", static_cast<uint64_t>(r + 1));
    if (module_changed)
      eq.bind(module, index); // re-blast; cex-only rounds reuse the blast
    std::vector<EquivClass>& classes = round.classes.classes;
    eq.compute(round.classes);
    if (stats.rounds == 1) // the first executed round (round 1 may be quarantined)
      stats.candidate_bits = eq.candidate_bits();
    if (options.quarantine != nullptr && !options.quarantine->empty()) {
      // Quarantined classes are never proved.
      const size_t before = classes.size();
      classes.erase(std::remove_if(classes.begin(), classes.end(),
                                   [&](const EquivClass& c) {
                                     return options.quarantine->contains(
                                         "fraig.solve", class_unit_id(round.classes, c));
                                   }),
                    classes.end());
      stats.quarantined += before - classes.size();
    }
    if (classes.empty())
      break;
    stats.classes += classes.size();

    // Per-class solvers, proved in canonical class order.
    round.clear_outcomes();
    try {
      for (const EquivClass& c : classes) {
        const obs::Span class_span(
            "fraig", "fraig.class", "class",
            obs::tracing_enabled() ? class_unit_id(round.classes, c) : 0);
        prove_class(c, eq, options, pairs, cnf, round);
      }
    } catch (const util::FaultInjected& e) {
      // The prove phase never mutates the module, so dropping this round's
      // outcomes wholesale leaves module and index exactly as the last
      // barrier committed them. Only injected faults are absorbed; real
      // errors keep propagating.
      util::halt_on_fault(guard, e);
      ++stats.halted;
      break;
    }

    // Barrier: aggregate in canonical class order (cex pool append order is
    // part of the determinism contract — signatures depend on it).
    static obs::Histogram& h_class_size = obs::histogram("fraig.class_size");
    static obs::Histogram& h_conflicts = obs::histogram("fraig.solver_conflicts");
    for (const EquivClass& c : classes)
      h_class_size.observe(c.last - c.first);
    stats += round.counts;
    for (const Round::Cost& cost : round.costs) {
      h_conflicts.observe(cost.conflicts);
      stats.solver_conflicts += cost.conflicts;
      stats.skipped_solves += cost.skipped;
      if (guard != nullptr) {
        guard->charge_conflicts(cost.conflicts);
        guard->charge_propagations(cost.propagations);
        guard->note_skipped_solves(cost.skipped);
      }
    }
    for (const auto& [dup, target] : round.attempted)
      pairs.settle(dup, target);
    for (const Round::Proof& proof : round.proofs)
      pairs.prove(proof.dup, proof.repl);
    size_t progress = 0;
    for (size_t i = 0, begin = 0; i < round.cex_ends.size(); begin = round.cex_ends[i++])
      if (eq.add_counterexample(round.cex_values.data() + begin, round.cex_ends[i] - begin)) {
        ++stats.cex_patterns;
        ++progress;
      }

    // Progress = something the next round can see: a module change or a
    // pattern-pool change. New proofs or settled keys alone leave the next
    // round's classes identical with every pair settled — provably idle, so
    // they do not keep the loop alive.
    //
    // Proven merges commit even when a budget tripped mid-round: "stop
    // taking new merges" means no further rounds, not discarding work whose
    // UNSAT proofs are already in hand.
    const size_t committed = commit_merges(module, index, pairs, merge, stats);
    module_changed = committed > 0;
    progress += committed;
    if (progress == 0)
      break;
  }
  if (options.check_index && !rtlil::index_consistent(module, index))
    throw std::logic_error("fraig: incremental NetlistIndex diverged from rebuild");

  // Totals from the stats struct, published once per sweep.
  static obs::Counter& m_rounds = obs::counter("fraig.rounds");
  static obs::Counter& m_queries = obs::counter("fraig.sat_queries");
  static obs::Counter& m_equal = obs::counter("fraig.proved_equal");
  static obs::Counter& m_disproved = obs::counter("fraig.disproved");
  static obs::Counter& m_merged = obs::counter("fraig.merged_cells");
  static obs::Counter& m_cex = obs::counter("fraig.cex_patterns");
  m_rounds.add(stats.rounds);
  m_queries.add(stats.sat_queries);
  m_equal.add(stats.proved_equal);
  m_disproved.add(stats.disproved);
  m_merged.add(stats.merged_cells);
  m_cex.add(stats.cex_patterns);
  return stats;
}

} // namespace smartly::sweep
