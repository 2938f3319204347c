#include "sweep/fraig_engine.hpp"

#include "aig/cnf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/muxtree_walker.hpp"
#include "opt/opt_merge.hpp"
#include "sat/solver.hpp"
#include "util/fault.hpp"

#include <stdexcept>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace smartly::sweep {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

/// A proven substitute for one duplicate bit.
struct Replacement {
  SigBit rep;             ///< valid when !is_const (snapshot-canonical)
  bool invert = false;    ///< dup == NOT(rep): merge through an inverter
  bool is_const = false;  ///< dup is stuck at const_one
  bool const_one = false;
};

/// Per-class proof results (aggregated at the barrier in class order).
struct ClassOutcome {
  struct Proof {
    SigBit dup;
    Replacement repl;
  };
  std::vector<Proof> proofs;
  std::vector<InputAssignment> cexes;
  std::vector<uint64_t> attempted; ///< pair keys with a decided outcome
  size_t sat_queries = 0;
  size_t proved_equal = 0;
  size_t proved_complement = 0;
  size_t proved_constant = 0;
  size_t proved_structural = 0;
  size_t disproved = 0;
  size_t unknown = 0;
  size_t skipped = 0; ///< queries not solved at all (halt already observed)
  uint64_t conflicts = 0;
  uint64_t propagations = 0;
};

/// Key of one (dup, target, polarity) proof obligation. Outcomes are
/// deterministic (per-class solvers, canonical query order), so a key is
/// settled forever after its first attempt: proven pairs wait in the proven
/// map for their cell to become fully covered, disproved and unknown pairs
/// are never retried. Collisions only suppress a candidate pair (missed
/// optimization, never unsoundness).
uint64_t pair_key(const SigBit& dup, const Replacement& r) {
  const uint64_t target = r.is_const ? 0x10001u + (r.const_one ? 1 : 0) : r.rep.hash();
  return hash_combine(hash_combine(dup.hash(), target),
                      (r.invert ? 2u : 0u) | (r.is_const ? 1u : 0u));
}

/// Stable id of a class: the minimum bit_unit_id over its wire-bit members.
/// The recovery layer quarantines classes under this id ("fraig.solve"), and
/// unit-keyed fault plans key on it. Min-over-members (not the rep's id) so
/// the id survives a write_verilog round-trip: membership is a function of
/// name-seeded simulation, but the rep choice rides on creation order, which
/// reparsing permutes — repro bundles must fault the same class.
uint64_t class_unit_id(const EquivClass& cls) {
  uint64_t best = 0;
  for (const EquivMember& m : cls.members) {
    if (!m.bit.is_wire())
      continue;
    const uint64_t id = util::bit_unit_id(m.bit.wire->name(), m.bit.offset);
    if (best == 0 || id < best)
      best = id;
  }
  return best == 0 ? 1 : best;
}

ClassOutcome prove_class(const EquivClass& cls, const EquivClasses& eq,
                         const FraigOptions& options,
                         const std::unordered_set<uint64_t>& settled) {
  ClassOutcome out;
  const uint64_t unit = class_unit_id(cls);
  sat::Solver solver;
  aig::ConeCnfEncoder enc(solver, eq.blast().aig);
  if (options.guard != nullptr && options.guard->wants_interrupts())
    solver.set_interrupt_check([g = options.guard] { return g->poll(); });

  const auto solve_budgeted = [&](const std::vector<sat::Lit>& assumptions) {
    // A halt observed mid-phase can only come from the nondeterministic
    // sources (deadline/cancel) or a fault plan: deterministic budgets arm
    // the sticky flag at barriers only, so this skip never fires under them.
    if ((options.guard != nullptr && options.guard->poll()) ||
        util::fault_unknown("fraig.solve", unit)) {
      ++out.skipped;
      return sat::Result::Unknown;
    }
    if (options.sat_conflict_budget >= 0)
      solver.set_conflict_budget(static_cast<int64_t>(solver.stats().conflicts) +
                                 options.sat_conflict_budget);
    ++out.sat_queries;
    return solver.solve(assumptions);
  };
  const auto harvest_cex = [&]() {
    InputAssignment a;
    a.reserve(enc.encoded_inputs().size());
    for (const uint32_t node : enc.encoded_inputs()) {
      const SigBit bit = eq.input_bits()[eq.input_node_index().at(node)];
      if (!bit.is_wire())
        continue; // unmapped input (mirrors the equiv_classes pattern guard)
      const sat::Var v = sat::var(enc.lit(aig::mk_lit(node)));
      a.emplace_back(bit, solver.model_value(v));
    }
    out.cexes.push_back(std::move(a));
  };

  if (cls.constant) {
    for (const EquivMember& m : cls.members) {
      if (!m.driver)
        continue; // free bits are never stuck
      Replacement repl;
      repl.is_const = true;
      repl.const_one = m.inverted;
      const uint64_t key = pair_key(m.bit, repl);
      if (settled.count(key))
        continue;
      const sat::Lit ml = enc.ensure(m.lit);
      // Candidate value is const_one; refute by assuming the opposite.
      const sat::Result r = solve_budgeted({m.inverted ? ~ml : ml});
      if (r == sat::Result::Unsat) {
        ++out.proved_constant;
        out.proofs.push_back({m.bit, repl});
        out.attempted.push_back(key);
      } else if (r == sat::Result::Sat) {
        ++out.disproved;
        harvest_cex();
        out.attempted.push_back(key);
      } else {
        ++out.unknown;
        out.attempted.push_back(key);
      }
    }
    out.conflicts = solver.stats().conflicts;
    out.propagations = solver.stats().propagations;
    return out;
  }

  const EquivMember& rep = cls.members.front();
  sat::Lit rl{};
  bool rep_encoded = false;
  for (size_t i = 1; i < cls.members.size(); ++i) {
    const EquivMember& m = cls.members[i];
    if (!m.driver)
      continue; // free bits can only serve as the representative
    if (m.driver == rep.driver)
      continue; // two bits of one cell: nothing to remove
    Replacement repl;
    repl.rep = rep.bit;
    repl.invert = m.inverted != rep.inverted;
    const uint64_t key = pair_key(m.bit, repl);
    if (settled.count(key))
      continue;

    // Structural fast path: strash already proved the cones identical (or
    // complement) — no solver needed.
    if (m.lit == (repl.invert ? aig::lit_not(rep.lit) : rep.lit)) {
      ++out.proved_structural;
      out.proofs.push_back({m.bit, repl});
      out.attempted.push_back(key);
      continue;
    }

    if (!rep_encoded) {
      rl = enc.ensure(rep.lit);
      rep_encoded = true;
    }
    const sat::Lit ml = enc.ensure(m.lit);
    // Activation-guarded miter clause group: under `act` the clauses force
    // dup != target (target = rep or NOT rep); UNSAT proves the candidate.
    const sat::Lit act = sat::mk_lit(solver.new_var());
    if (!repl.invert) {
      solver.add_clause(~act, rl, ml);
      solver.add_clause(~act, ~rl, ~ml);
    } else {
      solver.add_clause(~act, ~rl, ml);
      solver.add_clause(~act, rl, ~ml);
    }
    const sat::Result r = solve_budgeted({act});
    if (r == sat::Result::Unsat) {
      ++out.proved_equal;
      if (repl.invert)
        ++out.proved_complement;
      out.proofs.push_back({m.bit, repl});
    } else if (r == sat::Result::Sat) {
      ++out.disproved;
      harvest_cex();
    } else {
      ++out.unknown;
    }
    out.attempted.push_back(key);
    solver.add_clause(~act); // retire this query's clause group
  }
  out.conflicts = solver.stats().conflicts;
  out.propagations = solver.stats().propagations;
  return out;
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
size_t commit_merges(rtlil::Module& module, rtlil::NetlistIndex& index,
                     const std::unordered_map<SigBit, Replacement>& proven,
                     FraigStats& stats) {
  const obs::Span commit_span("fraig", "fraig.commit");
  struct Plan {
    Cell* cell;
    int topo_pos;
    SigSpec lhs, rhs;
    /// Positions in rhs still waiting for a shared barrier inverter of the
    /// recorded representative bit.
    std::vector<std::pair<int, SigBit>> pending_inv;
    /// Cells provably freed by this commit: the cell itself plus input-net
    /// drivers nothing else reads. Gates inverter-costly complement merges.
    size_t freed_budget = 1;
  };
  std::vector<Plan> plans;
  const rtlil::SigMap& sigmap = index.sigmap();

  // Existing single-bit inverters: canonical input bit -> canonical output
  // bit. Lets complement merges land on an inverter the module already has.
  // The *topologically earliest* inverter of a bit wins, so a later inverter
  // of the same bit is itself mergeable onto it. (The hard no-ping-pong
  // guarantee — never replace a Not cell that already computes NOT(rep) from
  // rep — is the structural check in the planning loop below.)
  struct InverterEntry {
    SigBit bit;
    int pos;
  };
  std::unordered_map<SigBit, InverterEntry> inverter_of;
  for (const auto& cptr : module.cells()) {
    Cell* cell = cptr.get();
    if (cell->type() != CellType::Not)
      continue;
    const int pos = index.topo_position(cell);
    const SigSpec& a = cell->port(Port::A);
    const SigSpec& y = cell->port(Port::Y);
    for (int i = 0; i < y.size() && i < a.size(); ++i) {
      const SigBit yc = sigmap(y[i]);
      const SigBit ac = sigmap(a[i]);
      if (!yc.is_wire() || !ac.is_wire() || index.driver(yc) != cell)
        continue;
      auto [it, inserted] = inverter_of.emplace(ac, InverterEntry{yc, pos});
      if (!inserted && pos < it->second.pos)
        it->second = {yc, pos};
    }
  }

  // Module cell order: the stable canonical commit order (and the order the
  // inverters below are named in).
  for (const auto& cptr : module.cells()) {
    Cell* cell = cptr.get();
    if (cell->type() == CellType::Dff)
      continue;
    const int cell_pos = index.topo_position(cell);
    Plan plan{cell, cell_pos, {}, {}, {}, 1};
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
      const auto it = proven.find(c);
      if (it == proven.end()) {
        ok = false; // a live bit without a proof: cell must survive
        break;
      }
      const Replacement& r = it->second;
      SigBit repl;
      if (r.is_const) {
        repl = SigBit(r.const_one ? State::S1 : State::S0);
      } else {
        // Re-canonicalize the recorded representative: earlier commits may
        // have aliased it onward (including through an inverter wire).
        const SigBit rc = sigmap(r.rep);
        if (rc.is_const()) {
          if (rc.data != State::S0 && rc.data != State::S1) {
            ok = false;
            break;
          }
          const bool one = (rc.data == State::S1) != r.invert;
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
          if (r.invert) {
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
            const auto inv_it = inverter_of.find(rc);
            SigBit existing;
            if (inv_it != inverter_of.end() && inv_it->second.bit != c) {
              Cell* idrv = index.driver(inv_it->second.bit);
              if (idrv && idrv != cell && idrv->type() != CellType::Dff &&
                  index.topo_position(idrv) < cell_pos)
                existing = inv_it->second.bit;
            }
            if (existing.is_wire()) {
              repl = existing;
            } else {
              plan.pending_inv.emplace_back(plan.rhs.size(), rc);
              repl = SigBit(); // patched once the barrier inverter exists
            }
          } else {
            repl = rc;
          }
        }
      }
      plan.lhs.append(raw);
      plan.rhs.append(repl);
    }
    if (!ok || plan.lhs.empty())
      continue;
    if (!plan.pending_inv.empty()) {
      // Cells guaranteed dead once this cell goes: input-net drivers whose
      // every output bit is read only by this cell, reaches no output port,
      // and is not a net the commit itself keeps alive (a replacement bit —
      // aliased onward, or read by a new inverter). A 1-level approximation;
      // deeper cone death only adds benefit, so the gate stays conservative.
      std::unordered_set<SigBit> kept_nets;
      for (const SigBit& b : plan.rhs)
        if (b.is_wire())
          kept_nets.insert(b);
      for (const auto& [pos, rep_bit] : plan.pending_inv) {
        (void)pos;
        kept_nets.insert(rep_bit);
      }
      std::unordered_set<Cell*> counted;
      for (const Port port : cell->input_ports()) {
        for (const SigBit& raw : cell->port(port)) {
          const SigBit cbit = sigmap(raw);
          if (!cbit.is_wire())
            continue;
          Cell* drv = index.driver(cbit);
          if (!drv || drv == cell || drv->type() == CellType::Dff || counted.count(drv))
            continue;
          bool dies = true;
          for (const SigBit& draw : drv->port(drv->output_port())) {
            const SigBit db = sigmap(draw);
            if (!db.is_wire())
              continue;
            dies = dies && !index.drives_output_port(db) && !kept_nets.count(db);
            for (Cell* reader : index.readers(db))
              dies = dies && reader == cell;
          }
          if (dies) {
            counted.insert(drv);
            ++plan.freed_budget;
          }
        }
      }
    }
    plans.push_back(std::move(plan));
  }

  // Materialize at most one new inverter per representative bit, shared by
  // every surviving plan that requested it. Its topo position is the minimum
  // of the requesting cells' freed positions: after every requester's driver
  // (each plan's guard checked rep's driver precedes it) and before every
  // requester's readers.
  opt::SweepJournal journal;
  std::unordered_map<SigBit, std::pair<SigBit, size_t>> barrier_inv; // rep -> (bit, added idx)
  for (Plan& plan : plans) {
    // Net-benefit gate: a complement merge must not insert more new
    // inverters than the cells it provably frees, or a single wide merge
    // could grow the netlist. Inverters another plan already materialized
    // this barrier are free.
    if (!plan.pending_inv.empty()) {
      size_t needed_new = 0;
      std::vector<SigBit> fresh;
      for (const auto& [pos, rep_bit] : plan.pending_inv) {
        (void)pos;
        if (!barrier_inv.count(rep_bit) &&
            std::find(fresh.begin(), fresh.end(), rep_bit) == fresh.end()) {
          fresh.push_back(rep_bit);
          ++needed_new;
        }
      }
      if (needed_new > plan.freed_budget)
        continue; // defer: the merge would cost more cells than it frees
    }
    for (const auto& [pos, rep_bit] : plan.pending_inv) {
      auto it = barrier_inv.find(rep_bit);
      if (it == barrier_inv.end()) {
        rtlil::Wire* w = module.new_wire(1, "$fraig_inv");
        Cell* inv = module.add_cell(CellType::Not);
        inv->set_port(Port::A, rep_bit);
        inv->set_port(Port::Y, SigSpec(w));
        inv->infer_widths();
        journal.added.push_back({inv, plan.topo_pos});
        it = barrier_inv.emplace(rep_bit, std::make_pair(SigBit(w, 0),
                                                         journal.added.size() - 1)).first;
        ++stats.inverter_cells;
      } else {
        auto& slot = journal.added[it->second.second];
        slot.topo_pos = std::min(slot.topo_pos, plan.topo_pos);
      }
      plan.rhs[pos] = it->second.first;
    }
    journal.removed.push_back(plan.cell);
    journal.connects.emplace_back(plan.lhs, plan.rhs);
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

FraigStats fraig_sweep(rtlil::Module& module, const FraigOptions& options) {
  const obs::Span engine_span("fraig", "fraig.sweep", "cells",
                              static_cast<uint64_t>(module.cells().size()));
  FraigStats stats;
  if (options.pre_merge)
    stats.pre_merged = opt::opt_merge(module);

  rtlil::NetlistIndex index(module);
  index.sigmap().flatten();

  EquivClasses eq(options.classes);
  std::unordered_map<SigBit, Replacement> proven;
  std::unordered_set<uint64_t> settled;

  util::ResourceGuard* guard = options.guard;
  if (guard != nullptr)
    guard->set_growth_baseline(module.cells().size());

  bool module_changed = true; // the module only mutates inside commit_merges
  for (size_t round = 0; round < options.max_rounds; ++round) {
    const util::RoundEntry entry = util::enter_round(guard, options.quarantine, "fraig.round",
                                                     round + 1, module.cells().size());
    if (entry == util::RoundEntry::Skip) {
      ++stats.quarantined;
      continue;
    }
    if (entry == util::RoundEntry::Halt) {
      ++stats.halted;
      break;
    }
    ++stats.rounds;
    const obs::Span round_span("fraig", "fraig.round", "round",
                               static_cast<uint64_t>(round + 1));
    if (module_changed)
      eq.bind(module, index); // re-blast; cex-only rounds reuse the blast
    std::vector<EquivClass> classes = eq.compute();
    if (round == 0)
      stats.candidate_bits = eq.candidate_bits();
    if (options.quarantine != nullptr && !options.quarantine->empty()) {
      // Quarantined classes are never proved.
      const size_t before = classes.size();
      classes.erase(std::remove_if(classes.begin(), classes.end(),
                                   [&](const EquivClass& c) {
                                     return options.quarantine->contains("fraig.solve",
                                                                         class_unit_id(c));
                                   }),
                    classes.end());
      stats.quarantined += before - classes.size();
    }
    if (classes.empty())
      break;
    stats.classes += classes.size();

    // Per-class solvers, proved in canonical class order.
    std::vector<ClassOutcome> outcomes(classes.size());
    try {
      for (size_t i = 0; i < classes.size(); ++i) {
        const obs::Span class_span("fraig", "fraig.class", "class",
                                   class_unit_id(classes[i]));
        outcomes[i] = prove_class(classes[i], eq, options, settled);
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
      h_class_size.observe(c.members.size());
    size_t progress = 0;
    for (ClassOutcome& out : outcomes) {
      h_conflicts.observe(out.conflicts);
      stats.sat_queries += out.sat_queries;
      stats.proved_equal += out.proved_equal;
      stats.proved_complement += out.proved_complement;
      stats.proved_constant += out.proved_constant;
      stats.proved_structural += out.proved_structural;
      stats.disproved += out.disproved;
      stats.unknown += out.unknown;
      stats.skipped_solves += out.skipped;
      stats.solver_conflicts += out.conflicts;
      if (guard != nullptr) {
        guard->charge_conflicts(out.conflicts);
        guard->charge_propagations(out.propagations);
        guard->note_skipped_solves(out.skipped);
      }
      for (const uint64_t key : out.attempted)
        settled.insert(key);
      for (const ClassOutcome::Proof& proof : out.proofs)
        proven.emplace(proof.dup, proof.repl);
      for (InputAssignment& cex : out.cexes)
        if (eq.add_counterexample(cex)) {
          ++stats.cex_patterns;
          ++progress;
        }
    }

    // Progress = something the next round can see: a module change or a
    // pattern-pool change. New proofs or settled keys alone leave the next
    // round's classes identical with every pair settled — provably idle, so
    // they do not keep the loop alive.
    //
    // Proven merges commit even when a budget tripped mid-round: "stop
    // taking new merges" means no further rounds, not discarding work whose
    // UNSAT proofs are already in hand.
    const size_t committed = commit_merges(module, index, proven, stats);
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
