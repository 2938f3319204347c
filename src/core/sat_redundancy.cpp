#include "core/sat_redundancy.hpp"

#include "aig/aigmap.hpp"
#include "aig/cnf.hpp"
#include "core/inference.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/packed_sim.hpp"
#include "util/fault.hpp"

#include <algorithm>

namespace smartly::core {

using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::SigBit;

void InferenceOracle::begin_module(rtlil::Module& module) {
  module_ = &module;
  owned_index_ = std::make_unique<rtlil::NetlistIndex>(module);
  index_ = owned_index_.get();
}

void InferenceOracle::begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) {
  module_ = &module;
  owned_index_.reset();
  index_ = &index;
}

CtrlDecision InferenceOracle::decide(SigBit ctrl, const KnownMap& known) {
  ++stats_.queries;

  // Quarantined target (recovery layer): answer Unknown without deciding.
  // The same unit keys the "oracle.solve" fault site in decide_cone.
  const uint64_t unit =
      ctrl.is_wire() ? util::bit_unit_id(ctrl.wire->name(), ctrl.offset) : 1;
  if (options_.quarantine != nullptr &&
      options_.quarantine->contains("oracle.solve", unit)) {
    ++stats_.skipped_quarantine;
    return CtrlDecision::Unknown;
  }

  // Stage 1: syntactic (what the baseline does).
  if (auto it = known.find(ctrl); it != known.end()) {
    ++stats_.decided_syntactic;
    return it->second ? CtrlDecision::One : CtrlDecision::Zero;
  }
  if (known.empty())
    return CtrlDecision::Unknown; // no path condition: nothing to infer from

  // Stage 2: bounded sub-graph around the control port and known signals
  // (scratch-reusing extraction: thousands of queries per module). The
  // later stages read the known bits in sorted order.
  known_sorted_.assign(known.begin(), known.end());
  std::sort(known_sorted_.begin(), known_sorted_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  known_bits_.clear();
  for (const auto& [bit, value] : known_sorted_) {
    (void)value;
    known_bits_.push_back(bit);
  }
  const Subgraph sg = scratch_.extract(*module_, *index_, ctrl, known_bits_, options_.subgraph);
  stats_.gates_seen += sg.gates_before_filter;
  stats_.gates_kept += sg.cells.size();
  if (sg.cells.empty())
    return CtrlDecision::Unknown;
  return decide_cone(ctrl, sg, unit);
}

CtrlDecision InferenceOracle::decide_cone(SigBit ctrl, const Subgraph& sg, uint64_t unit) {
  // Stage 3: Table I inference rules.
  if (options_.use_inference) {
    InferenceEngine engine(sg.cells, index_->sigmap());
    bool ok = true;
    for (const auto& [bit, value] : known_sorted_)
      ok = ok && engine.assume(bit, value);
    ok = ok && engine.propagate();
    if (!ok) {
      ++stats_.dead_paths;
      return CtrlDecision::DeadPath;
    }
    if (auto v = engine.value(ctrl)) {
      ++stats_.decided_inference;
      return *v ? CtrlDecision::One : CtrlDecision::Zero;
    }
  }
  if (!options_.use_sat)
    return CtrlDecision::Unknown;

  // Stage 4: bit-blast the sub-graph; roots = ctrl + all known bits so the
  // path condition can be asserted even on sub-graph-internal signals.
  std::vector<SigBit> roots;
  roots.push_back(ctrl);
  for (const SigBit& kb : known_bits_)
    roots.push_back(kb);
  const aig::AigMap cone = aig::aigmap_cone(*module_, *index_, sg.cells, roots);

  auto aig_lit_of = [&](const SigBit& bit) -> std::optional<aig::Lit> {
    auto it = cone.bits.find(bit);
    if (it == cone.bits.end())
      return std::nullopt;
    return it->second;
  };
  const auto target_lit = aig_lit_of(ctrl);
  if (!target_lit)
    return CtrlDecision::Unknown;

  std::vector<std::pair<aig::Lit, bool>> constraints;
  for (const auto& [bit, value] : known_sorted_) {
    if (auto l = aig_lit_of(bit))
      constraints.emplace_back(*l, value);
    // Known bits outside the sub-graph cannot be asserted; dropping them is
    // sound (fewer constraints can only weaken deductions, never falsify).
  }

  const int n_inputs = static_cast<int>(cone.aig.num_inputs());

  // Stage 4a: exhaustive simulation ("for a smaller number of inputs,
  // simulation is more efficient").
  if (n_inputs <= options_.sim_max_inputs) {
    sim::SimOptions sim_opts;
    sim_opts.max_free_inputs = options_.sim_max_inputs;
    const sim::SimResult sr =
        sim::exhaustive_forced_ex(cone.aig, constraints, *target_lit, sim_opts);
    ++stats_.sim_filter_kills;
    if (sr.early_exit)
      ++stats_.sim_filter_half;
    switch (sr.forced) {
    case sim::Forced::Zero: ++stats_.decided_sim; return CtrlDecision::Zero;
    case sim::Forced::One: ++stats_.decided_sim; return CtrlDecision::One;
    case sim::Forced::Contradiction: ++stats_.dead_paths; return CtrlDecision::DeadPath;
    case sim::Forced::None: return CtrlDecision::Unknown;
    }
  }

  // Stage 4b: SAT. Skip if the sub-graph is too large ("threshold for the
  // number of inputs … to prevent the optimization process from becoming a
  // bottleneck").
  if (n_inputs > options_.sat_max_inputs) {
    ++stats_.skipped_too_large;
    return CtrlDecision::Unknown;
  }

  // Resource-governed skip: a halt observed mid-phase (deadline/cancel/fault
  // only — deterministic budgets arm the flag at engine barriers, after
  // which the engines stop querying) degrades the query to Unknown, which
  // the walker treats as "leave the tree alone".
  if ((options_.guard != nullptr && options_.guard->poll()) ||
      util::fault_unknown("oracle.solve", unit)) {
    ++stats_.skipped_halt;
    if (options_.guard != nullptr)
      options_.guard->note_skipped_solves();
    return CtrlDecision::Unknown;
  }

  // One span per solved query (rare next to the inference and simulation
  // stages); it covers the encode and both polarity solves.
  const obs::Span solve_span("oracle", "oracle.solve", "unit", unit);
  static obs::Counter& m_solves = obs::counter("oracle.solves");
  m_solves.add();

  sat::Solver solver;
  solver.set_conflict_budget(options_.sat_conflict_budget);
  if (options_.guard != nullptr && options_.guard->wants_interrupts())
    solver.set_interrupt_check([g = options_.guard] { return g->poll(); });
  aig::CnfEncoder enc(solver);
  enc.encode(cone.aig);

  std::vector<sat::Lit> assumptions;
  for (const auto& [l, v] : constraints)
    assumptions.push_back(v ? enc.lit(l) : ~enc.lit(l));

  uint64_t conflicts_seen = 0;
  uint64_t propagations_seen = 0;
  auto solve_with = [&](bool target_value) {
    ++stats_.sat_calls;
    std::vector<sat::Lit> a = assumptions;
    a.push_back(target_value ? enc.lit(*target_lit) : ~enc.lit(*target_lit));
    const sat::Result r = solver.solve(a);
    stats_.solver_conflicts += solver.stats().conflicts - conflicts_seen;
    if (options_.guard != nullptr) {
      options_.guard->charge_conflicts(solver.stats().conflicts - conflicts_seen);
      options_.guard->charge_propagations(solver.stats().propagations - propagations_seen);
    }
    conflicts_seen = solver.stats().conflicts;
    propagations_seen = solver.stats().propagations;
    return r;
  };

  const sat::Result r1 = solve_with(true);
  if (r1 == sat::Result::Unsat) {
    const sat::Result r0 = solve_with(false);
    if (r0 == sat::Result::Unsat) {
      ++stats_.dead_paths;
      return CtrlDecision::DeadPath;
    }
    ++stats_.decided_sat;
    return CtrlDecision::Zero; // s=1 impossible
  }
  const sat::Result r0 = solve_with(false);
  if (r0 == sat::Result::Unsat) {
    ++stats_.decided_sat;
    return CtrlDecision::One; // s=0 impossible
  }
  return CtrlDecision::Unknown;
}

SatRedundancyStats sat_redundancy(rtlil::Module& module, const SatRedundancyOptions& options) {
  InferenceOracle oracle(options);
  const opt::MuxtreeStats walker_stats = opt::optimize_muxtrees(module, oracle);
  SatRedundancyStats stats = oracle.stats();
  stats.walker = walker_stats;
  return stats;
}

SatRedundancyStats sat_redundancy_parallel(rtlil::Module& module,
                                           const SatRedundancyOptions& options, int,
                                           opt::DecisionTrace* trace,
                                           opt::ParallelSweepStats* sweep_out,
                                           int max_iterations) {
  opt::ParallelSweepOptions po;
  po.ball_radius = options.subgraph.depth;
  po.guard = options.guard;
  po.quarantine = options.quarantine;
  if (max_iterations >= 0)
    po.max_iterations = std::min(po.max_iterations, static_cast<size_t>(max_iterations));

  InferenceOracle oracle(options);
  const opt::ParallelSweepStats sweep = opt::parallel_sweep(module, oracle, po, trace);
  if (sweep_out)
    *sweep_out = sweep;
  SatRedundancyStats stats = oracle.stats();
  stats.walker = sweep.walker;
  return stats;
}

} // namespace smartly::core
