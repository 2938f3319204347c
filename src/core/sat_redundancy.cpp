#include "core/sat_redundancy.hpp"

#include "aig/aigmap.hpp"
#include "aig/cnf.hpp"
#include "core/inference.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/packed_sim.hpp"
#include "util/fault.hpp"

#include <algorithm>
#include <unordered_map>

namespace smartly::core {

using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::Cell;
using rtlil::SigBit;

namespace {

/// Canonical, process-portable fingerprint of one oracle query: the cone's
/// structure with every bit renamed to a dense first-appearance index, plus
/// the target's and the known bits' roles and values. Pointer-free and
/// name-free (names only fix the cell visiting order), so the same cone in
/// another process — or another design — produces the same key, and two
/// queries with equal keys are isomorphic and provably share their verdict.
Hash128 portable_query_key(const Subgraph& sg, const rtlil::SigMap& sigmap, SigBit ctrl,
                           const std::vector<std::pair<SigBit, bool>>& known,
                           uint64_t salt) {
  // Visit cells in name order: SubgraphScratch's cell order follows the
  // index's adjacency lists, and the key must not depend on it. Names are
  // unique per module.
  std::vector<const Cell*> cells(sg.cells.begin(), sg.cells.end());
  std::sort(cells.begin(), cells.end(),
            [](const Cell* a, const Cell* b) { return a->name() < b->name(); });

  std::unordered_map<SigBit, uint64_t> dense;
  auto id_of = [&](const SigBit& raw) -> uint64_t {
    const SigBit bit = sigmap(raw);
    if (!bit.is_wire()) // constants encode by value, disjoint from dense ids
      return 0x4000000000000000ULL + static_cast<uint64_t>(bit.data);
    return dense.emplace(bit, dense.size()).first->second;
  };

  Hash128 h = hash128_combine({salt, hash_mix(salt)}, cells.size());
  for (const Cell* c : cells) {
    const rtlil::CellParams& p = c->params();
    uint64_t ch = hash_combine(0x9d5u, static_cast<uint64_t>(c->type()));
    ch = hash_combine(ch, static_cast<uint64_t>(p.a_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.b_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.y_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.s_width));
    ch = hash_combine(ch, (p.a_signed ? 2u : 0u) | (p.b_signed ? 1u : 0u));
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const rtlil::Port port = static_cast<rtlil::Port>(pi);
      if (!c->has_port(port))
        continue;
      ch = hash_combine(ch, 0x1000u + static_cast<uint64_t>(pi));
      for (const SigBit& raw : c->port(port))
        ch = hash_combine(ch, id_of(raw));
    }
    h = hash128_combine(h, ch);
  }

  h = hash128_combine(h, 0xC7A1u); // role separator
  h = hash128_combine(h, id_of(ctrl));
  // Pair values with dense ids and sort by id: the pairing survives any
  // known-map iteration order, and ids are unambiguous within one key.
  std::vector<std::pair<uint64_t, bool>> kv;
  kv.reserve(known.size());
  for (const auto& [bit, value] : known)
    kv.emplace_back(id_of(bit), value);
  std::sort(kv.begin(), kv.end());
  for (const auto& [id, value] : kv)
    h = hash128_combine(h, id * 2 + (value ? 1 : 0));
  return h;
}

} // namespace

InferenceOracle::InferenceOracle(const SatRedundancyOptions& options) : options_(options) {
  // Every decision-affecting knob is folded into the memo keys: entries
  // recorded under one configuration must never answer queries made under
  // another (e.g. a wider sim threshold flips sim-vs-SAT routing).
  uint64_t salt = hash_mix(0x736d6172746c79ULL); // "smartly"
  salt = hash_combine(salt, static_cast<uint64_t>(options_.subgraph.depth));
  salt = hash_combine(salt, options_.subgraph.relevance_filter ? 1 : 0);
  salt = hash_combine(salt, static_cast<uint64_t>(options_.sim_max_inputs));
  salt = hash_combine(salt, static_cast<uint64_t>(options_.sat_max_inputs));
  salt = hash_combine(salt, static_cast<uint64_t>(options_.sat_conflict_budget));
  salt = hash_combine(salt, options_.use_inference ? 1 : 0);
  salt = hash_combine(salt, options_.use_sat ? 1 : 0);
  memo_salt_ = salt;
}

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
  // later stages and the memo key read the known bits in sorted order.
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

  // Persistent cross-job memo (service warm cache). The canonical key
  // renames every cone bit to a dense index, so a hit means some earlier
  // run — possibly another process — drove an isomorphic cone through the
  // full pipeline under identical options and got a definitive verdict.
  Hash128 key{};
  if (options_.memo != nullptr) {
    key = portable_query_key(sg, index_->sigmap(), ctrl, known_sorted_, memo_salt_);
    CtrlDecision memoized;
    if (options_.memo->lookup(key, &memoized)) {
      ++stats_.portable_hits;
      static obs::Counter& hits = obs::counter("oracle.memo_hits");
      hits.add();
      if (memoized == CtrlDecision::DeadPath)
        ++stats_.dead_paths;
      return memoized;
    }
    ++stats_.portable_misses;
    static obs::Counter& misses = obs::counter("oracle.memo_misses");
    misses.add();
  }

  bool definitive = false;
  const CtrlDecision d = decide_cone(ctrl, sg, unit, &definitive);
  // Zero/One/DeadPath are pure functions of the cone and constraints; an
  // Unknown enters the memo only when decide_cone proved it definitive.
  if (options_.memo != nullptr && (d != CtrlDecision::Unknown || definitive)) {
    options_.memo->insert(key, d);
    ++stats_.portable_inserts;
  }
  return d;
}

CtrlDecision InferenceOracle::decide_cone(SigBit ctrl, const Subgraph& sg, uint64_t unit,
                                          bool* definitive) {
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
  if (!options_.use_sat) {
    *definitive = true;
    return CtrlDecision::Unknown;
  }

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
  if (!target_lit) {
    *definitive = true;
    return CtrlDecision::Unknown;
  }

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
    case sim::Forced::None:
      *definitive = true; // exhaustive enumeration proved "not forced"
      return CtrlDecision::Unknown;
    }
  }

  // Stage 4b: SAT. Skip if the sub-graph is too large ("threshold for the
  // number of inputs … to prevent the optimization process from becoming a
  // bottleneck"). The threshold is in the memo salt, so the skip is
  // definitive.
  if (n_inputs > options_.sat_max_inputs) {
    ++stats_.skipped_too_large;
    *definitive = true;
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
  // Both-Sat is a proven "not forced"; a budget-exhausted Unknown is not.
  *definitive = r1 == sat::Result::Sat && r0 == sat::Result::Sat;
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
                                           const SatRedundancyOptions& options, int threads,
                                           opt::DecisionTrace* trace,
                                           opt::ParallelSweepStats* sweep_out,
                                           int max_iterations) {
  opt::ParallelSweepOptions po;
  po.threads = threads;
  po.ball_radius = options.subgraph.depth;
  po.guard = options.guard;
  po.quarantine = options.quarantine;
  if (max_iterations >= 0)
    po.max_iterations = std::min(po.max_iterations, static_cast<size_t>(max_iterations));
  po.make_oracle = [&options]() -> std::unique_ptr<opt::MuxtreeOracle> {
    return std::make_unique<InferenceOracle>(options);
  };

  opt::ParallelSweepEngine engine(module, po);
  const opt::ParallelSweepStats sweep = engine.run(trace);
  if (sweep_out)
    *sweep_out = sweep;

  // The oracles keep nothing between queries but their counters, so the sum
  // over workers is the same for every thread count and schedule.
  SatRedundancyStats stats;
  for (const auto& oracle : engine.oracles()) {
    const auto& os = static_cast<const InferenceOracle&>(*oracle).stats();
    stats.queries += os.queries;
    stats.decided_syntactic += os.decided_syntactic;
    stats.decided_inference += os.decided_inference;
    stats.decided_sim += os.decided_sim;
    stats.decided_sat += os.decided_sat;
    stats.dead_paths += os.dead_paths;
    stats.skipped_too_large += os.skipped_too_large;
    stats.gates_seen += os.gates_seen;
    stats.gates_kept += os.gates_kept;
    stats.sim_filter_kills += os.sim_filter_kills;
    stats.sim_filter_half += os.sim_filter_half;
    stats.sat_calls += os.sat_calls;
    stats.skipped_halt += os.skipped_halt;
    stats.skipped_quarantine += os.skipped_quarantine;
    stats.solver_conflicts += os.solver_conflicts;
    stats.portable_hits += os.portable_hits;
    stats.portable_misses += os.portable_misses;
    stats.portable_inserts += os.portable_inserts;
  }
  stats.walker = sweep.walker;
  return stats;
}

} // namespace smartly::core
