// Robustness suite (ctest label: robustness).
//
// Exercises the resource-governance + fault-injection subsystem across all
// four engines (fraig, cut-rewrite, region sweep, SAT oracle):
//
//   * seeded FaultPlan schedules (forced Unknowns, budget exhaustion at the
//     N-th solve, injected exceptions): under ANY schedule every engine must
//     terminate, the incrementally maintained NetlistIndex must equal a
//     from-scratch rebuild (check_index), and the output must stay
//     CEC-equivalent to the input;
//   * mid-round injected exceptions (throw_after): the engines' exception
//     containment must leave index and netlist consistent;
//   * exact fault schedules at every thread count: every engine fires its
//     fault points on one thread in canonical order (rewrite in its commit
//     loop, the others on the calling thread), so rewrite alone and the
//     whole smartly_flow with rewrite give byte-identical netlists and
//     statistics for 1/2/4/8 workers under every event-counted schedule;
//   * deterministic budgets (solver conflicts): the halt must land at the
//     same barrier on every run — across thread counts for rewrite, across
//     two fresh parses for fraig and the §II sweep;
//   * CancelToken / deadline / pre-halted guards: sound degradation, with
//     the ResourceReport recording what happened;
//   * the round barrier the fraig, rewrite and §II sweep loops share:
//     quarantined rounds are skipped, a round fault or a spent budget halts
//     before any round runs, identically for all three engines.
//
// Wall-clock deadlines are the one documented nondeterministic halt source;
// the deadline test therefore asserts only soundness, never schedules.
#include "backend/write_rtlil.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/sat_redundancy.hpp"
#include "core/smartly_pass.hpp"
#include "opt/opt_clean.hpp"
#include "opt/pipeline.hpp"
#include "rewrite/rewrite_engine.hpp"
#include "rtlil/module.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/recovery.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace smartly;
using rtlil::Module;

namespace {

/// Set by main() from --seed-offset; 0 means "not given on the command line".
uint64_t g_cli_seed_offset = 0;

/// CI reruns the suite over fresh schedules by passing `--seed-offset N` (or
/// exporting SMARTLY_FAULT_SEED_OFFSET; the flag wins) — it shifts every
/// FaultPlan seed (and the circuits derived from it) without recompiling.
uint64_t seed_offset() {
  if (g_cli_seed_offset != 0)
    return g_cli_seed_offset;
  const char* env = std::getenv("SMARTLY_FAULT_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

void expect_equivalent(const Module& gold, const Module& gate, const char* label) {
  const auto r = cec::check_equivalence(gold, gate);
  EXPECT_TRUE(r.equivalent) << label << ": differs at " << r.failing_output;
}

/// A seeded schedule mixing forced Unknowns and injected throws on the sites
/// matching `filter`. Seeds shift both the dice and the circuit.
util::FaultPlan mixed_plan(uint64_t seed, const char* filter) {
  util::FaultPlan plan;
  plan.seed = seed;
  plan.unknown_permille = 250;
  plan.throw_permille = 60;
  plan.site_filter = filter;
  return plan;
}

} // namespace

// --- seeded schedules: terminate + index-vs-rebuild + CEC -------------------

TEST(FaultInjection, FraigSchedulesTerminateAndStayEquivalent) {
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    const auto golden = rtlil::clone_design(*design);
    Module& top = *design->top();
    sweep::FraigOptions options;
    options.check_index = true; // throws std::logic_error if index != rebuild
    {
      util::FaultScope scope(mixed_plan(seed, "fraig"));
      sweep::fraig_sweep(top, options);
    }
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "fraig under fault schedule");
  }
}

TEST(FaultInjection, RewriteSchedulesTerminateAndStayEquivalent) {
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    const auto golden = rtlil::clone_design(*design);
    Module& top = *design->top();
    // Rewriting expects a fraiged netlist, but must tolerate any input.
    rewrite::RewriteOptions options;
    options.threads = 2;
    options.check_index = true;
    {
      util::FaultScope scope(mixed_plan(seed, "rewrite"));
      rewrite::rewrite_sweep(top, options);
    }
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "rewrite under fault schedule");
  }
}

TEST(FaultInjection, ParallelSweepSchedulesTerminateAndStayEquivalent) {
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    Module& top = *design->top();
    opt::coarse_opt(top); // expose muxtrees, as smartly_flow would
    const auto golden = rtlil::clone_design(*design);
    {
      // Hits both the sweep engine's own sites (sweep.region /
      // sweep.iteration) and the oracle's oracle.solve: an oracle throw
      // mid-walk exercises the journal-recovery path.
      util::FaultPlan plan = mixed_plan(seed, "");
      util::FaultScope scope(plan);
      core::sat_redundancy_parallel(top, {}, 1);
    }
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "parallel sweep under fault schedule");
  }
}

TEST(FaultInjection, OracleSchedulesTerminateAndStayEquivalent) {
  // The serial walker has no catch frame (only the engines contain injected
  // throws), so oracle-only schedules use the soundness degradation modes:
  // random forced Unknowns plus hard budget exhaustion at the N-th solve.
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    Module& top = *design->top();
    opt::coarse_opt(top);
    const auto golden = rtlil::clone_design(*design);
    {
      util::FaultPlan plan;
      plan.seed = seed;
      plan.unknown_permille = 300;
      plan.exhaust_after = static_cast<int64_t>(seed) * 3; // all later solves Unknown
      plan.site_filter = "oracle.solve";
      util::FaultScope scope(plan);
      core::sat_redundancy(top, {});
    }
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "oracle under exhaustion schedule");
  }
}

// --- exception safety: one-shot throws mid-run ------------------------------

TEST(FaultInjection, FraigMidRoundThrowLeavesIndexConsistent) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const int64_t after : {int64_t{1}, int64_t{5}, int64_t{20}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " after " + std::to_string(after));
      auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
      const auto golden = rtlil::clone_design(*design);
      Module& top = *design->top();
      sweep::FraigOptions options;
      options.check_index = true;
      sweep::FraigStats stats;
      {
        util::FaultPlan plan;
        plan.seed = seed;
        plan.throw_after = after; // one-shot throw at the N-th matching event
        plan.site_filter = "fraig";
        util::FaultScope scope(plan);
        stats = sweep::fraig_sweep(top, options);
        // The engine contains the injected exception iff the schedule
        // reached the site at all (tiny circuits may finish first).
        if (scope.events() >= static_cast<uint64_t>(after)) {
          EXPECT_EQ(stats.halted, 1u);
        }
      }
      opt::opt_clean(top);
      expect_equivalent(*golden->top(), top, "fraig mid-round throw");
    }
  }
}

TEST(FaultInjection, RewriteMidRoundThrowLeavesIndexConsistent) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const int64_t after : {int64_t{1}, int64_t{10}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " after " + std::to_string(after));
      auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
      const auto golden = rtlil::clone_design(*design);
      Module& top = *design->top();
      rewrite::RewriteOptions options;
      options.threads = 2;
      options.check_index = true;
      rewrite::RewriteStats stats;
      {
        util::FaultPlan plan;
        plan.seed = seed;
        plan.throw_after = after;
        plan.site_filter = "rewrite.eval"; // mid-batch, from a worker thread
        util::FaultScope scope(plan);
        stats = rewrite::rewrite_sweep(top, options);
        if (scope.events() >= static_cast<uint64_t>(after)) {
          EXPECT_EQ(stats.halted, 1u);
        }
      }
      opt::opt_clean(top);
      expect_equivalent(*golden->top(), top, "rewrite mid-batch throw");
    }
  }
}

// --- fault schedules: thread-count byte-identity ----------------------------

TEST(FaultInjection, RewriteByteIdenticalAcrossThreadCountsUnderFaultSchedules) {
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string src = benchgen::random_verilog(seed, 6);

    std::string first_netlist;
    rewrite::RewriteStats first_stats;
    bool have_first = false;
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      auto design = verilog::read_verilog(src);
      rewrite::RewriteOptions options;
      options.threads = threads;
      options.check_index = true; // index must equal a rebuild even after halts
      rewrite::RewriteStats stats;
      {
        // Forced Unknowns skip roots and injected throws end a round's
        // commit loop; both fire in canonical root order, so every thread
        // count must take the identical schedule.
        util::FaultScope scope(mixed_plan(seed, "rewrite"));
        stats = rewrite::rewrite_sweep(*design->top(), options);
      }
      const std::string netlist = backend::write_rtlil(*design->top());
      if (!have_first) {
        first_netlist = netlist;
        first_stats = stats;
        have_first = true;
      } else {
        EXPECT_EQ(netlist, first_netlist);
        EXPECT_TRUE(rewrite::same_work(stats, first_stats)); // incl. halted, skipped_roots
      }
    }
  }
}

namespace {

/// Every §II counter: the oracle's and the region engine's.
std::vector<uint64_t> sat_counters(const core::SmartlyStats& s) {
  const core::SatRedundancyStats& o = s.sat;
  const opt::ParallelSweepStats& r = s.sweep;
  return {o.queries, o.decided_syntactic, o.decided_inference, o.decided_sim,
          o.decided_sat, o.dead_paths, o.skipped_too_large, o.gates_seen, o.gates_kept,
          o.sim_filter_kills, o.sim_filter_half, o.sat_calls, o.skipped_halt,
          o.skipped_quarantine, o.solver_conflicts, o.walker.mux_collapsed,
          o.walker.pmux_branches_removed, o.walker.data_bits_replaced,
          o.walker.oracle_queries, o.walker.iterations, r.regions, r.region_walks,
          r.regions_skipped_clean, r.region_merges, r.regions_skipped_halt, r.quarantined,
          r.halted};
}

} // namespace

TEST(FaultInjection, FlowByteIdenticalAcrossThreadCountsUnderFaultSchedules) {
  // One event-counted plan over every site of smartly_flow (§II sweep and
  // oracle, fraig, rewrite): the thread count may only change rewrite's
  // evaluation batch, so every engine must take the identical schedule.
  for (uint64_t s = 1; s <= 10; ++s) {
    const uint64_t seed = seed_offset() + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string src = benchgen::random_verilog(seed, 6);

    std::string first_netlist;
    core::SmartlyStats first_stats;
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      auto design = verilog::read_verilog(src);
      core::SmartlyOptions options;
      options.threads = threads;
      options.enable_rewrite = true;
      core::SmartlyStats stats;
      {
        util::FaultScope scope(mixed_plan(seed, ""));
        stats = core::smartly_flow(*design->top(), options);
      }
      const std::string netlist = backend::write_rtlil(*design->top());
      if (threads == 1) {
        first_netlist = netlist;
        first_stats = stats;
        continue;
      }
      EXPECT_EQ(netlist, first_netlist);
      EXPECT_EQ(sat_counters(stats), sat_counters(first_stats));
      EXPECT_TRUE(sweep::same_work(stats.fraig, first_stats.fraig));
      EXPECT_TRUE(rewrite::same_work(stats.rewrite, first_stats.rewrite));
    }
  }
}

// --- deterministic budgets: the halt lands at the same barrier ---------------
//
// Fraig and the §II sweep run on the calling thread; their budget halts are
// compared across two parses alive at once (different cell addresses), which
// pointer-keyed iteration order could still break.

TEST(ResourceBudgets, FraigConflictBudgetHaltsIdenticallyOnFreshParses) {
  const std::string src = benchgen::random_verilog(7, 7);
  const std::unique_ptr<rtlil::Design> designs[] = {verilog::read_verilog(src),
                                                    verilog::read_verilog(src)};
  std::string first;
  sweep::FraigStats first_stats;
  bool first_halted = false;
  for (const auto& design : designs) {
    Module& top = *design->top();
    util::ResourceBudgets budgets;
    budgets.solver_conflicts = 0; // trip at the first barrier that saw a conflict
    util::ResourceGuard guard(budgets);
    sweep::FraigOptions options;
    options.guard = &guard;
    options.check_index = true;
    const sweep::FraigStats stats = sweep::fraig_sweep(top, options);
    opt::opt_clean(top);
    const std::string netlist = backend::write_rtlil(top);
    if (first.empty()) {
      first = netlist;
      first_stats = stats;
      first_halted = guard.halted();
    } else {
      EXPECT_EQ(netlist, first);
      EXPECT_TRUE(sweep::same_work(stats, first_stats));
      EXPECT_EQ(guard.halted(), first_halted);
    }
  }
}

TEST(ResourceBudgets, ParallelSweepConflictBudgetHaltsIdenticallyOnFreshParses) {
  const std::string src = benchgen::random_verilog(11, 7);
  const std::unique_ptr<rtlil::Design> designs[] = {verilog::read_verilog(src),
                                                    verilog::read_verilog(src)};
  std::string first;
  for (const auto& design : designs) {
    Module& top = *design->top();
    opt::coarse_opt(top);
    util::ResourceBudgets budgets;
    budgets.solver_conflicts = 0;
    util::ResourceGuard guard(budgets);
    core::SatRedundancyOptions options;
    options.guard = &guard;
    core::sat_redundancy_parallel(top, options, 1);
    opt::opt_clean(top);
    const std::string netlist = backend::write_rtlil(top);
    if (first.empty())
      first = netlist;
    else
      EXPECT_EQ(netlist, first);
  }
}

// --- sound degradation through the combined pass ----------------------------

TEST(ResourceBudgets, SmartlyPassDegradesSoundlyUnderConflictBudget) {
  auto design = verilog::read_verilog(benchgen::random_verilog(3, 7));
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();
  core::SmartlyOptions options;
  options.threads = 2;
  options.enable_rewrite = true;
  options.budgets.solver_conflicts = 0;
  const core::SmartlyStats stats = core::smartly_flow(top, options);
  expect_equivalent(*golden->top(), top, "smartly_flow under conflict budget");
  // The report reflects the guard the pass built from options.budgets; the
  // only configured budget is the conflict cap, so any halt must be its trip
  // (conflicts charged by the very last solve legitimately never reach a
  // later barrier, so an un-halted run with conflicts > 0 is also valid).
  if (stats.resource.halted()) {
    EXPECT_EQ(stats.resource.tripped, util::BudgetKind::Conflicts);
  }
}

TEST(ResourceBudgets, CancelledTokenHaltsEverythingSoundly) {
  auto design = verilog::read_verilog(benchgen::random_verilog(5, 6));
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();
  util::CancelToken cancel;
  cancel.cancel(); // cancelled before the pass even starts
  core::SmartlyOptions options;
  options.enable_fraig = true;
  options.cancel = &cancel;
  const core::SmartlyStats stats = core::smartly_flow(top, options);
  expect_equivalent(*golden->top(), top, "smartly_flow cancelled up front");
  EXPECT_EQ(stats.resource.tripped, util::BudgetKind::Cancelled);
}

TEST(ResourceBudgets, ZeroDeadlineHaltsSoundly) {
  // deadline_ms is the documented nondeterministic mode: assert soundness
  // (termination + equivalence + a deadline trip), never exact schedules.
  auto design = verilog::read_verilog(benchgen::random_verilog(9, 6));
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();
  core::SmartlyOptions options;
  options.enable_fraig = true;
  options.budgets.deadline_ms = 0;
  const core::SmartlyStats stats = core::smartly_flow(top, options);
  expect_equivalent(*golden->top(), top, "smartly_flow with expired deadline");
  EXPECT_EQ(stats.resource.tripped, util::BudgetKind::Deadline);
}

TEST(ResourceBudgets, CecDegradesToInconclusiveOnHaltedGuard) {
  // Two equivalent majority implementations whose AIGs differ structurally
  // (strash cannot fold them), so the miter needs SAT — which the
  // pre-halted guard refuses.
  const char* gold_src = "module top(a, b, c, y);\n  input a, b, c;\n  output y;\n"
                         "  assign y = (a & b) | (b & c) | (a & c);\nendmodule\n";
  const char* gate_src = "module top(a, b, c, y);\n  input a, b, c;\n  output y;\n"
                         "  assign y = (a & (b | c)) | (b & c);\nendmodule\n";
  auto gold = verilog::read_verilog(gold_src);
  auto gate = verilog::read_verilog(gate_src);

  util::ResourceBudgets budgets;
  util::ResourceGuard guard(budgets);
  guard.halt(util::BudgetKind::Deadline);
  cec::CecOptions options;
  options.guard = &guard;
  const auto r = cec::check_equivalence(*gold->top(), *gate->top(), options);
  EXPECT_FALSE(r.equivalent);
  EXPECT_TRUE(r.inconclusive);
  EXPECT_FALSE(r.failing_output.empty());

  // Ungoverned, the same check proves equivalence — the degradation above
  // came from the guard, not from the designs.
  const auto full = cec::check_equivalence(*gold->top(), *gate->top());
  EXPECT_TRUE(full.equivalent);
}

TEST(ResourceBudgets, GrowthBudgetStopsRewriteExpansion) {
  // A zero-growth cap: the rewrite engine may only shrink. The run must
  // terminate, stay equivalent, and never end above the baseline cell count
  // once opt_clean has swept the predicted-dead cones.
  auto design = verilog::read_verilog(benchgen::random_verilog(13, 7));
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();
  const size_t baseline = top.cell_count();
  util::ResourceBudgets budgets;
  budgets.max_growth_pct = 0;
  util::ResourceGuard guard(budgets);
  guard.set_growth_baseline(baseline);
  rewrite::RewriteOptions options;
  options.threads = 2;
  options.guard = &guard;
  options.check_index = true;
  rewrite::rewrite_sweep(top, options);
  opt::opt_clean(top);
  expect_equivalent(*golden->top(), top, "rewrite under zero growth cap");
}

// --- the shared round barrier: one table over all three round loops ---------

namespace {

/// What an engine's round loop reports.
struct BarrierRun {
  size_t rounds = 0;
  size_t quarantined = 0;
  size_t halted = 0;
};

/// One round-based engine: the site its barrier checks before each round,
/// and a run under an optional guard and quarantine set (rewrite on two
/// threads).
struct BarrierEngine {
  const char* site;
  BarrierRun (*run)(Module&, util::ResourceGuard*, const util::QuarantineSet*);
};

BarrierRun run_fraig(Module& m, util::ResourceGuard* guard, const util::QuarantineSet* q) {
  sweep::FraigOptions o;
  o.guard = guard;
  o.quarantine = q;
  o.check_index = true;
  const sweep::FraigStats s = sweep::fraig_sweep(m, o);
  return {s.rounds, s.quarantined, s.halted};
}

BarrierRun run_rewrite(Module& m, util::ResourceGuard* guard, const util::QuarantineSet* q) {
  rewrite::RewriteOptions o;
  o.threads = 2;
  o.guard = guard;
  o.quarantine = q;
  o.check_index = true;
  const rewrite::RewriteStats s = rewrite::rewrite_sweep(m, o);
  return {s.rounds, s.quarantined, s.halted};
}

BarrierRun run_sat_sweep(Module& m, util::ResourceGuard* guard, const util::QuarantineSet* q) {
  core::SatRedundancyOptions o;
  o.guard = guard;
  o.quarantine = q;
  opt::ParallelSweepStats s;
  core::sat_redundancy_parallel(m, o, 1, nullptr, &s);
  return {s.walker.iterations, s.quarantined, s.halted};
}

const BarrierEngine kBarrierEngines[] = {
    {"fraig.round", run_fraig},
    {"rewrite.round", run_rewrite},
    {"sweep.iteration", run_sat_sweep},
};

/// A small design with muxtrees (§II), equivalent nets (fraig) and
/// rewritable cuts (rewrite), as smartly_flow would hand them over.
std::unique_ptr<rtlil::Design> barrier_design() {
  auto design = verilog::read_verilog(benchgen::random_verilog(3, 6));
  opt::coarse_opt(*design->top());
  return design;
}

} // namespace

TEST(RoundBarrier, QuarantinedFirstRoundIsSkipped) {
  for (const BarrierEngine& engine : kBarrierEngines) {
    SCOPED_TRACE(engine.site);
    auto design = barrier_design();
    const auto golden = rtlil::clone_design(*design);
    util::QuarantineSet quarantine;
    quarantine.add(engine.site, 1);
    const BarrierRun r = engine.run(*design->top(), nullptr, &quarantine);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.halted, 0u);
    EXPECT_GE(r.rounds, 1u); // skipped round 1, kept iterating
    opt::opt_clean(*design->top());
    expect_equivalent(*golden->top(), *design->top(), engine.site);
  }
}

TEST(RoundBarrier, RoundFaultHaltsBeforeTheFirstRound) {
  for (const BarrierEngine& engine : kBarrierEngines) {
    SCOPED_TRACE(engine.site);
    auto design = barrier_design();
    const auto golden = rtlil::clone_design(*design);
    util::ResourceGuard guard;
    BarrierRun r;
    {
      util::FaultPlan plan;
      plan.throw_after = 1; // fire on the first round event
      plan.site_filter = engine.site;
      util::FaultScope scope(plan);
      r = engine.run(*design->top(), &guard, nullptr);
    }
    EXPECT_EQ(r.halted, 1u);
    EXPECT_EQ(r.rounds, 0u);
    EXPECT_EQ(guard.tripped(), util::BudgetKind::Fault);
    const util::FaultReport fault = guard.fault_report();
    EXPECT_TRUE(fault.valid);
    EXPECT_EQ(fault.site, engine.site);
    EXPECT_EQ(fault.unit, 1u);
    EXPECT_EQ(guard.report().halted_engines, 1u);
    opt::opt_clean(*design->top());
    expect_equivalent(*golden->top(), *design->top(), engine.site);
  }
}

TEST(RoundBarrier, SpentBudgetHaltsAtTheFirstBarrier) {
  for (const BarrierEngine& engine : kBarrierEngines) {
    SCOPED_TRACE(engine.site);
    auto design = barrier_design();
    util::ResourceBudgets budgets;
    budgets.solver_conflicts = 0;
    util::ResourceGuard guard(budgets);
    guard.charge_conflicts(1); // spent before the engine starts
    const BarrierRun r = engine.run(*design->top(), &guard, nullptr);
    EXPECT_EQ(r.halted, 1u);
    EXPECT_EQ(r.rounds, 0u);
    EXPECT_EQ(guard.tripped(), util::BudgetKind::Conflicts);
    EXPECT_EQ(guard.report().halted_engines, 1u);
  }
}

/// Custom main so the seed offset is also reachable as a CLI flag
/// (`test_faults --seed-offset 1000` or `--seed-offset=1000`) — more
/// convenient than the env var in ctest invocations and repro one-liners.
/// Defining main here shadows the one in GTest::gtest_main (the static
/// library's main object is only pulled in when the symbol is unresolved).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed-offset") == 0 && i + 1 < argc) {
      g_cli_seed_offset = std::strtoull(argv[i + 1], nullptr, 10);
      ++i;
    } else if (std::strncmp(argv[i], "--seed-offset=", 14) == 0) {
      g_cli_seed_offset = std::strtoull(argv[i] + 14, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
