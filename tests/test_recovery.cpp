// Transactional recovery suite (ctest label: robustness).
//
// Covers the recovery layer end to end:
//   * stable unit ids and the QuarantineSet container;
//   * StageTransaction rollback byte-identity (write_rtlil dump compare);
//   * run_protected_stage semantics: fault-injected throws, guard fault
//     halts, paranoid miscompare detection with round bisection, retry
//     exhaustion (skip, module keeps the pre-stage image), and the rule
//     that real budget trips are degradation, not failures;
//   * repro bundles: field-level write/read round trip, emission during a
//     recovering pass, and deterministic in-process replay of a bundle's
//     design.v under its recorded FaultPlan + quarantine;
//   * seeded unit-keyed schedules (>= 10 per engine: sweep oracle, fraig,
//     rewrite): every run completes, the output stays CEC-equivalent, and
//     the quarantine decisions are identical on two parses alive at once.
#include "backend/write_rtlil.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "opt/opt_clean.hpp"
#include "opt/pipeline.hpp"
#include "opt/transaction.hpp"
#include "rtlil/module.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/recovery.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

using namespace smartly;
using rtlil::Module;

namespace {

void expect_equivalent(const Module& gold, const Module& gate, const char* label) {
  const auto r = cec::check_equivalence(gold, gate);
  EXPECT_TRUE(r.equivalent) << label << ": differs at " << r.failing_output;
}

/// Unit-keyed schedule: hash(seed, site, unit) decides per work item, so the
/// same units fault whatever the event order and in every re-run.
util::FaultPlan unit_plan(uint64_t seed, const char* filter, uint32_t throw_pm = 120) {
  util::FaultPlan plan;
  plan.seed = seed;
  plan.throw_permille = throw_pm;
  plan.site_filter = filter;
  plan.unit_keyed = true;
  return plan;
}

/// The quarantine decisions of one run, in QuarantineSet order — the
/// determinism witness across parses.
std::string quarantine_of(const util::RecoveryStats& stats) {
  util::QuarantineSet q;
  for (const util::RecoveryEvent& ev : stats.events)
    if (ev.quarantined)
      q.add(ev.site, ev.unit);
  return q.serialize();
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "smartly-recovery-" + tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

} // namespace

// --- unit ids and the quarantine container ----------------------------------

TEST(UnitIds, StableNonzeroAndDistinct) {
  const uint64_t a0 = util::bit_unit_id("a", 0);
  EXPECT_NE(a0, 0u);
  EXPECT_EQ(a0, util::bit_unit_id("a", 0)); // pure function of (name, offset)
  EXPECT_NE(a0, util::bit_unit_id("a", 1));
  EXPECT_NE(a0, util::bit_unit_id("b", 0));
}

TEST(QuarantineSet, AddContainsAndSortedSerialization) {
  util::QuarantineSet q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.serialize(), "");
  EXPECT_TRUE(q.add("fraig.solve", 0x2a));
  EXPECT_TRUE(q.add("sweep.region", 0x1));
  EXPECT_FALSE(q.add("fraig.solve", 0x2a)); // duplicate
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.contains("fraig.solve", 0x2a));
  EXPECT_FALSE(q.contains("fraig.solve", 0x2b));
  EXPECT_FALSE(q.contains("fraig.round", 0x2a));

  // Sorted order is independent of insertion order.
  util::QuarantineSet r;
  r.add("sweep.region", 0x1);
  r.add("fraig.solve", 0x2a);
  EXPECT_EQ(q.serialize(), r.serialize());

  const util::QuarantineSet back = util::QuarantineSet::parse(q.serialize());
  EXPECT_EQ(back.serialize(), q.serialize());
  EXPECT_TRUE(back.contains("fraig.solve", 0x2a));
}

TEST(QuarantineSet, SerializeParseRoundTripsRandomSets) {
  // Property check over seeded random sets: parse(serialize(q)) must
  // reproduce q exactly — the service daemon persists the set through this
  // path on every quarantine, so a lossy round trip silently un-quarantines
  // crash loopers after a restart.
  Rng rng(0x5e7c0de);
  const char* sites[] = {"fraig.solve", "sweep.region", "rewrite.cut", "service.job"};
  for (int round = 0; round < 50; ++round) {
    util::QuarantineSet q;
    const int n = static_cast<int>(rng.range(0, 12));
    for (int i = 0; i < n; ++i)
      q.add(sites[rng.below(4)], rng.next());

    const std::string text = q.serialize();
    const util::QuarantineSet back = util::QuarantineSet::parse(text);
    EXPECT_EQ(back.serialize(), text) << "round " << round;
    EXPECT_EQ(back.size(), q.size()) << "round " << round;
    for (const auto& [site, unit] : q.entries())
      EXPECT_TRUE(back.contains(site.c_str(), unit)) << "round " << round;
  }
}

TEST(QuarantineSet, ParseToleratesMalformedInput) {
  // The on-disk file is evidence, not trusted input: damaged fragments are
  // dropped, valid ones survive, and nothing throws.
  struct Case {
    const char* text;
    size_t survivors;
  };
  const Case cases[] = {
      {"", 0},
      {",,,", 0},
      {"nocolon", 0},
      {":2a", 0},                          // empty site
      {"site:", 0},                        // empty unit
      {"site:zzzz", 0},                    // non-hex unit
      {"a:1,b:nothex,c:2", 2},             // damage in the middle
      {"a:1,a:1,a:1", 1},                  // duplicates collapse
      {"fraig.solve:2a,sweep.region:1", 2} // fully valid control
  };
  for (const Case& c : cases) {
    const util::QuarantineSet q = util::QuarantineSet::parse(c.text);
    EXPECT_EQ(q.size(), c.survivors) << "input: " << c.text;
    // Whatever survived must re-serialize stably (idempotent fixpoint).
    EXPECT_EQ(util::QuarantineSet::parse(q.serialize()).serialize(), q.serialize())
        << "input: " << c.text;
  }
}

TEST(QuarantineSet, ParseFuzzNeverThrowsAndReachesFixpoint) {
  // Byte-level fuzz of the parser with seed-stable garbage: arbitrary
  // bytes must never throw, and one parse+serialize pass must reach the
  // canonical form (parsing the output changes nothing).
  Rng rng(0xfadedbed);
  const char alphabet[] = "abc.:,0123456789xyzABC \t\n-_";
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const int len = static_cast<int>(rng.range(0, 64));
    for (int i = 0; i < len; ++i)
      text.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);

    const util::QuarantineSet q = util::QuarantineSet::parse(text);
    const std::string canon = q.serialize();
    EXPECT_EQ(util::QuarantineSet::parse(canon).serialize(), canon)
        << "round " << round << " input: " << text;
  }
}

// --- StageTransaction: the rollback primitive -------------------------------

TEST(StageTransaction, RollbackIsByteIdentical) {
  auto design = verilog::read_verilog(benchgen::random_verilog(17, 6));
  Module& top = *design->top();
  const std::string before = backend::write_rtlil(top);

  opt::StageTransaction txn(top, "test");
  // Wreck the module thoroughly: a full optimization pass plus extra cells.
  core::smartly_flow(top);
  top.Not(rtlil::SigSpec(top.new_wire(4)));
  ASSERT_NE(backend::write_rtlil(top), before);

  txn.rollback();
  EXPECT_EQ(backend::write_rtlil(top), before);
  // The name counter rolls back too: fresh names after a rollback match the
  // names a never-touched module would generate (replay determinism).
  auto pristine = verilog::read_verilog(benchgen::random_verilog(17, 6));
  EXPECT_EQ(top.new_wire(1)->name(), pristine->top()->new_wire(1)->name());
}

// --- run_protected_stage semantics ------------------------------------------

TEST(ProtectedStage, DisabledContextRunsBodyUnwrapped) {
  auto design = verilog::read_verilog(benchgen::random_verilog(2, 5));
  Module& top = *design->top();
  int calls = 0;
  const auto out = opt::run_protected_stage(top, "noop", nullptr, nullptr,
                                            [&](Module&, int) { ++calls; });
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(calls, 1);
}

TEST(ProtectedStage, FaultInjectedRollsBackQuarantinesAndRetries) {
  auto design = verilog::read_verilog(benchgen::random_verilog(3, 5));
  Module& top = *design->top();
  const std::string before = backend::write_rtlil(top);
  const uint64_t unit = util::bit_unit_id("victim", 0);

  opt::RecoveryContext ctx;
  ctx.options.enabled = true;
  int calls = 0;
  const auto out = opt::run_protected_stage(
      top, "stage", &ctx, nullptr, [&](Module& m, int) {
        if (++calls == 1) {
          m.Not(rtlil::SigSpec(m.new_wire(1))); // dirty the module first
          throw util::FaultInjected("test.site", unit);
        }
      });

  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(ctx.stats.rollbacks, 1u);
  EXPECT_EQ(ctx.stats.retries, 1u);
  EXPECT_EQ(ctx.stats.quarantined_units, 1u);
  EXPECT_TRUE(ctx.quarantine.contains("test.site", unit));
  ASSERT_EQ(ctx.stats.events.size(), 1u);
  EXPECT_EQ(ctx.stats.events[0].reason, "fault-injected");
  EXPECT_EQ(ctx.stats.events[0].site, "test.site");
  EXPECT_EQ(ctx.stats.events[0].unit, unit);
  EXPECT_TRUE(ctx.stats.events[0].quarantined);
  // The retry ran against the rolled-back image and committed it untouched.
  EXPECT_EQ(backend::write_rtlil(top), before);
}

TEST(ProtectedStage, GuardFaultHaltIsAFailureAndGetsCleared) {
  auto design = verilog::read_verilog(benchgen::random_verilog(5, 5));
  Module& top = *design->top();
  util::ResourceGuard guard;
  const uint64_t unit = util::bit_unit_id("worker-item", 2);

  opt::RecoveryContext ctx;
  ctx.options.enabled = true;
  int calls = 0;
  const auto out = opt::run_protected_stage(
      top, "stage", &ctx, &guard, [&](Module&, int) {
        if (++calls == 1) {
          // What an engine does when a worker's FaultInjected is contained.
          guard.note_fault("fraig.solve", unit);
          guard.halt(util::BudgetKind::Fault);
        }
      });

  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(ctx.stats.events.size(), 1u);
  EXPECT_EQ(ctx.stats.events[0].reason, "fault-halt");
  EXPECT_EQ(ctx.stats.events[0].unit, unit);
  EXPECT_TRUE(ctx.quarantine.contains("fraig.solve", unit));
  // The Fault trip (and its report) must not leak past the stage.
  EXPECT_EQ(guard.tripped(), util::BudgetKind::None);
  EXPECT_FALSE(guard.fault_report().valid);
}

TEST(ProtectedStage, RealBudgetTripIsDegradationNotFailure) {
  auto design = verilog::read_verilog(benchgen::random_verilog(7, 5));
  Module& top = *design->top();
  util::ResourceGuard guard;

  opt::RecoveryContext ctx;
  ctx.options.enabled = true;
  const auto out = opt::run_protected_stage(
      top, "stage", &ctx, &guard,
      [&](Module&, int) { guard.halt(util::BudgetKind::Conflicts); });

  // Sound degradation: partial output kept, no rollback, trip stays sticky.
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(ctx.stats.rollbacks, 0u);
  EXPECT_EQ(guard.tripped(), util::BudgetKind::Conflicts);
}

TEST(ProtectedStage, RetryExhaustionSkipsStageAndKeepsPreImage) {
  auto design = verilog::read_verilog(benchgen::random_verilog(9, 5));
  Module& top = *design->top();
  const std::string before = backend::write_rtlil(top);

  opt::RecoveryContext ctx;
  ctx.options.enabled = true;
  ctx.options.max_retries = 2;
  int calls = 0;
  const auto out = opt::run_protected_stage(
      top, "stage", &ctx, nullptr, [&](Module& m, int) {
        ++calls;
        m.new_wire(1);
        throw util::FaultInjected("test.site", util::bit_unit_id("u", calls));
      });

  EXPECT_FALSE(out.committed);
  EXPECT_TRUE(out.skipped);
  EXPECT_EQ(out.attempts, 3); // 1 + max_retries
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(ctx.stats.rollbacks, 3u);
  EXPECT_EQ(ctx.stats.retries, 2u);
  EXPECT_EQ(ctx.stats.stages_skipped, 1u);
  EXPECT_TRUE(ctx.stats.events.back().skipped);
  EXPECT_EQ(backend::write_rtlil(top), before); // pre-stage image survives
}

TEST(ProtectedStage, ParanoidCatchesSilentCorruptionAndBisects) {
  // A "buggy transform": attempt 1 silently inverts the first output — no
  // throw, no fault halt, Module::check still passes. Only the paranoid CEC
  // can catch it.
  auto design = verilog::read_verilog(
      "module top(a, b, y);\n  input [3:0] a, b;\n  output [3:0] y;\n"
      "  assign y = a & b;\nendmodule\n");
  Module& top = *design->top();
  const std::string before = backend::write_rtlil(top);

  opt::RecoveryContext ctx;
  ctx.options.enabled = true;
  ctx.options.paranoid = true;
  int calls = 0;
  const auto out = opt::run_protected_stage(
      top, "stage", &ctx, nullptr, [&](Module& m, int) {
        if (++calls > 1)
          return; // bisection probes and the retry behave correctly
        rtlil::Wire* y = m.wire("y");
        ASSERT_NE(y, nullptr);
        for (const auto& c : m.cells()) {
          if (c->has_port(rtlil::Port::Y) &&
              c->port(rtlil::Port::Y) == rtlil::SigSpec(y)) {
            // Interpose an inverter between the driver and the output.
            rtlil::Wire* t = m.new_wire(y->width());
            c->set_port(rtlil::Port::Y, rtlil::SigSpec(t));
            m.connect(rtlil::SigSpec(y), m.Not(rtlil::SigSpec(t)));
            return;
          }
        }
        FAIL() << "output driver not found";
      });

  EXPECT_TRUE(out.committed);
  EXPECT_EQ(ctx.stats.paranoid_miscompares, 1u);
  EXPECT_GE(ctx.stats.paranoid_checks, 2u);
  EXPECT_EQ(ctx.stats.rollbacks, 1u);
  ASSERT_EQ(ctx.stats.events.size(), 1u);
  EXPECT_EQ(ctx.stats.events[0].reason, "paranoid-miscompare");
  EXPECT_EQ(backend::write_rtlil(top), before); // retry committed a no-op body
}

// --- repro bundles -----------------------------------------------------------

TEST(ReproBundles, WriteReadRoundTrip) {
  util::ReproBundle bundle;
  bundle.design_verilog = "module top(a, y);\n  input a;\n  output y;\n"
                          "  assign y = a;\nendmodule\n";
  bundle.stage = "fraig";
  bundle.reason = "fault-halt";
  bundle.site = "fraig.solve";
  bundle.unit = 0xdeadbeef12345678ull;
  bundle.attempt = 2;
  bundle.plan_active = true;
  bundle.plan.seed = 42;
  bundle.plan.throw_permille = 120;
  bundle.plan.unknown_permille = 7;
  bundle.plan.exhaust_after = 99;
  bundle.plan.throw_after = 5;
  bundle.plan.site_filter = "fraig";
  bundle.plan.unit_keyed = true;
  bundle.quarantine = "fraig.solve:2a,sweep.region:1";
  bundle.options = "sat=1 rebuild=1 fraig=0 rewrite=1 paranoid=0 retries=3";

  const std::string dir = fresh_dir("bundle-rt");
  const std::string path = util::write_repro_bundle(dir, bundle, 3);
  ASSERT_FALSE(path.empty());

  util::ReproBundle back;
  std::string error;
  ASSERT_TRUE(util::read_repro_bundle(path, &back, &error)) << error;
  EXPECT_EQ(back.design_verilog, bundle.design_verilog);
  EXPECT_EQ(back.stage, bundle.stage);
  EXPECT_EQ(back.reason, bundle.reason);
  EXPECT_EQ(back.site, bundle.site);
  EXPECT_EQ(back.unit, bundle.unit);
  EXPECT_EQ(back.attempt, bundle.attempt);
  ASSERT_TRUE(back.plan_active);
  EXPECT_EQ(back.plan.seed, bundle.plan.seed);
  EXPECT_EQ(back.plan.throw_permille, bundle.plan.throw_permille);
  EXPECT_EQ(back.plan.unknown_permille, bundle.plan.unknown_permille);
  EXPECT_EQ(back.plan.exhaust_after, bundle.plan.exhaust_after);
  EXPECT_EQ(back.plan.throw_after, bundle.plan.throw_after);
  EXPECT_EQ(back.plan.site_filter, bundle.plan.site_filter);
  EXPECT_EQ(back.plan.unit_keyed, bundle.plan.unit_keyed);
  EXPECT_EQ(back.quarantine, bundle.quarantine);
  EXPECT_EQ(back.options, bundle.options);
  std::filesystem::remove_all(dir);

  EXPECT_FALSE(util::read_repro_bundle(dir + "/missing", &back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ReproBundles, EmittedDuringRecoveryAndReplayDeterministically) {
  // Run a recovering pass until a fraig bundle is emitted, then replay its
  // design.v in-process under the recorded plan + quarantine and demand the
  // exact same site:unit faults again.
  const std::string dir = fresh_dir("bundle-emit");
  std::string bundle_dir;
  for (uint64_t seed = 1; seed <= 30 && bundle_dir.empty(); ++seed) {
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    Module& top = *design->top();
    core::SmartlyOptions options;
    options.enable_fraig = true;
    options.recovery.enabled = true;
    options.recovery.repro_dir = dir;
    util::FaultScope scope(unit_plan(seed, "fraig"));
    const auto stats = core::smartly_flow(top, options);
    for (const util::RecoveryEvent& ev : stats.recovery.events)
      if (!ev.bundle_dir.empty() && ev.stage == "fraig" && ev.unit != 0)
        bundle_dir = ev.bundle_dir;
  }
  ASSERT_FALSE(bundle_dir.empty()) << "no seed produced a fraig bundle";

  util::ReproBundle bundle;
  std::string error;
  ASSERT_TRUE(util::read_repro_bundle(bundle_dir, &bundle, &error)) << error;
  ASSERT_TRUE(bundle.plan_active);
  EXPECT_EQ(bundle.stage, "fraig");
  ASSERT_NE(bundle.unit, 0u);

  // Replay twice: determinism means identical fault attribution both times.
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("replay run " + std::to_string(run));
    auto design = verilog::read_verilog(bundle.design_verilog);
    ASSERT_NE(design->top(), nullptr);
    const util::QuarantineSet quarantine = util::QuarantineSet::parse(bundle.quarantine);
    util::ResourceGuard guard;
    sweep::FraigOptions options;
    options.guard = &guard;
    options.quarantine = &quarantine;
    std::string site;
    uint64_t unit = 0;
    util::FaultScope scope(bundle.plan);
    try {
      sweep::fraig_sweep(*design->top(), options);
      const util::FaultReport fr = guard.fault_report();
      ASSERT_TRUE(fr.valid) << "replay did not reproduce a fault";
      site = fr.site;
      unit = fr.unit;
    } catch (const util::FaultInjected& e) {
      site = e.site();
      unit = e.unit();
    }
    EXPECT_EQ(site, bundle.site);
    EXPECT_EQ(unit, bundle.unit);
  }
  std::filesystem::remove_all(dir);
}

// --- seeded schedules through the full pass ---------------------------------

namespace {

/// >= 10 unit-keyed schedules against one engine family: the pass must
/// complete, recover (or degrade) internally, and stay CEC-equivalent.
/// `force_sat_stage` disables the oracle's simulation filter so queries
/// actually reach the oracle.solve injection point (on small random
/// circuits the filter otherwise settles everything short of SAT).
void run_engine_schedules(const char* filter, bool enable_fraig, bool enable_rewrite,
                          bool force_sat_stage = false) {
  uint64_t recovery_events = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(std::string(filter) + " seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    const auto golden = rtlil::clone_design(*design);
    Module& top = *design->top();
    core::SmartlyOptions options;
    options.enable_fraig = enable_fraig;
    options.enable_rewrite = enable_rewrite;
    options.recovery.enabled = true;
    if (force_sat_stage)
      options.sat.sim_max_inputs = 0;
    core::SmartlyStats stats;
    {
      util::FaultScope scope(unit_plan(seed, filter));
      stats = core::smartly_flow(top, options);
    }
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "recovering flow under fault schedule");
    EXPECT_GT(stats.recovery.stages, 0u);
    recovery_events += stats.recovery.events.size();
    // Every recovery event must be internally consistent.
    for (const util::RecoveryEvent& ev : stats.recovery.events) {
      EXPECT_FALSE(ev.stage.empty());
      EXPECT_FALSE(ev.reason.empty());
      EXPECT_GE(ev.attempt, 1);
      if (ev.quarantined) {
        EXPECT_NE(ev.unit, 0u);
      }
    }
  }
  // The schedules are hot enough that at least one seed recovers; without
  // this the suite could silently degenerate into testing nothing.
  EXPECT_GT(recovery_events, 0u) << filter;
}

} // namespace

TEST(RecoverySchedules, OracleSweep) {
  run_engine_schedules("oracle.solve", false, false, /*force_sat_stage=*/true);
}
TEST(RecoverySchedules, SweepEngine) { run_engine_schedules("sweep", false, false); }
TEST(RecoverySchedules, FraigEngine) { run_engine_schedules("fraig", true, false); }
TEST(RecoverySchedules, RewriteEngine) { run_engine_schedules("rewrite", false, true); }

// --- determinism across parses ----------------------------------------------

TEST(RecoverySchedules, QuarantineIdenticalOnFreshParses) {
  // Two parses alive at once put every wire and cell at a different address;
  // the recovery layer must quarantine the same units on both.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string src = benchgen::random_verilog(seed, 6);
    const std::unique_ptr<rtlil::Design> designs[] = {verilog::read_verilog(src),
                                                      verilog::read_verilog(src)};
    std::string quarantines[2], netlists[2];
    for (int i = 0; i < 2; ++i) {
      Module& top = *designs[i]->top();
      core::SmartlyOptions options;
      options.enable_rewrite = true;
      options.recovery.enabled = true;
      core::SmartlyStats stats;
      {
        util::FaultScope scope(unit_plan(seed, ""));
        stats = core::smartly_flow(top, options);
      }
      quarantines[i] = quarantine_of(stats.recovery);
      netlists[i] = backend::write_rtlil(top);
    }
    EXPECT_EQ(quarantines[1], quarantines[0]);
    EXPECT_EQ(netlists[1], netlists[0]);
  }
}

// --- caller-provided quarantine sets -----------------------------------------

TEST(RecoverySchedules, CallerQuarantineSetKeepsStageQuarantine) {
  // A caller's sat.quarantine (the service passes its job-level set) must
  // not replace the pass's own set when recovery is on: a faulting §II unit
  // has to be quarantined where the sweep and the oracle look, or every
  // retry re-faults and the stage is skipped.
  const util::QuarantineSet external; // holds nothing a §II site reads
  for (const bool oracle_sites : {false, true}) {
    const char* filter = oracle_sites ? "oracle.solve" : "sweep";
    uint64_t skipped_own = 0, skipped_external = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(std::string(filter) + " seed " + std::to_string(seed));
      const std::string src = benchgen::random_verilog(seed, 6);
      std::string netlists[2];
      for (const bool with_external : {false, true}) {
        auto design = verilog::read_verilog(src);
        core::SmartlyOptions options;
        options.recovery.enabled = true;
        if (oracle_sites)
          options.sat.sim_max_inputs = 0; // queries must reach oracle.solve
        if (with_external)
          options.sat.quarantine = &external;
        core::SmartlyStats stats;
        {
          util::FaultScope scope(unit_plan(seed, filter));
          stats = core::smartly_flow(*design->top(), options);
        }
        (with_external ? skipped_external : skipped_own) += stats.recovery.stages_skipped;
        netlists[with_external ? 1 : 0] = backend::write_rtlil(*design->top());
      }
      EXPECT_EQ(netlists[0], netlists[1]);
    }
    EXPECT_EQ(skipped_own, 0u) << filter;
    EXPECT_EQ(skipped_external, skipped_own) << filter;
  }
}
