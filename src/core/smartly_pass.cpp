#include "core/smartly_pass.hpp"

#include "obs/trace.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/opt_muxtree.hpp"
#include "opt/pipeline.hpp"

#include <cstdio>

namespace smartly::core {

namespace {

/// One-line option summary recorded in repro bundles (free-form).
std::string summarize_options(const SmartlyOptions& o) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "threads=%d sat=%d rebuild=%d fraig=%d rewrite=%d paranoid=%d retries=%d",
                o.threads, o.enable_sat ? 1 : 0, o.enable_rebuild ? 1 : 0,
                o.enable_fraig ? 1 : 0, o.enable_rewrite ? 1 : 0,
                o.recovery.paranoid ? 1 : 0, o.recovery.max_retries);
  return buf;
}

} // namespace

SmartlyStats smartly_pass(rtlil::Module& module, const SmartlyOptions& options) {
  const obs::Span span("pipeline", "pass.smartly_pass", "cells",
                       static_cast<uint64_t>(module.cells().size()));
  SmartlyStats stats;

  // One guard for the whole pass: every engine charges the same counters, so
  // the budgets cap the run, not each stage. Engines already carrying a
  // caller-provided guard (options.sat.guard etc.) keep it; the pass-level
  // budgets only fill the slots left empty.
  // Recovery also needs a guard armed even without budgets: the engines
  // contain worker faults by tripping BudgetKind::Fault on it, which is how
  // the transaction driver observes them.
  util::ResourceGuard guard(options.budgets, options.cancel);
  util::ResourceGuard* gp = (options.budgets.any() || options.cancel != nullptr ||
                             options.recovery.enabled)
                                ? &guard
                                : nullptr;
  if (gp != nullptr)
    gp->set_growth_baseline(module.cells().size());

  // Shared recovery state: the quarantine set is sticky across every stage
  // of the pass, so a unit that faulted in one stage stays filtered for the
  // rest of the run (and is reported once in stats.recovery).
  opt::RecoveryContext rctx;
  rctx.options = options.recovery;
  rctx.engine_options = summarize_options(options);
  opt::RecoveryContext* rp = options.recovery.enabled ? &rctx : nullptr;

  SatRedundancyOptions sat_opts = options.sat;
  if (gp != nullptr && sat_opts.guard == nullptr)
    sat_opts.guard = gp;
  // With recovery on, the stage's own quarantine set is the one its retries
  // fill, so it replaces any caller set (as in opt::fraig_stage).
  if (rp != nullptr)
    sat_opts.quarantine = &rctx.quarantine;

  // The guard the transaction driver must watch is the one the engines
  // charge: a caller-provided guard (options.sat.guard) wins over the
  // pass-local one — fault trips land on it, not on `guard`.
  util::ResourceGuard* stage_guard = sat_opts.guard;

  if (options.enable_rebuild) {
    const opt::StageOutcome out =
        opt::run_protected_stage(module, "rebuild", rp, stage_guard, [&](rtlil::Module& m, int) {
          stats.rebuild = mux_restructure(m, options.rebuild);
          // Rebuilding disconnects eq cells and can expose constants.
          opt::opt_expr(m);
          opt::opt_clean(m);
        });
    if (!out.committed)
      stats.rebuild = MuxRestructureStats{};
  }
  if (options.enable_sat) {
    const opt::StageOutcome out =
        opt::run_protected_stage(module, "sweep", rp, stage_guard, [&](rtlil::Module& m, int cap) {
          SatRedundancyOptions run = sat_opts;
          if (cap >= 0)
            run.guard = nullptr; // bisection probes never charge the run's budgets
          stats.sat = sat_redundancy_parallel(m, run, 1, /*trace=*/nullptr, &stats.sweep, cap);
          opt::opt_expr(m);
          opt::opt_clean(m);
        });
    if (!out.committed) {
      stats.sat = SatRedundancyStats{};
      stats.sweep = opt::ParallelSweepStats{};
    }
  } else {
    // smaRTLy *replaces* opt_muxtree, and its SAT engine strictly subsumes
    // the baseline's syntactic traversal (stage 1 of the oracle). When the
    // SAT engine is disabled (Table III's "Rebuild" arm) the baseline
    // traversal must still run, or the comparison against Yosys would
    // penalize the Rebuild engine for work it never claimed to do.
    const opt::StageOutcome out =
        opt::run_protected_stage(module, "muxtree", rp, stage_guard, [&](rtlil::Module& m, int) {
          stats.sat.walker = opt::opt_muxtree(m);
          opt::opt_expr(m);
          opt::opt_clean(m);
        });
    if (!out.committed)
      stats.sat.walker = opt::MuxtreeStats{};
  }
  if (options.enable_rewrite) {
    // The deep-optimization loop subsumes the plain fraig stage: fraig ->
    // rewrite pairs to convergence, closing fraig included.
    opt::DeepOptOptions deep;
    deep.fraig = options.fraig;
    deep.rewrite = options.rewrite;
    deep.rewrite.threads = options.threads;
    deep.recovery = rp;
    if (gp != nullptr) {
      if (deep.fraig.guard == nullptr)
        deep.fraig.guard = gp;
      if (deep.rewrite.guard == nullptr)
        deep.rewrite.guard = gp;
    }
    const opt::DeepOptStats ds = opt::fraig_rewrite_loop(module, deep);
    stats.fraig = ds.fraig;
    stats.rewrite = ds.rewrite;
  } else if (options.enable_fraig) {
    sweep::FraigOptions fraig = options.fraig;
    if (gp != nullptr && fraig.guard == nullptr)
      fraig.guard = gp;
    stats.fraig = opt::fraig_stage(module, fraig, rp);
  }

  if (stage_guard != nullptr)
    stats.resource = stage_guard->report();
  stats.recovery = std::move(rctx.stats);
  return stats;
}

SmartlyStats smartly_flow(rtlil::Module& module, const SmartlyOptions& options) {
  const obs::Span span("pipeline", "pass.smartly_flow");
  // The coarse-opt stages around the pass get their own transaction context
  // (the pass builds one internally); quarantine continuity across the seam
  // is irrelevant — the opt_* passes have no fault sites or work units —
  // but their stats merge into the one report.
  opt::RecoveryContext rctx;
  rctx.options = options.recovery;
  rctx.engine_options = "coarse_opt";
  opt::RecoveryContext* rp = options.recovery.enabled ? &rctx : nullptr;

  opt::run_protected_stage(module, "opt-pre", rp, nullptr,
                           [](rtlil::Module& m, int) { opt::coarse_opt(m); });
  SmartlyStats stats = smartly_pass(module, options);
  opt::run_protected_stage(module, "opt-post", rp, nullptr,
                           [](rtlil::Module& m, int) { opt::coarse_opt(m); });
  if (rp != nullptr)
    stats.recovery += rctx.stats;
  return stats;
}

} // namespace smartly::core
