#include "opt/transaction.hpp"

#include "backend/write_rtlil.hpp"
#include "backend/write_verilog.hpp"
#include "cec/cec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

#include <stdexcept>

namespace smartly::opt {

StageTransaction::StageTransaction(rtlil::Module& module, std::string stage)
    : module_(module), stage_(std::move(stage)) {
  const obs::Span span("txn", "txn.snapshot", "cells",
                       static_cast<uint64_t>(module.cells().size()));
  auto single = std::make_unique<rtlil::Design>();
  rtlil::copy_module_into(*single->add_module(module.name()), module);
  snapshot_ = std::move(single);
}

const rtlil::Module& StageTransaction::snapshot() const { return *snapshot_->top(); }

void StageTransaction::rollback() {
  const obs::Span span("txn", "txn.rollback");
  static obs::Counter& rollbacks = obs::counter("txn.rollbacks");
  rollbacks.add();
  rtlil::restore_module(module_, snapshot());
  // The rollback *is* the recovery guarantee — verify it, always. A dump
  // mismatch means restore_module lost information, and retrying on a
  // corrupted base would convert one bad stage into a bad job.
  const std::string got = backend::write_rtlil(module_);
  const std::string want = backend::write_rtlil(snapshot());
  if (got != want)
    throw std::logic_error("StageTransaction: rollback of stage '" + stage_ +
                           "' is not byte-identical to the snapshot");
}

namespace {

/// Run `body` on a throwaway copy of `snapshot` under a round cap and report
/// whether the result miscompares against the snapshot. Throws inside the
/// probe count as failing; inconclusive CEC counts as passing (conservative:
/// never blame a round the budget could not settle).
bool probe_round_fails(const rtlil::Module& snapshot, const StageBody& body, int round_cap,
                       util::ResourceGuard* guard) {
  auto scratch = std::make_unique<rtlil::Design>();
  rtlil::Module* m = scratch->add_module(snapshot.name());
  rtlil::copy_module_into(*m, snapshot);
  bool failed = false;
  try {
    body(*m, round_cap);
  } catch (const std::exception&) {
    failed = true;
  }
  if (guard != nullptr)
    guard->clear_fault_halt(); // probe faults must not leak into the retry
  if (!failed) {
    cec::CecOptions cec_opts;
    cec_opts.conflict_budget = util::kParanoidConflictBudget;
    const cec::CecResult r = cec::check_equivalence(snapshot, *m, cec_opts);
    failed = !r.equivalent && !r.inconclusive;
  }
  return failed;
}

/// Binary-search the smallest round cap that reproduces the miscompare.
/// Stages are deterministic, so re-running the body from the snapshot under
/// a cap replays the faulting history exactly — this is the "journal
/// replay" the bisection rides on. Assumes wrongness is monotone in the cap
/// (later rounds do not un-corrupt the netlist). Returns -1 when no capped
/// run reproduces it (e.g. the wrongness needs the full, uncapped run).
int bisect_faulting_round(const rtlil::Module& snapshot, const StageBody& body,
                          util::ResourceGuard* guard) {
  constexpr int kMaxRoundCap = 16; // matches the engines' largest default cap
  int lo = 1, hi = kMaxRoundCap, found = -1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (probe_round_fails(snapshot, body, mid, guard)) {
      found = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return found;
}

} // namespace

StageOutcome run_protected_stage(rtlil::Module& module, const std::string& stage,
                                 RecoveryContext* ctx, util::ResourceGuard* guard,
                                 const StageBody& body) {
  static obs::Counter& stages_counter = obs::counter("txn.stages");
  stages_counter.add();
  StageOutcome outcome;
  if (ctx == nullptr || !ctx->options.enabled) {
    const obs::Span span("txn", "stage:" + stage);
    body(module, -1);
    outcome.committed = true;
    outcome.attempts = 1;
    return outcome;
  }

  ctx->stats.stages += 1;
  // A Fault trip still armed at entry is stale — left by code running outside
  // any transaction on the same guard. Clear it so it cannot be mis-attributed
  // to this stage's first attempt.
  if (guard != nullptr)
    guard->clear_fault_halt();
  const int max_attempts = 1 + (ctx->options.max_retries > 0 ? ctx->options.max_retries : 0);

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    const obs::Span span("txn", "stage:" + stage, "attempt",
                         static_cast<uint64_t>(attempt));
    StageTransaction txn(module, stage);
    outcome.attempts = attempt;

    bool failed = false;
    util::RecoveryEvent ev;
    ev.stage = stage;
    ev.attempt = attempt;

    try {
      body(module, -1);
      if (guard != nullptr && guard->tripped() == util::BudgetKind::Fault) {
        // The engine contained an injected fault and halted at a barrier; the
        // guard carries the first offending site/unit (note_fault).
        failed = true;
        ev.reason = "fault-halt";
        const util::FaultReport fr = guard->fault_report();
        if (fr.valid) {
          ev.site = fr.site;
          ev.unit = fr.unit;
        }
      } else {
        // Commit-point invariant probe. The engines run their own
        // check_index probes internally; this catches structural damage
        // (foreign wires, out-of-range bits) any stage could introduce.
        module.check();
        if (ctx->options.paranoid) {
          ctx->stats.paranoid_checks += 1;
          cec::CecOptions cec_opts;
          cec_opts.conflict_budget = util::kParanoidConflictBudget;
          const cec::CecResult r = cec::check_equivalence(txn.snapshot(), module, cec_opts);
          if (!r.equivalent && !r.inconclusive) {
            failed = true;
            ctx->stats.paranoid_miscompares += 1;
            ev.reason = "paranoid-miscompare";
            ev.round = bisect_faulting_round(txn.snapshot(), body, guard);
          }
        }
      }
    } catch (const util::FaultInjected& e) {
      failed = true;
      ev.reason = "fault-injected";
      ev.site = e.site();
      ev.unit = e.unit();
    } catch (const std::exception& e) {
      failed = true;
      ev.reason = std::string("exception: ") + e.what();
    }

    if (!failed) {
      outcome.committed = true;
      return outcome;
    }

    // --- recovery: bundle, roll back, quarantine, retry or skip -----------
    if (!ctx->options.repro_dir.empty()) {
      util::ReproBundle bundle;
      bundle.design_verilog = backend::write_verilog(txn.snapshot());
      bundle.stage = stage;
      bundle.reason = ev.reason;
      bundle.site = ev.site;
      bundle.unit = ev.unit;
      bundle.attempt = attempt;
      bundle.plan_active = util::active_fault_plan(&bundle.plan);
      bundle.quarantine = ctx->quarantine.serialize();
      bundle.options = ctx->engine_options;
      ev.bundle_dir = util::write_repro_bundle(ctx->options.repro_dir, bundle,
                                               ctx->bundle_counter++);
      if (!ev.bundle_dir.empty())
        ctx->stats.bundles_written += 1;
    }

    txn.rollback();
    ctx->stats.rollbacks += 1;
    if (guard != nullptr)
      guard->clear_fault_halt();

    if (!ev.site.empty() && ev.unit != 0) {
      if (ctx->quarantine.add(ev.site, ev.unit)) {
        ctx->stats.quarantined_units += 1;
        ev.quarantined = true;
      }
    }

    if (attempt == max_attempts) {
      ev.skipped = true;
      ctx->stats.stages_skipped += 1;
      ctx->stats.events.push_back(std::move(ev));
      outcome.skipped = true;
      return outcome;
    }
    static obs::Counter& retries = obs::counter("txn.retries");
    retries.add();
    ctx->stats.retries += 1;
    ctx->stats.events.push_back(std::move(ev));
  }
  return outcome; // unreachable
}

} // namespace smartly::opt
