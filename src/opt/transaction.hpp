// Transactional stage execution: snapshot, verify, commit — or roll back,
// quarantine the offending unit, and retry.
//
// run_protected_stage wraps one engine stage (sweep / fraig / rewrite /
// opt_*) in a StageTransaction. The stage runs against the live module; the
// transaction holds a deep-copy snapshot taken at entry. Failures are
// detected three ways:
//   (a) an injected FaultInjected escaping the stage, or the run guard
//       tripping BudgetKind::Fault at a barrier (the engines convert
//       contained throws into that trip and record the offending
//       unit via ResourceGuard::note_fault);
//   (b) paranoid mode: a cone-restricted CEC of the stage output against
//       the snapshot, with a miscompare auto-bisected to the first faulting
//       round by deterministic re-execution under a round cap;
//   (c) invariant probes at the commit point (Module::check; the engines
//       additionally run their check_index probes internally).
// On failure the module is rolled back byte-identically (verified against
// the write_rtlil dump of the snapshot), the guard's Fault trip is cleared,
// the failing unit is added to the sticky QuarantineSet, a repro bundle is
// emitted, and the stage is re-run. After max_retries failures the stage is
// skipped — the module keeps its pre-stage contents and the pipeline moves
// on. A protected stage therefore never aborts the job.
//
// Real budget trips (conflicts, deadline, cancel, growth) are *not*
// failures: they are PR 6's sound degradation, the stage's partial output
// is kept, and no rollback happens.
//
// Every engine runs on the calling thread and applies a round's journal to
// its index before the round returns — including a faulted round, whose
// journal holds the canonical prefix that committed before the fault. A
// StageTransaction snapshot (entry or paranoid CEC) therefore observes a
// netlist between rounds, never a half-applied one.
#pragma once

#include "rtlil/module.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

#include <functional>
#include <memory>
#include <string>

namespace smartly::opt {

/// Shared recovery state for one pass/pipeline run: options, the sticky
/// cross-stage quarantine set, aggregated stats, and the bundle counter.
struct RecoveryContext {
  util::RecoveryOptions options;
  util::QuarantineSet quarantine;
  util::RecoveryStats stats;
  int bundle_counter = 0;
  std::string engine_options; ///< one-line option summary recorded in bundles
};

/// Snapshot/rollback primitive around one engine stage.
class StageTransaction {
public:
  /// Deep-copies `module` (clone_design machinery) as the rollback image.
  StageTransaction(rtlil::Module& module, std::string stage);

  const std::string& stage() const noexcept { return stage_; }
  /// The pre-stage image (valid for the transaction's lifetime).
  const rtlil::Module& snapshot() const;

  /// Restore the live module to the snapshot and verify the restoration is
  /// byte-identical (write_rtlil dump compare against the snapshot). Throws
  /// std::logic_error if the dumps diverge — that would mean the rollback
  /// primitive itself is broken, which must never be papered over.
  void rollback();

private:
  rtlil::Module& module_;
  std::string stage_;
  std::unique_ptr<rtlil::Design> snapshot_;
};

/// One engine stage. `max_rounds` < 0 means "run with the configured round
/// cap"; paranoid bisection probes re-run the body with caps 1..N to find
/// the first faulting round. Bodies whose engine has no round notion ignore
/// the parameter.
using StageBody = std::function<void(rtlil::Module& module, int max_rounds)>;

struct StageOutcome {
  bool committed = false; ///< final module state is the stage's output
  bool skipped = false;   ///< retries exhausted; module holds the pre-stage image
  int attempts = 0;       ///< stage executions (bisection probes excluded)
};

/// Execute `body` under transactional recovery. With a null/disabled
/// context the body runs unwrapped (zero overhead, no snapshot). `guard`
/// may be null; when present its Fault trips are treated as stage failures
/// and cleared before each retry.
StageOutcome run_protected_stage(rtlil::Module& module, const std::string& stage,
                                 RecoveryContext* ctx, util::ResourceGuard* guard,
                                 const StageBody& body);

} // namespace smartly::opt
