// Parallel deterministic sweep engine.
//
// Muxtrees with disjoint read closures are independent optimization
// problems. The engine partitions the module into regions once
// (region_partition.hpp), then iterates to fixpoint:
//   1. dirty regions are dispatched to a work-stealing pool; each pool worker
//      owns one oracle, built up front (oracles keep no state between
//      queries, so decisions depend only on region content — never on the
//      thread count or which worker got which region), and each region
//      records its edits into a private SweepJournal;
//   2. at the barrier, journals are applied in canonical region order and
//      the shared NetlistIndex is updated incrementally from them;
//   3. regions whose trees lie within the oracle ball radius of a changed
//      net are re-queued; their read closures are recomputed on the updated
//      index (an applied connect can extend a closure by one hop), and
//      regions whose closures now overlap are merged.
// The resulting netlist, statistics, and decision traces are bit-identical
// for every thread count.
#pragma once

#include "opt/muxtree_walker.hpp"
#include "opt/region_partition.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

#include <functional>
#include <memory>

namespace smartly::opt {

struct ParallelSweepOptions {
  /// Worker threads. 0 = one per hardware thread.
  int threads = 0;
  /// Read-closure radius for region merging and dirty propagation; must be
  /// >= the oracle's sub-graph extraction distance k (SubgraphOptions::depth).
  int ball_radius = 4;
  size_t max_iterations = kMaxSweepIterations; ///< keep equal to the serial cap
  /// Factory for the per-worker oracles, called once per pool worker when
  /// the run starts. The oracles must keep no state between decide() calls
  /// that could change a verdict.
  std::function<std::unique_ptr<MuxtreeOracle>()> make_oracle;
  /// Optional run-wide resource governor (not owned). Deterministic budgets
  /// are evaluated at iteration barriers against what the oracles charged;
  /// on halt the remaining dirty regions are skipped and the already-applied
  /// journals stand (each edit is individually proven).
  util::ResourceGuard* guard = nullptr;
  /// Units the recovery layer has quarantined (not owned; frozen during the
  /// run). Regions whose stable id (the minimum bit_unit_id over their roots'
  /// first output bits) is quarantined under "sweep.region" are never
  /// dispatched; iterations quarantined under "sweep.iteration" are skipped.
  /// Both filters run single-threaded at the iteration barrier, so the skip
  /// set is identical for every thread count.
  const util::QuarantineSet* quarantine = nullptr;
};

struct ParallelSweepStats {
  MuxtreeStats walker;
  size_t regions = 0;                ///< regions in the initial partition
  size_t largest_region_trees = 0;   ///< available parallelism indicator
  size_t region_walks = 0;           ///< region dispatches over all iterations
  size_t regions_skipped_clean = 0;  ///< dirty-only re-queue savings
  size_t region_merges = 0;          ///< barrier-time closure-overlap merges
  size_t regions_skipped_halt = 0;   ///< dirty regions abandoned by a halt
  size_t quarantined = 0;            ///< region dispatches/iterations skipped by quarantine
  size_t halted = 0;                ///< 1 when a budget/cancel/fault stopped the run early
  int threads_used = 0;              ///< schedule detail; excluded from determinism checks
};

class ParallelSweepEngine {
public:
  ParallelSweepEngine(rtlil::Module& module, const ParallelSweepOptions& options);
  ~ParallelSweepEngine();

  /// Run the sweep to fixpoint. Optionally records every oracle decision
  /// (tagged iteration + root) for differential testing.
  ParallelSweepStats run(DecisionTrace* trace = nullptr);

  /// The run's oracles, one per pool worker. Valid until destruction;
  /// callers aggregate oracle-specific statistics from these after run().
  const std::vector<std::unique_ptr<MuxtreeOracle>>& oracles() const noexcept {
    return oracles_;
  }

private:
  rtlil::Module& module_;
  ParallelSweepOptions options_;
  std::vector<std::unique_ptr<MuxtreeOracle>> oracles_;
};

/// Convenience wrapper: construct, run, discard oracles.
ParallelSweepStats parallel_sweep(rtlil::Module& module, const ParallelSweepOptions& options,
                                  DecisionTrace* trace = nullptr);

} // namespace smartly::opt
