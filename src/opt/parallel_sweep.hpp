// Deterministic region sweep engine (the production §II path).
//
// Muxtrees with disjoint read closures are independent optimization
// problems. The engine partitions the module into regions once
// (region_partition.hpp), then iterates to fixpoint on the calling thread:
//   1. every dirty region is walked against the iteration-start index and
//      records its edits into a private SweepJournal;
//   2. after the last walk, the journals are applied in region order and
//      the shared NetlistIndex is updated incrementally from them;
//   3. regions whose trees lie within the oracle ball radius of a changed
//      net are re-queued; their read closures are recomputed on the updated
//      index (an applied connect can extend a closure by one hop), and
//      regions whose closures now overlap are merged.
// Re-walking only the dirty regions is what pays over the walk-everything
// fixpoint (optimize_muxtrees), with the same decisions.
#pragma once

#include "opt/muxtree_walker.hpp"
#include "opt/region_partition.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

namespace smartly::opt {

struct ParallelSweepOptions {
  /// Read-closure radius for region merging and dirty propagation; must be
  /// >= the oracle's sub-graph extraction distance k (SubgraphOptions::depth).
  int ball_radius = 4;
  size_t max_iterations = kMaxSweepIterations; ///< keep equal to the serial cap
  /// Optional run-wide resource governor (not owned). Deterministic budgets
  /// are evaluated at iteration barriers against what the oracle charged;
  /// on halt the remaining dirty regions are skipped and the already-applied
  /// journals stand (each edit is individually proven).
  util::ResourceGuard* guard = nullptr;
  /// Units the recovery layer has quarantined (not owned; frozen during the
  /// run). Regions whose stable id (the minimum bit_unit_id over their roots'
  /// first output bits) is quarantined under "sweep.region" are never
  /// walked; iterations quarantined under "sweep.iteration" are skipped.
  const util::QuarantineSet* quarantine = nullptr;
};

/// The frozen flowbench reads this name and `region_walks`; rename it with the
/// next benchmark change.
struct ParallelSweepStats {
  MuxtreeStats walker;
  size_t regions = 0;                ///< regions in the initial partition
  size_t region_walks = 0;           ///< region walks over all iterations
  size_t regions_skipped_clean = 0;  ///< dirty-only re-queue savings
  size_t region_merges = 0;          ///< barrier-time closure-overlap merges
  size_t regions_skipped_halt = 0;   ///< dirty regions abandoned by a halt
  size_t quarantined = 0;            ///< region walks/iterations skipped by quarantine
  size_t halted = 0;                ///< 1 when a budget/cancel/fault stopped the run early
};

/// Run the sweep to fixpoint with `oracle`, which must keep no state between
/// decide() calls that could change a verdict. Optionally records every
/// oracle decision (tagged iteration + root) for differential testing.
ParallelSweepStats parallel_sweep(rtlil::Module& module, MuxtreeOracle& oracle,
                                  const ParallelSweepOptions& options,
                                  DecisionTrace* trace = nullptr);

} // namespace smartly::opt
