// The combined smaRTLy pass and the experiment flows.
//
// Paper §IV: the experiment replaces Yosys's opt_muxtree with smaRTLy inside
// an otherwise identical pipeline, then converts to AIG and counts AND gates.
// Table III additionally reports each engine in isolation (SAT / Rebuild).
#pragma once

#include "core/mux_restructure.hpp"
#include "core/sat_redundancy.hpp"
#include "rewrite/rewrite_engine.hpp"
#include "rtlil/module.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

namespace smartly::core {

struct SmartlyOptions {
  bool enable_sat = true;      ///< §II SAT-based redundancy elimination
  bool enable_rebuild = true;  ///< §III muxtree restructuring
  /// Run the SAT-sweeping (fraig) stage after the muxtree passes: removes
  /// general combinational redundancy (duplicate cones, complement pairs,
  /// constant nodes) that the per-muxtree oracle cannot see. Off by default
  /// so the paper-reproduction flows keep their historical statistics.
  bool enable_fraig = false;
  /// Run the deep-optimization convergence loop (fraig -> rewrite -> fraig,
  /// opt/pipeline's fraig_rewrite_loop) after the muxtree passes: the
  /// DAG-aware cut-rewriting engine restructures 4-feasible cones through
  /// the NPN replacement library, and the surrounding fraig stages harvest
  /// the merges it exposes. Subsumes enable_fraig when set.
  bool enable_rewrite = false;
  /// Worker threads for the rewrite engine's root evaluation (0 = one per
  /// hardware thread); every other stage runs on the calling thread. Netlist
  /// output and statistics are bit-identical for every value of this knob.
  int threads = 0;
  SatRedundancyOptions sat;
  MuxRestructureOptions rebuild;
  sweep::FraigOptions fraig;
  rewrite::RewriteOptions rewrite;   ///< rewrite.threads is overridden by `threads`
  /// Run-wide resource budgets (conflicts/propagations/growth/deadline). When
  /// any is set — or `cancel` is non-null — the pass constructs one
  /// ResourceGuard and threads it through every engine; on exhaustion the
  /// engines degrade (stop taking new merges/rewrites, flush journals in
  /// canonical order) and the pass still returns a CEC-equivalent netlist.
  /// Deterministic budgets preserve thread-count byte-identity; the deadline
  /// and the cancel token are the documented nondeterministic halt sources.
  util::ResourceBudgets budgets;
  util::CancelToken* cancel = nullptr; ///< optional cooperative cancellation (not owned)
  /// Transactional recovery (opt/transaction.hpp). When enabled, every stage
  /// of the pass (rebuild / sweep / muxtree / fraig / rewrite — and the
  /// coarse-opt stages of smartly_flow) runs inside a StageTransaction:
  /// failures roll the module back byte-identically, quarantine the
  /// offending unit, optionally emit a repro bundle, and retry; after
  /// max_retries the stage is skipped. The pass never aborts the job.
  util::RecoveryOptions recovery;
};

struct SmartlyStats {
  SatRedundancyStats sat;
  MuxRestructureStats rebuild;
  /// §II sweep-engine detail (regions, walks, merges).
  opt::ParallelSweepStats sweep;
  sweep::FraigStats fraig;        ///< zeros unless enable_fraig/enable_rewrite
  rewrite::RewriteStats rewrite;  ///< zeros unless enable_rewrite
  /// What the run's ResourceGuard charged and whether (and why) it halted.
  /// All-zeros when no budgets/cancel were configured.
  util::ResourceReport resource;
  /// Rollbacks, retries, quarantined units, skipped stages, bundles written.
  /// All-zeros when recovery was not enabled.
  util::RecoveryStats recovery;
};

/// Run smaRTLy on an already-coarse-optimized module (the pass itself, the
/// analogue of `opt_muxtree`). Restructuring runs first: "Rebuild
/// optimization can reduce the height of muxtrees and simplify the control
/// port, which will make the sub-graph smaller in SAT optimization."
SmartlyStats smartly_pass(rtlil::Module& module, const SmartlyOptions& options = {});

/// Full experiment flow: coarse opts, smartly_pass, post cleanup — the
/// drop-in counterpart of opt::yosys_flow.
SmartlyStats smartly_flow(rtlil::Module& module, const SmartlyOptions& options = {});

} // namespace smartly::core
