// Optimization pipelines reproducing the paper's experimental flows.
//
// Paper §IV.A: "We replaced the opt_muxtree pass in Yosys with smaRTLy and
// used the built-in command aigmap in Yosys to convert netlists into AIG."
// Both arms therefore share the same coarse cleanup; only the muxtree step
// differs.
#pragma once

#include "opt/muxtree_walker.hpp"
#include "opt/transaction.hpp"
#include "rewrite/rewrite_engine.hpp"
#include "rtlil/module.hpp"
#include "sweep/fraig_engine.hpp"

namespace smartly::opt {

/// opt_expr + opt_merge + opt_clean to fixpoint (shared by both arms).
void coarse_opt(rtlil::Module& module);

/// SAT-sweeping stage: fraig the whole netlist, then sweep the cones the
/// merges disconnected. Runnable before or after either muxtree flow — the
/// engines are orthogonal (muxtree passes remove never-active branches,
/// fraig removes duplicate/complement/constant cones).
///
/// With a non-null, enabled recovery context the stage runs inside a
/// StageTransaction (snapshot / rollback / quarantine / retry; see
/// opt/transaction.hpp) with the context's quarantine set threaded into the
/// engine. A skipped stage returns zeroed stats and leaves the module at its
/// pre-stage image. `slots` is passed on to fraig_sweep (the deep loop's
/// shared pattern-slot table).
sweep::FraigStats fraig_stage(rtlil::Module& module, const sweep::FraigOptions& options = {},
                              RecoveryContext* recovery = nullptr,
                              sweep::PatternSlots* slots = nullptr);

/// DAG-aware cut-rewriting stage: restructure 4-feasible cones through the
/// NPN replacement library, then sweep the predicted-dead cones the commits
/// disconnected. Orthogonal to fraig: fraig merges logic that is already
/// equivalent, rewrite re-expresses logic that is merely suboptimal.
/// Recovery semantics as for fraig_stage.
rewrite::RewriteStats rewrite_stage(rtlil::Module& module,
                                    const rewrite::RewriteOptions& options = {},
                                    RecoveryContext* recovery = nullptr);

/// The deep-optimization convergence loop: fraig -> rewrite, repeated while
/// the rewrite stage still commits, with a final fraig pass so merges the
/// restructuring exposed are harvested. Every stage is deterministic, so the
/// loop is too. Its fraig stages share one sweep::PatternSlots table, which
/// gives the same result as a table per stage.
struct DeepOptOptions {
  sweep::FraigOptions fraig;
  rewrite::RewriteOptions rewrite;
  size_t max_iterations = 2; ///< fraig+rewrite pairs before the final fraig
  /// Shared recovery state (not owned; may be null). When enabled, every
  /// fraig/rewrite stage of the loop runs transactionally and the quarantine
  /// set accumulates across stages and iterations.
  RecoveryContext* recovery = nullptr;
};

struct DeepOptStats {
  sweep::FraigStats fraig;
  rewrite::RewriteStats rewrite;
  size_t iterations = 0; ///< fraig+rewrite pairs executed
};

DeepOptStats fraig_rewrite_loop(rtlil::Module& module, const DeepOptOptions& options = {});

/// The baseline flow: coarse_opt, Yosys-style opt_muxtree, post cleanup.
/// Returns the muxtree statistics.
MuxtreeStats yosys_flow(rtlil::Module& module);

/// "Original" metric flow: no optimization beyond dead-cell removal.
void original_flow(rtlil::Module& module);

} // namespace smartly::opt
