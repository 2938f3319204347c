// DAG-aware cut-rewriting engine (ABC `rewrite` analogue over RTLIL).
//
// The fraig engine (sweep/fraig_engine.hpp) merges bits that are already
// equivalent; it never *restructures* logic, so a netlist with no equivalent
// nodes left can still be far from minimal. This engine closes that gap:
//
//   blast      the module is bit-blasted into one whole-netlist AIG
//              (aig/aigmap.hpp) and every AIG node is anchored back to the
//              canonical module bits that map onto it;
//   cuts       4-feasible cuts are enumerated per node with dominated-cut
//              pruning (rewrite/cut_enum.hpp);
//   classify   each cut function's truth table is extracted by packed cone
//              simulation (sim::cut_truth_table) and NPN-classified
//              (rewrite/npn.hpp, 222 classes);
//   resynth    the replacement library (rewrite/rewrite_lib.hpp) supplies a
//              min-cost gate program; every program gate is priced against
//              logic the AIG already contains (Aig::find_and probes resolving
//              to anchored live bits) — the DAG-aware sharing credit that
//              lets zero-gain rewrites stay cheap enough to enable
//              downstream fraig merges;
//   commit     per root cell, replacements are vectorized back to word-level
//              cells (members sharing a program, reuse pattern and mux
//              selects become one wide cell), checked against existing cells
//              through the shared structural key (sweep::cell_structural_key)
//              and committed through a SweepJournal in canonical module-cell
//              order via the NetlistIndex incremental-maintenance API.
//
// Gain accounting is in RTLIL cells: a rewrite's gain is the root cell plus
// its predicted-dead fanin cone (an MFFC over the netlist index, stopping at
// leaves, reused bits and output ports) minus the cells actually added after
// all sharing credits. Cells the gain predicts dead are left for the stage's
// opt_clean — a wrong prediction costs quality, never correctness.
//
// Each round runs on the calling thread in named phases over one round
// state: setup builds the round-start tables (blast, cuts, anchors, root
// list, structural-key map), then one loop over the roots in canonical
// module-cell order evaluates each root against those tables (which no
// commit touches before the round's journal is applied), plans it against
// the overlays of the round's earlier commits (re-validation, grouping,
// structural twins, gain gate) and commits it. An injected fault in that
// loop leaves the canonical prefix before it committed.
#pragma once

#include "rtlil/module.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

#include <cstdint>

namespace smartly::rewrite {

struct RewriteOptions {
  int threads = 0; ///< unused; the frozen flowbench sets it
  int cut_limit = 8;      ///< non-trivial cuts kept per AIG node
  size_t max_rounds = 4;  ///< blast -> evaluate -> commit fixpoint cap
  /// Optional run-wide resource governor (not owned). Deterministic budgets
  /// (incl. the cell-growth cap) are evaluated at round barriers;
  /// deadline/cancellation also polled per root. On halt the
  /// round's committed rewrites stand and no further rounds run.
  util::ResourceGuard* guard = nullptr;
  /// Post-run self-check: assert the incrementally maintained NetlistIndex
  /// equals a from-scratch rebuild (throws std::logic_error on divergence).
  bool check_index = false;
  /// Units the recovery layer has quarantined (not owned; frozen during the
  /// run). Roots whose first canonical output bit is quarantined under
  /// "rewrite.eval" are dropped from the work list; rounds quarantined under
  /// "rewrite.round" are skipped.
  const util::QuarantineSet* quarantine = nullptr;
};

struct RewriteStats {
  size_t rounds = 0;
  size_t aig_nodes = 0;         ///< whole-netlist blast size (first executed round)
  size_t cuts = 0;              ///< non-trivial cuts enumerated (all rounds)
  size_t roots_evaluated = 0;   ///< root cells evaluated (all rounds)
  size_t candidates = 0;        ///< (bit, cut) candidates with usable leaves
  size_t npn_classes = 0;       ///< distinct NPN classes among chosen cuts
  size_t rewrites = 0;          ///< root cells rewritten
  size_t zero_gain_rewrites = 0;///< subset committed at exactly zero cell gain
  size_t plans_rejected = 0;    ///< plans failing the gain gates
  size_t plans_noop = 0;        ///< plans aborted as self-reproductions
  size_t cells_added = 0;       ///< replacement cells materialized
  size_t gates_reused = 0;      ///< program gates satisfied by anchored logic
  size_t cells_shared = 0;      ///< planned cells folded onto structural twins
  size_t predicted_dead = 0;    ///< MFFC cells left for opt_clean
  size_t skipped_roots = 0;     ///< roots left unevaluated after a halt
  size_t quarantined = 0;       ///< roots/rounds skipped by the quarantine set
  size_t halted = 0;            ///< 1 when a budget/cancel/fault stopped the run early
};

/// Accumulate work counters across stages (multi-iteration flows).
/// npn_classes accumulates per-stage distinct counts (an upper bound on the
/// run-wide distinct count).
RewriteStats& operator+=(RewriteStats& acc, const RewriteStats& s);

/// Equality of every counter — the relation the determinism checks assert
/// (bench_rewrite, tests).
bool same_work(const RewriteStats& a, const RewriteStats& b);

/// Run the cut-rewriting engine on `module` to fixpoint. Pair with opt_clean
/// afterwards to remove the predicted-dead cones (opt/pipeline's
/// rewrite_stage does both).
RewriteStats rewrite_sweep(rtlil::Module& module, const RewriteOptions& options = {});

} // namespace smartly::rewrite
