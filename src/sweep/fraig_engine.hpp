// SAT-sweeping equivalence engine ("fraig", after ABC's fraig/&fraig).
//
// The §II oracle removes redundancy *inside muxtrees*; general combinational
// redundancy — duplicate cones, complement pairs, constant nodes — survives
// smartly_pass untouched. This engine removes it netlist-wide:
//
//   signature   whole-module packed simulation partitions every combinational
//               bit into candidate classes (sweep/equiv_classes);
//   refine      counterexamples from disproved miters re-enter the pattern
//               pool and split the classes they distinguish;
//   SAT-confirm each class owns a solver in which the joint fanin cone of its
//               members is encoded once (aig::ConeCnfEncoder); each member is
//               proved against the class representative under an
//               activation-literal clause group — polarity-aware, so
//               complement pairs merge through an inserted inverter;
//   commit      proven merges are journaled (SweepJournal) and applied at
//               round barriers in canonical class order through the
//               NetlistIndex incremental-maintenance API.
//
// Determinism: each class owns its solver (state is a function of class
// content alone), classes are proved in canonical order, and all module
// mutation happens at round barriers in canonical order.
//
// Correctness bar: merges are only committed on an UNSAT proof over the full
// fanin cones, and every caller-facing flow CECs the result
// (tests/test_fraig.cpp, bench/bench_sweep.cpp).
#pragma once

#include "rtlil/module.hpp"
#include "sweep/equiv_classes.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

#include <cstdint>

namespace smartly::sweep {

struct FraigOptions {
  int threads = 0; ///< unused; the frozen flowbench sets it
  /// Conflict cap per SAT query; Unknown leaves the pair unmerged. Outcomes
  /// stay deterministic: each class's solver sees the same query sequence.
  int64_t sat_conflict_budget = 4000;
  size_t max_rounds = 16; ///< signature -> SAT -> commit fixpoint cap
  /// Structural pre-pass: merge trivially-identical cells (opt_merge, which
  /// shares cell_structural_key) before any simulation or SAT.
  bool pre_merge = true;
  EquivClassOptions classes;
  /// Optional run-wide resource governor (not owned). Deterministic budgets
  /// are evaluated at round barriers; deadline/cancellation are also polled
  /// before each solve. On halt the engine keeps the merges already proven,
  /// commits them in canonical order, and returns — the result stays
  /// CEC-equivalent.
  util::ResourceGuard* guard = nullptr;
  /// Post-run self-check: assert the incrementally maintained NetlistIndex
  /// equals a from-scratch rebuild (throws std::logic_error on divergence).
  /// Test-only; the robustness suite enables it under fault injection.
  bool check_index = false;
  /// Units the recovery layer has quarantined (not owned; frozen during the
  /// run). Classes whose representative bit is quarantined under
  /// "fraig.solve" are never proved; rounds quarantined under "fraig.round"
  /// are skipped.
  const util::QuarantineSet* quarantine = nullptr;
};

struct FraigStats {
  size_t rounds = 0;
  size_t candidate_bits = 0;   ///< classified bits (first round)
  size_t classes = 0;          ///< candidate classes dispatched (all rounds)
  size_t sat_queries = 0;      ///< solve() calls issued
  size_t proved_equal = 0;     ///< UNSAT pair miters (incl. complement pairs)
  size_t proved_complement = 0;///< subset of proved_equal merged via inverter
  size_t proved_constant = 0;  ///< bits proven stuck at 0/1
  size_t proved_structural = 0;///< identical blast literals: no solver needed
  size_t disproved = 0;        ///< SAT miters (counterexample learned)
  size_t unknown = 0;          ///< conflict budget exhausted
  size_t cex_patterns = 0;     ///< counterexamples accepted into the pool
  size_t merged_cells = 0;     ///< duplicate driver cells removed
  size_t inverter_cells = 0;   ///< Not cells inserted for complement merges
  size_t pre_merged = 0;       ///< cells merged by the structural pre-pass
  size_t skipped_solves = 0;   ///< queries answered Unknown after a halt, unsolved
  size_t quarantined = 0;      ///< classes/rounds skipped by the quarantine set
  size_t halted = 0;           ///< 1 when a budget/cancel/fault stopped the run early
  uint64_t solver_conflicts = 0;
};

/// Accumulate work counters (multi-stage flows like opt_tool's
/// --fraig-pre + --fraig). Maintained next to the struct so a new counter
/// cannot be silently dropped from the aggregations.
FraigStats& operator+=(FraigStats& acc, const FraigStats& s);

/// Equality of every work counter — the relation the determinism checks
/// assert (bench_sweep, tests).
bool same_work(const FraigStats& a, const FraigStats& b);

/// Run the SAT-sweeping engine on `module` to fixpoint. Pair with opt_clean
/// afterwards to remove the cones the merges disconnected (opt/pipeline's
/// fraig_stage does both).
FraigStats fraig_sweep(rtlil::Module& module, const FraigOptions& options = {});

} // namespace smartly::sweep
