// Resource governance for the optimization engines.
//
// A ResourceGuard carries per-run budgets (solver conflicts/propagations,
// netlist growth) plus an opt-in wall-clock deadline and a cooperative
// CancelToken, and is threaded by pointer through every engine. Engines
// *charge* work as they go via lock-free counters, but *deterministic*
// budgets are only evaluated at round barriers (checkpoint()), so the same
// budgets trip at the same round on every run. Once a budget trips, the halt
// flag is sticky: engines stop taking new merges/rewrites, flush their
// journals in canonical order, and return a valid, CEC-equivalent netlist.
//
// poll() additionally checks the deadline and the cancel token mid-round;
// those two are the only knowingly nondeterministic halt sources
// (documented in README "Resource budgets").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace smartly::util {

/// Budget limits for one optimization run. -1 (or 0 for growth) = unlimited.
struct ResourceBudgets {
  int64_t solver_conflicts = -1;    ///< total CDCL conflicts across all solvers
  int64_t solver_propagations = -1; ///< total BCP propagations across all solvers
  int64_t max_growth_pct = -1;      ///< cap on cell-count growth over the baseline, in percent
  int64_t deadline_ms = -1;         ///< wall-clock deadline (nondeterministic!)

  bool any() const noexcept {
    return solver_conflicts >= 0 || solver_propagations >= 0 || max_growth_pct >= 0 ||
           deadline_ms >= 0;
  }
};

/// Cooperative cancellation: set from any thread, observed by guard.poll().
class CancelToken {
public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_acquire); }

private:
  std::atomic<bool> cancelled_{false};
};

/// Which budget tripped first (sticky).
enum class BudgetKind : int {
  None = 0,
  Conflicts,
  Propagations,
  Growth,
  Deadline,
  Cancelled,
  Fault, ///< halt forced by the fault-injection harness
};

const char* budget_kind_name(BudgetKind kind) noexcept;

/// Snapshot of a guard's charged totals, for stats and BENCH_*.json.
struct ResourceReport {
  BudgetKind tripped = BudgetKind::None;
  uint64_t conflicts = 0;
  uint64_t propagations = 0;
  uint64_t skipped_solves = 0;   ///< SAT queries answered Unknown without solving
  uint64_t skipped_rewrites = 0; ///< rewrite candidates abandoned after the halt
  uint64_t skipped_regions = 0;  ///< sweep regions left unvisited after the halt
  uint64_t halted_engines = 0;   ///< engines that observed the halt and stopped early

  bool halted() const noexcept { return tripped != BudgetKind::None; }
};

/// First-wins record of the fault that halted an engine: the injection site
/// and the stable unit id of the work item (0 when the site has none). The
/// recovery layer reads this at the stage barrier to decide what to
/// quarantine before retrying.
struct FaultReport {
  bool valid = false;
  std::string site;
  uint64_t unit = 0;
};

class ResourceGuard {
public:
  /// Default: unlimited, never halts on its own (cancel token still works).
  ResourceGuard() = default;
  explicit ResourceGuard(const ResourceBudgets& budgets, CancelToken* cancel = nullptr);

  const ResourceBudgets& budgets() const noexcept { return budgets_; }

  // --- charging: lock-free, callable from any worker thread -----------------
  void charge_conflicts(uint64_t n) noexcept {
    conflicts_.fetch_add(n, std::memory_order_relaxed);
  }
  void charge_propagations(uint64_t n) noexcept {
    propagations_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_skipped_solves(uint64_t n = 1) noexcept {
    skipped_solves_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_skipped_rewrites(uint64_t n) noexcept {
    skipped_rewrites_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_skipped_regions(uint64_t n) noexcept {
    skipped_regions_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_halted_engine() noexcept {
    halted_engines_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Record the pre-optimization cell count the growth budget is relative to.
  /// First caller wins (the top-level pass), so nested stages share one base.
  void set_growth_baseline(uint64_t cells) noexcept;

  // --- checks ---------------------------------------------------------------

  /// Deterministic checkpoint. MUST be called only at round barriers: it
  /// compares the charged totals against the budgets and arms the sticky
  /// halt flag. Pass the current cell count to also apply the growth budget
  /// (0 = skip growth). Returns halted().
  bool checkpoint(uint64_t current_cells = 0) noexcept;

  /// Nondeterministic poll: deadline + cancellation only. Cheap enough to
  /// call per root or per solve mid-round; also observes the sticky flag.
  bool poll() noexcept;

  /// Whether poll() can newly trip mid-phase (deadline or cancel token
  /// present). Engines install solver interrupt hooks only in that case —
  /// deterministic-budget-only runs skip the per-solve polling entirely.
  bool wants_interrupts() const noexcept { return has_deadline_ || cancel_ != nullptr; }

  /// Sticky halt state.
  bool halted() const noexcept { return tripped_.load(std::memory_order_acquire) != 0; }
  BudgetKind tripped() const noexcept {
    return static_cast<BudgetKind>(tripped_.load(std::memory_order_acquire));
  }

  /// Force a halt (cancellation relay, fault injection).
  void halt(BudgetKind why) noexcept { trip(why); }

  /// Record which fault halted the engine (first report wins). Callable from
  /// worker threads; the mutex is cold — faults are the exceptional path.
  void note_fault(const char* site, uint64_t unit) noexcept;
  FaultReport fault_report() const;

  /// Reset a BudgetKind::Fault trip (and the fault report) so a rolled-back
  /// stage can be retried. Real budget trips (conflicts, deadline, ...) stay
  /// sticky: those are sound degradation, not wrongness, and must not be
  /// cleared by the recovery layer.
  void clear_fault_halt() noexcept;

  ResourceReport report() const;

private:
  void trip(BudgetKind why) noexcept;

  ResourceBudgets budgets_;
  CancelToken* cancel_ = nullptr;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  std::atomic<int> tripped_{0};
  std::atomic<uint64_t> conflicts_{0};
  std::atomic<uint64_t> propagations_{0};
  std::atomic<uint64_t> skipped_solves_{0};
  std::atomic<uint64_t> skipped_rewrites_{0};
  std::atomic<uint64_t> skipped_regions_{0};
  std::atomic<uint64_t> halted_engines_{0};
  std::atomic<uint64_t> growth_baseline_{0};

  mutable std::mutex fault_mu_;
  FaultReport fault_; ///< guarded by fault_mu_
};

} // namespace smartly::util
