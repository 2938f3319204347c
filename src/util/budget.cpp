#include "util/budget.hpp"

namespace smartly::util {

const char* budget_kind_name(BudgetKind kind) noexcept {
  switch (kind) {
  case BudgetKind::None: return "none";
  case BudgetKind::Conflicts: return "conflicts";
  case BudgetKind::Propagations: return "propagations";
  case BudgetKind::Growth: return "growth";
  case BudgetKind::Deadline: return "deadline";
  case BudgetKind::Cancelled: return "cancelled";
  case BudgetKind::Fault: return "fault";
  }
  return "none";
}

ResourceGuard::ResourceGuard(const ResourceBudgets& budgets, CancelToken* cancel)
    : budgets_(budgets), cancel_(cancel) {
  if (budgets_.deadline_ms >= 0) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(budgets_.deadline_ms);
    has_deadline_ = true;
  }
}

void ResourceGuard::trip(BudgetKind why) noexcept {
  int expected = 0;
  tripped_.compare_exchange_strong(expected, static_cast<int>(why), std::memory_order_acq_rel);
}

void ResourceGuard::note_fault(const char* site, uint64_t unit) noexcept {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (fault_.valid)
    return;
  fault_.valid = true;
  fault_.site = site;
  fault_.unit = unit;
}

FaultReport ResourceGuard::fault_report() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_;
}

void ResourceGuard::clear_fault_halt() noexcept {
  int expected = static_cast<int>(BudgetKind::Fault);
  tripped_.compare_exchange_strong(expected, 0, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = FaultReport{};
}

void ResourceGuard::set_growth_baseline(uint64_t cells) noexcept {
  uint64_t expected = 0;
  growth_baseline_.compare_exchange_strong(expected, cells, std::memory_order_acq_rel);
}

bool ResourceGuard::checkpoint(uint64_t current_cells) noexcept {
  if (halted())
    return true;
  if (budgets_.solver_conflicts >= 0 &&
      conflicts_.load(std::memory_order_relaxed) >
          static_cast<uint64_t>(budgets_.solver_conflicts)) {
    trip(BudgetKind::Conflicts);
    return true;
  }
  if (budgets_.solver_propagations >= 0 &&
      propagations_.load(std::memory_order_relaxed) >
          static_cast<uint64_t>(budgets_.solver_propagations)) {
    trip(BudgetKind::Propagations);
    return true;
  }
  if (budgets_.max_growth_pct >= 0 && current_cells > 0) {
    const uint64_t base = growth_baseline_.load(std::memory_order_acquire);
    if (base > 0) {
      // Trip when current > base * (1 + pct/100), in integer arithmetic.
      const uint64_t limit = base + base * static_cast<uint64_t>(budgets_.max_growth_pct) / 100;
      if (current_cells > limit) {
        trip(BudgetKind::Growth);
        return true;
      }
    }
  }
  return poll();
}

bool ResourceGuard::poll() noexcept {
  if (halted())
    return true;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    trip(BudgetKind::Cancelled);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    trip(BudgetKind::Deadline);
    return true;
  }
  return false;
}

ResourceReport ResourceGuard::report() const {
  ResourceReport r;
  r.tripped = tripped();
  r.conflicts = conflicts_.load(std::memory_order_relaxed);
  r.propagations = propagations_.load(std::memory_order_relaxed);
  r.skipped_solves = skipped_solves_.load(std::memory_order_relaxed);
  r.skipped_rewrites = skipped_rewrites_.load(std::memory_order_relaxed);
  r.skipped_regions = skipped_regions_.load(std::memory_order_relaxed);
  r.halted_engines = halted_engines_.load(std::memory_order_relaxed);
  return r;
}

} // namespace smartly::util
