#include "util/fault.hpp"

#include <atomic>
#include <cassert>
#include <cstring>

namespace smartly::util {

namespace {

struct FaultState {
  FaultPlan plan;
  std::atomic<uint64_t> events{0};
  std::atomic<bool> thrown{false}; ///< throw_after is one-shot
};

std::atomic<FaultState*> g_fault{nullptr};

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t fnv1a(const char* s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (; *s; ++s)
    h = (h ^ static_cast<uint8_t>(*s)) * 0x100000001b3ull;
  return h;
}

} // namespace

FaultScope::FaultScope(const FaultPlan& plan) {
  auto* state = new FaultState();
  state->plan = plan;
  FaultState* expected = nullptr;
  const bool installed = g_fault.compare_exchange_strong(expected, state);
  assert(installed && "FaultScope must not nest");
  if (!installed)
    delete state;
}

FaultScope::~FaultScope() {
  FaultState* state = g_fault.exchange(nullptr);
  delete state;
}

uint64_t FaultScope::events() const noexcept {
  FaultState* state = g_fault.load(std::memory_order_acquire);
  return state ? state->events.load(std::memory_order_relaxed) : 0;
}

bool faults_active() noexcept { return g_fault.load(std::memory_order_acquire) != nullptr; }

FaultAction fault_point(const char* site, uint64_t unit) noexcept {
  FaultState* state = g_fault.load(std::memory_order_acquire);
  if (state == nullptr)
    return FaultAction::None;
  const FaultPlan& plan = state->plan;
  if (!plan.site_filter.empty() && std::strstr(site, plan.site_filter.c_str()) == nullptr)
    return FaultAction::None;

  // 1-based index of this matching event (kept in unit-keyed mode too: the
  // test suite uses events() as a coverage diagnostic either way).
  const uint64_t n = state->events.fetch_add(1, std::memory_order_relaxed) + 1;

  if (plan.unit_keyed) {
    // Schedule-independent: the action is a pure function of (seed, site,
    // unit), so the same work items fault whatever the event order and in
    // every re-run. throw_after/exhaust_after are event-order-based and
    // therefore meaningless here; they are ignored.
    if (plan.throw_permille == 0 && plan.unknown_permille == 0)
      return FaultAction::None;
    const uint64_t h = splitmix64(plan.seed ^ splitmix64(splitmix64(unit)) ^ fnv1a(site));
    const uint32_t roll = static_cast<uint32_t>(h % 1000);
    if (roll < plan.throw_permille)
      return FaultAction::Throw;
    if (roll < plan.throw_permille + plan.unknown_permille)
      return FaultAction::Unknown;
    return FaultAction::None;
  }

  if (plan.throw_after >= 0 && n == static_cast<uint64_t>(plan.throw_after)) {
    bool expected = false;
    if (state->thrown.compare_exchange_strong(expected, true))
      return FaultAction::Throw;
  }
  if (plan.exhaust_after >= 0 && n > static_cast<uint64_t>(plan.exhaust_after))
    return FaultAction::Unknown;

  if (plan.throw_permille == 0 && plan.unknown_permille == 0)
    return FaultAction::None;
  const uint64_t h = splitmix64(plan.seed ^ splitmix64(n) ^ fnv1a(site));
  const uint32_t roll = static_cast<uint32_t>(h % 1000);
  if (roll < plan.throw_permille)
    return FaultAction::Throw;
  if (roll < plan.throw_permille + plan.unknown_permille)
    return FaultAction::Unknown;
  return FaultAction::None;
}

bool active_fault_plan(FaultPlan* out) noexcept {
  FaultState* state = g_fault.load(std::memory_order_acquire);
  if (state == nullptr)
    return false;
  if (out != nullptr)
    *out = state->plan;
  return true;
}

uint64_t stable_name_hash(const char* s) noexcept { return fnv1a(s); }

} // namespace smartly::util
