// Deterministic, seed-driven fault injection for robustness testing.
//
// A FaultPlan describes *when* to misbehave; a FaultScope installs it
// globally (RAII). Engines call fault_point("site") at their injection
// points; the harness counts matching events and, per event, derives an
// action from hash(seed, site, event#): report a forced
// sat::Result::Unknown, throw a FaultInjected exception, or do nothing.
// With zero active plan the hook is one relaxed atomic load — cheap enough
// to leave compiled into release builds.
//
// Every engine fires its fault points on one thread in canonical order: the
// §II sweep and fraig run on the calling thread, and the rewrite engine's
// fault points sit in its serial commit loop. So the event sequence — and
// therefore the whole injection schedule — of one flow is determined by
// (plan, input) at every thread count; the robustness suite asserts exact
// schedules across thread counts. Flows run side by side (service jobs on
// several workers) still interleave their events.
//
// `unit_keyed` plans trade the event counter for hash(seed, site, unit),
// where the unit id is a stable name hash of the work item (fraig: class
// representative, rewrite: the root's first canonical output bit, sweep:
// region, oracle: the target control bit's bit_unit_id). The same units then
// fault on every thread count and in every re-run — the property the
// recovery layer's quarantine determinism and repro bundles are built on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace smartly::util {

enum class FaultAction { None, Unknown, Throw };

struct FaultPlan {
  uint64_t seed = 0;
  uint32_t unknown_permille = 0; ///< per-event chance (0..1000) of forcing Unknown
  uint32_t throw_permille = 0;   ///< per-event chance (0..1000) of throwing
  int64_t exhaust_after = -1;    ///< every matching event past the N-th forces Unknown
  int64_t throw_after = -1;      ///< one-shot throw exactly at the N-th matching event
  std::string site_filter;       ///< only sites containing this substring fault ("" = all)
  bool unit_keyed = false;       ///< derive actions from hash(seed, site, unit) instead of
                                 ///< the event counter: schedule-independent, so the same
                                 ///< units fault on every thread count (recovery tests)
};

/// Exception thrown by injected faults. Derives from std::runtime_error so
/// generic catch blocks (opt_tool's top-level handler) treat it uniformly.
/// Carries the site and the stable unit id so the recovery layer can
/// quarantine exactly the work item that faulted.
class FaultInjected : public std::runtime_error {
public:
  explicit FaultInjected(const std::string& site, uint64_t unit = 0)
      : std::runtime_error("injected fault at " + site), site_(site), unit_(unit) {}

  const std::string& site() const noexcept { return site_; }
  uint64_t unit() const noexcept { return unit_; }

private:
  std::string site_;
  uint64_t unit_;
};

/// Installs `plan` as the process-global fault plan for its lifetime.
/// Scopes must not nest and must not overlap engine runs on other threads
/// beyond the engines under test (test-only machinery).
class FaultScope {
public:
  explicit FaultScope(const FaultPlan& plan);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// Matching events seen so far (diagnostics for the test suite).
  uint64_t events() const noexcept;
};

/// Consult the active plan at an engine injection point. Returns the action
/// to take; never throws itself. With no active scope: FaultAction::None.
/// `unit` is the stable id of the work item (0 when the site has none);
/// unit-keyed plans hash it in place of the event counter.
FaultAction fault_point(const char* site, uint64_t unit = 0) noexcept;

/// Convenience wrapper: throws FaultInjected on Throw, returns true when the
/// caller should pretend its SAT query came back Unknown.
inline bool fault_unknown(const char* site, uint64_t unit = 0) {
  const FaultAction a = fault_point(site, unit);
  if (a == FaultAction::Throw)
    throw FaultInjected(site, unit);
  return a == FaultAction::Unknown;
}

/// Copy the active plan into `*out`. Returns false (leaving `*out` alone)
/// when no FaultScope is installed. Used by the recovery layer to record the
/// live fault schedule into repro bundles.
bool active_fault_plan(FaultPlan* out) noexcept;

/// Stable FNV-1a hash of a name — the canonical way engines derive unit ids
/// from wire/cell names (process-independent, so bundles replay anywhere).
uint64_t stable_name_hash(const char* s) noexcept;
inline uint64_t stable_name_hash(const std::string& s) noexcept {
  return stable_name_hash(s.c_str());
}

} // namespace smartly::util
