// Hierarchical span tracing with Chrome trace-event export.
//
// Every engine runs on its calling thread; only the service's job workers
// run side by side. Knowing *where time goes* per region, round, class and
// job is what ranks the layers worth speeding up. This tracer makes that
// visible without touching any deterministic output:
//
//   * `Span` is an RAII scope: construction records a steady-clock start,
//     destruction appends one complete event ("ph":"X") to the calling
//     thread's buffer. Nesting falls out of the timestamps — Chrome/Perfetto
//     stack same-thread events by containment, so a span opened inside
//     another renders as its child.
//   * Per-thread buffers are lock-free on the hot path: each thread owns a
//     thread_local event vector (registered once, under a mutex, on first
//     use) and appends to it with no synchronization. Buffers are drained
//     by write_chrome_trace() at quiescent points — after the service's job
//     workers have joined, so every append happens-before the read.
//   * Tracing is off by default and the disabled path is a single relaxed
//     atomic load per span (<1% wall time on bench_pass is the gate in
//     tests/test_obs.cpp and the acceptance bar). Span names are static
//     strings; the std::string overload copies only when tracing is on.
//
// Determinism contract: spans and instant events carry timing and thread
// ids, which are *never* fed back into any engine decision, netlist byte,
// decision trace, or gated BENCH stat. Traces are observability output
// only — netlists and engine counters are byte-identical with tracing on or
// off (tests/test_obs.cpp asserts it on a fraig+rewrite flow).
//
// Output: Chrome trace-event JSON (the "JSON Array Format" variant with a
// traceEvents envelope), loadable in chrome://tracing and ui.perfetto.dev,
// written by `opt_tool --trace-out=FILE` and the bench binaries'
// `--trace-out FILE`. scripts/trace_summary.py prints a per-span summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace smartly::obs {

/// Process-global tracing switch. Off by default; enabling mid-run is safe
/// (spans already open simply never record).
bool tracing_enabled() noexcept;
void set_tracing(bool on) noexcept;

/// Microseconds since the process-wide trace epoch (first use of the clock).
uint64_t trace_now_us() noexcept;

namespace detail {
extern std::atomic<bool> g_tracing; // definition in trace.cpp
void record_complete(const char* cat, std::string name, uint64_t ts_us, uint64_t dur_us,
                     const char* arg_key, uint64_t arg);
} // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// RAII span. The no-op path (tracing disabled) costs one relaxed load.
class Span {
public:
  /// Static name (the common case): nothing is copied or allocated.
  explicit Span(const char* cat, const char* name) noexcept
      : Span(cat, name, nullptr, 0) {}
  Span(const char* cat, const char* name, const char* arg_key, uint64_t arg) noexcept
      : cat_(cat), name_(name), arg_key_(arg_key), arg_(arg),
        active_(tracing_enabled()) {
    if (active_)
      start_us_ = trace_now_us();
  }
  /// Dynamic name (stage names arriving as std::string). The string is
  /// copied only when tracing is enabled.
  Span(const char* cat, const std::string& name, const char* arg_key = nullptr,
       uint64_t arg = 0)
      : cat_(cat), arg_key_(arg_key), arg_(arg), active_(tracing_enabled()) {
    if (active_) {
      dyn_name_ = name;
      start_us_ = trace_now_us();
    }
  }
  ~Span() {
    if (active_)
      detail::record_complete(cat_, name_ != nullptr ? std::string(name_)
                                                     : std::move(dyn_name_),
                              start_us_, trace_now_us() - start_us_, arg_key_, arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr; ///< static-name path; null when dyn_name_ is used
  std::string dyn_name_;
  const char* arg_key_ = nullptr;
  uint64_t arg_ = 0;
  bool active_ = false;
  uint64_t start_us_ = 0;
};

/// Append an instant event ("ph":"i", thread scope) — used by the log layer
/// for records >= Warn and available for one-shot markers. No-op when
/// tracing is disabled; `message` lands in args.message.
void trace_instant(const char* cat, const char* name, const std::string& message);

/// Serialize every thread's buffered events as Chrome trace-event JSON.
/// Call at a quiescent point (job workers joined): draining does not
/// synchronize with concurrent appends. Buffers are left intact, so a
/// flush mid-run and a flush at exit both see the full history.
std::string chrome_trace_json();

/// chrome_trace_json() to a file. Returns false (and fills *error when
/// non-null) on I/O failure.
bool write_chrome_trace(const std::string& path, std::string* error = nullptr);

/// Drop all buffered events and restart the trace epoch (tests; also used
/// by long-lived daemons between trace windows). Quiescent-point only.
void reset_trace();

/// Number of buffered events across all threads (tests).
size_t trace_event_count();

} // namespace smartly::obs
