#include "obs/trace.hpp"

#include "util/atomic_file.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace smartly::obs {

namespace {

struct TraceEvent {
  std::string name;
  const char* cat;      ///< static category string
  char phase;           ///< 'X' complete, 'i' instant
  uint64_t ts_us;
  uint64_t dur_us;      ///< complete events only
  const char* arg_key;  ///< optional numeric arg (static key), null when absent
  uint64_t arg;
  std::string message;  ///< instant events only (args.message)
};

/// One per thread that ever emitted an event. The owning thread appends with
/// no synchronization; the registry's shared_ptr keeps the buffer alive past
/// thread exit (job worker pools are torn down before traces are written).
struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
  uint64_t epoch_generation = 0;
};

Registry& registry() {
  static Registry* r = new Registry(); // leaked: outlives thread_local dtors
  return *r;
}

std::chrono::steady_clock::time_point& epoch() {
  static std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  return t0;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
}

} // namespace

namespace detail {

std::atomic<bool> g_tracing{false};

void record_complete(const char* cat, std::string name, uint64_t ts_us, uint64_t dur_us,
                     const char* arg_key, uint64_t arg) {
  ThreadBuffer& buf = thread_buffer();
  buf.events.push_back(
      TraceEvent{std::move(name), cat, 'X', ts_us, dur_us, arg_key, arg, {}});
}

} // namespace detail

void set_tracing(bool on) noexcept {
  (void)trace_now_us(); // pin the epoch before the first span reads it
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

uint64_t trace_now_us() noexcept {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - epoch())
                                   .count());
}

void trace_instant(const char* cat, const char* name, const std::string& message) {
  if (!tracing_enabled())
    return;
  ThreadBuffer& buf = thread_buffer();
  buf.events.push_back(
      TraceEvent{name, cat, 'i', trace_now_us(), 0, nullptr, 0, message});
}

std::string chrome_trace_json() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char num[160];
  for (const auto& buf : r.buffers) {
    for (const TraceEvent& ev : buf->events) {
      if (!first)
        out += ",\n";
      first = false;
      out += "{\"name\": \"";
      json_escape_into(out, ev.name);
      out += "\", \"cat\": \"";
      out += ev.cat;
      out += "\", \"ph\": \"";
      out += ev.phase;
      out += "\", \"pid\": 1, \"tid\": ";
      std::snprintf(num, sizeof num, "%u, \"ts\": %llu", buf->tid,
                    static_cast<unsigned long long>(ev.ts_us));
      out += num;
      if (ev.phase == 'X') {
        std::snprintf(num, sizeof num, ", \"dur\": %llu",
                      static_cast<unsigned long long>(ev.dur_us));
        out += num;
      } else if (ev.phase == 'i') {
        out += ", \"s\": \"t\"";
      }
      if (ev.arg_key != nullptr) {
        std::snprintf(num, sizeof num, ", \"args\": {\"%s\": %llu}", ev.arg_key,
                      static_cast<unsigned long long>(ev.arg));
        out += num;
      } else if (!ev.message.empty()) {
        out += ", \"args\": {\"message\": \"";
        json_escape_into(out, ev.message);
        out += "\"}";
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, std::string* error) {
  return util::atomic_write_file(path, chrome_trace_json(), error);
}

void reset_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers)
    buf->events.clear();
  epoch() = std::chrono::steady_clock::now();
  ++r.epoch_generation;
}

size_t trace_event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  size_t n = 0;
  for (const auto& buf : r.buffers)
    n += buf->events.size();
  return n;
}

} // namespace smartly::obs
