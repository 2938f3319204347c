// Shared helpers for the bench_* executables — timing, ratios, circuit
// filtering, design preparation, and BENCH_*.json emission.
#pragma once

#include "benchgen/public_bench.hpp"
#include "core/mux_restructure.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/pipeline.hpp"
#include "rtlil/module.hpp"
#include "util/budget.hpp"
#include "verilog/elaborate.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace smartly::benchjson {

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Elaborate + the shared pre-pipeline (coarse opts and §III restructuring,
/// as in smartly_flow) so the muxtree benchmarks see realistic muxtrees.
inline std::unique_ptr<rtlil::Design> prepare_muxtree_design(const std::string& verilog) {
  auto design = verilog::read_verilog(verilog);
  rtlil::Module& top = *design->top();
  opt::coarse_opt(top);
  core::mux_restructure(top, {});
  opt::opt_expr(top);
  opt::opt_clean(top);
  return design;
}

/// Keep only circuits whose name contains `filter` (no-op when empty);
/// exits 2 with a message when nothing matches.
inline void apply_name_filter(std::vector<benchgen::BenchCircuit>& circuits,
                              const std::string& filter, const char* prog) {
  if (filter.empty())
    return;
  std::vector<benchgen::BenchCircuit> kept;
  for (auto& c : circuits)
    if (c.name.find(filter) != std::string::npos)
      kept.push_back(std::move(c));
  circuits.swap(kept);
  if (circuits.empty()) {
    std::fprintf(stderr, "%s: --filter '%s' matches no circuit\n", prog, filter.c_str());
    std::exit(2);
  }
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

/// Incremental JSON object builder: comma placement, string escaping, fixed
/// double precision. Objects nest through put_raw (arrays are joined
/// pre-rendered element strings).
class JsonObject {
public:
  JsonObject& put(const char* key, const std::string& v) {
    return put_raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& put(const char* key, const char* v) { return put(key, std::string(v)); }
  JsonObject& put(const char* key, bool v) { return put_raw(key, v ? "true" : "false"); }
  JsonObject& put(const char* key, size_t v) { return put_raw(key, std::to_string(v)); }
  JsonObject& put(const char* key, int v) { return put_raw(key, std::to_string(v)); }
  JsonObject& put(const char* key, unsigned v) { return put_raw(key, std::to_string(v)); }
  JsonObject& put(const char* key, unsigned long long v) {
    return put_raw(key, std::to_string(v));
  }
  JsonObject& putf(const char* key, double v, int decimals = 4) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return put_raw(key, buf);
  }
  JsonObject& put_raw(const char* key, const std::string& rendered) {
    body_ += first_ ? "" : ", ";
    first_ = false;
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += rendered;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

private:
  std::string body_;
  bool first_ = true;
};

/// Render a guard's ResourceReport as the shared `resource` block every
/// BENCH_*.json carries: what the run charged (deterministic totals) and
/// whether a budget halted it (never, for the unbudgeted bench runs — the
/// block exists so budgeted reruns are diffable against the archives).
inline std::string resource_json(const util::ResourceReport& r) {
  JsonObject o;
  o.put("tripped", util::budget_kind_name(r.tripped))
      .put("conflicts", static_cast<unsigned long long>(r.conflicts))
      .put("propagations", static_cast<unsigned long long>(r.propagations))
      .put("skipped_solves", static_cast<unsigned long long>(r.skipped_solves))
      .put("skipped_rewrites", static_cast<unsigned long long>(r.skipped_rewrites))
      .put("skipped_regions", static_cast<unsigned long long>(r.skipped_regions))
      .put("halted_engines", static_cast<unsigned long long>(r.halted_engines));
  return o.str();
}

/// Render pre-built elements as a JSON array.
inline std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    out += elements[i];
    if (i + 1 < elements.size())
      out += ", ";
  }
  return out + "]";
}

/// Render the shared `obs` block every BENCH_*.json carries: per-stage
/// wall/cpu seconds from the bench's StageProfile plus a snapshot of the
/// process-global metrics registry. Timings are observability output —
/// check_bench_regression.py gates the block's *schema*, never its timing
/// values.
inline std::string obs_json(const obs::StageProfile& profile) {
  std::vector<std::string> stages;
  for (const obs::StageTiming& s : profile.stages()) {
    JsonObject o;
    o.put("name", s.name).putf("wall_seconds", s.wall_seconds).putf("cpu_seconds",
                                                                    s.cpu_seconds);
    stages.push_back(o.str());
  }
  JsonObject counters;
  for (const auto& [name, value] : obs::Registry::global().snapshot())
    counters.put_raw(name.c_str(), std::to_string(value));
  JsonObject o;
  o.put_raw("stages", json_array(stages)).put_raw("counters", counters.str());
  return o.str();
}

/// Shared --trace-out handling for the bench binaries: arm tracing when a
/// path was given, and write the Chrome trace on scope exit (after the
/// bench's root span has closed — declare the root Span after this).
struct TraceOutput {
  std::string path;
  void arm(const std::string& p) {
    path = p;
    if (!path.empty())
      obs::set_tracing(true);
  }
  ~TraceOutput() {
    if (path.empty())
      return;
    std::string err;
    if (!obs::write_chrome_trace(path, &err))
      std::fprintf(stderr, "bench: --trace-out: %s\n", err.c_str());
  }
};

} // namespace smartly::benchjson
