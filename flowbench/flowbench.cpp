// flowbench worker: one process per measured run of the end-to-end benchmark.
//
// run.py drives it; every mode prints one JSON object on stdout.
//
//   flowbench info
//       compiler, build type and hardware threads (result provenance).
//   flowbench gen --workload W --seed N [--variant V] --out DIR
//       write the workload's inputs as Verilog: DIR/<name>.v plus
//       DIR/inputs.txt (one name per line); service_burst also writes
//       DIR/primed.txt, the jobs whose results the warm cache is primed with.
//       V shifts the generator seeds; N shuffles the statement order.
//   flowbench flow --in DIR --out DIR --threads T [--cec 1] [--trace FILE]
//       read the inputs (set-up), run the workload's flow on each design the
//       way opt_tool --rewrite does, write DIR/<name>.v, and with --cec 1
//       CEC every output against its input (after the measured calls). With
//       --trace the flow is replayed one public layer call at a time, each
//       call wrapped in a span of this file, and the Chrome trace is written
//       to FILE.
//   flowbench prime --in DIR --spool SPOOL --threads T
//       drain the primed jobs through a service so SPOOL/cache holds their
//       warm-cache snapshot (untimed set-up of service_burst).
//   flowbench service --in DIR --snapshot FILE --spool SPOOL --threads T [--trace FILE]
//       install the primed snapshot, time drain-and-exit runs with no jobs
//       (set-up), spool every job, and time the run that drains the burst.
//   flowbench check --gold DIR --gate DIR --sequences K --seed S --threads T
//       simulate every gate netlist against its gold netlist through
//       sim::Evaluator on K seeded input sequences; also sums the gate
//       netlists' AIG area.
//   flowbench corrupt --in FILE --out FILE
//       swap the A/B inputs of the first mux whose inputs differ (the
//       miscompare opt_tool --inject-miscompare plants; self-test only).
#include "aig/aigmap.hpp"
#include "backend/write_verilog.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "obs/trace.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/pipeline.hpp"
#include "rtlil/sigmap.hpp"
#include "service/service.hpp"
#include "sim/eval.hpp"
#include "verilog/elaborate.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace smartly;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- utilities

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Set-up is timed this many times per run and reported as the median: one
/// read of a 120 KB design takes ~25 ms, where a scheduler hiccup is 20%.
constexpr int kSetupRepeats = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0; // Linux reports kilobytes
}

std::string read_text(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  if (!f)
    throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_text(const fs::path& p, const std::string& text) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f)
    throw std::runtime_error("cannot write " + p.string());
}

std::vector<std::string> read_lines(const fs::path& p) {
  std::vector<std::string> out;
  std::istringstream in(read_text(p));
  for (std::string line; std::getline(in, line);)
    if (!line.empty())
      out.push_back(line);
  return out;
}

/// Flat JSON object writer: numbers keep every digit (%.9g), strings are
/// plain identifiers (names of designs and layers).
class Json {
public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  Json& list(const std::string& key, const std::vector<std::string>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
      out += (i ? ", \"" : "\"") + v[i] + "\"";
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& rendered) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + rendered;
    return *this;
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

private:
  std::string body_;
};

/// `--key value` options after the mode word.
class Options {
public:
  Options(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0)
        throw std::invalid_argument(std::string("unexpected argument ") + argv[i]);
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    if (it != values_.end())
      return it->second;
    if (fallback.empty())
      throw std::invalid_argument("missing --" + key);
    return fallback;
  }
  /// Any 64-bit value; a negative one wraps, as strtoull does.
  uint64_t integer(const std::string& key, const std::string& fallback = "") const {
    return std::stoull(get(key, fallback));
  }

private:
  std::map<std::string, std::string> values_;
};

// --------------------------------------------------------------- workloads

/// --variant V moves every generator seed by V strides; V = 0 keeps the
/// defaults workloads.json records.
constexpr uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

/// public_suite()'s circuit order and seed walk; top_cache_axi is dropped
/// from every workload (its CEC alone takes ~20 s).
const char* const kPublicOrder[] = {"top_cache_axi", "pci_bridge32", "wb_conmax", "mem_ctrl",
                                    "wb_dma",        "tv80",         "usb_funct", "ethernet",
                                    "riscv",         "ac97_ctrl"};
constexpr uint64_t kPublicSeedBase = 0x5eed2005ULL;
constexpr uint64_t kPublicSeedStep = 0x9e37ULL;

/// opt_tool --gen industrial:2 uses generate_industrial(2, 1, 0x5eed + 2).
constexpr int kIndustrialTestPoint = 2;
constexpr uint64_t kIndustrialSeed = 0x5eedULL + kIndustrialTestPoint;

/// service_burst: half the jobs repeat primed sources, half are fresh seeds.
constexpr int kServiceRepeats = 12;
constexpr int kServiceFresh = 12;
constexpr uint64_t kServiceSeedBase = 0x5e41ce00ULL;

struct Input {
  std::string name;
  std::string verilog;
};

/// The workload's designs from its generators.
std::vector<Input> generate(const std::string& workload, uint64_t variant,
                            std::vector<std::string>* primed) {
  const uint64_t shift = variant * kSeedStride;
  std::vector<Input> out;
  if (workload == "industrial") {
    const auto c = benchgen::generate_industrial(kIndustrialTestPoint, 1, kIndustrialSeed + shift);
    out.push_back({c.name, c.verilog});
  } else if (workload == "public_check") {
    for (size_t k = 1; k < std::size(kPublicOrder); ++k) {
      const std::string name = kPublicOrder[k];
      const uint64_t s = kPublicSeedBase + (k + 1) * kPublicSeedStep + shift;
      out.push_back({name, benchgen::generate_circuit(name, benchgen::profile_for(name), s).verilog});
    }
  } else if (workload == "service_burst") {
    auto job = [&](const char* prefix, int k, uint64_t s) {
      const std::string circuit = kPublicOrder[1 + k % 9];
      char name[64];
      std::snprintf(name, sizeof name, "%s%02d-%s", prefix, k, circuit.c_str());
      out.push_back({name, benchgen::generate_circuit(circuit, benchgen::profile_for(circuit),
                                                      s + shift)
                               .verilog});
    };
    for (int k = 0; k < kServiceRepeats; ++k) {
      job("repeat", k, kServiceSeedBase + uint64_t(k));
      primed->push_back(out.back().name);
    }
    for (int k = 0; k < kServiceFresh; ++k)
      job("fresh", k, kServiceSeedBase + 0x10000 + uint64_t(k));
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return out;
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The same module with its top-level statements (assign and always blocks)
/// in a seeded order; declarations stay first, in order. Seed 0 returns the
/// text unchanged. A different statement order is a different input to the
/// frontend and every order-sensitive pass, with the same logic.
std::string shuffle_statements(const std::string& verilog, uint64_t seed) {
  if (seed == 0)
    return verilog;
  auto starts_item = [](const std::string& line) {
    for (const char* kw : {"input ", "output ", "wire ", "reg ", "assign ", "always "})
      if (line.rfind(std::string("  ") + kw, 0) == 0)
        return true;
    return false;
  };
  std::string head, tail;
  std::vector<std::string> decls, stmts;
  std::string* current = nullptr;
  std::istringstream in(verilog);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("module ", 0) == 0) {
      head += line + "\n";
    } else if (line.rfind("endmodule", 0) == 0) {
      tail += line + "\n";
      current = nullptr;
    } else if (starts_item(line)) {
      const bool stmt = line.rfind("  assign ", 0) == 0 || line.rfind("  always ", 0) == 0;
      auto& items = stmt ? stmts : decls;
      items.push_back(line + "\n");
      current = &items.back();
    } else if (current != nullptr) {
      *current += line + "\n"; // continuation of an always block
    } else {
      throw std::runtime_error("unexpected line in generated Verilog: " + line);
    }
  }
  uint64_t state = seed;
  for (size_t i = stmts.size(); i > 1; --i)
    std::swap(stmts[i - 1], stmts[splitmix64(state) % i]);
  std::string out = head;
  for (const auto& d : decls)
    out += d;
  for (const auto& s : stmts)
    out += s;
  return out + tail;
}

int mode_gen(const Options& o) {
  const fs::path dir = o.get("out");
  fs::create_directories(dir);
  std::vector<std::string> primed;
  auto inputs = generate(o.get("workload"), o.integer("variant", "0"), &primed);
  const uint64_t seed = o.integer("seed");
  std::string list;
  for (Input& in : inputs) {
    write_text(dir / (in.name + ".v"), shuffle_statements(in.verilog, seed));
    list += in.name + "\n";
  }
  write_text(dir / "inputs.txt", list);
  std::string primed_list;
  for (const std::string& name : primed)
    primed_list += name + "\n";
  if (!primed.empty())
    write_text(dir / "primed.txt", primed_list);
  Json().num("designs", double(inputs.size())).print();
  return 0;
}

// -------------------------------------------------------------------- flow

/// Stats the layer calls return, summed over the workload's designs.
struct LayerCounts {
  core::MuxRestructureStats rebuild;
  core::SatRedundancyStats sat;
  size_t region_walks = 0;
  sweep::FraigStats fraig;
  size_t fraig_calls = 0;
  rewrite::RewriteStats rewrite;
};

/// Category of the benchmark's own spans: one around each public layer call,
/// named after its metric, which run.py sums by name. Free when tracing is
/// off. Spans the library records inside the calls land in the trace too and
/// are never used.
constexpr const char* kLayer = "flowbench";

/// smartly_flow, replayed one public layer call at a time in its own order:
/// coarse_opt; §III and its cleanup; §II and its cleanup; the fraig ⇄ rewrite
/// loop; coarse_opt. Must produce smartly_flow's netlist byte for byte
/// (run.py compares the output digests).
void replay_smartly_flow(rtlil::Module& m, const core::SmartlyOptions& o, LayerCounts& c) {
  {
    const obs::Span s(kLayer, "opt.coarse_s");
    opt::coarse_opt(m);
  }
  {
    const obs::Span s(kLayer, "core.rebuild_s");
    const core::MuxRestructureStats r = core::mux_restructure(m, o.rebuild);
    c.rebuild.trees_seen += r.trees_seen;
    c.rebuild.trees_rebuilt += r.trees_rebuilt;
    c.rebuild.mux_removed += r.mux_removed;
  }
  {
    const obs::Span s(kLayer, "opt.cleanup_s");
    opt::opt_expr(m);
    opt::opt_clean(m);
  }
  {
    const obs::Span s(kLayer, "core.sat_s");
    opt::ParallelSweepStats sweep;
    const core::SatRedundancyStats r =
        core::sat_redundancy_parallel(m, o.sat, o.threads, nullptr, &sweep);
    c.sat.queries += r.queries;
    c.sat.decided_syntactic += r.decided_syntactic;
    c.sat.decided_inference += r.decided_inference;
    c.sat.decided_sim += r.decided_sim;
    c.sat.decided_sat += r.decided_sat;
    c.sat.dead_paths += r.dead_paths;
    c.sat.sat_calls += r.sat_calls;
    c.sat.solver_conflicts += r.solver_conflicts;
    c.region_walks += sweep.region_walks;
  }
  {
    const obs::Span s(kLayer, "opt.cleanup_s");
    opt::opt_expr(m);
    opt::opt_clean(m);
  }
  sweep::FraigOptions fraig = o.fraig;
  fraig.threads = o.threads;
  rewrite::RewriteOptions rw = o.rewrite;
  rw.threads = o.threads;
  auto fraig_call = [&] {
    const obs::Span s(kLayer, "sweep.fraig_s");
    c.fraig += opt::fraig_stage(m, fraig);
    ++c.fraig_calls;
  };
  // opt::fraig_rewrite_loop: fraig -> rewrite pairs while rewrite commits,
  // then a closing fraig.
  bool converged = false;
  for (size_t iter = 0; iter < opt::DeepOptOptions{}.max_iterations && !converged; ++iter) {
    fraig_call();
    const obs::Span s(kLayer, "rewrite.rewrite_s");
    const rewrite::RewriteStats r = opt::rewrite_stage(m, rw);
    c.rewrite += r;
    converged = r.rewrites == 0;
  }
  if (!converged)
    fraig_call();
  {
    const obs::Span s(kLayer, "opt.coarse_s");
    opt::coarse_opt(m);
  }
}

void run_flow(rtlil::Module& m, int threads, bool traced, LayerCounts& counts) {
  core::SmartlyOptions o;
  o.enable_rewrite = true; // the fraig ⇄ rewrite loop opt_tool --rewrite adds
  o.threads = threads;
  if (traced)
    replay_smartly_flow(m, o, counts);
  else
    core::smartly_flow(m, o);
}

size_t area(const rtlil::Module& m) {
  const obs::Span s(kLayer, "aig.area_s");
  return aig::aig_area(m);
}

void put_counts(Json& j, const LayerCounts& c) {
  const auto& r = c.rebuild;
  j.num("core.rebuild.trees_seen", double(r.trees_seen))
      .num("core.rebuild.trees_rebuilt", double(r.trees_rebuilt))
      .num("core.rebuild.mux_removed", double(r.mux_removed));
  const auto& s = c.sat;
  const size_t decided = s.decided_syntactic + s.decided_inference + s.decided_sim +
                         s.decided_sat + s.dead_paths;
  j.num("core.sat.queries", double(s.queries))
      .num("core.sat.decided", double(decided))
      .num("core.sat.sat_calls", double(s.sat_calls))
      .num("core.sat.solver_conflicts", double(s.solver_conflicts))
      .num("core.sat.region_walks", double(c.region_walks));
  const auto& f = c.fraig;
  j.num("sweep.fraig.calls", double(c.fraig_calls))
      .num("sweep.fraig.rounds", double(f.rounds))
      .num("sweep.fraig.classes", double(f.classes))
      .num("sweep.fraig.sat_queries", double(f.sat_queries))
      .num("sweep.fraig.proved",
           double(f.proved_equal + f.proved_constant + f.proved_structural))
      .num("sweep.fraig.disproved", double(f.disproved))
      .num("sweep.fraig.unknown", double(f.unknown))
      .num("sweep.fraig.merged_cells", double(f.merged_cells))
      .num("sweep.fraig.solver_conflicts", double(f.solver_conflicts));
  const auto& w = c.rewrite;
  j.num("rewrite.rounds", double(w.rounds))
      .num("rewrite.aig_nodes", double(w.aig_nodes))
      .num("rewrite.cuts", double(w.cuts))
      .num("rewrite.roots_evaluated", double(w.roots_evaluated))
      .num("rewrite.rewrites", double(w.rewrites))
      .num("rewrite.plans_rejected", double(w.plans_rejected));
}

int mode_flow(const Options& o) {
  const fs::path in = o.get("in");
  const fs::path out = o.get("out");
  const int threads = int(o.integer("threads"));
  const std::string trace_path = o.get("trace", "-");
  const bool traced = trace_path != "-";
  const bool check = o.integer("cec", "0") != 0;
  fs::create_directories(out);

  const std::vector<std::string> names = read_lines(in / "inputs.txt");
  std::vector<std::string> sources;
  for (const std::string& name : names)
    sources.push_back(read_text(in / (name + ".v")));

  if (traced)
    obs::set_tracing(true);
  LayerCounts counts;
  Json j;
  {
    const obs::Span root(kLayer, "flowbench.root");
    // Set-up: the frontend over every input; the last read is optimized.
    std::vector<std::unique_ptr<rtlil::Design>> designs;
    std::vector<double> setups;
    for (int r = 0; r < (traced ? 1 : kSetupRepeats); ++r) {
      designs.clear();
      const auto t_setup = Clock::now();
      for (size_t i = 0; i < names.size(); ++i) {
        const obs::Span s(kLayer, "verilog.read_s");
        designs.push_back(verilog::read_verilog(sources[i], names[i] + ".v"));
        if (designs.back()->top() == nullptr)
          throw std::runtime_error(names[i] + ": no module");
      }
      setups.push_back(seconds_since(t_setup));
    }
    const double setup_s = median(setups);

    // The flow: what opt_tool --rewrite does and prints, per design.
    std::vector<std::string> results;
    size_t area_out = 0;
    const double cpu0 = process_cpu_seconds();
    const auto t_flow = Clock::now();
    {
      const obs::Span flow_span(kLayer, "flowbench.flow");
      for (auto& d : designs) {
        rtlil::Module& m = *d->top();
        area(m);
        run_flow(m, threads, traced, counts);
        area_out += area(m);
        const obs::Span s(kLayer, "backend.write_s");
        results.push_back(backend::write_verilog(m));
      }
    }
    const double flow_s = seconds_since(t_flow);
    const double cpu_s = process_cpu_seconds() - cpu0;
    j.num("peak_rss_mb", peak_rss_mb()); // of set-up and flow, before any CEC

    // Verification: what opt_tool --check runs, one CEC per design against
    // the input read again (the frontend is deterministic).
    std::vector<std::string> not_equivalent;
    size_t inconclusive = 0;
    for (size_t i = 0; check && i < names.size(); ++i) {
      const auto golden = verilog::read_verilog(sources[i], names[i] + ".v");
      const obs::Span s(kLayer, "cec.check_s");
      const cec::CecResult r = cec::check_equivalence(*golden->top(), *designs[i]->top());
      if (!r.equivalent)
        not_equivalent.push_back(names[i]);
      inconclusive += r.inconclusive ? 1 : 0;
    }

    for (size_t i = 0; i < names.size(); ++i)
      write_text(out / (names[i] + ".v"), results[i]);
    j.num("setup_s", setup_s)
        .num("flow_s", flow_s)
        .num("cpu_s", cpu_s)
        .num("designs", double(names.size()))
        .num("area_out", double(area_out))
        .num("cec.inconclusive", double(inconclusive))
        .list("not_equivalent", not_equivalent);
  }
  if (traced) {
    put_counts(j, counts);
    std::string err;
    if (!obs::write_chrome_trace(trace_path, &err))
      throw std::runtime_error("trace: " + err);
  }
  j.print();
  return 0;
}

// ----------------------------------------------------------------- service

service::ServiceOptions burst_options(int threads, size_t jobs) {
  service::ServiceOptions o;
  o.threads = threads;
  o.drain_and_exit = true;
  o.queue_max = int(jobs); // the whole burst is admitted, nothing is shed
  o.poll_ms = 1;
  return o;
}

void submit(const service::SpoolPaths& paths, const fs::path& in,
            const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    std::string err;
    if (!service::submit_job(paths, name, read_text(in / (name + ".v")), &err))
      throw std::runtime_error("submit " + name + ": " + err);
  }
}

int mode_prime(const Options& o) {
  const fs::path in = o.get("in");
  const auto paths = service::SpoolPaths::at(o.get("spool"));
  std::string err;
  if (!paths.ensure(&err))
    throw std::runtime_error(err);
  const std::vector<std::string> primed = read_lines(in / "primed.txt");
  submit(paths, in, primed);
  service::OptService daemon(paths.root, burst_options(int(o.integer("threads")), primed.size()));
  if (daemon.run() != 0)
    throw std::runtime_error("priming run failed");
  Json().num("primed", double(daemon.stats().jobs_completed)).print();
  return 0;
}

int mode_service(const Options& o) {
  const fs::path in = o.get("in");
  const auto paths = service::SpoolPaths::at(o.get("spool"));
  const int threads = int(o.integer("threads"));
  const std::string trace_path = o.get("trace", "-");
  const bool traced = trace_path != "-";
  std::string err;
  if (!paths.ensure(&err))
    throw std::runtime_error(err);
  fs::copy_file(o.get("snapshot"), paths.warm_cache_path(), fs::copy_options::overwrite_existing);
  const std::vector<std::string> jobs = read_lines(in / "inputs.txt");

  if (traced)
    obs::set_tracing(true);
  Json j;
  {
    const obs::Span root(kLayer, "flowbench.root");
    // Set-up: a drain-and-exit run on the primed spool with no jobs (spool
    // sweep, journal replay and compaction, warm-cache load and validation).
    std::vector<double> setups;
    for (int r = 0; r < (traced ? 1 : kSetupRepeats); ++r) {
      const auto t_setup = Clock::now();
      {
        const obs::Span s(kLayer, "service.startup_s");
        service::OptService idle(paths.root, burst_options(threads, jobs.size()));
        if (idle.run() != 0)
          throw std::runtime_error("set-up run failed");
      }
      setups.push_back(seconds_since(t_setup));
    }
    const double setup_s = median(setups);

    submit(paths, in, jobs); // every job is due at t0: throughput at saturation
    service::ServiceStats st;
    const double cpu0 = process_cpu_seconds();
    const auto t_drain = Clock::now();
    {
      const obs::Span flow_span(kLayer, "flowbench.flow");
      const obs::Span s(kLayer, "service.drain_s");
      service::OptService daemon(paths.root, burst_options(threads, jobs.size()));
      if (daemon.run() != 0)
        throw std::runtime_error("drain run failed");
      st = daemon.stats();
    }
    const double drain_s = seconds_since(t_drain);
    const double cpu_s = process_cpu_seconds() - cpu0;
    j.num("setup_s", setup_s)
        .num("flow_s", drain_s)
        .num("cpu_s", cpu_s)
        .num("designs", double(jobs.size()))
        .num("service.result_hits", double(st.result_hits))
        .num("service.result_misses", double(st.result_misses))
        .num("service.memo_hits", double(st.memo_hits))
        .num("service.memo_misses", double(st.memo_misses))
        .num("service.memo_inserts", double(st.memo_inserts))
        .num("service.snapshots_written", double(st.snapshots_written))
        .num("service.job_retries", double(st.job_retries))
        .num("service.recovered_stages", double(st.recovered_stages));
  }
  if (traced && !obs::write_chrome_trace(trace_path, &err))
    throw std::runtime_error("trace: " + err);
  j.num("peak_rss_mb", peak_rss_mb()).print();
  return 0;
}

// ------------------------------------------------------------------- check

/// Clock cycles per simulated sequence: registers start unknown (x), so
/// cycle 1 checks the combinational outputs, cycle 2 everything behind one
/// register stage, and cycle 3 a second stage.
constexpr int kCycles = 3;

/// Deterministic input bit, so both netlists see the same value on the
/// input port of the same name.
rtlil::State pattern_bit(uint64_t seed, int sequence, int cycle, const std::string& name,
                         int offset) {
  uint64_t h = seed ^ (uint64_t(sequence * kCycles + cycle) * 0x9e3779b97f4a7c15ULL) ^
               (uint64_t(offset) * 0xbf58476d1ce4e5b9ULL);
  for (const char ch : name)
    h = (h ^ uint8_t(ch)) * 0x100000001b3ULL;
  return (splitmix64(h) & 1) ? rtlil::State::S1 : rtlil::State::S0;
}

/// One netlist stepped cycle by cycle from the all-unknown register state.
class Stepper {
public:
  explicit Stepper(const rtlil::Module& m) : m_(m), sigmap_(m) {
    for (const auto& cell : m.cells())
      if (cell->type() == rtlil::CellType::Dff) {
        const rtlil::SigSpec& q = cell->port(rtlil::Port::Q);
        const rtlil::SigSpec& d = cell->port(rtlil::Port::D);
        for (int i = 0; i < q.size(); ++i) {
          q_.append(sigmap_(q[i]));
          d_.append(d[i]);
        }
      }
    state_ = rtlil::Const(std::vector<rtlil::State>(size_t(q_.size()), rtlil::State::Sx));
  }

  /// Evaluate one cycle under the sequence's inputs and return the value of
  /// `probe`; then clock every register.
  rtlil::Const step(uint64_t seed, int sequence, int cycle, const rtlil::SigSpec& probe) {
    sim::Evaluator ev(m_);
    for (const rtlil::Wire* w : m_.ports())
      if (w->port_input)
        for (int i = 0; i < w->width(); ++i)
          ev.set_bit(sigmap_(rtlil::SigBit(const_cast<rtlil::Wire*>(w), i)),
                     pattern_bit(seed, sequence, cycle, w->name(), i));
    for (int i = 0; i < q_.size(); ++i)
      ev.set_bit(q_[i], state_[i]);
    ev.run();
    state_ = ev.value(d_);
    return ev.value(probe);
  }

private:
  const rtlil::Module& m_;
  rtlil::SigMap sigmap_;
  rtlil::SigSpec q_, d_;
  rtlil::Const state_;
};

/// Empty when `gate` agrees with `gold` on every output port bit, in every
/// cycle of one simulated sequence, wherever gold's value is defined. Both
/// netlists start from unknown register state and run their own next-state
/// logic, so a sound register merge or removal is not a mismatch (CEC, which
/// pairs registers by name, reports merging two constant registers as one).
std::string sim_mismatch(const rtlil::Module& gold, const rtlil::Module& gate, int sequence,
                         uint64_t seed) {
  rtlil::SigSpec gold_out, gate_out;
  std::vector<std::string> names;
  for (const rtlil::Wire* w : gold.ports()) {
    if (!w->port_output)
      continue;
    rtlil::Wire* g = gate.wire(w->name());
    if (g == nullptr || g->width() != w->width() || !g->port_output)
      return "output " + w->name() + " missing";
    for (int i = 0; i < w->width(); ++i) {
      names.push_back(w->name() + "[" + std::to_string(i) + "]");
      gold_out.append(rtlil::SigBit(const_cast<rtlil::Wire*>(w), i));
      gate_out.append(rtlil::SigBit(g, i));
    }
  }
  Stepper sg(gold), st(gate);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const rtlil::Const vg = sg.step(seed, sequence, cycle, gold_out);
    const rtlil::Const vt = st.step(seed, sequence, cycle, gate_out);
    for (int i = 0; i < vg.size(); ++i) {
      const bool defined = vg[i] == rtlil::State::S0 || vg[i] == rtlil::State::S1;
      if (defined && vg[i] != vt[i])
        return names[size_t(i)] + " differs in sequence " + std::to_string(sequence) +
               ", cycle " + std::to_string(cycle + 1);
    }
  }
  return "";
}

/// Run `work(i)` for i in [0, n) on `threads` threads; `work` must not throw.
void parallel_for(size_t n, int threads, const std::function<void(size_t)>& work) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++)
        work(i);
    });
  for (std::thread& th : pool)
    th.join();
}

int mode_check(const Options& o) {
  const fs::path gold_dir = o.get("gold");
  const fs::path gate_dir = o.get("gate");
  const int sequences = int(o.integer("sequences"));
  const uint64_t seed = o.integer("seed");
  const int threads = int(o.integer("threads"));
  const std::vector<std::string> names = read_lines(gold_dir / "inputs.txt");

  struct Pair {
    std::unique_ptr<rtlil::Design> gold, gate;
    size_t area = 0;
    std::vector<std::string> why; ///< one slot per sequence, empty = agrees
  };
  std::vector<Pair> pairs(names.size());
  parallel_for(names.size(), threads, [&](size_t i) {
    Pair& p = pairs[i];
    p.why.assign(size_t(sequences), "");
    const fs::path gate_path = gate_dir / (names[i] + ".v");
    try {
      if (!fs::exists(gate_path))
        throw std::runtime_error("no output");
      p.gold = verilog::read_verilog(read_text(gold_dir / (names[i] + ".v")), names[i] + ".v");
      p.gate = verilog::read_verilog(read_text(gate_path), names[i] + ".out.v");
      p.area = aig::aig_area(*p.gate->top());
    } catch (const std::exception& e) {
      p.why[0] = e.what();
      p.gold.reset();
    }
  });
  parallel_for(names.size() * size_t(sequences), threads, [&](size_t k) {
    Pair& p = pairs[k / size_t(sequences)];
    const int sequence = int(k % size_t(sequences));
    if (p.gold == nullptr)
      return;
    try {
      p.why[size_t(sequence)] = sim_mismatch(*p.gold->top(), *p.gate->top(), sequence, seed);
    } catch (const std::exception& e) {
      p.why[size_t(sequence)] = e.what();
    }
  });

  std::vector<std::string> failed;
  size_t area = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    area += pairs[i].area;
    for (const std::string& why : pairs[i].why)
      if (!why.empty()) {
        std::fprintf(stderr, "flowbench check: %s: %s\n", names[i].c_str(), why.c_str());
        failed.push_back(names[i]);
        break;
      }
  }
  Json().list("failed", failed).num("aig_area", double(area)).print();
  return 0;
}

// ------------------------------------------------------------ self-test aid

int mode_corrupt(const Options& o) {
  auto design = verilog::read_verilog(read_text(o.get("in")));
  rtlil::Module& m = *design->top();
  bool swapped = false;
  for (const auto& cell : m.cells()) {
    if (cell->type() != rtlil::CellType::Mux)
      continue;
    const rtlil::SigSpec a = cell->port(rtlil::Port::A);
    const rtlil::SigSpec b = cell->port(rtlil::Port::B);
    if (a == b)
      continue;
    cell->set_port(rtlil::Port::A, b);
    cell->set_port(rtlil::Port::B, a);
    swapped = true;
    break;
  }
  write_text(o.get("out"), backend::write_verilog(m));
  Json().num("swapped", swapped ? 1 : 0).print();
  return 0;
}

int mode_info() {
  Json()
      .str("compiler", FLOWBENCH_COMPILER)
      .str("build_type", FLOWBENCH_BUILD_TYPE)
      .num("hardware_threads", double(std::thread::hardware_concurrency()))
      .print();
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: flowbench info|gen|flow|prime|service|check|corrupt [--key value]...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Options o(argc, argv);
    if (mode == "info")
      return mode_info();
    if (mode == "gen")
      return mode_gen(o);
    if (mode == "flow")
      return mode_flow(o);
    if (mode == "prime")
      return mode_prime(o);
    if (mode == "service")
      return mode_service(o);
    if (mode == "check")
      return mode_check(o);
    if (mode == "corrupt")
      return mode_corrupt(o);
    std::fprintf(stderr, "flowbench: unknown mode %s\n", mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench %s: %s\n", mode.c_str(), e.what());
  }
  return 1;
}
