// Parallel sweep engine benchmark: whole-pass wall clock vs thread count,
// emitting the BENCH_pass.json schema (per-circuit scaling curves plus the
// determinism differentials the engine guarantees).
//
//   ./bench_pass [--smoke] [--json] [--filter <substr>] [--threads <csv>]
//
//   --smoke    two small circuits, threads {1,2} — the tier-2 CTest target.
//              Exits nonzero if decisions diverge from the serial engine or
//              the netlist/stats differ across thread counts.
//   --json     print the JSON document to stdout (human table otherwise).
//   --filter   run only circuits whose name contains <substr>.
//   --threads  comma-separated worker counts (default 1,2,4,8).
//
// Arms per circuit (all on clones of the same pre-optimized design):
//   * serial     — optimize_muxtrees + one InferenceOracle: the
//                  walk-everything fixpoint, single-threaded reference for
//                  decisions_match. Its oracle query count is the
//                  circuit's `queries` (summed into total.queries).
//   * threads=T  — the parallel deterministic sweep engine.
// decisions_match compares canonical traces (schedule-/replay-insensitive);
// netlist_deterministic / stats_deterministic require byte-identical
// write_rtlil output and identical stats for every T.
#include "backend/write_rtlil.hpp"
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "core/sat_redundancy.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace smartly;
using benchjson::ratio;
using benchjson::seconds_since;

namespace {

struct ScalingPoint {
  int threads = 0;
  double seconds = 0;
  opt::ParallelSweepStats sweep;
  bool decisions_match = false;
};

struct Row {
  std::string name;
  size_t queries = 0;
  double serial_seconds = 0;
  std::vector<ScalingPoint> scaling;
  size_t regions = 0;
  size_t largest_region_trees = 0;
  bool netlist_deterministic = true;
  bool stats_deterministic = true;
};

bool same_stats(const core::SatRedundancyStats& a, const core::SatRedundancyStats& b) {
  return a.queries == b.queries && a.decided_syntactic == b.decided_syntactic &&
         a.decided_inference == b.decided_inference && a.decided_sim == b.decided_sim &&
         a.decided_sat == b.decided_sat && a.dead_paths == b.dead_paths &&
         a.skipped_too_large == b.skipped_too_large && a.gates_seen == b.gates_seen &&
         a.gates_kept == b.gates_kept && a.sim_filter_kills == b.sim_filter_kills &&
         a.sim_filter_half == b.sim_filter_half && a.sat_calls == b.sat_calls &&
         a.solver_conflicts == b.solver_conflicts &&
         a.walker.mux_collapsed == b.walker.mux_collapsed &&
         a.walker.pmux_branches_removed == b.walker.pmux_branches_removed &&
         a.walker.data_bits_replaced == b.walker.data_bits_replaced &&
         a.walker.oracle_queries == b.walker.oracle_queries &&
         a.walker.iterations == b.walker.iterations;
}

Row run_circuit(const benchgen::BenchCircuit& circuit, const std::vector<int>& thread_counts,
                util::ResourceGuard& guard) {
  Row row;
  row.name = circuit.name;
  const auto prepared = benchjson::prepare_muxtree_design(circuit.verilog);

  // Serial reference: the walk-everything fixpoint.
  opt::DecisionTrace serial_trace;
  {
    const auto design = rtlil::clone_design(*prepared);
    core::InferenceOracle oracle({});
    const auto t0 = std::chrono::steady_clock::now();
    const opt::MuxtreeStats ws =
        opt::optimize_muxtrees(*design->top(), oracle, &serial_trace);
    row.serial_seconds = seconds_since(t0);
    row.queries = ws.oracle_queries;
  }
  const std::vector<uint64_t> serial_canonical = opt::canonical_trace(serial_trace);

  std::string first_netlist;
  core::SatRedundancyStats first_stats;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    const int threads = thread_counts[i];
    const auto design = rtlil::clone_design(*prepared);
    ScalingPoint point;
    point.threads = threads;
    opt::DecisionTrace trace;
    core::SatRedundancyOptions sat_options;
    sat_options.guard = &guard; // unlimited: charges totals for the resource block
    const auto t0 = std::chrono::steady_clock::now();
    const core::SatRedundancyStats stats = core::sat_redundancy_parallel(
        *design->top(), sat_options, threads, &trace, &point.sweep);
    point.seconds = seconds_since(t0);
    point.decisions_match = opt::canonical_trace(trace) == serial_canonical;

    const std::string netlist = backend::write_rtlil(*design->top());
    if (i == 0) {
      first_netlist = netlist;
      first_stats = stats;
      row.regions = point.sweep.regions;
      row.largest_region_trees = point.sweep.largest_region_trees;
    } else {
      row.netlist_deterministic = row.netlist_deterministic && netlist == first_netlist;
      row.stats_deterministic = row.stats_deterministic && same_stats(stats, first_stats);
    }
    row.scaling.push_back(point);
  }
  return row;
}

/// speedup_vs_1t anchors on the threads==1 point when the user's --threads
/// list has one, falling back to the first point otherwise.
double anchor_seconds(const Row& r) {
  for (const ScalingPoint& p : r.scaling)
    if (p.threads == 1)
      return p.seconds;
  return r.scaling.empty() ? 0 : r.scaling.front().seconds;
}

void print_json_row(const Row& r, bool last) {
  const double t1 = anchor_seconds(r);
  std::vector<std::string> points;
  points.reserve(r.scaling.size());
  for (const ScalingPoint& p : r.scaling) {
    benchjson::JsonObject sp;
    sp.put("threads", p.threads)
        .putf("seconds", p.seconds)
        .putf("speedup_vs_1t", ratio(t1, p.seconds), 3)
        .putf("speedup_vs_serial", ratio(r.serial_seconds, p.seconds), 3)
        .put("region_walks", p.sweep.region_walks)
        .put("regions_skipped_clean", p.sweep.regions_skipped_clean)
        .put("decisions_match", p.decisions_match);
    points.push_back(sp.str());
  }
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("queries", r.queries)
      .put("regions", r.regions)
      .put("largest_region_trees", r.largest_region_trees)
      .putf("serial_seconds", r.serial_seconds)
      .put_raw("scaling", benchjson::json_array(points))
      .put("netlist_deterministic", r.netlist_deterministic)
      .put("stats_deterministic", r.stats_deterministic);
  std::printf("    %s%s\n", o.str().c_str(), last ? "" : ",");
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string filter, trace_path;
  std::vector<int> thread_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--filter") == 0 || std::strcmp(argv[i], "--threads") == 0 ||
             std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_pass: %s requires a value\n", argv[i]);
        return 2;
      }
      if (std::strcmp(argv[i], "--filter") == 0) {
        filter = argv[++i];
        continue;
      }
      if (std::strcmp(argv[i], "--trace-out") == 0) {
        trace_path = argv[++i];
        continue;
      }
      thread_counts = benchjson::parse_thread_counts(argv[++i], "bench_pass");
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: bench_pass [--smoke] [--json] [--filter <substr>] "
                  "[--threads <csv, default 1,2,4,8>] [--trace-out FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_pass: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (thread_counts.empty())
    thread_counts = smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::vector<benchgen::BenchCircuit> circuits;
  if (smoke) {
    for (const auto& c : benchgen::public_suite())
      if (c.name == "pci_bridge32" || c.name == "tv80")
        circuits.push_back(c);
  } else {
    for (const auto& c : benchgen::public_suite())
      if (c.name == "top_cache_axi" || c.name == "wb_conmax")
        circuits.push_back(c);
    const auto industrial = benchgen::industrial_suite();
    for (int tp : {0, 1, 2, 3})
      circuits.push_back(industrial[static_cast<size_t>(tp)]);
  }
  benchjson::apply_name_filter(circuits, filter, "bench_pass");

  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_pass");
  obs::StageProfile profile;

  util::ResourceGuard guard; // unbudgeted: the resource block reports charged totals
  std::vector<Row> rows;
  rows.reserve(circuits.size());
  for (const auto& c : circuits) {
    {
      const auto stage = profile.scope(c.name);
      const obs::Span span("bench", c.name);
      rows.push_back(run_circuit(c, thread_counts, guard));
    }
    if (!json) {
      const Row& r = rows.back();
      std::printf("%-16s %5zu queries  %4zu regions (max %zu trees)  serial %.4fs ",
                  r.name.c_str(), r.queries, r.regions, r.largest_region_trees,
                  r.serial_seconds);
      for (const ScalingPoint& p : r.scaling)
        std::printf(" %dt %.4fs (%.2fx)", p.threads, p.seconds,
                    ratio(anchor_seconds(r), p.seconds));
      bool match = true;
      for (const ScalingPoint& p : r.scaling)
        match = match && p.decisions_match;
      std::printf("  match %s det %s\n", match ? "yes" : "NO",
                  r.netlist_deterministic && r.stats_deterministic ? "yes" : "NO");
    }
  }

  double total_serial = 0, total_1t = 0, total_max = 0;
  size_t total_queries = 0;
  int max_threads = 0;
  bool ok = true;
  for (const Row& r : rows) {
    total_queries += r.queries;
    total_serial += r.serial_seconds;
    total_1t += anchor_seconds(r);
    total_max += r.scaling.back().seconds;
    max_threads = r.scaling.back().threads;
    ok = ok && r.netlist_deterministic && r.stats_deterministic;
    for (const ScalingPoint& p : r.scaling)
      ok = ok && p.decisions_match;
  }

  if (json) {
    std::printf("{\n  \"bench\": \"pass\",\n  \"metric\": \"pass_seconds\",\n"
                "  \"hardware_threads\": %u,\n  \"circuits\": [\n",
                std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i)
      print_json_row(rows[i], i + 1 == rows.size());
    std::printf("  ],\n  \"total\": {\"queries\": %zu, \"serial_seconds\": %.4f, "
                "\"seconds_1t\": %.4f, \"seconds_%dt\": %.4f, \"speedup_%dt_vs_1t\": %.3f},\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                total_queries, total_serial, total_1t, max_threads, total_max, max_threads,
                ratio(total_1t, total_max),
                benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: serial %.4fs, 1t %.4fs, %dt %.4fs (%.2fx vs 1t)\n", total_serial,
                total_1t, max_threads, total_max, ratio(total_1t, total_max));
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel sweep diverged from the serial engine "
                         "or across thread counts\n");
    return 1;
  }
  return 0;
}
