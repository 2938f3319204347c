// §II region sweep benchmark: the walk-everything serial reference against
// the region sweep engine, emitting the BENCH_pass.json schema.
//
//   ./bench_pass [--smoke] [--json] [--filter <substr>] [--trace-out FILE]
//
//   --smoke    two small circuits — the tier-2 CTest target. Exits nonzero
//              if decisions diverge from the serial reference or two fresh
//              clones give different netlists or stats.
//   --json     print the JSON document to stdout (human table otherwise).
//   --filter   run only circuits whose name contains <substr>.
//
// Arms per circuit (all on clones of the same pre-optimized design):
//   * serial  — optimize_muxtrees + one InferenceOracle: the walk-everything
//               fixpoint, the reference for decisions_match. Its oracle
//               query count is the circuit's `queries` (summed into
//               total.queries).
//   * region  — the region sweep engine (sat_redundancy_parallel), timed on
//               one clone and rerun on a second.
// decisions_match compares canonical traces (replay-insensitive);
// netlist_deterministic / stats_deterministic require byte-identical
// write_rtlil output and identical stats from the two clones.
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

struct Row {
  std::string name;
  size_t queries = 0;
  double serial_seconds = 0;
  double seconds = 0; ///< region engine
  opt::ParallelSweepStats sweep;
  bool decisions_match = false;
  bool netlist_deterministic = false;
  bool stats_deterministic = false;
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

Row run_circuit(const benchgen::BenchCircuit& circuit, util::ResourceGuard& guard) {
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

  // Region engine on two clones alive at once: the first is timed and traced.
  const auto design = rtlil::clone_design(*prepared);
  const auto twin = rtlil::clone_design(*prepared);
  core::SatRedundancyOptions sat_options;
  sat_options.guard = &guard; // unlimited: charges totals for the resource block
  opt::DecisionTrace trace;
  const auto t0 = std::chrono::steady_clock::now();
  const core::SatRedundancyStats stats =
      core::sat_redundancy_parallel(*design->top(), sat_options, 1, &trace, &row.sweep);
  row.seconds = seconds_since(t0);
  row.decisions_match = opt::canonical_trace(trace) == opt::canonical_trace(serial_trace);

  const core::SatRedundancyStats twin_stats =
      core::sat_redundancy_parallel(*twin->top(), sat_options, 1);
  row.netlist_deterministic =
      backend::write_rtlil(*design->top()) == backend::write_rtlil(*twin->top());
  row.stats_deterministic = same_stats(stats, twin_stats);
  return row;
}

void print_json_row(const Row& r, bool last) {
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("queries", r.queries)
      .put("regions", r.sweep.regions)
      .putf("serial_seconds", r.serial_seconds)
      .putf("seconds", r.seconds)
      .putf("speedup_vs_serial", ratio(r.serial_seconds, r.seconds), 3)
      .put("region_walks", r.sweep.region_walks)
      .put("regions_skipped_clean", r.sweep.regions_skipped_clean)
      .put("decisions_match", r.decisions_match)
      .put("netlist_deterministic", r.netlist_deterministic)
      .put("stats_deterministic", r.stats_deterministic);
  std::printf("    %s%s\n", o.str().c_str(), last ? "" : ",");
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string filter, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--filter") == 0 || std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_pass: %s requires a value\n", argv[i]);
        return 2;
      }
      std::string& value = std::strcmp(argv[i], "--filter") == 0 ? filter : trace_path;
      value = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: bench_pass [--smoke] [--json] [--filter <substr>] "
                  "[--trace-out FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_pass: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }

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
      rows.push_back(run_circuit(c, guard));
    }
    if (!json) {
      const Row& r = rows.back();
      std::printf("%-16s %5zu queries  %4zu regions  serial %.4fs  region %.4fs (%.2fx)  "
                  "match %s det %s\n",
                  r.name.c_str(), r.queries, r.sweep.regions, r.serial_seconds, r.seconds,
                  ratio(r.serial_seconds, r.seconds), r.decisions_match ? "yes" : "NO",
                  r.netlist_deterministic && r.stats_deterministic ? "yes" : "NO");
    }
  }

  double total_serial = 0, total_seconds = 0;
  size_t total_queries = 0;
  bool ok = true;
  for (const Row& r : rows) {
    total_queries += r.queries;
    total_serial += r.serial_seconds;
    total_seconds += r.seconds;
    ok = ok && r.decisions_match && r.netlist_deterministic && r.stats_deterministic;
  }

  if (json) {
    std::printf("{\n  \"bench\": \"pass\",\n  \"metric\": \"pass_seconds\",\n"
                "  \"hardware_threads\": %u,\n  \"circuits\": [\n",
                std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i)
      print_json_row(rows[i], i + 1 == rows.size());
    std::printf("  ],\n  \"total\": {\"queries\": %zu, \"serial_seconds\": %.4f, "
                "\"seconds\": %.4f, \"speedup_vs_serial\": %.3f},\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                total_queries, total_serial, total_seconds, ratio(total_serial, total_seconds),
                benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: serial %.4fs, region %.4fs (%.2fx)\n", total_serial, total_seconds,
                ratio(total_serial, total_seconds));
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: the region sweep diverged from the serial reference "
                         "or between two clones\n");
    return 1;
  }
  return 0;
}
