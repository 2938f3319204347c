// DAG-aware cut-rewriting engine benchmark: AIG area and cell counts on top
// of the fraig stage, NPN/cut statistics, CEC verification, and determinism,
// emitting the BENCH_rewrite.json schema.
//
//   ./bench_rewrite [--smoke] [--json] [--filter <substr>] [--trace-out FILE]
//                   [--scale-nodes N]
//
//   --smoke        small circuit subset — the tier-2 CTest target. Exits
//                  nonzero if any rewritten netlist fails CEC, any circuit
//                  gives different results on two fresh clones, or no
//                  benchmark family shows a strict AIG-area reduction over
//                  the fraig stage alone.
//   --json         print the JSON document to stdout (human table otherwise).
//   --filter       run only circuits whose name contains <substr>.
//   --scale-nodes  time the rewrite engine alone on the generated
//                  scale_random / scale_industrial families at ~N AIG nodes.
//
// Flow per circuit (three families: public, industrial, random):
//   1. elaborate, keep a golden clone for CEC;
//   2. smartly_flow + fraig_stage -> cells_fraig / aig_fraig (the baseline
//      the rewrite must improve on);
//   3. on two clones of the fraiged design: rewrite_stage, then a fraig
//      harvest pass (merges the restructuring exposed). Both rewritten
//      netlists must be byte-identical and their statistics equal; the first
//      one is timed and CEC'd against the golden design.
//
// The gated metric is AIG area (reachable AND gates after aigmap) — the
// paper's cell count. Word-level cell counts are also reported and must
// never increase (the engine's commit gate enforces it).
#include "aig/aigmap.hpp"
#include "backend/write_rtlil.hpp"
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/random_circuit.hpp"
#include "benchgen/scale.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "rewrite/rewrite_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace smartly;
using benchjson::seconds_since;

namespace {

std::string family_of(const std::string& name) {
  if (name.rfind("industrial", 0) == 0)
    return "industrial";
  if (name.rfind("random_", 0) == 0)
    return "random";
  return "public";
}

struct Row {
  std::string name, family;
  size_t cells_original = 0, cells_fraig = 0, cells_rewrite = 0;
  size_t aig_fraig = 0, aig_rewrite = 0;
  double rewrite_seconds = 0; ///< rewrite_stage + fraig harvest on the first clone
  rewrite::RewriteStats stats;
  bool cec_ok = false;
  bool deterministic = false;
  bool reduced_aig = false;   ///< strictly smaller AIG than the fraig stage alone
  bool reduced_cells = false; ///< strictly fewer word-level cells
};

/// rewrite_stage + the fraig harvest pass on `module`, charged to `guard`.
rewrite::RewriteStats rewrite_and_harvest(rtlil::Module& module, util::ResourceGuard& guard) {
  rewrite::RewriteOptions options;
  options.guard = &guard; // unlimited: charges totals for the resource block
  sweep::FraigOptions harvest;
  harvest.guard = &guard;
  const rewrite::RewriteStats stats = opt::rewrite_stage(module, options);
  opt::fraig_stage(module, harvest);
  return stats;
}

Row run_circuit(const benchgen::BenchCircuit& circuit, util::ResourceGuard& guard) {
  Row row;
  row.name = circuit.name;
  row.family = family_of(circuit.name);

  const auto golden = verilog::read_verilog(circuit.verilog);
  row.cells_original = golden->top()->cell_count();

  // Baseline: the full muxtree pipeline plus the fraig stage.
  const auto base = rtlil::clone_design(*golden);
  core::smartly_flow(*base->top(), {});
  opt::fraig_stage(*base->top());
  row.cells_fraig = base->top()->cell_count();
  row.aig_fraig = aig::aig_area(*base->top());

  // Two clones alive at once: the first is timed and CEC'd.
  const auto design = rtlil::clone_design(*base);
  const auto twin = rtlil::clone_design(*base);
  const auto t0 = std::chrono::steady_clock::now();
  row.stats = rewrite_and_harvest(*design->top(), guard);
  row.rewrite_seconds = seconds_since(t0);
  row.cells_rewrite = design->top()->cell_count();
  row.aig_rewrite = aig::aig_area(*design->top());
  row.cec_ok = cec::check_equivalence(*golden->top(), *design->top()).equivalent;

  const rewrite::RewriteStats twin_stats = rewrite_and_harvest(*twin->top(), guard);
  row.deterministic =
      backend::write_rtlil(*twin->top()) == backend::write_rtlil(*design->top()) &&
      rewrite::same_work(twin_stats, row.stats);
  row.reduced_aig = row.aig_rewrite < row.aig_fraig;
  row.reduced_cells = row.cells_rewrite < row.cells_fraig;
  return row;
}

std::string json_row(const Row& r) {
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("family", r.family)
      .put("cells_original", r.cells_original)
      .put("cells_fraig", r.cells_fraig)
      .put("cells_rewrite", r.cells_rewrite)
      .put("aig_fraig", r.aig_fraig)
      .put("aig_rewrite", r.aig_rewrite)
      .put("rounds", r.stats.rounds)
      .put("aig_nodes", r.stats.aig_nodes)
      .put("cuts", r.stats.cuts)
      .put("roots_evaluated", r.stats.roots_evaluated)
      .put("candidates", r.stats.candidates)
      .put("npn_classes", r.stats.npn_classes)
      .put("rewrites", r.stats.rewrites)
      .put("zero_gain_rewrites", r.stats.zero_gain_rewrites)
      .put("plans_rejected", r.stats.plans_rejected)
      .put("plans_noop", r.stats.plans_noop)
      .put("cells_added", r.stats.cells_added)
      .put("gates_reused", r.stats.gates_reused)
      .put("cells_shared", r.stats.cells_shared)
      .put("predicted_dead", r.stats.predicted_dead)
      .putf("rewrite_seconds", r.rewrite_seconds)
      .put("cec_ok", r.cec_ok)
      .put("deterministic", r.deterministic)
      .put("reduced_aig", r.reduced_aig)
      .put("reduced_cells", r.reduced_cells);
  return o.str();
}

// ---------------------------------------------------------------------------
// Scale mode (--scale-nodes N): generated families at a target AIG size.
//
// The classic suite above answers "does rewriting shrink real circuits";
// this mode times the rewrite engine alone (no frontend, no fraig, no CEC —
// a SAT sweep at this size would dwarf the engine under test) on the
// scale_random / scale_industrial families (benchgen/scale). Each family is
// rewritten on two clones alive at once; the first is timed, and both must
// give byte-identical netlists and equal statistics.
// ---------------------------------------------------------------------------

struct ScaleRow {
  std::string name, family;
  size_t target_nodes = 0;
  size_t cells = 0; ///< generated word-level cells
  double rewrite_seconds = 0;
  rewrite::RewriteStats stats;
  bool deterministic = false;
};

ScaleRow run_scale_circuit(const std::string& family, size_t target_nodes,
                           util::ResourceGuard& guard) {
  ScaleRow row;
  row.family = family;
  row.target_nodes = target_nodes;
  row.name = family + "_" + std::to_string(target_nodes / 1000) + "k";

  rtlil::Design design;
  benchgen::ScaleSpec spec;
  spec.seed = 1;
  spec.target_aig_nodes = target_nodes;
  if (family == "scale_random")
    benchgen::scale_random_netlist(design, row.name, spec);
  else
    benchgen::scale_industrial_netlist(design, row.name, spec);
  row.cells = design.top()->cell_count();

  const auto clone = rtlil::clone_design(design);
  const auto twin = rtlil::clone_design(design);
  rewrite::RewriteOptions options;
  options.guard = &guard;
  const auto t0 = std::chrono::steady_clock::now();
  row.stats = rewrite::rewrite_sweep(*clone->top(), options);
  row.rewrite_seconds = seconds_since(t0);
  const rewrite::RewriteStats twin_stats = rewrite::rewrite_sweep(*twin->top(), options);
  row.deterministic =
      backend::write_rtlil(*twin->top()) == backend::write_rtlil(*clone->top()) &&
      rewrite::same_work(twin_stats, row.stats);
  return row;
}

std::string json_scale_row(const ScaleRow& r) {
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("family", r.family)
      .put("target_aig_nodes", r.target_nodes)
      .put("cells", r.cells)
      .put("aig_nodes", r.stats.aig_nodes)
      .put("rounds", r.stats.rounds)
      .put("roots_evaluated", r.stats.roots_evaluated)
      .put("candidates", r.stats.candidates)
      .put("rewrites", r.stats.rewrites)
      .put("cells_added", r.stats.cells_added)
      .putf("rewrite_seconds", r.rewrite_seconds)
      .put("deterministic", r.deterministic);
  return o.str();
}

int run_scale_mode(size_t target_nodes, bool json, const std::string& filter,
                   const std::string& trace_path) {
  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_rewrite_scale");
  obs::StageProfile profile;
  util::ResourceGuard guard;

  std::vector<std::string> families = {"scale_random", "scale_industrial"};
  if (!filter.empty()) {
    families.erase(std::remove_if(families.begin(), families.end(),
                                  [&](const std::string& f) {
                                    return f.find(filter) == std::string::npos;
                                  }),
                   families.end());
    if (families.empty()) {
      std::fprintf(stderr, "bench_rewrite: --filter '%s' matches no scale family\n",
                   filter.c_str());
      return 2;
    }
  }

  std::vector<ScaleRow> rows;
  rows.reserve(families.size());
  bool det_all = true;
  double total_seconds = 0;
  for (const std::string& family : families) {
    {
      const auto stage = profile.scope(family);
      const obs::Span span("bench", family);
      rows.push_back(run_scale_circuit(family, target_nodes, guard));
    }
    const ScaleRow& r = rows.back();
    det_all = det_all && r.deterministic;
    total_seconds += r.rewrite_seconds;
    if (!json)
      std::printf("%-24s cells %8zu  aig %9zu  rewrites %7zu  %8.3fs  det %s\n",
                  r.name.c_str(), r.cells, r.stats.aig_nodes, r.stats.rewrites,
                  r.rewrite_seconds, r.deterministic ? "yes" : "NO");
  }

  if (json) {
    std::vector<std::string> row_json;
    row_json.reserve(rows.size());
    for (const ScaleRow& r : rows)
      row_json.push_back(json_scale_row(r));
    benchjson::JsonObject total;
    total.put("target_aig_nodes", target_nodes)
        .putf("rewrite_seconds", total_seconds)
        .put("deterministic_all", det_all);
    std::printf("{\n  \"bench\": \"rewrite_scale\",\n  \"metric\": \"rewrite_seconds\",\n"
                "  \"hardware_threads\": %u,\n  \"circuits\": %s,\n  \"total\": %s,\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                std::thread::hardware_concurrency(), benchjson::json_array(row_json).c_str(),
                total.str().c_str(), benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  }

  if (!det_all) {
    std::fprintf(stderr, "FAIL: scale rewrite diverged between two clones\n");
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string filter, trace_path;
  size_t scale_nodes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--scale-nodes") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_rewrite: --scale-nodes requires a value\n");
        return 2;
      }
      scale_nodes = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (scale_nodes == 0) {
        std::fprintf(stderr, "bench_rewrite: --scale-nodes must be a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--filter") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_rewrite: --filter requires a value\n");
        return 2;
      }
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_rewrite: --trace-out requires a value\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: bench_rewrite [--smoke] [--json] [--filter <substr>] "
          "[--trace-out FILE] [--scale-nodes N]\n"
          "\n"
          "DAG-aware cut-rewriting engine benchmark over the public + industrial\n"
          "+ random circuit families (BENCH_rewrite.json schema). Every rewritten\n"
          "netlist is CEC-verified and must be byte-identical on two fresh\n"
          "clones; the AIG area (the paper's cell metric) must shrink strictly\n"
          "below the fraig stage alone in at least one family (--smoke) or in\n"
          "every family (full run).\n"
          "\n"
          "--scale-nodes N instead times the rewrite engine alone on the\n"
          "scale_random / scale_industrial families at ~N AIG nodes (no CEC;\n"
          "two clones must still give byte-identical netlists).\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_rewrite: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (scale_nodes > 0)
    return run_scale_mode(scale_nodes, json, filter, trace_path);

  std::vector<benchgen::BenchCircuit> circuits;
  {
    for (auto& c : benchgen::public_suite())
      if (!smoke || c.name == "pci_bridge32" || c.name == "tv80")
        circuits.push_back(std::move(c));
    if (!smoke) {
      const auto industrial = benchgen::industrial_suite();
      circuits.push_back(industrial[0]);
      circuits.push_back(industrial[1]);
    }
    const std::vector<uint64_t> seeds =
        smoke ? std::vector<uint64_t>{1, 2} : std::vector<uint64_t>{1, 2, 3, 4};
    for (const uint64_t seed : seeds) {
      benchgen::BenchCircuit c;
      c.name = "random_s" + std::to_string(seed);
      c.verilog = benchgen::random_verilog(seed, smoke ? 6 : 8);
      circuits.push_back(std::move(c));
    }
  }
  benchjson::apply_name_filter(circuits, filter, "bench_rewrite");

  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_rewrite");
  obs::StageProfile profile;

  util::ResourceGuard guard; // unbudgeted: the resource block reports charged totals

  std::vector<Row> rows;
  rows.reserve(circuits.size());
  for (const auto& circuit : circuits) {
    {
      const auto stage = profile.scope(circuit.name);
      const obs::Span span("bench", circuit.name);
      rows.push_back(run_circuit(circuit, guard));
    }
    if (!json) {
      const Row& r = rows.back();
      std::printf("%-16s %-10s aig %6zu -> %6zu  cells %5zu -> %5zu  "
                  "(%zu rw, %zu zg, %zu add, %zu shared)  %.4fs  cec %s det %s\n",
                  r.name.c_str(), r.family.c_str(), r.aig_fraig, r.aig_rewrite,
                  r.cells_fraig, r.cells_rewrite, r.stats.rewrites,
                  r.stats.zero_gain_rewrites, r.stats.cells_added, r.stats.cells_shared,
                  r.rewrite_seconds, r.cec_ok ? "ok" : "FAIL",
                  r.deterministic ? "yes" : "NO");
    }
  }

  size_t total_cells_fraig = 0, total_cells_rewrite = 0, total_aig_fraig = 0,
         total_aig_rewrite = 0, total_rewrites = 0, total_added = 0, total_shared = 0;
  double total_seconds = 0;
  bool cec_all = true, det_all = true, cells_grew = false;
  std::vector<std::string> run_families, reduced_families;
  for (const Row& r : rows) {
    total_cells_fraig += r.cells_fraig;
    total_cells_rewrite += r.cells_rewrite;
    total_aig_fraig += r.aig_fraig;
    total_aig_rewrite += r.aig_rewrite;
    total_rewrites += r.stats.rewrites;
    total_added += r.stats.cells_added;
    total_shared += r.stats.cells_shared;
    total_seconds += r.rewrite_seconds;
    cec_all = cec_all && r.cec_ok;
    det_all = det_all && r.deterministic;
    cells_grew = cells_grew || r.cells_rewrite > r.cells_fraig;
    if (std::find(run_families.begin(), run_families.end(), r.family) == run_families.end())
      run_families.push_back(r.family);
    if (r.reduced_aig &&
        std::find(reduced_families.begin(), reduced_families.end(), r.family) ==
            reduced_families.end())
      reduced_families.push_back(r.family);
  }

  if (json) {
    std::vector<std::string> row_json;
    row_json.reserve(rows.size());
    for (const Row& r : rows)
      row_json.push_back("    " + json_row(r));
    std::string circuits_array = "[\n";
    for (size_t i = 0; i < row_json.size(); ++i)
      circuits_array += row_json[i] + (i + 1 == row_json.size() ? "\n" : ",\n");
    circuits_array += "  ]";

    std::vector<std::string> families;
    families.reserve(reduced_families.size());
    for (const std::string& f : reduced_families)
      families.push_back("\"" + benchjson::json_escape(f) + "\"");

    benchjson::JsonObject total;
    total.put("cells_fraig", total_cells_fraig)
        .put("cells_rewrite", total_cells_rewrite)
        .put("aig_fraig", total_aig_fraig)
        .put("aig_rewrite", total_aig_rewrite)
        .put("rewrites", total_rewrites)
        .put("cells_added", total_added)
        .put("cells_shared", total_shared)
        .putf("rewrite_seconds", total_seconds)
        .put_raw("families_reduced", benchjson::json_array(families))
        .put("cec_all", cec_all)
        .put("deterministic_all", det_all);

    std::printf("{\n  \"bench\": \"rewrite\",\n  \"metric\": \"aig_area\",\n"
                "  \"hardware_threads\": %u,\n  \"circuits\": %s,\n  \"total\": %s,\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                std::thread::hardware_concurrency(), circuits_array.c_str(),
                total.str().c_str(), benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: aig %zu -> %zu (%.2f%%), cells %zu -> %zu, %zu rewrites, "
                "%.4fs; families reduced: %zu/%zu\n",
                total_aig_fraig, total_aig_rewrite,
                total_aig_fraig ? 100.0 * (double(total_aig_fraig) - double(total_aig_rewrite)) /
                                      double(total_aig_fraig)
                                : 0.0,
                total_cells_fraig, total_cells_rewrite, total_rewrites, total_seconds,
                reduced_families.size(), run_families.size());
  }

  if (!cec_all) {
    std::fprintf(stderr, "FAIL: a rewritten netlist is not equivalent to its source\n");
    return 1;
  }
  if (!det_all) {
    std::fprintf(stderr, "FAIL: rewrite diverged between two clones\n");
    return 1;
  }
  if (cells_grew) {
    std::fprintf(stderr, "FAIL: a rewrite grew the word-level cell count\n");
    return 1;
  }
  // Family gates are suite-level acceptance criteria; a --filter subset is an
  // inspection run where "this circuit didn't reduce" is a valid answer.
  if (filter.empty()) {
    if (smoke && reduced_families.empty()) {
      std::fprintf(stderr, "FAIL: no benchmark family reduced AIG area below fraig alone\n");
      return 1;
    }
    if (!smoke && reduced_families.size() != run_families.size()) {
      std::fprintf(stderr, "FAIL: only %zu of %zu families reduced AIG area below fraig\n",
                   reduced_families.size(), run_families.size());
      return 1;
    }
  }
  return 0;
}
