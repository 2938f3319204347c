// SAT-sweeping (fraig) engine benchmark: cell counts vs smartly_pass alone,
// SAT/refinement statistics, CEC verification, and determinism, emitting the
// BENCH_sweep.json schema.
//
//   ./bench_sweep [--smoke] [--json] [--filter <substr>] [--trace-out FILE]
//
//   --smoke    small circuit subset — the tier-2 CTest target. Exits nonzero
//              if any fraiged netlist fails CEC, any circuit gives different
//              results on two fresh clones, or no benchmark family shows a
//              strict cell reduction over smartly_pass alone.
//   --json     print the JSON document to stdout (human table otherwise).
//   --filter   run only circuits whose name contains <substr>.
//
// Flow per circuit (three families: public, industrial, random):
//   1. elaborate, keep a golden clone for CEC;
//   2. smartly_flow (the full muxtree pipeline) -> cells_smartly;
//   3. fraig_stage on two clones of the smartly result -> cells_fraig. Both
//      fraiged netlists must be byte-identical and their statistics equal;
//      the first one is timed and CEC'd against the golden design.
#include "aig/aigmap.hpp"
#include "backend/write_rtlil.hpp"
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

using namespace smartly;
using benchjson::ratio;
using benchjson::seconds_since;

namespace {

/// Families are derivable from the generator naming scheme, which keeps the
/// work list a plain circuit vector (shared --filter handling).
std::string family_of(const std::string& name) {
  if (name.rfind("industrial", 0) == 0)
    return "industrial";
  if (name.rfind("random_", 0) == 0)
    return "random";
  return "public";
}

struct Row {
  std::string name, family;
  size_t cells_original = 0, cells_smartly = 0, cells_fraig = 0;
  size_t aig_smartly = 0, aig_fraig = 0;
  double smartly_seconds = 0, fraig_seconds = 0;
  sweep::FraigStats fraig;
  bool cec_ok = false;
  bool deterministic = false;
  bool reduced = false; ///< strictly fewer cells than smartly_pass alone
};

Row run_circuit(const benchgen::BenchCircuit& circuit, util::ResourceGuard& guard) {
  Row row;
  row.name = circuit.name;
  row.family = family_of(circuit.name);

  const auto golden = verilog::read_verilog(circuit.verilog);
  row.cells_original = golden->top()->cell_count();

  const auto smartly_design = rtlil::clone_design(*golden);
  auto t0 = std::chrono::steady_clock::now();
  core::smartly_flow(*smartly_design->top(), {});
  row.smartly_seconds = seconds_since(t0);
  row.cells_smartly = smartly_design->top()->cell_count();
  row.aig_smartly = aig::aig_area(*smartly_design->top());

  // Two clones alive at once: the first is timed and CEC'd.
  const auto design = rtlil::clone_design(*smartly_design);
  const auto twin = rtlil::clone_design(*smartly_design);
  sweep::FraigOptions options;
  options.guard = &guard; // unlimited: charges totals for the resource block
  t0 = std::chrono::steady_clock::now();
  row.fraig = opt::fraig_stage(*design->top(), options);
  row.fraig_seconds = seconds_since(t0);
  row.cells_fraig = design->top()->cell_count();
  row.aig_fraig = aig::aig_area(*design->top());
  row.cec_ok = cec::check_equivalence(*golden->top(), *design->top()).equivalent;

  const sweep::FraigStats twin_stats = opt::fraig_stage(*twin->top(), options);
  row.deterministic =
      backend::write_rtlil(*twin->top()) == backend::write_rtlil(*design->top()) &&
      sweep::same_work(twin_stats, row.fraig);
  row.reduced = row.cells_fraig < row.cells_smartly;
  return row;
}

std::string json_row(const Row& r) {
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("family", r.family)
      .put("cells_original", r.cells_original)
      .put("cells_smartly", r.cells_smartly)
      .put("cells_fraig", r.cells_fraig)
      .put("aig_smartly", r.aig_smartly)
      .put("aig_fraig", r.aig_fraig)
      .put("rounds", r.fraig.rounds)
      .put("candidate_bits", r.fraig.candidate_bits)
      .put("classes", r.fraig.classes)
      .put("sat_queries", r.fraig.sat_queries)
      .put("proved_equal", r.fraig.proved_equal)
      .put("proved_complement", r.fraig.proved_complement)
      .put("proved_constant", r.fraig.proved_constant)
      .put("proved_structural", r.fraig.proved_structural)
      .put("disproved", r.fraig.disproved)
      .put("unknown", r.fraig.unknown)
      .put("cex_refinements", r.fraig.cex_patterns)
      .put("merged_cells", r.fraig.merged_cells)
      .put("inverter_cells", r.fraig.inverter_cells)
      .put("pre_merged", r.fraig.pre_merged)
      .putf("smartly_seconds", r.smartly_seconds)
      .putf("fraig_seconds", r.fraig_seconds)
      .put("cec_ok", r.cec_ok)
      .put("deterministic", r.deterministic)
      .put("reduced_vs_smartly", r.reduced);
  return o.str();
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
    else if (std::strcmp(argv[i], "--filter") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_sweep: --filter requires a value\n");
        return 2;
      }
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_sweep: --trace-out requires a value\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: bench_sweep [--smoke] [--json] [--filter <substr>] [--trace-out FILE]\n"
          "\n"
          "SAT-sweeping (fraig) engine benchmark over the public + industrial +\n"
          "random circuit families (BENCH_sweep.json schema). Every fraiged\n"
          "netlist is CEC-verified and must be byte-identical on two fresh\n"
          "clones; at least one family must show a strict cell reduction over\n"
          "smartly_pass alone.\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_sweep: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  // Work list: the three generator families (family derived from the name).
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
  benchjson::apply_name_filter(circuits, filter, "bench_sweep");

  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_sweep");
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
      std::printf("%-16s %-10s cells %5zu -> smartly %5zu -> fraig %5zu  "
                  "(%zu merged, %zu sat, %zu cex)  %.4fs  cec %s det %s\n",
                  r.name.c_str(), r.family.c_str(), r.cells_original, r.cells_smartly,
                  r.cells_fraig, r.fraig.merged_cells, r.fraig.sat_queries,
                  r.fraig.cex_patterns, r.fraig_seconds, r.cec_ok ? "ok" : "FAIL",
                  r.deterministic ? "yes" : "NO");
    }
  }

  size_t total_smartly = 0, total_fraig = 0, total_merged = 0, total_queries = 0,
         total_cex = 0, total_classes = 0;
  double total_seconds = 0;
  bool cec_all = true, det_all = true;
  std::vector<std::string> reduced_families;
  for (const Row& r : rows) {
    total_smartly += r.cells_smartly;
    total_fraig += r.cells_fraig;
    total_merged += r.fraig.merged_cells;
    total_queries += r.fraig.sat_queries;
    total_cex += r.fraig.cex_patterns;
    total_classes += r.fraig.classes;
    total_seconds += r.fraig_seconds;
    cec_all = cec_all && r.cec_ok;
    det_all = det_all && r.deterministic;
    if (r.reduced &&
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
    total.put("cells_smartly", total_smartly)
        .put("cells_fraig", total_fraig)
        .put("merged_cells", total_merged)
        .put("classes", total_classes)
        .put("sat_queries", total_queries)
        .put("cex_refinements", total_cex)
        .putf("fraig_seconds", total_seconds)
        .put_raw("families_reduced", benchjson::json_array(families))
        .put("cec_all", cec_all)
        .put("deterministic_all", det_all);

    std::printf("{\n  \"bench\": \"sweep\",\n  \"metric\": \"fraig_cells\",\n"
                "  \"hardware_threads\": %u,\n  \"circuits\": %s,\n  \"total\": %s,\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                std::thread::hardware_concurrency(), circuits_array.c_str(),
                total.str().c_str(), benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: smartly %zu cells -> fraig %zu cells (%zu merged), "
                "%zu sat queries, %zu cex, %.4fs; families reduced: %zu\n",
                total_smartly, total_fraig, total_merged, total_queries, total_cex,
                total_seconds, reduced_families.size());
  }

  if (!cec_all) {
    std::fprintf(stderr, "FAIL: a fraiged netlist is not equivalent to its source\n");
    return 1;
  }
  if (!det_all) {
    std::fprintf(stderr, "FAIL: fraig diverged between two clones\n");
    return 1;
  }
  // The family gate is a suite-level acceptance criterion; a --filter subset
  // is an inspection run where "this circuit didn't reduce" is a valid answer.
  if (reduced_families.empty() && filter.empty()) {
    std::fprintf(stderr, "FAIL: no benchmark family reduced below smartly_pass alone\n");
    return 1;
  }
  return 0;
}
