// Reproduces Table II of the paper: AIG area of each public benchmark
// circuit, original vs Yosys (baseline opt_muxtree) vs smaRTLy, and the
// percentage of area removed by smaRTLy relative to Yosys.
//
//   ./bench_table2 [--check]     (--check also runs CEC on every result)
//
// Exits 1 when the average extra reduction falls below kMinAverage, so no
// speed-up or deletion can lose the reproduced quality quietly.
//
// The circuits are synthetic stand-ins for IWLS-2005 / RISC-V (see
// DESIGN.md, "Substitutions"): absolute areas are laptop-scaled, the
// *relative* behaviour (who wins, by roughly what factor, and which circuits
// favour which engine) is the reproduced quantity.
#include "aig/aigmap.hpp"
#include "benchgen/public_bench.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "opt/pipeline.hpp"
#include "verilog/elaborate.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

using namespace smartly;

namespace {

/// Floor for the Table II average extra reduction over Yosys, in percent
/// (8.10% measured; paper 8.95%).
constexpr double kMinAverage = 8.0;

struct Row {
  std::string name;
  size_t original = 0;
  size_t yosys = 0;
  size_t smartly = 0;
  double seconds = 0;
};

size_t flow_area(const std::string& src, int which, bool check) {
  auto design = verilog::read_verilog(src);
  rtlil::Module& top = *design->top();
  std::unique_ptr<rtlil::Design> golden;
  if (check && which != 0)
    golden = rtlil::clone_design(*design);
  switch (which) {
  case 0: opt::original_flow(top); break;
  case 1: opt::yosys_flow(top); break;
  default: core::smartly_flow(top); break;
  }
  if (golden) {
    const auto r = cec::check_equivalence(*golden->top(), top);
    if (!r.equivalent) {
      std::fprintf(stderr, "EQUIVALENCE FAILURE (flow %d) at output %s\n", which,
                   r.failing_output.c_str());
      std::exit(1);
    }
  }
  return aig::aig_area(top);
}

} // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;

  std::printf("Table II: AIG areas, Yosys baseline vs smaRTLy%s\n",
              check ? " (with equivalence checking)" : "");
  std::printf("%-16s %10s %10s %10s %9s\n", "Case", "Original", "Yosys", "smaRTLy", "Ratio");

  double sum_ratio = 0;
  size_t sum_orig = 0, sum_yosys = 0, sum_smartly = 0;
  int n = 0;
  for (const benchgen::BenchCircuit& c : benchgen::public_suite()) {
    Row row;
    row.name = c.name;
    const auto t0 = std::chrono::steady_clock::now();
    row.original = flow_area(c.verilog, 0, check);
    row.yosys = flow_area(c.verilog, 1, check);
    row.smartly = flow_area(c.verilog, 2, check);
    row.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    const double ratio =
        row.yosys == 0 ? 0.0
                       : 100.0 * (double(row.yosys) - double(row.smartly)) / double(row.yosys);
    std::printf("%-16s %10zu %10zu %10zu %8.2f%%   (%.2fs)\n", row.name.c_str(),
                row.original, row.yosys, row.smartly, ratio, row.seconds);
    sum_ratio += ratio;
    sum_orig += row.original;
    sum_yosys += row.yosys;
    sum_smartly += row.smartly;
    ++n;
  }
  std::printf("%-16s %10.1f %10.1f %10.1f %8.2f%%\n", "Average", double(sum_orig) / n,
              double(sum_yosys) / n, double(sum_smartly) / n, sum_ratio / n);
  std::printf("\nPaper reports an average extra reduction of 8.95%% over Yosys "
              "(range 0.53%%-27.79%%).\n");
  const bool pass = sum_ratio / n >= kMinAverage;
  std::printf("Gate: average %.2f%% >= %.2f%%: %s\n", sum_ratio / n, kMinAverage,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
