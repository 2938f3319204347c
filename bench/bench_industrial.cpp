// Reproduces the industrial benchmark experiment (paper §IV.B).
//
// The paper's industrial suite is confidential; the stand-in generator
// (benchgen/industrial.*) produces selection-dominated designs matching what
// the paper discloses: a strong size skew (37.5% of test points "large"),
// a much higher MUX/PMUX proportion than the public suite, and baseline
// Yosys achieving almost no reduction. The reproduced claim is the *shape*:
// smaRTLy removes dramatically more area than the baseline here — the paper
// reports 47.2% more AIG area removed than Yosys.
//
// Exits 1 when the extra area removed falls below kMinExtraRemoved, so no
// speed-up or deletion can lose the reproduced quality quietly.
#include "aig/aigmap.hpp"
#include "benchgen/industrial.hpp"
#include "core/smartly_pass.hpp"
#include "opt/pipeline.hpp"
#include "verilog/elaborate.hpp"

#include <cstdio>

using namespace smartly;

/// Floor for "more AIG area removed than Yosys" over the suite, in percent
/// (41.7% measured; paper 47.2%).
constexpr double kMinExtraRemoved = 41.0;

int main() {
  std::printf("Industrial benchmark (synthetic stand-in, paper §IV.B)\n");
  std::printf("%-12s %10s %10s %10s %11s\n", "TestPoint", "Original", "Yosys", "smaRTLy",
              "ExtraRemoved");

  size_t sum_orig = 0, sum_yosys = 0, sum_smartly = 0;
  const auto suite = benchgen::industrial_suite();
  for (size_t i = 0; i < suite.size(); ++i) {
    size_t orig = 0, yosys = 0, smart = 0;
    {
      auto d = verilog::read_verilog(suite[i].verilog);
      opt::original_flow(*d->top());
      orig = aig::aig_area(*d->top());
    }
    {
      auto d = verilog::read_verilog(suite[i].verilog);
      opt::yosys_flow(*d->top());
      yosys = aig::aig_area(*d->top());
    }
    {
      auto d = verilog::read_verilog(suite[i].verilog);
      core::smartly_flow(*d->top());
      smart = aig::aig_area(*d->top());
    }
    const double extra =
        yosys == 0 ? 0.0 : 100.0 * (double(yosys) - double(smart)) / double(yosys);
    std::printf("%-12s %10zu %10zu %10zu %10.2f%%\n", suite[i].name.c_str(), orig, yosys,
                smart, extra);
    sum_orig += orig;
    sum_yosys += yosys;
    sum_smartly += smart;
  }

  const double yosys_removed = double(sum_orig) - double(sum_yosys);
  const double smartly_removed = double(sum_orig) - double(sum_smartly);
  const double extra_vs_yosys =
      sum_yosys == 0 ? 0.0
                     : 100.0 * (double(sum_yosys) - double(sum_smartly)) / double(sum_yosys);
  std::printf("\nSuite totals: original=%zu yosys=%zu smartly=%zu\n", sum_orig, sum_yosys,
              sum_smartly);
  std::printf("Yosys removed %.1f%% of the original area; smaRTLy removed %.1f%%.\n",
              100.0 * yosys_removed / double(sum_orig),
              100.0 * smartly_removed / double(sum_orig));
  std::printf("smaRTLy removes %.1f%% more AIG area than Yosys "
              "(paper: 47.2%% on the confidential suite).\n",
              extra_vs_yosys);
  const bool pass = extra_vs_yosys >= kMinExtraRemoved;
  std::printf("Gate: %.1f%% >= %.1f%%: %s\n", extra_vs_yosys, kMinExtraRemoved,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
