// Export flow: optimize a design, then hand it to downstream tooling —
// Verilog (re-verified by a round trip through our own frontend), AIGER for
// AIG-based tools (ABC, aigsim), and a human-readable RTLIL dump.
//
//   $ ./export_flow [out_dir]        (default: current directory)
#include "aig/aigmap.hpp"
#include "backend/aiger.hpp"
#include "backend/write_rtlil.hpp"
#include "backend/write_verilog.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "verilog/elaborate.hpp"

#include <cstdio>
#include <fstream>
#include <string>

static const char* kDesign = R"(
module alu_lite(op, en, bypass, a, b, y, dbg);
  input [2:0] op;
  input en, bypass;
  input [7:0] a, b;
  output reg [7:0] y;
  output [7:0] dbg;

  wire [7:0] sum, dif;
  assign sum = a + b;
  assign dif = a - b;

  // Result-forwarding case: several opcodes map to the same source, so the
  // rebuilt ADD is much smaller than the elaborated mux chain (§III).
  always @(*) case (op)
    3'd0: y = sum;
    3'd1: y = dif;
    3'd2: y = sum;
    3'd3: y = a;
    3'd4: y = dif;
    3'd5: y = sum;
    3'd6: y = a;
    default: y = 8'd0;
  endcase

  // Dependent controls: on the en=1 branch, (en | bypass) is forced (§II).
  assign dbg = en ? ((en | bypass) ? sum : dif) : b;
endmodule
)";

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? std::string(argv[1]) + "/" : "";

  auto design = smartly::verilog::read_verilog(kDesign);
  smartly::rtlil::Module& top = *design->top();
  auto golden = smartly::rtlil::clone_design(*design);

  const size_t before = smartly::aig::aig_area(top);
  smartly::core::smartly_flow(top);
  std::printf("alu_lite: AIG area %zu -> %zu\n", before, smartly::aig::aig_area(top));

  // 1. Verilog out, and prove the written text means the same thing.
  const std::string verilog_text = smartly::backend::write_verilog(top);
  {
    std::ofstream f(dir + "alu_lite_opt.v");
    f << verilog_text;
  }
  auto reread = smartly::verilog::read_verilog(verilog_text);
  const auto rt = smartly::cec::check_equivalence(top, *reread->top());
  std::printf("verilog round trip: %s (alu_lite_opt.v)\n", rt.equivalent ? "PASS" : "FAIL");

  // 2. AIGER out (both variants).
  const auto mapped = smartly::aig::aigmap_named(top);
  {
    std::ofstream f(dir + "alu_lite_opt.aag");
    f << smartly::backend::write_aiger_ascii(mapped.aig);
  }
  {
    std::ofstream f(dir + "alu_lite_opt.aig", std::ios::binary);
    f << smartly::backend::write_aiger_binary(mapped.aig);
  }
  std::printf("aiger: %zu inputs, %zu outputs, %zu ands (alu_lite_opt.aag/.aig)\n",
              mapped.aig.num_inputs(), mapped.aig.num_outputs(),
              mapped.aig.num_ands_reachable());

  // 3. RTLIL dump for inspection.
  {
    std::ofstream f(dir + "alu_lite_opt.rtlil");
    f << smartly::backend::write_rtlil(top);
  }
  std::printf("rtlil dump written (alu_lite_opt.rtlil)\n");

  // Final sanity: optimized design still equivalent to the original source.
  const auto cec = smartly::cec::check_equivalence(*golden->top(), top);
  std::printf("optimized vs original: %s\n", cec.equivalent ? "PASS" : "FAIL");
  return rt.equivalent && cec.equivalent ? 0 : 1;
}
