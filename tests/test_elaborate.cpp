// Elaboration tests: Verilog -> RTLIL, validated against the word-level
// evaluator (the golden model).
#include "backend/write_rtlil.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "rtlil/design_stats.hpp"
#include "sim/eval.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <cstdio>

using namespace smartly;
using rtlil::CellType;
using rtlil::Const;
using rtlil::Module;
using rtlil::SigSpec;

namespace {

/// Evaluate a combinational module for the given input values.
Const run_comb(const Module& m, const std::vector<std::pair<std::string, uint64_t>>& inputs,
               const std::string& output) {
  sim::Evaluator ev(m);
  for (const auto& [name, value] : inputs) {
    const rtlil::Wire* w = m.wire(name);
    EXPECT_NE(w, nullptr) << name;
    ev.set_input(w, Const(value, w->width()));
  }
  ev.run();
  return ev.value(SigSpec(m.wire(output)));
}

} // namespace

TEST(Elaborate, ContinuousAssign) {
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [3:0] a, b;
      output [3:0] y;
      assign y = a + b;
    endmodule
  )");
  Module* m = design->top();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(run_comb(*m, {{"a", 3}, {"b", 4}}, "y").as_uint(), 7u);
  EXPECT_EQ(run_comb(*m, {{"a", 15}, {"b", 1}}, "y").as_uint(), 0u); // wraps
}

TEST(Elaborate, OperatorZoo) {
  auto design = verilog::read_verilog(R"(
    module top(a, b, y1, y2, y3, y4, y5, y6, y7);
      input [7:0] a, b;
      output [7:0] y1, y2, y3;
      output y4, y5, y6;
      output [7:0] y7;
      assign y1 = (a & b) | (a ^ b);
      assign y2 = a - b;
      assign y3 = a * b;
      assign y4 = (a < b) && (a != b);
      assign y5 = &a[3:0];
      assign y6 = ^b;
      assign y7 = {a[3:0], b[7:4]};
    endmodule
  )");
  Module* m = design->top();
  const uint64_t a = 0xa5, b = 0x3c;
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y1").as_uint(), (a & b) | (a ^ b));
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y2").as_uint(), (a - b) & 0xff);
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y3").as_uint(), (a * b) & 0xff);
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y4").as_uint(), (a < b && a != b) ? 1u : 0u);
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y5").as_uint(), ((a & 0xf) == 0xf) ? 1u : 0u);
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y6").as_uint(),
            static_cast<uint64_t>(__builtin_parityll(b)));
  EXPECT_EQ(run_comb(*m, {{"a", a}, {"b", b}}, "y7").as_uint(),
            ((a & 0xf) << 4) | ((b >> 4) & 0xf));
}

TEST(Elaborate, IfElseBecomesMux) {
  auto design = verilog::read_verilog(R"(
    module top(s, a, b, y);
      input s;
      input [3:0] a, b;
      output reg [3:0] y;
      always @(*) begin
        if (s) y = a; else y = b;
      end
    endmodule
  )");
  Module* m = design->top();
  EXPECT_EQ(m->count_cells(CellType::Mux), 1u);
  EXPECT_EQ(run_comb(*m, {{"s", 1}, {"a", 9}, {"b", 2}}, "y").as_uint(), 9u);
  EXPECT_EQ(run_comb(*m, {{"s", 0}, {"a", 9}, {"b", 2}}, "y").as_uint(), 2u);
}

TEST(Elaborate, CaseBecomesEqMuxChain) {
  // Listing 1 of the paper: 3 eq cells + 3 mux cells (Fig. 5).
  auto design = verilog::read_verilog(R"(
    module top(s, p0, p1, p2, p3, y);
      input [1:0] s;
      input [7:0] p0, p1, p2, p3;
      output reg [7:0] y;
      always @(*) begin
        case (s)
          2'b00: y = p0;
          2'b01: y = p1;
          2'b10: y = p2;
          default: y = p3;
        endcase
      end
    endmodule
  )");
  Module* m = design->top();
  EXPECT_EQ(m->count_cells(CellType::Mux), 3u);
  EXPECT_EQ(m->count_cells(CellType::Eq), 3u);
  EXPECT_EQ(run_comb(*m, {{"s", 0}, {"p0", 10}, {"p1", 11}, {"p2", 12}, {"p3", 13}}, "y")
                .as_uint(),
            10u);
  EXPECT_EQ(run_comb(*m, {{"s", 1}, {"p0", 10}, {"p1", 11}, {"p2", 12}, {"p3", 13}}, "y")
                .as_uint(),
            11u);
  EXPECT_EQ(run_comb(*m, {{"s", 2}, {"p0", 10}, {"p1", 11}, {"p2", 12}, {"p3", 13}}, "y")
                .as_uint(),
            12u);
  EXPECT_EQ(run_comb(*m, {{"s", 3}, {"p0", 10}, {"p1", 11}, {"p2", 12}, {"p3", 13}}, "y")
                .as_uint(),
            13u);
}

TEST(Elaborate, CasezWildcards) {
  // Listing 2 of the paper.
  auto design = verilog::read_verilog(R"(
    module top(s, p0, p1, p2, p3, y);
      input [2:0] s;
      input [3:0] p0, p1, p2, p3;
      output reg [3:0] y;
      always @(*) begin
        casez (s)
          3'b1zz: y = p0;
          3'b01z: y = p1;
          3'b001: y = p2;
          default: y = p3;
        endcase
      end
    endmodule
  )");
  Module* m = design->top();
  auto val = [&](uint64_t s) {
    return run_comb(*m, {{"s", s}, {"p0", 1}, {"p1", 2}, {"p2", 3}, {"p3", 4}}, "y").as_uint();
  };
  for (uint64_t s = 0; s < 8; ++s) {
    const uint64_t expect = (s & 4) ? 1 : (s & 2) ? 2 : (s & 1) ? 3 : 4;
    EXPECT_EQ(val(s), expect) << "s=" << s;
  }
}

TEST(Elaborate, CasePriorityFirstMatchWins) {
  auto design = verilog::read_verilog(R"(
    module top(s, y);
      input [1:0] s;
      output reg [3:0] y;
      always @(*) begin
        case (s)
          2'b01: y = 4'd1;
          2'b01: y = 4'd2;   // unreachable duplicate
          default: y = 4'd7;
        endcase
      end
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"s", 1}}, "y").as_uint(), 1u);
}

TEST(Elaborate, BlockingSemantics) {
  auto design = verilog::read_verilog(R"(
    module top(a, y);
      input [3:0] a;
      output reg [3:0] y;
      reg [3:0] t;
      always @(*) begin
        t = a + 4'd1;
        y = t + t;   // reads the updated t
      end
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 3}}, "y").as_uint(), 8u);
}

TEST(Elaborate, PartialAssignMergesBits) {
  auto design = verilog::read_verilog(R"(
    module top(s, a, y);
      input s;
      input [3:0] a;
      output reg [3:0] y;
      always @(*) begin
        y = a;
        if (s) y[1:0] = 2'b11;
      end
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"s", 1}, {"a", 0b1000}}, "y").as_uint(), 0b1011u);
  EXPECT_EQ(run_comb(*design->top(), {{"s", 0}, {"a", 0b1000}}, "y").as_uint(), 0b1000u);
}

TEST(Elaborate, PosedgeCreatesDff) {
  auto design = verilog::read_verilog(R"(
    module top(clk, d, q);
      input clk;
      input [3:0] d;
      output reg [3:0] q;
      always @(posedge clk) q <= d + 4'd1;
    endmodule
  )");
  EXPECT_EQ(design->top()->count_cells(CellType::Dff), 1u);
}

TEST(Elaborate, TernaryAndConcatLvalue) {
  auto design = verilog::read_verilog(R"(
    module top(s, a, b, hi, lo);
      input s;
      input [3:0] a, b;
      output [1:0] hi;
      output [1:0] lo;
      assign {hi, lo} = s ? a : b;
    endmodule
  )");
  Module* m = design->top();
  EXPECT_EQ(run_comb(*m, {{"s", 1}, {"a", 0b1110}, {"b", 0}}, "hi").as_uint(), 0b11u);
  EXPECT_EQ(run_comb(*m, {{"s", 1}, {"a", 0b1110}, {"b", 0}}, "lo").as_uint(), 0b10u);
}

TEST(Elaborate, ParameterFolding) {
  auto design = verilog::read_verilog(R"(
    module top(a, y);
      parameter W = 4;
      localparam INC = 3;
      input [W-1:0] a;
      output [W-1:0] y;
      assign y = a + INC;
    endmodule
  )");
  EXPECT_EQ(design->top()->wire("a")->width(), 4);
  EXPECT_EQ(run_comb(*design->top(), {{"a", 2}}, "y").as_uint(), 5u);
}

TEST(Elaborate, ErrorsOnUnknownIdentifier) {
  EXPECT_THROW(verilog::read_verilog("module t(y); output y; assign y = nope; endmodule"),
               std::runtime_error);
}

// --- context-determined expression widths (IEEE 1364 §5.4 subset) ----------

TEST(ElaborateWidths, AdditionKeepsCarryInWiderContext) {
  // 8-bit + 8-bit assigned to a 9-bit net must compute the 9th (carry) bit.
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [7:0] a, b;
      output [8:0] y;
      assign y = a + b;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 200}, {"b", 100}}, "y").as_uint(), 300u);
}

TEST(ElaborateWidths, SelfDeterminedAdditionWraps) {
  // Same expression assigned to an 8-bit net wraps mod 256.
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [7:0] a, b;
      output [7:0] y;
      assign y = a + b;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 200}, {"b", 100}}, "y").as_uint(), 44u);
}

TEST(ElaborateWidths, ContextFlowsThroughNestedOperators) {
  // ((a + b) + c) at 10 bits: both carries preserved.
  auto design = verilog::read_verilog(R"(
    module top(a, b, c, y);
      input [7:0] a, b, c;
      output [9:0] y;
      assign y = (a + b) + c;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 255}, {"b", 255}, {"c", 255}}, "y").as_uint(),
            765u);
}

TEST(ElaborateWidths, ContextFlowsIntoTernaryArms) {
  auto design = verilog::read_verilog(R"(
    module top(s, a, b, y);
      input s;
      input [7:0] a, b;
      output [8:0] y;
      assign y = s ? (a + b) : 9'd0;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"s", 1}, {"a", 255}, {"b", 255}}, "y").as_uint(),
            510u);
}

TEST(ElaborateWidths, ComparisonOperandsAreSelfDetermined) {
  // The compare happens at max(operand widths), not at the LHS width: the
  // 8-bit sum wraps before the comparison in self-determined context.
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [7:0] a, b;
      output y;
      assign y = (a + b) < a;
    endmodule
  )");
  // 200 + 100 wraps to 44 at 8 bits; 44 < 200 is true (overflow idiom works).
  EXPECT_EQ(run_comb(*design->top(), {{"a", 200}, {"b", 100}}, "y").as_uint(), 1u);
}

TEST(ElaborateWidths, ShiftLeftKeepsBitsInWiderContext) {
  auto design = verilog::read_verilog(R"(
    module top(a, y);
      input [7:0] a;
      output [11:0] y;
      assign y = a << 4;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 0xAB}}, "y").as_uint(), 0xAB0u);
}

TEST(ElaborateWidths, ShiftAmountIsSelfDetermined) {
  // The shift amount operand must not be widened by the LHS context.
  auto design = verilog::read_verilog(R"(
    module top(a, s, y);
      input [7:0] a;
      input [2:0] s;
      output [15:0] y;
      assign y = a << s;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 0xFF}, {"s", 7}}, "y").as_uint(), 0x7F80u);
}

TEST(ElaborateWidths, SubtractionBorrowVisibleInWiderContext) {
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [3:0] a, b;
      output [4:0] y;
      assign y = a - b;
    endmodule
  )");
  // 2 - 5 at 5 bits = 0b11101 = 29 (two's complement of 3 in 5 bits).
  EXPECT_EQ(run_comb(*design->top(), {{"a", 2}, {"b", 5}}, "y").as_uint(), 29u);
}

TEST(ElaborateWidths, UnaryMinusInContext) {
  auto design = verilog::read_verilog(R"(
    module top(a, y);
      input [3:0] a;
      output [7:0] y;
      assign y = -a;
    endmodule
  )");
  // -3 at 8 bits = 253 (a is zero-extended before negation, as unsigned).
  EXPECT_EQ(run_comb(*design->top(), {{"a", 3}}, "y").as_uint(), 253u);
}

TEST(ElaborateWidths, ConcatOperandsSelfDetermined) {
  // Concat parts never grow with context: {a, b} of two 4-bit nets is 8 bits
  // even when assigned to a 12-bit target (zero-padded at the top).
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [3:0] a, b;
      output [11:0] y;
      assign y = {a, b};
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 0xF}, {"b", 0x1}}, "y").as_uint(), 0xF1u);
}

TEST(ElaborateWidths, ParameterizedRangesAndExpressions) {
  auto design = verilog::read_verilog(R"(
    module top(a, y);
      parameter W = 6;
      localparam TOP = W * 2 - 1;
      input [W-1:0] a;
      output [TOP:0] y;
      assign y = a << W;
    endmodule
  )");
  EXPECT_EQ(design->top()->wire("a")->width(), 6);
  EXPECT_EQ(design->top()->wire("y")->width(), 12);
  EXPECT_EQ(run_comb(*design->top(), {{"a", 0x2A}}, "y").as_uint(), 0xA80u);
}

TEST(ElaborateWidths, ProceduralAssignGetsContextToo) {
  auto design = verilog::read_verilog(R"(
    module top(a, b, y);
      input [7:0] a, b;
      output reg [8:0] y;
      always @(*) y = a + b;
    endmodule
  )");
  EXPECT_EQ(run_comb(*design->top(), {{"a", 255}, {"b", 255}}, "y").as_uint(), 510u);
}

// --- names and bytes before any pass -----------------------------------------

namespace {

std::string fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

} // namespace

TEST(ReadDigest, GeneratedDesignsKeepTheirNetlistBytes) {
  // FNV-1a 64 of write_rtlil(read_verilog(src)) per generated design: the
  // only pin on the frontend's netlists (cell order, generated names, the
  // name counter) before any pass runs. Specs as opt_tool --gen spells
  // them; random:N is benchgen::random_verilog(N, 8).
  struct Pin {
    const char* spec;
    const char* digest;
  };
  const Pin kPins[] = {
      {"top_cache_axi:0", "bcb8d6556cb91889"}, {"pci_bridge32:0", "5e4d9a946b885ecf"},
      {"wb_conmax:0", "b86c3e4642abc5cb"},     {"mem_ctrl:0", "169697c6b696b4d6"},
      {"wb_dma:0", "37c353af44bde68d"},        {"tv80:0", "4100495c929807cf"},
      {"usb_funct:0", "6c2e2da693ea12c7"},     {"ethernet:0", "38a0d8d75ee5b860"},
      {"riscv:0", "129bdb6ecd1e7112"},         {"ac97_ctrl:0", "8e3fd76e8a927eb5"},
      {"top_cache_axi:1", "e0420cb3bfa752be"}, {"pci_bridge32:1", "055f3b375b08918c"},
      {"wb_conmax:1", "ba0fc09092d71043"},     {"mem_ctrl:1", "133a9992346919fb"},
      {"wb_dma:1", "412b96745865a5f4"},        {"tv80:1", "3302c920299a533c"},
      {"usb_funct:1", "6c0963c05bec9d8a"},     {"ethernet:1", "31dbb4c208f3db23"},
      {"riscv:1", "3f1fcb2ead2c66d4"},         {"ac97_ctrl:1", "67413b7f7d5dd937"},
      {"industrial:0", "5bce12232bb2dd78"},    {"industrial:1", "a318f39abb32c213"},
      {"industrial:2", "09f45ab9707b8cfe"},    {"industrial:3", "d4ff480c1c236282"},
      {"industrial:4", "7888e96650cd5f86"},    {"industrial:5", "3ba15b7fc8f54e62"},
      {"industrial:6", "a73a389da54d1340"},    {"industrial:7", "73d205e92c2ffec3"},
      {"random:1", "4d24b2cb325fd941"},        {"random:2", "24cb725d95094828"},
      {"random:3", "879fe48f5f632145"},        {"random:4", "9709ce2399f35214"},
  };
  for (const Pin& pin : kPins) {
    const std::string spec = pin.spec;
    const size_t colon = spec.find(':');
    const std::string family = spec.substr(0, colon);
    const uint64_t n = std::stoull(spec.substr(colon + 1));
    std::string src;
    if (family == "industrial")
      src = benchgen::generate_industrial(static_cast<int>(n), 1, 0x5eedULL + n).verilog;
    else if (family == "random")
      src = benchgen::random_verilog(n, 8);
    else
      src = benchgen::generate_circuit(family, benchgen::profile_for(family), 0x5eedULL + n)
                .verilog;
    const auto design = verilog::read_verilog(src);
    EXPECT_EQ(fnv1a(backend::write_rtlil(*design)), pin.digest) << spec;
  }
}

TEST(ReadDigest, GeneratedNamesSkipNamesTheNetlistHolds) {
  // User wires named like generated ones ($sig$N, $xor$N) push the counter
  // past them; afterwards the sequence continues, skipping a name held in
  // either table (a wire "$sig$22", a cell "$sig$23").
  const char* src = "module top(a, b, y, z);\n"
                    "  input [3:0] a, b;\n"
                    "  output [3:0] y;\n"
                    "  output z;\n"
                    "  wire [3:0] $sig$2;\n"
                    "  wire $xor$4;\n"
                    "  wire [1:0] $sig$9;\n"
                    "  wire $and$8;\n"
                    "  assign $sig$2 = a & b;\n"
                    "  assign y = ($sig$2 ^ a) + b;\n"
                    "  assign $xor$4 = a[0] & b[1];\n"
                    "  assign $sig$9 = {a[1] | b[2], $xor$4};\n"
                    "  assign $and$8 = ^$sig$9;\n"
                    "  assign z = a == b ? $and$8 : $sig$9[1];\n"
                    "endmodule\n";
  const auto design = verilog::read_verilog(src);
  Module& m = *design->top();
  std::string names;
  for (const auto& w : m.wires())
    names += w->name() + " ";
  names += "|";
  for (const auto& c : m.cells())
    names += " " + c->name();
  EXPECT_EQ(names, "a b y z $sig$2 $xor$4 $sig$9 $and$8 $sig$3 $sig$10 $sig$14 | $and$1 $xor$5 "
                   "$add$7 $and$9 $or$11 $reduce_xor$13 $eq$15 $mux$17");

  m.add_wire("$sig$22");
  m.add_cell(CellType::Or, "$sig$23");
  const auto next_names = [](Module& mod) {
    std::string next;
    next += mod.new_wire(1)->name() + " ";
    next += mod.add_cell(CellType::And)->name() + " ";
    next += mod.new_wire(2, "$and")->name() + " ";
    next += mod.add_cell(CellType::Xor)->name() + " ";
    next += mod.new_wire(1)->name() + " ";
    next += mod.add_cell(CellType::Mux)->name();
    return next;
  };
  // A clone and a restored copy carry the names and the counter along.
  const auto clone = rtlil::clone_design(*design);
  rtlil::Design other;
  Module& restored = *other.add_module("top");
  rtlil::restore_module(restored, m);
  const std::string want = "$sig$18 $and$19 $and$20 $xor$21 $sig$24 $mux$25";
  EXPECT_EQ(next_names(m), want);
  EXPECT_EQ(next_names(*clone->top()), want);
  EXPECT_EQ(next_names(restored), want);
  EXPECT_THROW(m.add_wire("$sig$24"), std::invalid_argument);
  EXPECT_THROW(m.add_cell(CellType::And, "$mux$25"), std::invalid_argument);
  EXPECT_NE(m.wire("$sig$24"), nullptr);
  EXPECT_NE(m.cell("$sig$23"), nullptr);
  EXPECT_EQ(m.wire("$sig$23"), nullptr);
}
