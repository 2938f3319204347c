// SAT-based redundancy elimination (§II): the InferenceOracle's decision
// stages (syntactic / inference / simulation / SAT), the full pass on the
// paper's Figure 1-3 shapes, and budget/threshold behaviour.
#include "aig/aigmap.hpp"
#include "cec/cec.hpp"
#include "core/sat_redundancy.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using core::InferenceOracle;
using core::SatRedundancyOptions;
using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

struct Fixture {
  Design design;
  Module* mod;
  Fixture() { mod = design.add_module("top"); }
  Wire* in(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_input(x);
    return x;
  }
  Wire* out(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_output(x);
    return x;
  }
};

} // namespace

TEST(InferenceOracleTest, SyntacticLookupStillWorks) {
  Fixture f;
  Wire* s = f.in("s");
  f.mod->connect(SigSpec(f.out("y")), SigSpec(s));
  InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  KnownMap known{{SigBit(s, 0), true}};
  EXPECT_EQ(oracle.decide(SigBit(s, 0), known), CtrlDecision::One);
  known[SigBit(s, 0)] = false;
  EXPECT_EQ(oracle.decide(SigBit(s, 0), known), CtrlDecision::Zero);
  EXPECT_GE(oracle.stats().decided_syntactic, 2u);
}

TEST(InferenceOracleTest, NoKnownSignalsMeansUnknown) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(sr[0], {}), CtrlDecision::Unknown);
}

TEST(InferenceOracleTest, Fig3OrDependence) {
  // ctrl = s | r with s known true -> One; with s known false -> Unknown.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), false}}), CtrlDecision::Unknown);
}

TEST(InferenceOracleTest, AndDependence) {
  // ctrl = s & r with s false -> Zero.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->And(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), false}}), CtrlDecision::Zero);
}

TEST(InferenceOracleTest, SimOrSatDecidesNonTrivialDependence) {
  // ctrl = (s & a) | (s & ~a): equals s, but no single inference rule sees
  // it — needs simulation or SAT over the sub-graph.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a");
  const SigSpec sa = f.mod->And(SigSpec(s), SigSpec(a));
  const SigSpec sna = f.mod->And(SigSpec(s), f.mod->Not(SigSpec(a)));
  const SigSpec ctrl = f.mod->Or(sa, sna);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false; // force stage 4
  InferenceOracle oracle(opts);
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), false}}), CtrlDecision::Zero);
  const auto& st = oracle.stats();
  EXPECT_EQ(st.decided_sim + st.decided_sat, 2u);
}

TEST(InferenceOracleTest, SatStageHandlesWideSubgraph) {
  // Force SAT (not simulation) by setting sim_max_inputs = 0.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  // ctrl = s | (a == b): with s=1, forced 1 whatever a,b.
  const SigSpec eq = f.mod->Eq(SigSpec(a), SigSpec(b));
  const SigSpec ctrl = f.mod->Or(SigSpec(s), eq);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false;
  opts.sim_max_inputs = 0;
  InferenceOracle oracle(opts);
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.stats().decided_sat, 1u);
}

TEST(InferenceOracleTest, DeadPathDetected) {
  // known: s=1 and (s&r)=... ctrl = ~s. With s=1, ~s is 0; but make the path
  // contradictory: known s=1 and or(s,r)=0 simultaneously.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec other = f.mod->And(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), f.mod->Xor(sr, other));

  InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  const KnownMap contradictory{{SigBit(s, 0), true}, {sr[0], false}};
  EXPECT_EQ(oracle.decide(other[0], contradictory), CtrlDecision::DeadPath);
  EXPECT_GE(oracle.stats().dead_paths, 1u);
}

TEST(InferenceOracleTest, InputThresholdSkipsSat) {
  // sat_max_inputs = 0 and sim_max_inputs = 0: stage 4 must be skipped and
  // the (inference-invisible) query stays Unknown.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a");
  const SigSpec sa = f.mod->And(SigSpec(s), SigSpec(a));
  const SigSpec sna = f.mod->And(SigSpec(s), f.mod->Not(SigSpec(a)));
  const SigSpec ctrl = f.mod->Or(sa, sna);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false;
  opts.sim_max_inputs = 0;
  opts.sat_max_inputs = 0;
  InferenceOracle oracle(opts);
  const rtlil::NetlistIndex index(*f.mod);
  oracle.begin_module(*f.mod, index);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::Unknown);
  EXPECT_GE(oracle.stats().skipped_too_large, 1u);
}

// --- full pass on elaborated Verilog ----------------------------------------

namespace {

/// Run sat_redundancy + cleanup, assert equivalence, return the AIG areas
/// before and after.
std::pair<size_t, size_t> run_pass(const std::string& src,
                                   const SatRedundancyOptions& opts = {}) {
  auto d = verilog::read_verilog(src);
  auto golden = rtlil::clone_design(*d);
  opt::opt_expr(*d->top());
  opt::opt_clean(*d->top());
  const size_t before = aig::aig_area(*d->top());
  core::sat_redundancy(*d->top(), opts);
  opt::opt_expr(*d->top());
  opt::opt_clean(*d->top());
  const auto cec = cec::check_equivalence(*golden->top(), *d->top());
  EXPECT_TRUE(cec.equivalent) << cec.failing_output;
  return {before, aig::aig_area(*d->top())};
}

} // namespace

TEST(SatRedundancyPass, PaperFig1SameControl) {
  // Y = S ? (S ? A : B) : C -> Y = S ? A : C (baseline-visible too).
  const auto [before, after] = run_pass(R"(
    module top(s, a, b, c, y);
      input s; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? (s ? a : b) : c;
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, PaperFig3DependentControl) {
  // Y = S ? ((S|R) ? A : B) : C -> Y = S ? A : C (needs inferencing).
  const auto [before, after] = run_pass(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, AndChainDependence) {
  // inner control s&t: on the s=0 branch it is forced 0.
  const auto [before, after] = run_pass(R"(
    module top(s, t, a, b, c, y);
      input s, t; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? a : ((s & t) ? b : c);
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, IndependentControlsUntouched) {
  // y = s ? (t ? a : b) : c with independent s, t: nothing to remove;
  // the result must still be equivalent and no larger.
  const auto [before, after] = run_pass(R"(
    module top(s, t, a, b, c, y);
      input s, t; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? (t ? a : b) : c;
    endmodule
  )");
  EXPECT_EQ(after, before);
}

TEST(SatRedundancyPass, InferenceOnlyModeStillCatchesFig3) {
  SatRedundancyOptions opts;
  opts.use_sat = false; // Table I rules only
  const auto [before, after] = run_pass(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )",
                                        opts);
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, StatsAccounting) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* c = f.in("c", 4);
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec inner = f.mod->Mux(SigSpec(b), SigSpec(a), sr);
  const SigSpec root = f.mod->Mux(SigSpec(c), inner, SigSpec(s));
  f.mod->connect(SigSpec(f.out("y", 4)), root);

  const auto stats = core::sat_redundancy(*f.mod, {});
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GT(stats.walker.mux_collapsed, 0u);
  EXPECT_GE(stats.gates_seen, stats.gates_kept);
}
