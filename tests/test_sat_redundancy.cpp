// SAT-based redundancy elimination (§II): the InferenceOracle's decision
// stages (syntactic / inference / simulation / SAT), the full pass on the
// paper's Figure 1-3 shapes, budget/threshold behaviour, and the contract of
// the cross-job decision memo.
#include "aig/aigmap.hpp"
#include "backend/write_rtlil.hpp"
#include "benchgen/public_bench.hpp"
#include "cec/cec.hpp"
#include "core/sat_redundancy.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/pipeline.hpp"
#include "rtlil/module.hpp"
#include "util/fault.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <unordered_map>

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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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
  oracle.begin_module(*f.mod);
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

// --- cross-job decision memo -------------------------------------------------

namespace {

/// The simplest thread-safe PortableDecisionMemo: a locked hash map. A
/// frozen memo ignores inserts, so every hit it serves was recorded earlier.
class MapMemo final : public core::PortableDecisionMemo {
public:
  bool lookup(const Hash128& key, CtrlDecision* out) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
      return false;
    *out = it->second;
    return true;
  }
  void insert(const Hash128& key, CtrlDecision decision) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!frozen_)
      entries_[key] = decision;
  }
  void freeze() {
    std::lock_guard<std::mutex> lock(mutex_);
    frozen_ = true;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

private:
  mutable std::mutex mutex_;
  std::unordered_map<Hash128, CtrlDecision, Hash128Hasher> entries_;
  bool frozen_ = false;
};

/// wb_conmax after coarse_opt: its §II pass makes SAT decisions once
/// inference and simulation are turned off.
std::unique_ptr<Design> memo_design() {
  for (const auto& c : benchgen::public_suite())
    if (c.name == "wb_conmax") {
      auto d = verilog::read_verilog(c.verilog);
      opt::coarse_opt(*d->top());
      return d;
    }
  return nullptr;
}

struct MemoRun {
  std::string netlist;
  core::SatRedundancyStats stats;
};

/// One §II sweep on a fresh copy of `golden`.
MemoRun sweep_copy(const Design& golden, const SatRedundancyOptions& opts) {
  auto d = rtlil::clone_design(golden);
  MemoRun r;
  r.stats = core::sat_redundancy_parallel(*d->top(), opts, /*threads=*/1);
  r.netlist = backend::write_rtlil(*d->top());
  return r;
}

} // namespace

TEST(DecisionMemo, WarmRunHitsAndMatchesMemoLessRun) {
  const auto golden = memo_design();
  ASSERT_NE(golden, nullptr);
  const MemoRun plain = sweep_copy(*golden, {});

  MapMemo memo;
  SatRedundancyOptions opts;
  opts.memo = &memo;
  const MemoRun cold = sweep_copy(*golden, opts);
  EXPECT_EQ(cold.netlist, plain.netlist);
  EXPECT_GT(cold.stats.portable_inserts, 0u);
  EXPECT_EQ(memo.size(), cold.stats.portable_inserts);

  memo.freeze();
  const MemoRun warm = sweep_copy(*golden, opts);
  EXPECT_GT(warm.stats.portable_hits, 0u);
  EXPECT_EQ(warm.netlist, plain.netlist);

  // A different simulation threshold is a different salt: nothing the cold
  // run recorded matches.
  SatRedundancyOptions other = opts;
  other.sim_max_inputs = opts.sim_max_inputs - 4;
  const MemoRun salted = sweep_copy(*golden, other);
  EXPECT_EQ(salted.stats.portable_hits, 0u);
  EXPECT_GT(salted.stats.portable_misses, 0u);
}

TEST(DecisionMemo, FaultedUnknownsNeverEnterTheMemo) {
  const auto golden = memo_design();
  ASSERT_NE(golden, nullptr);
  SatRedundancyOptions opts;
  opts.use_inference = false;
  opts.sim_max_inputs = 0; // every query that gets past stage 2 reaches SAT
  const MemoRun plain = sweep_copy(*golden, opts);
  ASSERT_GT(plain.stats.decided_sat, 0u) << "the design must exercise the SAT stage";

  MapMemo memo;
  opts.memo = &memo;
  {
    // Every SAT-stage query is answered Unknown without solving. Those
    // Unknowns would resolve on a retry, so none may be memoized.
    util::FaultPlan plan;
    plan.unknown_permille = 1000;
    plan.site_filter = "oracle.solve";
    util::FaultScope scope(plan);
    const MemoRun faulted = sweep_copy(*golden, opts);
    EXPECT_GT(faulted.stats.skipped_halt, 0u);
    EXPECT_EQ(faulted.stats.decided_sat, 0u);
  }
  const MemoRun after = sweep_copy(*golden, opts);
  EXPECT_EQ(after.netlist, plain.netlist);
}
