// DAG-aware cut-rewriting engine: cut-enumeration invariants (leaf bounds,
// dominated-cut pruning, determinism), replacement-library correctness over
// every 4-input function, factoring rewrites with CEC, randomized
// rewrite-then-CEC properties, and thread-count determinism.
#include "aig/aigmap.hpp"
#include "backend/write_rtlil.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "opt/pipeline.hpp"
#include "rewrite/cut_enum.hpp"
#include "rewrite/npn.hpp"
#include "rewrite/rewrite_engine.hpp"
#include "rewrite/rewrite_lib.hpp"
#include "rtlil/module.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

using namespace smartly;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
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

rewrite::RewriteOptions serial_options() {
  rewrite::RewriteOptions o;
  o.threads = 1;
  return o;
}

void expect_equivalent(const Module& gold, const Module& gate, const char* label) {
  const auto r = cec::check_equivalence(gold, gate);
  EXPECT_TRUE(r.equivalent) << label << ": differs at " << r.failing_output;
}

} // namespace

// --- cut enumeration --------------------------------------------------------

TEST(CutEnum, LeafBoundsAndOrdering) {
  aig::Aig g;
  std::vector<aig::Lit> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(g.add_input());
  // A reconvergent cone: pairwise ANDs, then a tree over them.
  std::vector<aig::Lit> layer;
  for (int i = 0; i < 8; i += 2)
    layer.push_back(g.and_(ins[i], ins[i + 1]));
  aig::Lit root = layer[0];
  for (size_t i = 1; i < layer.size(); ++i)
    root = g.and_(root, g.xor_(layer[i], ins[i]));
  g.add_output(root);

  const rewrite::CutSet cuts = rewrite::enumerate_cuts(g);
  ASSERT_EQ(cuts.cuts.size(), g.num_nodes());
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    const auto& set = cuts.cuts[n];
    ASSERT_FALSE(set.empty());
    // The trivial cut {n} is always last.
    EXPECT_EQ(set.back().size, 1u);
    EXPECT_EQ(set.back().leaves[0], n);
    for (const rewrite::Cut& c : set) {
      ASSERT_GE(c.size, 1u);
      ASSERT_LE(c.size, 4u);
      for (size_t i = 1; i < c.size; ++i)
        EXPECT_LT(c.leaves[i - 1], c.leaves[i]) << "leaves sorted + unique";
      uint32_t sign = 0;
      for (size_t i = 0; i < c.size; ++i)
        sign |= 1u << (c.leaves[i] & 31);
      EXPECT_EQ(c.sign, sign);
    }
    // Dominated-cut pruning: no kept non-trivial cut is a superset of
    // another kept cut.
    for (size_t i = 0; i + 1 < set.size(); ++i)
      for (size_t j = 0; j + 1 < set.size(); ++j)
        if (i != j) {
          EXPECT_FALSE(set[i].subset_of(set[j]))
              << "cut " << i << " dominates kept cut " << j << " at node " << n;
        }
  }
}

TEST(CutEnum, RespectsCutLimitAndIsDeterministic) {
  aig::Aig g;
  std::vector<aig::Lit> ins;
  for (int i = 0; i < 6; ++i)
    ins.push_back(g.add_input());
  aig::Lit x = ins[0];
  for (int i = 1; i < 6; ++i)
    x = g.and_(g.or_(x, ins[i]), g.xor_(x, ins[(i + 1) % 6]));
  g.add_output(x);

  rewrite::CutOptions narrow;
  narrow.cut_limit = 3;
  const rewrite::CutSet a = rewrite::enumerate_cuts(g, narrow);
  const rewrite::CutSet b = rewrite::enumerate_cuts(g, narrow);
  EXPECT_EQ(a.total, b.total);
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    EXPECT_LE(a.cuts[n].size(), 4u); // limit + trivial
    ASSERT_EQ(a.cuts[n].size(), b.cuts[n].size());
    for (size_t i = 0; i < a.cuts[n].size(); ++i)
      EXPECT_TRUE(a.cuts[n][i] == b.cuts[n][i]);
  }
}

// --- replacement library ----------------------------------------------------

TEST(RewriteLibrary, EveryFunctionEvaluatesBack) {
  const rewrite::RewriteLibrary& lib = rewrite::RewriteLibrary::instance();
  const rewrite::TruthTable proj[4] = {rewrite::kProjection[0], rewrite::kProjection[1],
                                       rewrite::kProjection[2], rewrite::kProjection[3]};
  for (uint32_t tt = 0; tt < 65536; ++tt) {
    const rewrite::GateProgram& p = lib.program(static_cast<rewrite::TruthTable>(tt));
    ASSERT_EQ(p.tt, tt);
    EXPECT_EQ(rewrite::eval_program(p, proj), static_cast<rewrite::TruthTable>(tt));
    EXPECT_EQ(p.support, rewrite::tt_support(static_cast<rewrite::TruthTable>(tt)));
  }
}

TEST(RewriteLibrary, CostIsBounded) {
  // A plain Shannon tree over four variables costs at most 1 + 2 + 4 = 7
  // gates; a leaf inverter can add one more (inverters are explicit cells
  // here, unlike AIG complement edges).
  EXPECT_LE(rewrite::RewriteLibrary::instance().max_cost(), 8u);
}

TEST(RewriteLibrary, TrivialFunctionsNeedNoGates) {
  const rewrite::RewriteLibrary& lib = rewrite::RewriteLibrary::instance();
  EXPECT_EQ(lib.program(0).ops.size(), 0u);
  EXPECT_EQ(lib.program(0xffff).ops.size(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lib.program(rewrite::kProjection[i]).ops.size(), 0u);
    EXPECT_EQ(
        lib.program(static_cast<rewrite::TruthTable>(~rewrite::kProjection[i])).ops.size(),
        1u); // one Not
  }
}

TEST(RewriteLibrary, ClassRepresentativesAreSeeded) {
  const rewrite::RewriteLibrary& lib = rewrite::RewriteLibrary::instance();
  const rewrite::TruthTable proj[4] = {rewrite::kProjection[0], rewrite::kProjection[1],
                                       rewrite::kProjection[2], rewrite::kProjection[3]};
  for (const rewrite::TruthTable rep : rewrite::NpnTable::instance().representatives())
    EXPECT_EQ(rewrite::eval_program(lib.program(rep), proj), rep);
}

// --- the engine -------------------------------------------------------------

TEST(RewriteEngine, FactorsSharedAndTerm) {
  // y = (a & b) | (a & c) over 8-bit words: three cells, rewritable to
  // a & (b | c) — two cells, one of them dead-cone-credited.
  Fixture f;
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  Wire* c = f.in("c", 8);
  Wire* y = f.out("y", 8);
  const SigSpec t1 = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec t2 = f.mod->And(SigSpec(a), SigSpec(c));
  f.mod->connect(SigSpec(y), f.mod->Or(t1, t2));

  const auto golden = rtlil::clone_design(f.design);
  const size_t before = f.mod->cell_count();
  const rewrite::RewriteStats stats = opt::rewrite_stage(*f.mod, serial_options());
  EXPECT_GE(stats.rewrites, 1u);
  EXPECT_LT(f.mod->cell_count(), before);
  EXPECT_NO_THROW(f.mod->check());
  expect_equivalent(*golden->top(), *f.mod, "factoring");
}

TEST(RewriteEngine, RestructuresChainedMuxes) {
  // y = s1 ? (s2 ? a : b) : a — the mux bi-decomposition target: same cell
  // count ((s1 & ~s2) ? b : a), strictly fewer AIG nodes.
  Fixture f;
  Wire* s1 = f.in("s1");
  Wire* s2 = f.in("s2");
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  Wire* y = f.out("y", 8);
  const SigSpec inner = f.mod->Mux(SigSpec(b), SigSpec(a), SigSpec(s2));
  f.mod->add_mux(SigSpec(a), inner, SigSpec(s1), SigSpec(y));

  const auto golden = rtlil::clone_design(f.design);
  const size_t aig_before = aig::aig_area(*f.mod);
  const rewrite::RewriteStats stats = opt::rewrite_stage(*f.mod, serial_options());
  EXPECT_GE(stats.rewrites, 1u);
  EXPECT_LT(aig::aig_area(*f.mod), aig_before);
  EXPECT_NO_THROW(f.mod->check());
  expect_equivalent(*golden->top(), *f.mod, "mux restructuring");
}

TEST(RewriteEngine, NeverGrowsCellCount) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    Module& top = *design->top();
    opt::coarse_opt(top);
    const size_t before = top.cell_count();
    opt::rewrite_stage(top, serial_options());
    EXPECT_LE(top.cell_count(), before) << "seed " << seed;
  }
}

TEST(RewriteEngine, RandomizedRewriteThenCec) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    const auto golden = rtlil::clone_design(*design);
    Module& top = *design->top();
    core::smartly_flow(top, {});
    opt::fraig_stage(top);
    opt::rewrite_stage(top, serial_options());
    EXPECT_NO_THROW(top.check());
    expect_equivalent(*golden->top(), top, ("random seed " + std::to_string(seed)).c_str());
  }
}

TEST(RewriteEngine, DeepOptLoopIsEquivalentAndSmaller) {
  auto suite = benchgen::public_suite();
  const auto pci = std::find_if(suite.begin(), suite.end(),
                                [](const auto& c) { return c.name == "pci_bridge32"; });
  ASSERT_NE(pci, suite.end());
  auto design = verilog::read_verilog(pci->verilog);
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();
  core::smartly_flow(top, {});
  const size_t aig_before = aig::aig_area(top);
  opt::DeepOptOptions deep;
  deep.rewrite.threads = 1;
  const opt::DeepOptStats stats = opt::fraig_rewrite_loop(top, deep);
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_LT(aig::aig_area(top), aig_before);
  expect_equivalent(*golden->top(), top, "deep-opt loop");
}

TEST(RewriteEngine, DeterministicAcrossThreadCounts) {
  for (const uint64_t seed : {21u, 22u}) {
    auto base = verilog::read_verilog(benchgen::random_verilog(seed, 7));
    core::smartly_flow(*base->top(), {});
    opt::fraig_stage(*base->top());

    std::string first_netlist;
    rewrite::RewriteStats first_stats;
    for (const int threads : {1, 2, 4, 8}) {
      auto design = rtlil::clone_design(*base);
      rewrite::RewriteOptions options;
      options.threads = threads;
      const rewrite::RewriteStats stats = opt::rewrite_stage(*design->top(), options);
      const std::string netlist = backend::write_rtlil(*design->top());
      if (threads == 1) {
        first_netlist = netlist;
        first_stats = stats;
      } else {
        EXPECT_EQ(netlist, first_netlist) << "seed " << seed << " threads " << threads;
        EXPECT_TRUE(rewrite::same_work(stats, first_stats))
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(RewriteStats, AccumulationKeepsThreadsUsed) {
  rewrite::RewriteStats a;
  a.rewrites = 2;
  a.cells_added = 3;
  a.threads_used = 4;
  rewrite::RewriteStats b;
  b.rewrites = 1;
  b.npn_classes = 5;
  b.threads_used = 8;
  a += b;
  EXPECT_EQ(a.rewrites, 3u);
  EXPECT_EQ(a.npn_classes, 5u);
  EXPECT_EQ(a.threads_used, 4);
  rewrite::RewriteStats c = a;
  EXPECT_TRUE(rewrite::same_work(a, c));
  c.threads_used = 99;
  EXPECT_TRUE(rewrite::same_work(a, c)); // machine detail, not work
  c.rewrites = 99;
  EXPECT_FALSE(rewrite::same_work(a, c));
}
