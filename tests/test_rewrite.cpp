// DAG-aware cut-rewriting engine: cut-enumeration invariants (leaf bounds,
// dominated-cut pruning, determinism), replacement-library correctness over
// every 4-input function, factoring rewrites with CEC, randomized
// rewrite-then-CEC properties, and determinism across parses.
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
#include "sim/packed_sim.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <random>

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

void expect_equivalent(const Module& gold, const Module& gate, const char* label) {
  const auto r = cec::check_equivalence(gold, gate);
  EXPECT_TRUE(r.equivalent) << label << ": differs at " << r.failing_output;
}

/// Truth table of `root` over the cut `leaves`, one fresh evaluation of the
/// cone per minterm (a map per evaluation); nullopt when the cone reaches a
/// node that is neither a leaf, the constant, nor an AND.
std::optional<uint16_t> reference_truth_table(const aig::Aig& g, aig::Lit root,
                                              const aig::Lit* leaves, size_t n) {
  uint16_t tt = 0;
  for (unsigned m = 0; m < 16; ++m) {
    std::map<uint32_t, bool> value{{0u, false}};
    for (size_t i = 0; i < n; ++i)
      value[aig::lit_node(leaves[i])] = (((m >> i) & 1u) != 0) != aig::lit_compl(leaves[i]);
    std::function<std::optional<bool>(uint32_t)> eval = [&](uint32_t node) {
      if (const auto it = value.find(node); it != value.end())
        return std::optional<bool>(it->second);
      if (!g.is_and(node))
        return std::optional<bool>();
      const auto a = eval(aig::lit_node(g.fanin0(node)));
      const auto b = eval(aig::lit_node(g.fanin1(node)));
      if (!a || !b)
        return std::optional<bool>();
      const bool v = (*a != aig::lit_compl(g.fanin0(node))) && (*b != aig::lit_compl(g.fanin1(node)));
      value[node] = v;
      return std::optional<bool>(v);
    };
    const auto v = eval(aig::lit_node(root));
    if (!v)
      return std::nullopt;
    if (*v != aig::lit_compl(root))
      tt = static_cast<uint16_t>(tt | (1u << m));
  }
  return tt;
}

} // namespace

// --- cut truth tables -------------------------------------------------------

TEST(CutTruthTable, OneScratchServesEveryCutOfARound) {
  // A rewrite round reuses one NodeScratch for every cut it evaluates; each
  // table must still equal a fresh per-cut evaluation, and a leaf set the
  // cone escapes (one leaf dropped) must be reported unusable.
  size_t checked = 0, escaped = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    aig::Aig g;
    std::vector<aig::Lit> lits;
    for (int i = 0; i < 6; ++i)
      lits.push_back(g.add_input());
    for (int i = 0; i < 120; ++i) {
      const aig::Lit a = lits[rng() % lits.size()] ^ static_cast<aig::Lit>(rng() & 1);
      const aig::Lit b = lits[rng() % lits.size()] ^ static_cast<aig::Lit>(rng() & 1);
      lits.push_back(g.and_(a, b));
    }
    rewrite::CutSet cuts;
    rewrite::enumerate_cuts(g, {}, cuts);
    sim::NodeScratch scratch;
    scratch.resize(g.num_nodes());
    for (uint32_t node = 0; node < g.num_nodes(); ++node) {
      if (!g.is_and(node))
        continue;
      const rewrite::CutRange node_cuts = cuts.cuts(node);
      for (size_t ci = 0; ci < node_cuts.size(); ++ci) {
        const rewrite::Cut& cut = node_cuts[ci];
        aig::Lit leaves[4];
        for (size_t i = 0; i < cut.size; ++i)
          leaves[i] = aig::mk_lit(cut.leaves[i], (rng() & 1) != 0);
        const aig::Lit root = aig::mk_lit(node, (rng() & 1) != 0);
        uint16_t tt = 0;
        ASSERT_TRUE(sim::cut_truth_table(g, root, leaves, cut.size, tt, scratch));
        const auto want = reference_truth_table(g, root, leaves, cut.size);
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(tt, *want) << "seed " << seed << " node " << node << " cut " << ci;
        ++checked;
        if (cut.size < 2)
          continue;
        uint16_t untouched = 0x1234;
        const bool usable = sim::cut_truth_table(g, root, leaves, cut.size - 1u, untouched, scratch);
        const auto partial = reference_truth_table(g, root, leaves, cut.size - 1u);
        EXPECT_EQ(usable, partial.has_value()) << "seed " << seed << " node " << node;
        if (usable)
          EXPECT_EQ(untouched, *partial);
        else
          EXPECT_EQ(untouched, 0x1234);
        escaped += usable ? 0 : 1;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(escaped, 100u);
}

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

  rewrite::CutSet cuts;
  rewrite::enumerate_cuts(g, {}, cuts);
  ASSERT_EQ(cuts.offset.size(), g.num_nodes() + 1);
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    const rewrite::CutRange set = cuts.cuts(n);
    // Inputs and the constant node store no cut; an AND node stores at
    // least its fanin cut, and never the implied trivial cut {n}.
    ASSERT_EQ(set.empty(), !g.is_and(n));
    for (const rewrite::Cut& c : set) {
      EXPECT_FALSE(c.size == 1 && c.leaves[0] == n);
      ASSERT_GE(c.size, 1u);
      ASSERT_LE(c.size, 4u);
      for (size_t i = 1; i < c.size; ++i)
        EXPECT_LT(c.leaves[i - 1], c.leaves[i]) << "leaves sorted + unique";
      uint32_t sign = 0;
      for (size_t i = 0; i < c.size; ++i)
        sign |= 1u << (c.leaves[i] & 31);
      EXPECT_EQ(c.sign, sign);
    }
    // Dominated-cut pruning: no kept cut is a superset of another kept cut.
    for (size_t i = 0; i < set.size(); ++i)
      for (size_t j = 0; j < set.size(); ++j)
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
  rewrite::CutSet a, b;
  rewrite::enumerate_cuts(g, narrow, a);
  rewrite::enumerate_cuts(g, narrow, b);
  EXPECT_EQ(a.arena.size(), b.arena.size());
  for (uint32_t n = 0; n < g.num_nodes(); ++n) {
    EXPECT_LE(a.cuts(n).size(), 3u); // the limit
    ASSERT_EQ(a.cuts(n).size(), b.cuts(n).size());
    for (size_t i = 0; i < a.cuts(n).size(); ++i)
      EXPECT_TRUE(a.cuts(n)[i] == b.cuts(n)[i]);
  }
}

namespace {

/// Cut enumeration as it was before the cuts moved into one arena: one
/// vector per node, the same merge, priority and dominance rules, the
/// trivial cut {n} stored last. Kept as the reference the arena must
/// reproduce cut for cut (the arena leaves the trivial cut implied).
std::vector<std::vector<rewrite::Cut>> reference_cuts(const aig::Aig& aig, size_t limit,
                                                      size_t& total) {
  const auto trivial = [](uint32_t node) {
    rewrite::Cut c;
    c.leaves[0] = node;
    c.size = 1;
    c.sign = 1u << (node & 31);
    return c;
  };
  const auto merge = [](const rewrite::Cut& a, const rewrite::Cut& b, rewrite::Cut& out) {
    size_t i = 0, j = 0, n = 0;
    while (i < a.size || j < b.size) {
      uint32_t next;
      if (j == b.size || (i < a.size && a.leaves[i] < b.leaves[j]))
        next = a.leaves[i++];
      else if (i == a.size || b.leaves[j] < a.leaves[i])
        next = b.leaves[j++];
      else
        next = a.leaves[i++], ++j;
      if (n == 4)
        return false;
      out.leaves[n++] = next;
    }
    out.size = static_cast<uint8_t>(n);
    out.sign = a.sign | b.sign;
    return true;
  };
  std::vector<std::vector<rewrite::Cut>> cuts(aig.num_nodes());
  total = 0;
  for (uint32_t n = 0; n < aig.num_nodes(); ++n) {
    std::vector<rewrite::Cut>& set = cuts[n];
    if (!aig.is_and(n)) {
      set.push_back(trivial(n));
      continue;
    }
    std::vector<rewrite::Cut> merged;
    for (const rewrite::Cut& a : cuts[aig::lit_node(aig.fanin0(n))]) {
      for (const rewrite::Cut& b : cuts[aig::lit_node(aig.fanin1(n))]) {
        rewrite::Cut m;
        if (merge(a, b, m))
          merged.push_back(m);
      }
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    for (const rewrite::Cut& c : merged) {
      if (set.size() >= limit)
        break;
      if (std::none_of(set.begin(), set.end(),
                       [&](const rewrite::Cut& kept) { return kept.subset_of(c); }))
        set.push_back(c);
    }
    total += set.size();
    set.push_back(trivial(n));
  }
  return cuts;
}

} // namespace

TEST(CutEnum, ArenaEqualsPerNodeReference) {
  // One CutSet is refilled for every AIG and limit, as a rewrite run
  // refills it every round; the arena holds exactly the kept cuts.
  rewrite::CutSet cuts;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    aig::Aig g;
    std::vector<aig::Lit> lits;
    for (int i = 0; i < 6 + static_cast<int>(seed % 5); ++i)
      lits.push_back(g.add_input());
    for (int i = 0; i < 300; ++i) {
      const aig::Lit a = lits[rng() % lits.size()] ^ static_cast<aig::Lit>(rng() & 1);
      const aig::Lit b = lits[rng() % lits.size()] ^ static_cast<aig::Lit>(rng() & 1);
      lits.push_back(g.and_(a, b));
    }
    for (const int limit : {1, 2, 8}) {
      rewrite::enumerate_cuts(g, rewrite::CutOptions{limit}, cuts);
      size_t total = 0;
      const auto want = reference_cuts(g, static_cast<size_t>(limit), total);
      EXPECT_EQ(cuts.arena.size(), total) << "seed " << seed << " limit " << limit;
      ASSERT_EQ(cuts.offset.size(), g.num_nodes() + 1);
      for (uint32_t n = 0; n < g.num_nodes(); ++n) {
        const rewrite::CutRange got = cuts.cuts(n);
        ASSERT_EQ(got.size() + 1, want[n].size())
            << "seed " << seed << " limit " << limit << " node " << n;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == want[n][i] && got[i].sign == want[n][i].sign)
              << "seed " << seed << " limit " << limit << " node " << n << " cut " << i;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
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
  EXPECT_LE(rewrite::RewriteLibrary::instance().max_cost(), rewrite::kMaxProgramOps);
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
  const rewrite::RewriteStats stats = opt::rewrite_stage(*f.mod);
  EXPECT_GE(stats.rewrites, 1u);
  EXPECT_LT(f.mod->cell_count(), before);
  EXPECT_NO_THROW(f.mod->check());
  expect_equivalent(*golden->top(), *f.mod, "factoring");
}

TEST(RewriteEngine, AigNodesCountedOnFirstExecutedRound) {
  // aig_nodes is the first executed round's blast size, also when the
  // recovery layer quarantines round 1 and round 2 blasts first.
  const auto run = [](const util::QuarantineSet* quarantine) {
    Fixture f;
    Wire* a = f.in("a", 8);
    Wire* b = f.in("b", 8);
    Wire* c = f.in("c", 8);
    const SigSpec t1 = f.mod->And(SigSpec(a), SigSpec(b));
    const SigSpec t2 = f.mod->And(SigSpec(a), SigSpec(c));
    f.mod->connect(SigSpec(f.out("y", 8)), f.mod->Or(t1, t2));
    rewrite::RewriteOptions options;
    options.quarantine = quarantine;
    return rewrite::rewrite_sweep(*f.mod, options);
  };
  const rewrite::RewriteStats plain = run(nullptr);
  EXPECT_GE(plain.rewrites, 1u);
  EXPECT_EQ(plain.aig_nodes, 49u); // const + 24 inputs + 24 ANDs

  util::QuarantineSet quarantine;
  quarantine.add("rewrite.round", 1);
  const rewrite::RewriteStats skipped = run(&quarantine);
  EXPECT_EQ(skipped.quarantined, 1u);
  EXPECT_GE(skipped.rounds, 1u);
  EXPECT_EQ(skipped.rewrites, plain.rewrites);
  EXPECT_EQ(skipped.aig_nodes, plain.aig_nodes);
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
  const rewrite::RewriteStats stats = opt::rewrite_stage(*f.mod);
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
    opt::rewrite_stage(top);
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
    opt::rewrite_stage(top);
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
  const opt::DeepOptStats stats = opt::fraig_rewrite_loop(top, {});
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_LT(aig::aig_area(top), aig_before);
  expect_equivalent(*golden->top(), top, "deep-opt loop");
}

TEST(RewriteEngine, FreshParsesGiveIdenticalNetlistAndStats) {
  // Two parses alive at once put every wire and cell at a different address,
  // so a decision keyed on pointers (hash-map iteration order) shows here.
  size_t rewrites = 0;
  for (const uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string src = benchgen::random_verilog(seed, 7);
    const std::unique_ptr<Design> designs[] = {verilog::read_verilog(src),
                                               verilog::read_verilog(src)};
    std::string netlists[2];
    rewrite::RewriteStats stats[2];
    for (int i = 0; i < 2; ++i) {
      Module& top = *designs[i]->top();
      core::smartly_flow(top, {});
      opt::fraig_stage(top);
      stats[i] = opt::rewrite_stage(top);
      netlists[i] = backend::write_rtlil(top);
    }
    EXPECT_EQ(netlists[1], netlists[0]);
    EXPECT_TRUE(rewrite::same_work(stats[1], stats[0]));
    rewrites += stats[0].rewrites;
  }
  EXPECT_GE(rewrites, 1u); // the determinism check must see real work
}

TEST(RewriteStats, AccumulatesAndComparesWork) {
  rewrite::RewriteStats a;
  a.rewrites = 2;
  a.cells_added = 3;
  rewrite::RewriteStats b;
  b.rewrites = 1;
  b.npn_classes = 5;
  a += b;
  EXPECT_EQ(a.rewrites, 3u);
  EXPECT_EQ(a.cells_added, 3u);
  EXPECT_EQ(a.npn_classes, 5u);
  rewrite::RewriteStats c = a;
  EXPECT_TRUE(rewrite::same_work(a, c));
  c.rewrites = 99;
  EXPECT_FALSE(rewrite::same_work(a, c));
}
