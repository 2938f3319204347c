// Exhaustive packed simulation (sim::exhaustive_forced): the §II "few free
// inputs" decision engine. Forced/contradiction semantics, constraint
// filtering, the free-input ceiling, and exhaustive_forced_ex's early exit;
// plus the node-major signature kernel (sim::simulate_signatures) against
// the one-batch reference simulator.
#include "aig/aig.hpp"
#include "sim/packed_sim.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using aig::Aig;
using aig::Lit;
using sim::Forced;
using sim::exhaustive_forced;

TEST(PackedSim, UnconstrainedInputIsFree) {
  Aig g;
  const Lit a = g.add_input("a");
  EXPECT_EQ(exhaustive_forced(g, {}, a), Forced::None);
}

TEST(PackedSim, ConstantTargets) {
  Aig g;
  (void)g.add_input("a");
  EXPECT_EQ(exhaustive_forced(g, {}, aig::kTrue), Forced::One);
  EXPECT_EQ(exhaustive_forced(g, {}, aig::kFalse), Forced::Zero);
}

TEST(PackedSim, DirectConstraintForcesTarget) {
  Aig g;
  const Lit a = g.add_input("a");
  EXPECT_EQ(exhaustive_forced(g, {{a, true}}, a), Forced::One);
  EXPECT_EQ(exhaustive_forced(g, {{a, false}}, a), Forced::Zero);
  EXPECT_EQ(exhaustive_forced(g, {{a, true}}, aig::lit_not(a)), Forced::Zero);
}

TEST(PackedSim, OrDependenceFig3) {
  // The paper's Fig. 3 kernel: target = a | r, constraint a = 1.
  Aig g;
  const Lit a = g.add_input("a");
  const Lit r = g.add_input("r");
  const Lit target = g.or_(a, r);
  EXPECT_EQ(exhaustive_forced(g, {{a, true}}, target), Forced::One);
  EXPECT_EQ(exhaustive_forced(g, {{a, false}}, target), Forced::None) << "r still free";
}

TEST(PackedSim, InternalNodeConstraint) {
  // Constrain an internal AND node rather than an input: target must follow.
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit ab = g.and_(a, b);
  // With ab = 1, both a and b are 1, so a|b is forced 1 and a^b forced 0.
  EXPECT_EQ(exhaustive_forced(g, {{ab, true}}, g.or_(a, b)), Forced::One);
  EXPECT_EQ(exhaustive_forced(g, {{ab, true}}, g.xor_(a, b)), Forced::Zero);
  // With ab = 0, a|b can still be 0 or 1.
  EXPECT_EQ(exhaustive_forced(g, {{ab, false}}, g.or_(a, b)), Forced::None);
}

TEST(PackedSim, ContradictoryConstraints) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit ab = g.and_(a, b);
  // a = 0 but a&b = 1: no assignment satisfies this (dead path).
  EXPECT_EQ(exhaustive_forced(g, {{a, false}, {ab, true}}, b), Forced::Contradiction);
}

TEST(PackedSim, EqualityChainForcing) {
  // xnor(a, b) = 1 and a = 1 forces b = 1.
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit eq = g.xnor_(a, b);
  EXPECT_EQ(exhaustive_forced(g, {{eq, true}, {a, true}}, b), Forced::One);
  EXPECT_EQ(exhaustive_forced(g, {{eq, true}, {a, false}}, b), Forced::Zero);
  EXPECT_EQ(exhaustive_forced(g, {{eq, false}, {a, true}}, b), Forced::Zero);
}

TEST(PackedSim, RespectsMaxFreeInputs) {
  Aig g;
  std::vector<Lit> ins;
  Lit acc = aig::kTrue;
  for (int i = 0; i < 10; ++i) {
    ins.push_back(g.add_input());
    acc = g.and_(acc, ins.back());
  }
  // Decidable in principle, but the ceiling refuses the enumeration.
  EXPECT_EQ(exhaustive_forced(g, {{acc, true}}, ins[0], /*max_free_inputs=*/4),
            Forced::None);
  EXPECT_EQ(exhaustive_forced(g, {{acc, true}}, ins[0], /*max_free_inputs=*/10),
            Forced::One);
}

TEST(PackedSim, WideEnumerationBeyondOneWord) {
  // 8 free inputs = 256 patterns = 4 x 64-bit words: exercises the packed
  // sweep across word boundaries.
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(g.add_input());
  // majority-ish function: target = (i0&i1) | (i2&i3) | ... none forced.
  Lit t = aig::kFalse;
  for (int i = 0; i < 8; i += 2)
    t = g.or_(t, g.and_(ins[size_t(i)], ins[size_t(i + 1)]));
  EXPECT_EQ(exhaustive_forced(g, {}, t), Forced::None);
  // Force one conjunct: target forced 1.
  EXPECT_EQ(exhaustive_forced(g, {{ins[0], true}, {ins[1], true}}, t), Forced::One);
  // Forbid every conjunct: forced 0.
  std::vector<std::pair<Lit, bool>> all_zero;
  for (int i = 0; i < 8; i += 2)
    all_zero.emplace_back(ins[size_t(i)], false);
  EXPECT_EQ(exhaustive_forced(g, all_zero, t), Forced::Zero);
}

TEST(PackedSim, ConstrainedConstantContradiction) {
  Aig g;
  (void)g.add_input("a");
  EXPECT_EQ(exhaustive_forced(g, {{aig::kTrue, false}}, aig::kTrue),
            Forced::Contradiction);
}

class PackedSimVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackedSimVsBruteForce, MatchesNaiveEnumeration) {
  // Random small AIG + random constraint set: compare against a naive
  // per-assignment reference evaluation.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Aig g;
  const int n = int(rng.range(2, 5));
  std::vector<Lit> lits{aig::kFalse, aig::kTrue};
  for (int i = 0; i < n; ++i)
    lits.push_back(g.add_input());
  for (int i = 0; i < int(rng.range(3, 12)); ++i) {
    Lit a = lits[rng.below(lits.size())];
    Lit b = lits[rng.below(lits.size())];
    if (rng.range(0, 1)) a = aig::lit_not(a);
    if (rng.range(0, 1)) b = aig::lit_not(b);
    lits.push_back(g.and_(a, b));
  }
  const Lit target = lits.back();
  std::vector<std::pair<Lit, bool>> constraints;
  for (int i = 0; i < 2; ++i)
    constraints.emplace_back(lits[rng.below(lits.size())], rng.range(0, 1) != 0);

  // Naive reference.
  bool seen0 = false, seen1 = false, any = false;
  for (uint64_t v = 0; v < (uint64_t(1) << n); ++v) {
    std::vector<uint64_t> in(size_t(n), 0);
    for (int i = 0; i < n; ++i)
      in[size_t(i)] = ((v >> i) & 1) ? ~0ull : 0ull;
    const auto words = g.simulate(in);
    bool ok = true;
    for (const auto& [l, val] : constraints)
      if (((Aig::sim_lit(words, l) & 1) != 0) != val)
        ok = false;
    if (!ok)
      continue;
    any = true;
    ((Aig::sim_lit(words, target) & 1) ? seen1 : seen0) = true;
  }
  const Forced want = !any               ? Forced::Contradiction
                      : (seen0 && seen1) ? Forced::None
                      : seen1            ? Forced::One
                                         : Forced::Zero;
  EXPECT_EQ(exhaustive_forced(g, constraints, target), want) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedSimVsBruteForce, ::testing::Range<uint64_t>(1, 50));

// --- exhaustive_forced_ex ----------------------------------------------------

namespace {

/// y = s ? a : b over fresh AIG inputs; returns (aig, s, a, b, y).
struct MuxAig {
  Aig g;
  Lit s, a, b, y;
  MuxAig() {
    s = g.add_input("s");
    a = g.add_input("a");
    b = g.add_input("b");
    y = g.mux_(s, a, b);
    g.add_output(y, "y");
  }
};

} // namespace

TEST(ExhaustiveForcedEx, MatchesLegacyWrapperOnAllVerdicts) {
  MuxAig m;
  // Forced one: s=1, a=1.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {{m.s, true}, {m.a, true}}, m.y),
            sim::Forced::One);
  // Contradiction: y constrained both ways via internal literal.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {{m.y, true}, {m.y, false}}, m.y),
            sim::Forced::Contradiction);
  // Unconstrained: None.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {}, m.y), sim::Forced::None);
}

TEST(ExhaustiveForcedEx, EarlyExitSurfacedForNonForcedTargets) {
  // 7 free inputs -> 2 words of 64 patterns; an OR tree is 0 only on the
  // all-zero pattern (word 0), so both polarities appear in the first word
  // and the sweep must stop before word 2.
  Aig g;
  Lit acc = aig::kFalse;
  for (int i = 0; i < 7; ++i)
    acc = g.or_(acc, g.add_input());
  g.add_output(acc, "y");

  sim::SimOptions opts;
  const sim::SimResult r = sim::exhaustive_forced_ex(g, {}, acc, opts);
  EXPECT_EQ(r.forced, sim::Forced::None);
  EXPECT_TRUE(r.early_exit);
  EXPECT_FALSE(r.exhausted);
}

// --- simulate_signatures -----------------------------------------------------

class SignatureKernelVsReference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureKernelVsReference, EveryRowWordMatchesOneBatchSimulation) {
  // Random AIG with complemented fanins; the node-major kernel over W batches
  // must agree word for word with Aig::simulate run once per batch. W = 24 is
  // the fraig pool's widest table: 8 base batches + 1024/64 counterexample
  // batches.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Aig g;
  std::vector<Lit> lits{aig::kFalse, aig::kTrue};
  const size_t n_inputs = size_t(rng.range(1, 12));
  for (size_t i = 0; i < n_inputs; ++i)
    lits.push_back(g.add_input());
  for (int i = 0; i < int(rng.range(20, 200)); ++i) {
    Lit a = lits[rng.below(lits.size())];
    Lit b = lits[rng.below(lits.size())];
    if (rng.range(0, 1)) a = aig::lit_not(a);
    if (rng.range(0, 1)) b = aig::lit_not(b);
    lits.push_back(g.and_(a, b));
  }

  for (const size_t words : {size_t(1), size_t(8), size_t(24)}) {
    sim::SignatureTable table(g.num_nodes(), words);
    for (const uint32_t input : g.inputs())
      for (size_t w = 0; w < words; ++w)
        table.row(input)[w] = rng.next();
    sim::simulate_signatures(g, table);
    for (size_t w = 0; w < words; ++w) {
      std::vector<uint64_t> batch(n_inputs);
      for (size_t i = 0; i < n_inputs; ++i)
        batch[i] = table.row(g.inputs()[i])[w];
      const std::vector<uint64_t> want = g.simulate(batch);
      for (uint32_t node = 0; node < g.num_nodes(); ++node)
        ASSERT_EQ(table.row(node)[w], want[node])
            << "seed " << seed << " W " << words << " batch " << w << " node " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureKernelVsReference, ::testing::Range<uint64_t>(1, 21));
