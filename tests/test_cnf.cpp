// Tseitin CNF encoding (aig::ConeCnfEncoder): SAT answers must agree with
// exhaustive AIG simulation for every function and every assumption set,
// and only the fanin cones of ensured literals are encoded.
#include "aig/aig.hpp"
#include "aig/cnf.hpp"
#include "sat/solver.hpp"
#include "util/hashing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

using namespace smartly;
using aig::Aig;
using aig::Lit;

TEST(Cnf, ConstantsAreFixed) {
  Aig g;
  (void)g.add_input("a");
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  EXPECT_EQ(s.solve({enc.ensure(aig::kTrue)}), sat::Result::Sat);
  EXPECT_EQ(s.solve({~enc.ensure(aig::kTrue)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({enc.ensure(aig::kFalse)}), sat::Result::Unsat);
}

TEST(Cnf, AndGateSemantics) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit y = g.and_(a, b);
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  (void)enc.ensure(y); // a and b are in its cone

  // y & !a is unsat; y forces a and b.
  EXPECT_EQ(s.solve({enc.lit(y), ~enc.lit(a)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({enc.lit(y), ~enc.lit(b)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({enc.lit(y), enc.lit(a), enc.lit(b)}), sat::Result::Sat);
  // !y with a,b both true is unsat.
  EXPECT_EQ(s.solve({~enc.lit(y), enc.lit(a), enc.lit(b)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({~enc.lit(y), ~enc.lit(a)}), sat::Result::Sat);
}

TEST(Cnf, ComplementedLiteralsMapCorrectly) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit na = aig::lit_not(a);
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  EXPECT_EQ(s.solve({enc.ensure(a), enc.ensure(na)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({enc.ensure(na)}), sat::Result::Sat);
}

namespace {

/// Build a deterministic random AIG with `n_inputs` inputs and `n_ands`
/// random AND gates over existing literals, return all created literals.
std::vector<Lit> random_aig(Aig& g, Rng& rng, int n_inputs, int n_ands) {
  std::vector<Lit> lits{aig::kFalse, aig::kTrue};
  for (int i = 0; i < n_inputs; ++i)
    lits.push_back(g.add_input());
  for (int i = 0; i < n_ands; ++i) {
    Lit a = lits[size_t(rng.range(0, int64_t(lits.size()) - 1))];
    Lit b = lits[size_t(rng.range(0, int64_t(lits.size()) - 1))];
    if (rng.range(0, 1)) a = aig::lit_not(a);
    if (rng.range(0, 1)) b = aig::lit_not(b);
    lits.push_back(g.and_(a, b));
  }
  return lits;
}

class CnfRandomEquiv : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CnfRandomEquiv, SatMatchesExhaustiveSimulation) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Aig g;
  const int n_inputs = int(rng.range(2, 6));
  const auto lits = random_aig(g, rng, n_inputs, int(rng.range(4, 20)));
  const Lit target = lits.back();

  // Exhaustive simulation: is the target satisfiable / falsifiable?
  std::vector<uint64_t> in(size_t(n_inputs), 0);
  bool can_be_1 = false, can_be_0 = false;
  for (uint64_t v = 0; v < (uint64_t(1) << n_inputs); ++v) {
    for (int i = 0; i < n_inputs; ++i)
      in[size_t(i)] = ((v >> i) & 1) ? ~0ull : 0ull;
    const auto words = g.simulate(in);
    if (Aig::sim_lit(words, target) & 1)
      can_be_1 = true;
    else
      can_be_0 = true;
  }

  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  const sat::Lit t = enc.ensure(target);
  EXPECT_EQ(s.solve({t}) == sat::Result::Sat, can_be_1) << "seed " << seed;
  EXPECT_EQ(s.solve({~t}) == sat::Result::Sat, can_be_0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfRandomEquiv, ::testing::Range<uint64_t>(1, 40));

class CnfModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CnfModelCheck, ModelsSatisfyTheCircuit) {
  // Every SAT model returned must actually evaluate the AIG to the assumed
  // values (validates both the encoding and Solver::model_value).
  const uint64_t seed = GetParam();
  Rng rng(seed + 1000);
  Aig g;
  const int n_inputs = int(rng.range(3, 7));
  const auto lits = random_aig(g, rng, n_inputs, int(rng.range(6, 24)));
  const Lit target = lits.back();

  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  const sat::Lit t = enc.ensure(target);
  for (const bool want : {true, false}) {
    const auto r = s.solve({want ? t : ~t});
    if (r != sat::Result::Sat)
      continue;
    // Inputs outside the target's cone have no variable and cannot matter.
    std::vector<uint64_t> in(g.num_inputs(), 0);
    for (size_t i = 0; i < g.num_inputs(); ++i) {
      const uint32_t node = g.inputs()[i];
      const auto& encoded = enc.encoded_inputs();
      if (std::find(encoded.begin(), encoded.end(), node) != encoded.end() &&
          s.model_value(sat::var(enc.lit(aig::mk_lit(node)))))
        in[i] = ~0ull;
    }
    const auto words = g.simulate(in);
    EXPECT_EQ((Aig::sim_lit(words, target) & 1) != 0, want) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfModelCheck, ::testing::Range<uint64_t>(1, 25));

} // namespace

TEST(Cnf, IncrementalAssumptionsDoNotPollute) {
  // Solving under assumptions must not permanently constrain the solver.
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit y = g.and_(a, b);
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  (void)enc.ensure(y); // a and b are in its cone
  EXPECT_EQ(s.solve({enc.lit(y), ~enc.lit(a)}), sat::Result::Unsat);
  // Same query again and a satisfiable one after: both must work.
  EXPECT_EQ(s.solve({enc.lit(y), ~enc.lit(a)}), sat::Result::Unsat);
  EXPECT_EQ(s.solve({enc.lit(y)}), sat::Result::Sat);
  EXPECT_EQ(s.solve({~enc.lit(a)}), sat::Result::Sat);
}

TEST(Cnf, DeepChainUnsatProof) {
  // AND-chain of 64 inputs: output=1 forces all inputs; contradicting any
  // single one is UNSAT.
  Aig g;
  std::vector<Lit> ins;
  Lit acc = aig::kTrue;
  for (int i = 0; i < 64; ++i) {
    ins.push_back(g.add_input());
    acc = g.and_(acc, ins.back());
  }
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  (void)enc.ensure(acc);
  for (int i : {0, 13, 63}) {
    EXPECT_EQ(s.solve({enc.lit(acc), ~enc.lit(ins[size_t(i)])}), sat::Result::Unsat) << i;
  }
  EXPECT_EQ(s.solve({enc.lit(acc)}), sat::Result::Sat);
}

TEST(Cnf, EnsureEncodesOnlyTheFaninCone) {
  // Two disjoint cones: ensuring one gives the other's nodes no variables,
  // and ensuring a literal twice adds nothing.
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit c = g.add_input("c");
  const Lit d = g.add_input("d");
  const Lit y = g.and_(a, aig::lit_not(b));
  const Lit z = g.and_(c, d);
  sat::Solver s;
  aig::CnfTable vars;
  aig::ConeCnfEncoder enc(s, g, vars);
  const sat::Lit sy = enc.ensure(y);
  EXPECT_EQ(s.num_vars(), 3); // y, a, b
  std::vector<uint32_t> inputs = enc.encoded_inputs();
  std::sort(inputs.begin(), inputs.end());
  EXPECT_EQ(inputs, (std::vector<uint32_t>{aig::lit_node(a), aig::lit_node(b)}));
  EXPECT_EQ(enc.ensure(y), sy);
  EXPECT_EQ(s.num_vars(), 3);
  EXPECT_EQ(s.solve({sy, enc.lit(b)}), sat::Result::Unsat);

  const sat::Lit sz = enc.ensure(aig::lit_not(z));
  EXPECT_EQ(s.num_vars(), 6);
  EXPECT_EQ(s.solve({sy, sz, enc.lit(c)}), sat::Result::Sat);
  EXPECT_EQ(s.solve({sy, sz, enc.lit(c), enc.lit(d)}), sat::Result::Unsat);
}

TEST(Cnf, EncodersShareTheCallersTableOneAfterAnother) {
  // Two ANDs over shared inputs. An encoder leaves the caller's table all
  // kNoVar when it goes, so the next encoder numbers its variables exactly
  // as one with a fresh table would.
  aig::Aig g;
  const aig::Lit a = g.add_input(), b = g.add_input(), c = g.add_input();
  const aig::Lit ab = g.and_(a, b), bc = g.and_(b, aig::lit_not(c));
  aig::CnfTable shared;
  for (int round = 0; round < 3; ++round) {
    for (const aig::Lit root : {ab, bc, aig::lit_not(ab)}) {
      sat::Solver s1, s2;
      aig::CnfTable fresh;
      aig::ConeCnfEncoder e1(s1, g, shared), e2(s2, g, fresh);
      EXPECT_EQ(e1.ensure(root), e2.ensure(root));
      EXPECT_EQ(e1.encoded_inputs(), e2.encoded_inputs());
      EXPECT_EQ(s1.num_vars(), s2.num_vars());
      EXPECT_THROW(e1.lit(root == bc ? a : c), std::out_of_range);
    }
    ASSERT_EQ(shared.vars.size(), g.num_nodes());
    for (const sat::Var v : shared.vars)
      EXPECT_EQ(v, aig::ConeCnfEncoder::kNoVar);
  }
}
