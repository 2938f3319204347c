// AIG package: literal encoding, structural hashing (against a reference
// map), constant folding, names on demand, reachability-based area, packed
// simulation, and aigmap bit-blasting (literal tables, AIGER symbols)
// cross-checked against the word-level evaluator.
#include "aig/aig.hpp"
#include "aig/aigmap.hpp"
#include "backend/aiger.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "sim/eval.hpp"
#include "util/hashing.hpp"

#include <gtest/gtest.h>

#include <map>

using namespace smartly;
using aig::Aig;
using aig::Lit;

TEST(AigLit, EncodingRoundTrips) {
  for (uint32_t node : {0u, 1u, 2u, 77u, 123456u}) {
    EXPECT_EQ(aig::lit_node(aig::mk_lit(node, false)), node);
    EXPECT_EQ(aig::lit_node(aig::mk_lit(node, true)), node);
    EXPECT_FALSE(aig::lit_compl(aig::mk_lit(node, false)));
    EXPECT_TRUE(aig::lit_compl(aig::mk_lit(node, true)));
    EXPECT_EQ(aig::lit_not(aig::lit_not(aig::mk_lit(node))), aig::mk_lit(node));
  }
  EXPECT_EQ(aig::kFalse, aig::lit_not(aig::kTrue));
}

TEST(Aig, ConstantFolding) {
  Aig g;
  const Lit a = g.add_input("a");
  EXPECT_EQ(g.and_(a, aig::kFalse), aig::kFalse);
  EXPECT_EQ(g.and_(aig::kFalse, a), aig::kFalse);
  EXPECT_EQ(g.and_(a, aig::kTrue), a);
  EXPECT_EQ(g.and_(aig::kTrue, a), a);
  EXPECT_EQ(g.and_(a, a), a);
  EXPECT_EQ(g.and_(a, aig::lit_not(a)), aig::kFalse);
  EXPECT_EQ(g.num_ands(), 0u) << "no AND node should be created for trivial cases";
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit x = g.and_(a, b);
  const Lit y = g.and_(b, a); // commuted: must strash to the same node
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_ands(), 1u);
  const Lit z = g.and_(aig::lit_not(a), b); // different function: new node
  EXPECT_NE(z, x);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(Aig, StrashMatchesReferenceMapAcrossGrowths) {
  // Random and_ / find_and sequences (complemented fanins, repeats, commuted
  // pairs, inputs added between ANDs) against a std::map model. 6000 ANDs
  // take the table through ten doublings.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Aig g;
    std::map<std::pair<Lit, Lit>, Lit> ref;
    size_t ref_nodes = 1, ref_ands = 0;
    std::vector<Lit> pool;
    std::vector<std::pair<Lit, Lit>> asked;
    // The reference: and_'s folding rules, then a lookup in `ref`.
    const auto fold = [](Lit& a, Lit& b, Lit& out) {
      if (a > b)
        std::swap(a, b);
      if (a == aig::kFalse || a == aig::lit_not(b))
        out = aig::kFalse;
      else if (a == aig::kTrue || a == b)
        out = b;
      else
        return false;
      return true;
    };
    const auto ref_find = [&](Lit a, Lit b) {
      Lit out = aig::kNoLit;
      if (fold(a, b, out))
        return out;
      const auto it = ref.find({a, b});
      return it == ref.end() ? aig::kNoLit : it->second;
    };
    const auto add_input = [&] {
      pool.push_back(g.add_input());
      ++ref_nodes;
    };
    for (int i = 0; i < 8; ++i)
      add_input();
    Rng rng(seed);
    const auto pick = [&] {
      const Lit l = pool[rng.below(pool.size())];
      return rng.chance(0.5) ? aig::lit_not(l) : l;
    };
    while (ref_ands < 6000) {
      Lit a, b;
      const uint64_t op = rng.below(10);
      if (op == 0 && !asked.empty()) {
        // Repeat an earlier pair, commuted half the time.
        std::tie(a, b) = asked[rng.below(asked.size())];
        if (rng.chance(0.5))
          std::swap(a, b);
      } else if (op == 1) {
        a = pick();
        b = rng.chance(0.5) ? a : aig::lit_not(a); // folds
      } else if (op == 2) {
        a = pick();
        b = rng.chance(0.5) ? aig::kTrue : aig::kFalse;
      } else if (op == 3) {
        add_input();
        continue;
      } else {
        a = pick();
        b = pick();
      }
      const Lit want = ref_find(a, b);
      ASSERT_EQ(g.find_and(a, b), want) << "seed " << seed << " ands " << ref_ands;
      if (rng.chance(0.3))
        continue; // probe only: the graph must not change
      const Lit got = g.and_(a, b);
      if (want == aig::kNoLit) {
        ASSERT_EQ(got, aig::mk_lit(static_cast<uint32_t>(ref_nodes)));
        ref.emplace(std::minmax(a, b), got);
        ++ref_nodes;
        ++ref_ands;
        pool.push_back(got);
      } else {
        ASSERT_EQ(got, want);
      }
      asked.emplace_back(a, b);
      ASSERT_EQ(g.num_nodes(), ref_nodes);
      ASSERT_EQ(g.num_ands(), ref_ands);
    }
    // Every stored pair is still found after the last growth, both ways.
    for (const auto& [pair, lit] : ref) {
      EXPECT_EQ(g.find_and(pair.first, pair.second), lit);
      EXPECT_EQ(g.find_and(pair.second, pair.first), lit);
    }
  }
}

TEST(Aig, NamesAreStoredOnlyWhenGiven) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input("b");
  (void)g.add_input();
  g.add_output(a);
  g.add_output(b, "y");
  g.add_output(g.and_(a, b));
  EXPECT_EQ(g.input_name(0), "i0");
  EXPECT_EQ(g.input_name(1), "b");
  EXPECT_EQ(g.input_name(2), "i2");
  EXPECT_EQ(g.output_name(0), "o0");
  EXPECT_EQ(g.output_name(1), "y");
  EXPECT_EQ(g.output_name(2), "o2");
}

TEST(Aig, XorAndMuxBuilders) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit s = g.add_input("s");

  // Truth-table check via packed simulation: 8 assignments in one word.
  const Lit x = g.xor_(a, b);
  const Lit m = g.mux_(s, a, b); // s ? a : b
  g.add_output(x, "x");
  g.add_output(m, "m");

  // Bit i of each word = value in assignment i; enumerate (s,b,a) in 3 bits.
  std::vector<uint64_t> in(3, 0);
  for (int v = 0; v < 8; ++v) {
    if (v & 1) in[0] |= uint64_t(1) << v; // a
    if (v & 2) in[1] |= uint64_t(1) << v; // b
    if (v & 4) in[2] |= uint64_t(1) << v; // s
  }
  const auto words = g.simulate(in);
  for (int v = 0; v < 8; ++v) {
    const bool av = v & 1, bv = v & 2, sv = v & 4;
    EXPECT_EQ((Aig::sim_lit(words, x) >> v) & 1, uint64_t(av ^ bv)) << v;
    EXPECT_EQ((Aig::sim_lit(words, m) >> v) & 1, uint64_t(sv ? av : bv)) << v;
  }
}

TEST(Aig, XorTrivialCases) {
  Aig g;
  const Lit a = g.add_input("a");
  EXPECT_EQ(g.xor_(a, aig::kFalse), a);
  EXPECT_EQ(g.xor_(a, aig::kTrue), aig::lit_not(a));
  EXPECT_EQ(g.xor_(a, a), aig::kFalse);
  EXPECT_EQ(g.xor_(a, aig::lit_not(a)), aig::kTrue);
}

TEST(Aig, MuxTrivialCases) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  EXPECT_EQ(g.mux_(aig::kTrue, a, b), a);
  EXPECT_EQ(g.mux_(aig::kFalse, a, b), b);
  EXPECT_EQ(g.mux_(a, b, b), b);
}

TEST(Aig, CompositeGatesCreateTheirAndsInAFixedOrder) {
  // The second operand's AND first: and(~a, b) before and(a, ~b), and
  // and(~s, e) before and(s, t). AIGER output numbers nodes in this order.
  Aig g;
  const Lit a = g.add_input("a"); // node 1
  const Lit b = g.add_input("b"); // node 2
  const Lit s = g.add_input("s"); // node 3
  (void)g.xor_(a, b);
  EXPECT_EQ(g.find_and(aig::lit_not(a), b), aig::mk_lit(4));
  EXPECT_EQ(g.find_and(a, aig::lit_not(b)), aig::mk_lit(5));
  (void)g.mux_(s, a, b); // s ? a : b
  EXPECT_EQ(g.find_and(aig::lit_not(s), b), aig::mk_lit(7));
  EXPECT_EQ(g.find_and(s, a), aig::mk_lit(8));
}

TEST(Aig, GateProbesResolveExactlyWhenTheGateAddsNoNode) {
  // find_or / find_xor / find_mux against or_ / xor_ / mux_ on random
  // graphs: a probe returns kNoLit exactly when the gate, built on a copy of
  // the graph, adds a node, and the gate's literal otherwise. Operands
  // include constants, complements, repeats and kNoLit.
  enum Gate : uint64_t { Or, Xor, Mux };
  struct Query {
    Gate gate;
    Lit a, b, c;
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Aig g;
    std::vector<Lit> pool;
    for (int i = 0; i < 6; ++i)
      pool.push_back(g.add_input());
    std::vector<Query> asked;
    Rng rng(seed);
    const auto pick = [&]() -> Lit {
      switch (rng.below(16)) {
      case 0: return aig::kNoLit;
      case 1: return aig::kFalse;
      case 2: return aig::kTrue;
      default: break;
      }
      const Lit l = pool[rng.below(pool.size())];
      return rng.chance(0.5) ? aig::lit_not(l) : l;
    };
    size_t resolved = 0, grown = 0, no_operand = 0;
    for (int step = 0; step < 3000; ++step) {
      Query q{static_cast<Gate>(rng.below(3)), pick(), pick(), pick()};
      if (!asked.empty() && rng.chance(0.2)) {
        q = asked[rng.below(asked.size())]; // hits the strash, not the folding
        if (q.gate != Mux && rng.chance(0.5))
          std::swap(q.a, q.b);
      } else if (rng.chance(0.2)) {
        q.b = rng.chance(0.5) ? q.a : aig::find_not(q.a); // folding cases
      } else if (rng.chance(0.1)) {
        q.c = q.b;
      }
      const Lit found = q.gate == Or    ? g.find_or(q.a, q.b)
                        : q.gate == Xor ? g.find_xor(q.a, q.b)
                                        : g.find_mux(q.a, q.b, q.c);
      if (q.a == aig::kNoLit || q.b == aig::kNoLit || (q.gate == Mux && q.c == aig::kNoLit)) {
        ASSERT_EQ(found, aig::kNoLit) << "seed " << seed << " step " << step;
        ++no_operand;
        continue;
      }
      Aig copy = g;
      const Lit built = q.gate == Or    ? copy.or_(q.a, q.b)
                        : q.gate == Xor ? copy.xor_(q.a, q.b)
                                        : copy.mux_(q.a, q.b, q.c);
      if (copy.num_nodes() > g.num_nodes()) {
        ASSERT_EQ(found, aig::kNoLit) << "seed " << seed << " step " << step;
        ++grown;
      } else {
        ASSERT_EQ(found, built) << "seed " << seed << " step " << step;
        ++resolved;
      }
      if (rng.chance(0.5)) { // keep the gate: the graph grows
        g = std::move(copy);
        pool.push_back(built);
        asked.push_back(q);
      }
    }
    EXPECT_GT(resolved, 300u);
    EXPECT_GT(grown, 300u);
    EXPECT_GT(no_operand, 100u);
  }
}

TEST(Aig, ReachableAreaIgnoresDeadNodes) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit used = g.and_(a, b);
  (void)g.and_(aig::lit_not(a), aig::lit_not(b)); // dead
  g.add_output(used, "y");
  EXPECT_EQ(g.num_ands(), 2u);
  EXPECT_EQ(g.num_ands_reachable(), 1u);
}

TEST(Aig, ReachableAreaConstOutput) {
  Aig g;
  (void)g.add_input("a");
  g.add_output(aig::kTrue, "one");
  EXPECT_EQ(g.num_ands_reachable(), 0u);
}

TEST(Aig, SimulateHandlesComplementedOutputs) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit na = aig::lit_not(a);
  const std::vector<uint64_t> in{0xF0F0F0F0F0F0F0F0ull};
  const auto words = g.simulate(in);
  EXPECT_EQ(Aig::sim_lit(words, a), 0xF0F0F0F0F0F0F0F0ull);
  EXPECT_EQ(Aig::sim_lit(words, na), ~0xF0F0F0F0F0F0F0F0ull);
  EXPECT_EQ(Aig::sim_lit(words, aig::kTrue), ~0ull);
  EXPECT_EQ(Aig::sim_lit(words, aig::kFalse), 0ull);
}

// ---------------------------------------------------------------------------
// aigmap: bit-blasting RTLIL cells, cross-checked against sim::Evaluator.
// ---------------------------------------------------------------------------

namespace {

using rtlil::CellType;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigSpec;
using rtlil::Wire;

/// Exhaustively compare `module` (single output port "y") against the
/// word-level evaluator over all input assignments (total input bits <= 16).
void check_aigmap_vs_eval(Module& module) {
  const aig::AigMap m = aig::aigmap(module);
  const rtlil::SigMap sm(module); // m.find takes canonical SigBits

  std::vector<Wire*> ins;
  int total_bits = 0;
  for (const auto& w : module.wires())
    if (w->port_input) {
      ins.push_back(w.get());
      total_bits += w->width();
    }
  ASSERT_LE(total_bits, 16) << "test circuit too wide for exhaustive check";

  Wire* yw = module.wire("y");
  ASSERT_NE(yw, nullptr);

  for (uint64_t v = 0; v < (uint64_t(1) << total_bits); ++v) {
    sim::Evaluator ev(module);
    // Drive AIG inputs by name lookup.
    std::vector<uint64_t> aig_in(m.aig.num_inputs(), 0);
    int bit_cursor = 0;
    for (Wire* w : ins) {
      const uint64_t val = (v >> bit_cursor) & ((uint64_t(1) << w->width()) - 1);
      bit_cursor += w->width();
      ev.set_input(w, Const(val, w->width()));
      for (int i = 0; i < w->width(); ++i) {
        const aig::Lit l = m.find(sm(rtlil::SigBit(w, i)));
        if (l == aig::kNoLit)
          continue;
        ASSERT_TRUE(m.aig.is_input(aig::lit_node(l)));
        // Find the input index of that node.
        for (size_t k = 0; k < m.aig.inputs().size(); ++k)
          if (m.aig.inputs()[k] == aig::lit_node(l))
            aig_in[k] = ((val >> i) & 1) ? ~0ull : 0ull;
      }
    }
    ev.run();
    const Const want = ev.value(SigSpec(yw));
    const auto words = m.aig.simulate(aig_in);
    for (int i = 0; i < yw->width(); ++i) {
      if (want[i] != rtlil::State::S0 && want[i] != rtlil::State::S1)
        continue; // x result: aigmap resolves x to 0 by design
      const rtlil::SigBit canon = sm(rtlil::SigBit(yw, i));
      if (canon.is_const()) {
        EXPECT_EQ(canon.data, want[i]) << "v=" << v << " bit=" << i;
        continue;
      }
      const aig::Lit l = m.find(canon);
      ASSERT_NE(l, aig::kNoLit);
      const uint64_t got = Aig::sim_lit(words, l) & 1;
      EXPECT_EQ(got, want[i] == rtlil::State::S1 ? 1u : 0u)
          << "v=" << v << " bit=" << i;
    }
  }
}

struct CellCase {
  CellType type;
  int aw, bw, yw;
  bool binary;
};

class AigmapCellTest : public ::testing::TestWithParam<CellCase> {};

TEST_P(AigmapCellTest, MatchesEvaluatorExhaustively) {
  const CellCase c = GetParam();
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", c.aw);
  mod->set_port_input(a);
  Wire* y = mod->add_wire("y", c.yw);
  mod->set_port_output(y);
  if (c.binary) {
    Wire* b = mod->add_wire("b", c.bw);
    mod->set_port_input(b);
    mod->connect(SigSpec(y), mod->add_binary(c.type, SigSpec(a), SigSpec(b), c.yw));
  } else {
    mod->connect(SigSpec(y), mod->add_unary(c.type, SigSpec(a), c.yw));
  }
  check_aigmap_vs_eval(*mod);
}

INSTANTIATE_TEST_SUITE_P(
    AllCellTypes, AigmapCellTest,
    ::testing::Values(
        CellCase{CellType::Not, 3, 0, 3, false},
        CellCase{CellType::Pos, 3, 0, 5, false},
        CellCase{CellType::Neg, 3, 0, 3, false},
        CellCase{CellType::ReduceAnd, 4, 0, 1, false},
        CellCase{CellType::ReduceOr, 4, 0, 1, false},
        CellCase{CellType::ReduceXor, 4, 0, 1, false},
        CellCase{CellType::ReduceXnor, 4, 0, 1, false},
        CellCase{CellType::LogicNot, 3, 0, 1, false},
        CellCase{CellType::And, 3, 3, 3, true},
        CellCase{CellType::Or, 3, 3, 3, true},
        CellCase{CellType::Xor, 3, 3, 3, true},
        CellCase{CellType::Xnor, 3, 3, 3, true},
        CellCase{CellType::Add, 4, 4, 5, true},
        CellCase{CellType::Sub, 4, 4, 4, true},
        CellCase{CellType::Mul, 3, 3, 6, true},
        CellCase{CellType::Shl, 4, 2, 4, true},
        CellCase{CellType::Shr, 4, 2, 4, true},
        CellCase{CellType::Lt, 3, 3, 1, true},
        CellCase{CellType::Le, 3, 3, 1, true},
        CellCase{CellType::Eq, 3, 3, 1, true},
        CellCase{CellType::Ne, 3, 3, 1, true},
        CellCase{CellType::Ge, 3, 3, 1, true},
        CellCase{CellType::Gt, 3, 3, 1, true},
        CellCase{CellType::LogicAnd, 2, 2, 1, true},
        CellCase{CellType::LogicOr, 2, 2, 1, true},
        CellCase{CellType::Add, 3, 5, 6, true},  // mixed widths
        CellCase{CellType::Eq, 2, 5, 1, true}),
    [](const ::testing::TestParamInfo<CellCase>& info) {
      std::string type_name;
      for (const char* p = rtlil::cell_type_name(info.param.type); *p; ++p)
        if (std::isalnum(static_cast<unsigned char>(*p)))
          type_name.push_back(*p);
      return type_name + "_" + std::to_string(info.param.aw) + "_" +
             std::to_string(info.param.bw) + "_" + std::to_string(info.param.yw) + "_" +
             std::to_string(info.index);
    });

TEST(Aigmap, MuxCell) {
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", 3);
  Wire* b = mod->add_wire("b", 3);
  Wire* s = mod->add_wire("s", 1);
  Wire* y = mod->add_wire("y", 3);
  mod->set_port_input(a);
  mod->set_port_input(b);
  mod->set_port_input(s);
  mod->set_port_output(y);
  mod->add_mux(SigSpec(a), SigSpec(b), SigSpec(s), SigSpec(y));
  check_aigmap_vs_eval(*mod);
}

TEST(Aigmap, PmuxCell) {
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", 2);
  Wire* b = mod->add_wire("b", 6); // 3 parts of width 2
  Wire* s = mod->add_wire("s", 3);
  Wire* y = mod->add_wire("y", 2);
  mod->set_port_input(a);
  mod->set_port_input(b);
  mod->set_port_input(s);
  mod->set_port_output(y);
  mod->add_pmux(SigSpec(a), SigSpec(b), SigSpec(s), SigSpec(y));
  check_aigmap_vs_eval(*mod);
}

TEST(Aigmap, DffIsCut) {
  // q <= d; y = q & e. The AIG must expose q as input and d as output.
  Design d;
  Module* mod = d.add_module("top");
  Wire* clk = mod->add_wire("clk", 1);
  Wire* din = mod->add_wire("din", 4);
  Wire* q = mod->add_wire("q", 4);
  Wire* y = mod->add_wire("y", 4);
  mod->set_port_input(clk);
  mod->set_port_input(din);
  mod->set_port_output(y);
  mod->add_dff(SigSpec(din), SigSpec(q), SigSpec(clk));
  mod->connect(SigSpec(y), mod->And(SigSpec(q), SigSpec(din)));

  const aig::AigMap m = aig::aigmap(*mod);
  // Inputs: clk? No — clk is not part of combinational logic; but din (4) and
  // q (4) must be inputs. Outputs: y (4) and dff D (4).
  EXPECT_GE(m.aig.num_inputs(), 8u);
  EXPECT_EQ(m.aig.num_outputs(), 8u);
  EXPECT_EQ(m.aig.num_ands_reachable(), 4u); // the AND only
}

TEST(Aigmap, AreaOfConstantModuleIsZero) {
  Design d;
  Module* mod = d.add_module("top");
  Wire* y = mod->add_wire("y", 4);
  mod->set_port_output(y);
  mod->connect(SigSpec(y), SigSpec(Const(9, 4)));
  EXPECT_EQ(aig::aig_area(*mod), 0u);
}

TEST(Aigmap, SharedSubexpressionMapsOnce) {
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", 1);
  Wire* b = mod->add_wire("b", 1);
  Wire* y = mod->add_wire("y", 2);
  mod->set_port_input(a);
  mod->set_port_input(b);
  mod->set_port_output(y);
  const SigSpec g = mod->And(SigSpec(a), SigSpec(b));
  mod->connect(SigSpec(y).extract(0, 1), g);
  mod->connect(SigSpec(y).extract(1, 1), g);
  EXPECT_EQ(aig::aig_area(*mod), 1u);
}

TEST(Aigmap, LiteralTableFindsCanonicalBitsOnly) {
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", 2);
  Wire* b = mod->add_wire("b", 1);
  Wire* spare = mod->add_wire("spare", 2); // read and driven by nothing
  Wire* y = mod->add_wire("y", 2);
  mod->set_port_input(a);
  mod->set_port_input(b);
  mod->set_port_output(y);
  const SigSpec and_out = mod->And(SigSpec(a), rtlil::sig_repeat(rtlil::SigBit(b, 0), 2));
  mod->connect(SigSpec(y), and_out); // y aliases the cell output

  const aig::AigMap m = aig::aigmap(*mod);
  const rtlil::SigMap sm(*mod);
  EXPECT_EQ(m.find(rtlil::SigBit(rtlil::State::S0)), aig::kNoLit);
  EXPECT_EQ(m.find(rtlil::SigBit(rtlil::State::S1)), aig::kNoLit);
  EXPECT_EQ(m.find(rtlil::SigBit(spare, 0)), aig::kNoLit);
  EXPECT_EQ(m.find(rtlil::SigBit(spare, 1)), aig::kNoLit);
  ASSERT_NE(sm(rtlil::SigBit(y, 0)), rtlil::SigBit(y, 0));
  EXPECT_EQ(m.find(rtlil::SigBit(y, 0)), aig::kNoLit); // not canonical
  EXPECT_NE(m.find(sm(rtlil::SigBit(y, 0))), aig::kNoLit);
  Wire* late = mod->add_wire("late", 1); // created after the blast
  EXPECT_EQ(m.find(rtlil::SigBit(late, 0)), aig::kNoLit);
  Design other;
  Wire* foreign = other.add_module("other")->add_wire("a", 2);
  EXPECT_EQ(m.find(rtlil::SigBit(foreign, 0)), aig::kNoLit);

  // The id-order walk visits exactly the bits find() maps, ascending.
  std::vector<std::pair<rtlil::SigBit, Lit>> seen;
  m.for_each_bit([&](const rtlil::SigBit& bit, Lit lit) { seen.emplace_back(bit, lit); });
  std::vector<std::pair<rtlil::SigBit, Lit>> want;
  for (const auto& w : mod->wires())
    for (int i = 0; i < w->width(); ++i)
      if (m.find(rtlil::SigBit(w.get(), i)) != aig::kNoLit)
        want.emplace_back(rtlil::SigBit(w.get(), i), m.find(rtlil::SigBit(w.get(), i)));
  EXPECT_EQ(seen, want);
  ASSERT_EQ(seen.size(), 5u); // a[0..1], b[0], and_out[0..1]
  for (size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(sm(seen[k].first), seen[k].first);
    if (k > 0) {
      EXPECT_LT(rtlil::bit_id(seen[k - 1].first), rtlil::bit_id(seen[k].first));
    }
  }
  EXPECT_EQ(seen[0].first, rtlil::SigBit(a, 0));
  EXPECT_EQ(seen[4].first, and_out[1]);
}

TEST(Aigmap, ConeTableHoldsOnlyTheCone) {
  // y = (a & b) | c: blasting the Or cell alone makes its fanins cone inputs.
  Design d;
  Module* mod = d.add_module("top");
  Wire* a = mod->add_wire("a", 1);
  Wire* b = mod->add_wire("b", 1);
  Wire* c = mod->add_wire("c", 1);
  Wire* y = mod->add_wire("y", 1);
  mod->set_port_input(a);
  mod->set_port_input(b);
  mod->set_port_input(c);
  mod->set_port_output(y);
  const SigSpec ab = mod->And(SigSpec(a), SigSpec(b));
  const SigSpec out = mod->Or(ab, SigSpec(c));
  mod->connect(SigSpec(y), out);
  const rtlil::NetlistIndex index(*mod);
  const rtlil::SigBit root = index.sigmap()(rtlil::SigBit(y, 0));
  const aig::ConeMap m = aig::aigmap_cone(*mod, index, {index.driver(root)}, {root});
  EXPECT_EQ(m.aig.num_inputs(), 2u);
  EXPECT_EQ(m.aig.num_ands(), 1u);
  EXPECT_NE(m.find(root), aig::kNoLit);
  EXPECT_NE(m.find(ab[0]), aig::kNoLit);
  EXPECT_NE(m.find(rtlil::SigBit(c, 0)), aig::kNoLit);
  EXPECT_EQ(m.find(rtlil::SigBit(a, 0)), aig::kNoLit); // behind the cone input
  EXPECT_EQ(m.find(rtlil::SigBit(rtlil::State::S1)), aig::kNoLit);
  EXPECT_EQ(m.aig.output_name(0), "o0");
  EXPECT_EQ(m.aig.input_name(0), "i0");
}

TEST(Aigmap, NamedBlastKeepsTheAigerSymbolTable) {
  // Multi-bit ports, a register (Q bits become inputs, D cones outputs named
  // after Q), an undriven wire (inputs named after the canonical bit) and an
  // output port aliasing an input bit.
  Design d;
  Module* mod = d.add_module("top");
  const auto in = [&](const char* name, int width) {
    Wire* w = mod->add_wire(name, width);
    mod->set_port_input(w);
    return w;
  };
  const auto out = [&](const char* name, int width) {
    Wire* w = mod->add_wire(name, width);
    mod->set_port_output(w);
    return w;
  };
  Wire* clk = in("clk", 1);
  Wire* a = in("a", 3);
  Wire* b = in("b", 2);
  Wire* q = mod->add_wire("q", 3);
  Wire* u = mod->add_wire("u", 2);
  Wire* y = out("y", 3);
  Wire* z = out("z", 2);
  Wire* w = out("w", 1);
  mod->add_dff(mod->Xor(SigSpec(a), SigSpec(q)), SigSpec(q), SigSpec(clk));
  mod->connect(SigSpec(y), mod->And(SigSpec(q), SigSpec(a)));
  mod->connect(SigSpec(z), mod->Or(SigSpec(b), SigSpec(u)));
  mod->connect(SigSpec(w), SigSpec(b).extract(1, 1));

  const std::string want = "aag 25 11 0 9 14\n"
                            "2\n"
                            "4\n"
                            "6\n"
                            "8\n"
                            "10\n"
                            "12\n"
                            "14\n"
                            "16\n"
                            "18\n"
                            "20\n"
                            "22\n"
                            "42\n"
                            "44\n"
                            "46\n"
                            "49\n"
                            "51\n"
                            "12\n"
                            "29\n"
                            "35\n"
                            "41\n"
                            "24 5 14\n"
                            "26 4 15\n"
                            "28 25 27\n"
                            "30 7 16\n"
                            "32 6 17\n"
                            "34 31 33\n"
                            "36 9 18\n"
                            "38 8 19\n"
                            "40 37 39\n"
                            "42 4 14\n"
                            "44 6 16\n"
                            "46 8 18\n"
                            "48 11 21\n"
                            "50 13 23\n"
                            "i0 clk[0]\n"
                            "i1 a[0]\n"
                            "i2 a[1]\n"
                            "i3 a[2]\n"
                            "i4 b[0]\n"
                            "i5 b[1]\n"
                            "i6 q[0]\n"
                            "i7 q[1]\n"
                            "i8 q[2]\n"
                            "i9 u[0]\n"
                            "i10 u[1]\n"
                            "o0 y[0]\n"
                            "o1 y[1]\n"
                            "o2 y[2]\n"
                            "o3 z[0]\n"
                            "o4 z[1]\n"
                            "o5 w[0]\n"
                            "o6 q[0].D\n"
                            "o7 q[1].D\n"
                            "o8 q[2].D\n";
  EXPECT_EQ(backend::write_aiger_ascii(aig::aigmap_named(*mod).aig), want);

  // The plain blast builds the same graph without names.
  const aig::AigMap plain = aig::aigmap(*mod);
  const std::string text = backend::write_aiger_ascii(plain.aig);
  EXPECT_EQ(text.substr(0, text.find("i0 ")), want.substr(0, want.find("i0 ")));
  EXPECT_EQ(plain.aig.input_name(1), "i1");
  EXPECT_EQ(plain.aig.output_name(6), "o6");
}

} // namespace
