// SAT-sweeping (fraig) engine: duplicate-cone / complement-pair / constant
// merges, randomized fraig-then-CEC properties, determinism across parses,
// signature-refinement convergence, NetlistIndex::add_cell maintenance, and
// the structural key shared with opt_merge, plus the EquivClasses classing
// contract (class membership and order, constant classes, counterexamples).
#include "backend/write_rtlil.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_merge.hpp"
#include "opt/pipeline.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "sweep/equiv_classes.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/fault.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

using namespace smartly;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::Port;
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

void expect_equivalent(const Module& gold, const Module& gate, const char* label) {
  const auto r = cec::check_equivalence(gold, gate);
  EXPECT_TRUE(r.equivalent) << label << ": differs at " << r.failing_output;
}

/// Canonical module bit of a one-bit signal.
SigBit canon(const rtlil::NetlistIndex& index, const SigSpec& sig) {
  return index.sigmap()(sig.as_bit());
}

/// One candidate class with its members copied out of the round's flat
/// sweep::ClassSet.
struct TestClass {
  bool constant = false;
  std::vector<sweep::EquivMember> members;
};

/// eq.compute(), one TestClass per class, in the set's class order.
std::vector<TestClass> compute(sweep::EquivClasses& eq) {
  sweep::ClassSet set;
  eq.compute(set);
  std::vector<TestClass> out;
  for (const sweep::EquivClass& c : set.classes)
    out.push_back({c.constant, {set.begin(c), set.end(c)}});
  return out;
}

/// The class holding `bit`, or nullptr.
const TestClass* class_of(const std::vector<TestClass>& classes, const SigBit& bit) {
  for (const TestClass& cls : classes)
    for (const sweep::EquivMember& m : cls.members)
      if (m.bit == bit)
        return &cls;
  return nullptr;
}

} // namespace

// --- EquivClasses: the signature -> class contract -------------------------

TEST(EquivClasses, DuplicatePairFormsOneClassEarliestMemberFirst) {
  // The deep duplicate is created first (lower bit ids, earlier module cell
  // order), so only the topo-position rule can put the shallow And in front.
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  const SigSpec deep = f.mod->And(f.mod->Not(f.mod->Not(SigSpec(b))), SigSpec(a));
  const SigSpec shallow = f.mod->And(SigSpec(a), SigSpec(b));
  f.mod->connect(SigSpec(f.out("y1")), deep);
  f.mod->connect(SigSpec(f.out("y2")), shallow);

  const rtlil::NetlistIndex index(*f.mod);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  const std::vector<TestClass> classes = compute(eq);

  const TestClass* cls = class_of(classes, canon(index, shallow));
  ASSERT_NE(cls, nullptr);
  EXPECT_FALSE(cls->constant);
  ASSERT_EQ(cls->members.size(), 2u);
  EXPECT_EQ(cls->members[0].bit, canon(index, shallow));
  EXPECT_EQ(cls->members[1].bit, canon(index, deep));
  EXPECT_LT(cls->members[0].topo_pos, cls->members[1].topo_pos);
  EXPECT_EQ(cls->members[0].inverted, cls->members[1].inverted);
  EXPECT_EQ(cls->members[0].lit, cls->members[1].lit); // strash already folded them
}

TEST(EquivClasses, ComplementMemberCarriesInverted) {
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  const SigSpec x = f.mod->Xor(SigSpec(a), SigSpec(b));
  const SigSpec xn = f.mod->add_binary(CellType::Xnor, SigSpec(a), SigSpec(b), 1);
  f.mod->connect(SigSpec(f.out("y1")), x);
  f.mod->connect(SigSpec(f.out("y2")), xn);

  const rtlil::NetlistIndex index(*f.mod);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  const std::vector<TestClass> classes = compute(eq);

  const TestClass* cls = class_of(classes, canon(index, x));
  ASSERT_NE(cls, nullptr);
  EXPECT_FALSE(cls->constant);
  ASSERT_EQ(cls->members.size(), 2u);
  EXPECT_EQ(cls->members[0].bit, canon(index, x));
  EXPECT_EQ(cls->members[1].bit, canon(index, xn));
  EXPECT_NE(cls->members[0].inverted, cls->members[1].inverted);
  EXPECT_EQ(cls->members[1].lit, aig::lit_not(cls->members[0].lit));
}

TEST(EquivClasses, SingletonConstantBitWithDriverFormsConstantClass) {
  // a & ~a folds to the constant literal: the only bit on the constant node.
  Fixture f;
  Wire* a = f.in("a");
  const SigSpec zero = f.mod->And(SigSpec(a), f.mod->Not(SigSpec(a)));
  f.mod->connect(SigSpec(f.out("y")), zero);

  const rtlil::NetlistIndex index(*f.mod);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  const std::vector<TestClass> classes = compute(eq);

  const TestClass* cls = class_of(classes, canon(index, zero));
  ASSERT_NE(cls, nullptr);
  EXPECT_TRUE(cls->constant);
  ASSERT_EQ(cls->members.size(), 1u);
  EXPECT_NE(cls->members[0].driver, nullptr);
  EXPECT_FALSE(cls->members[0].inverted); // constant zero, not one
}

TEST(EquivClasses, ClassWithOnlyFreeBitsBesidesItsFrontIsDropped) {
  // With random patterns two free bits share a signature only if one of them
  // also carries a gate's function. A register output that a gate drives too
  // (a multiply-driven net; the index keeps the first driver, the dff) makes
  // q a free bit whose blast literal is a's: {a, q} has no mergeable member.
  Fixture f;
  Wire* a = f.in("a");
  Wire* clk = f.in("clk");
  Wire* q = f.out("q");
  f.mod->add_dff(SigSpec(a), SigSpec(q), SigSpec(clk));
  rtlil::Cell* gate = f.mod->add_cell(CellType::And);
  gate->set_port(Port::A, SigSpec(a));
  gate->set_port(Port::B, SigSpec(a));
  gate->set_port(Port::Y, SigSpec(q));
  gate->infer_widths();

  const rtlil::NetlistIndex index(*f.mod);
  ASSERT_EQ(index.driver(canon(index, SigSpec(q)))->type(), CellType::Dff);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  ASSERT_NE(eq.blast().find(canon(index, SigSpec(q))), aig::kNoLit);
  EXPECT_EQ(eq.blast().find(canon(index, SigSpec(q))),
            eq.blast().find(canon(index, SigSpec(a))));
  EXPECT_TRUE(compute(eq).empty());
}

TEST(EquivClasses, CounterexampleSplitsClassOnNextCompute) {
  // Both comparators read 0 on every random pattern, so simulation puts
  // them in one constant class; a = 0x1234 tells them apart.
  const char* src = "module top(a, y1, y2);\n"
                    "  input [15:0] a;\n"
                    "  output y1;\n"
                    "  output y2;\n"
                    "  assign y1 = (a == 16'h1234);\n"
                    "  assign y2 = (a == 16'h1235);\n"
                    "endmodule\n";
  auto design = verilog::read_verilog(src);
  Module& top = *design->top();
  const rtlil::NetlistIndex index(top);
  const SigBit y1 = canon(index, SigSpec(top.wire("y1")));
  const SigBit y2 = canon(index, SigSpec(top.wire("y2")));

  sweep::EquivClasses eq;
  eq.bind(top, index);
  const std::vector<TestClass> before = compute(eq);
  const TestClass* joint = class_of(before, y1);
  ASSERT_NE(joint, nullptr);
  EXPECT_TRUE(joint->constant);
  EXPECT_EQ(class_of(before, y2), joint);

  sweep::InputAssignment cex;
  for (int i = 0; i < 16; ++i)
    cex.emplace_back(SigBit(top.wire("a"), i), ((0x1234 >> i) & 1) != 0);
  ASSERT_TRUE(eq.add_counterexample(cex));
  EXPECT_EQ(eq.pattern_count(), 1u);

  const std::vector<TestClass> after = compute(eq);
  EXPECT_NE(class_of(after, y1), class_of(after, y2));
  const TestClass* rest = class_of(after, y2);
  ASSERT_NE(rest, nullptr);
  EXPECT_TRUE(rest->constant);
}

TEST(EquivClasses, DuplicateOrOverflowingCounterexampleIsRejected) {
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  f.mod->connect(SigSpec(f.out("y")), f.mod->And(SigSpec(a), SigSpec(b)));
  const rtlil::NetlistIndex index(*f.mod);

  sweep::EquivClassOptions options;
  options.max_patterns = 2;
  sweep::EquivClasses eq(options);
  eq.bind(*f.mod, index);
  const SigBit sa(a, 0), sb(b, 0);

  EXPECT_TRUE(eq.add_counterexample({{sa, true}, {sb, false}}));
  EXPECT_EQ(eq.pattern_count(), 1u);
  // The same assignment in another order is the same pattern.
  EXPECT_FALSE(eq.add_counterexample({{sb, false}, {sa, true}}));
  EXPECT_EQ(eq.pattern_count(), 1u);
  EXPECT_TRUE(eq.add_counterexample({{sa, false}, {sb, true}}));
  EXPECT_EQ(eq.pattern_count(), 2u);
  EXPECT_FALSE(eq.add_counterexample({{sa, true}, {sb, true}})); // pool full
  EXPECT_EQ(eq.pattern_count(), 2u);
}

TEST(EquivClasses, UnreadInputCarryingTwoBitsFormsItsClass) {
  // y = a & a strash-folds onto input a and z = ~a onto its complement. No
  // AND node or output reads a, but its node carries three candidate bits,
  // so it still gets a row and forms the class {a, y, z}.
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* c = f.in("c");
  const SigSpec y = f.mod->And(SigSpec(a), SigSpec(a));
  const SigSpec z = f.mod->Not(SigSpec(a));
  f.mod->connect(SigSpec(f.out("o")), f.mod->And(SigSpec(b), SigSpec(c)));

  const rtlil::NetlistIndex index(*f.mod);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  const std::vector<TestClass> classes = compute(eq);

  const TestClass* cls = class_of(classes, SigBit(a, 0));
  ASSERT_NE(cls, nullptr);
  EXPECT_FALSE(cls->constant);
  ASSERT_EQ(cls->members.size(), 3u);
  const sweep::EquivMember& rep = cls->members[0];
  EXPECT_EQ(rep.bit, SigBit(a, 0));
  EXPECT_EQ(rep.driver, nullptr);
  for (size_t i = 1; i < 3; ++i) {
    const sweep::EquivMember& m = cls->members[i];
    ASSERT_NE(m.driver, nullptr);
    if (m.bit == canon(index, y)) {
      EXPECT_EQ(m.lit, rep.lit);
      EXPECT_EQ(m.inverted, rep.inverted);
    } else {
      EXPECT_EQ(m.bit, canon(index, z));
      EXPECT_EQ(m.lit, aig::lit_not(rep.lit));
      EXPECT_NE(m.inverted, rep.inverted);
    }
  }
}

TEST(EquivClasses, LoneUnreadInputJoinsNoClassAndDrawsNoPad) {
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* u = f.in("u"); // read by nothing: its node carries only u
  const SigSpec y1 = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec y2 =
      f.mod->Not(f.mod->Or(f.mod->Not(SigSpec(a)), f.mod->Not(SigSpec(b))));
  f.mod->connect(SigSpec(f.out("y1")), y1);
  f.mod->connect(SigSpec(f.out("y2")), y2);

  const rtlil::NetlistIndex index(*f.mod);
  sweep::EquivClasses eq;
  eq.bind(*f.mod, index);
  ASSERT_NE(eq.blast().find(SigBit(u, 0)), aig::kNoLit);
  ASSERT_NE(class_of(compute(eq), canon(index, y1)), nullptr);
  EXPECT_EQ(eq.pad_words(), 0u); // no counterexample batch yet

  ASSERT_TRUE(eq.add_counterexample(
      {{SigBit(a, 0), true}, {SigBit(b, 0), false}, {SigBit(u, 0), true}}));
  const std::vector<TestClass> classes = compute(eq);
  EXPECT_EQ(class_of(classes, SigBit(u, 0)), nullptr);
  EXPECT_EQ(eq.pad_words(), 2u); // a and b, one batch each
  compute(eq);
  EXPECT_EQ(eq.pad_words(), 2u); // drawn once
}

namespace {

/// The pattern pool's stable bit hash: wire name, then offset.
uint64_t reference_bit_hash(const SigBit& bit) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bit.wire->name())
    h = hash_combine(h, c);
  return hash_combine(h, static_cast<uint64_t>(bit.offset));
}

/// Classes of the bound blast with every AIG input rendered and every pad
/// drawn, rows grouped by exact equality: what EquivClasses::compute() must
/// return. `cexes` are the counterexamples the pool accepted, in order.
std::vector<TestClass> reference_classes(const sweep::EquivClasses& eq,
                                                 const rtlil::NetlistIndex& index,
                                                 const sweep::EquivClassOptions& options,
                                                 const std::vector<sweep::InputAssignment>& cexes) {
  const aig::Aig& g = eq.blast().aig;
  const size_t base = options.sim_words;
  const size_t words = base + (cexes.size() + 63) / 64;
  const uint64_t pad_seed = sweep::kSignatureSeed ^ 0xf111f111f111f111ULL;
  std::vector<std::vector<uint64_t>> rows(g.num_nodes(), std::vector<uint64_t>(words, 0));
  for (const uint32_t node : g.inputs()) {
    const SigBit& bit = eq.input_bit(node);
    if (!bit.is_wire())
      continue;
    const uint64_t h = reference_bit_hash(bit);
    for (size_t w = 0; w < base; ++w)
      rows[node][w] = Rng(hash_combine(hash_combine(sweep::kSignatureSeed, h), w)).next();
    for (size_t w = base; w < words; ++w) {
      for (size_t lane = 0; lane < 64; ++lane) {
        const size_t p = (w - base) * 64 + lane;
        bool v = (hash_mix(hash_combine(pad_seed, hash_combine(h, p))) & 1) != 0;
        if (p < cexes.size()) {
          for (const auto& [b, value] : cexes[p]) {
            if (b == bit) {
              v = value;
              break;
            }
          }
        }
        rows[node][w] |= uint64_t(v) << lane;
      }
    }
  }
  for (uint32_t n = 1; n < g.num_nodes(); ++n) {
    if (!g.is_and(n))
      continue;
    const aig::Lit f0 = g.fanin0(n), f1 = g.fanin1(n);
    for (size_t w = 0; w < words; ++w)
      rows[n][w] = (rows[aig::lit_node(f0)][w] ^ (aig::lit_compl(f0) ? ~0ULL : 0)) &
                   (rows[aig::lit_node(f1)][w] ^ (aig::lit_compl(f1) ? ~0ULL : 0));
  }

  std::map<std::vector<uint64_t>, std::vector<sweep::EquivMember>> groups;
  eq.blast().for_each_bit([&](const SigBit& bit, aig::Lit lit) {
    std::vector<uint64_t> row = rows[aig::lit_node(lit)];
    const bool flip = (row[0] & 1) != 0;
    for (uint64_t& v : row)
      v = flip ? ~v : v;
    sweep::EquivMember m;
    m.bit = bit;
    m.lit = lit;
    m.inverted = flip != aig::lit_compl(lit);
    rtlil::Cell* driver = index.driver(bit);
    if (driver && driver->type() != CellType::Dff) {
      m.driver = driver;
      m.topo_pos = index.topo_position(driver);
    }
    m.rank = rtlil::bit_id(bit);
    groups[row].push_back(m);
  });
  const auto less = [](const sweep::EquivMember& x, const sweep::EquivMember& y) {
    return x.topo_pos != y.topo_pos ? x.topo_pos < y.topo_pos : x.rank < y.rank;
  };
  std::vector<TestClass> classes;
  for (auto& [row, members] : groups) {
    TestClass cls;
    cls.constant = std::all_of(row.begin(), row.end(), [](uint64_t v) { return v == 0; });
    if (members.size() == 1 && !cls.constant)
      continue;
    cls.members = members;
    std::sort(cls.members.begin(), cls.members.end(), less);
    bool mergeable = false;
    for (size_t i = cls.constant ? 0 : 1; i < cls.members.size(); ++i)
      mergeable = mergeable || cls.members[i].driver != nullptr;
    if (mergeable)
      classes.push_back(std::move(cls));
  }
  std::sort(classes.begin(), classes.end(),
            [&](const TestClass& x, const TestClass& y) {
              return less(x.members.front(), y.members.front());
            });
  return classes;
}

void expect_same_classes(const std::vector<TestClass>& got, const std::vector<TestClass>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].constant, want[i].constant) << where << " class " << i;
    ASSERT_EQ(got[i].members.size(), want[i].members.size()) << where << " class " << i;
    for (size_t k = 0; k < got[i].members.size(); ++k) {
      const sweep::EquivMember& x = got[i].members[k];
      const sweep::EquivMember& y = want[i].members[k];
      EXPECT_TRUE(x.bit == y.bit && x.lit == y.lit && x.inverted == y.inverted &&
                  x.driver == y.driver && x.topo_pos == y.topo_pos && x.rank == y.rank)
          << where << " class " << i << " member " << k;
    }
  }
}

} // namespace

TEST(EquivClasses, RandomNetlistsMatchTheExactReference) {
  // Random netlists plus the cases the classing shortcuts: a folded
  // y = a & a on an otherwise unread input, and two lone unread inputs that
  // a later round starts to read (one assigned by earlier counterexamples,
  // one never assigned), so their slots, rows and pads appear lazily.
  // Counterexamples cross a 64-pattern batch boundary over four rounds.
  size_t classes_seen = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Design design;
    Module* m = benchgen::random_netlist(design, "top", seed, 30);
    Wire* folded = m->add_wire("folded", 1);
    m->set_port_input(folded);
    m->And(SigSpec(folded), SigSpec(folded));
    Wire* late = m->add_wire("late", 2);
    m->set_port_input(late);
    Wire* fresh = m->add_wire("fresh", 4);
    m->set_port_input(fresh);

    // One base batch keeps false candidates around for the counterexample
    // batches to split.
    sweep::EquivClassOptions options;
    options.sim_words = 1;
    sweep::EquivClasses eq(options);
    std::vector<sweep::InputAssignment> accepted;
    std::optional<rtlil::NetlistIndex> index;
    std::map<SigBit, size_t> pads_drawn; // rendered input bit -> batches padded
    Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      if (round == 2) {
        const SigSpec late_and = m->And(SigSpec(late), SigSpec(fresh).extract(0, 2));
        const SigSpec fresh_and = m->ReduceAnd(SigSpec(fresh));
        Wire* po = m->add_wire("late_po", 3);
        m->set_port_output(po);
        SigSpec read = late_and;
        read.append(fresh_and);
        m->connect(SigSpec(po), read);
      }
      if (round == 0 || round == 2) {
        index.emplace(*m);
        eq.bind(*m, *index);
      }
      const std::string where = "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const std::vector<TestClass> got = compute(eq);
      expect_same_classes(got, reference_classes(eq, *index, options, accepted), where);
      classes_seen += got.size();

      // Pads: each rendered input (read by an AND node or an output, or
      // carrying two or more bits) holds one per batch, drawn once.
      const aig::Aig& g = eq.blast().aig;
      std::vector<int> uses(g.num_nodes(), 0);
      for (uint32_t n = 1; n < g.num_nodes(); ++n) {
        if (g.is_and(n)) {
          uses[aig::lit_node(g.fanin0(n))] += 2;
          uses[aig::lit_node(g.fanin1(n))] += 2;
        }
      }
      for (size_t o = 0; o < g.num_outputs(); ++o)
        uses[aig::lit_node(g.output(static_cast<int>(o)))] += 2;
      eq.blast().for_each_bit([&](const SigBit&, aig::Lit lit) { ++uses[aig::lit_node(lit)]; });
      for (const uint32_t node : g.inputs())
        if (uses[node] >= 2 && eq.input_bit(node).is_wire())
          pads_drawn[eq.input_bit(node)] = (accepted.size() + 63) / 64;
      size_t pads = 0;
      for (const auto& [bit, batches] : pads_drawn)
        pads += batches;
      EXPECT_EQ(eq.pad_words(), pads) << where;
      for (int k = 0; k < 30; ++k) {
        sweep::InputAssignment cex;
        for (const uint32_t node : eq.blast().aig.inputs()) {
          const SigBit& bit = eq.input_bit(node);
          if (bit.is_wire() && bit.wire != fresh && rng.chance(0.7))
            cex.emplace_back(bit, rng.chance(0.5));
        }
        if (eq.add_counterexample(cex))
          accepted.push_back(cex);
      }
    }
  }
  EXPECT_GT(classes_seen, 40u);
}

TEST(Fraig, MergesDuplicateCones) {
  // y1 reads a&b, y2 reads the same function built as ~(~a|~b): opt_merge
  // cannot see it (different cells), the fraig engine must.
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* y1 = f.out("y1");
  Wire* y2 = f.out("y2");
  f.mod->connect(SigSpec(y1), f.mod->And(SigSpec(a), SigSpec(b)));
  const SigSpec na = f.mod->Not(SigSpec(a));
  const SigSpec nb = f.mod->Not(SigSpec(b));
  f.mod->connect(SigSpec(y2), f.mod->Not(f.mod->Or(na, nb)));

  const auto golden = rtlil::clone_design(f.design);
  const sweep::FraigStats stats = sweep::fraig_sweep(*f.mod);
  opt::opt_clean(*f.mod);

  EXPECT_GE(stats.proved_equal + stats.proved_structural, 1u);
  EXPECT_EQ(f.mod->cell_count(), 1u); // one And survives
  expect_equivalent(*golden->top(), *f.mod, "duplicate cones");
}

TEST(Fraig, CandidateBitsCountedOnFirstExecutedRound) {
  // candidate_bits is the first classified round's count, also when the
  // recovery layer quarantines round 1 and round 2 classifies first.
  const auto run = [](const util::QuarantineSet* quarantine) {
    Fixture f;
    Wire* a = f.in("a");
    Wire* b = f.in("b");
    f.mod->connect(SigSpec(f.out("y1")), f.mod->And(SigSpec(a), SigSpec(b)));
    const SigSpec na = f.mod->Not(SigSpec(a));
    const SigSpec nb = f.mod->Not(SigSpec(b));
    f.mod->connect(SigSpec(f.out("y2")), f.mod->Not(f.mod->Or(na, nb)));
    sweep::FraigOptions options;
    options.quarantine = quarantine;
    return sweep::fraig_sweep(*f.mod, options);
  };
  const sweep::FraigStats plain = run(nullptr);
  EXPECT_EQ(plain.rounds, 2u);
  EXPECT_EQ(plain.merged_cells, 2u);
  EXPECT_EQ(plain.candidate_bits, 7u);

  util::QuarantineSet quarantine;
  quarantine.add("fraig.round", 1);
  const sweep::FraigStats skipped = run(&quarantine);
  EXPECT_EQ(skipped.quarantined, 1u);
  EXPECT_EQ(skipped.rounds, 2u);
  EXPECT_EQ(skipped.merged_cells, 2u);
  EXPECT_EQ(skipped.candidate_bits, 7u);
}

TEST(Fraig, MergesComplementPairThroughInverter) {
  // y1 = a^b as Xor; y2 = the complement built from and/or gates (not an
  // Xnor cell, so the structural pre-pass and strash cannot fold it).
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* y1 = f.out("y1");
  Wire* y2 = f.out("y2");
  f.mod->connect(SigSpec(y1), f.mod->Xor(SigSpec(a), SigSpec(b)));
  // ~(a^b) == (a&b) | (~a&~b)
  const SigSpec both = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec neither = f.mod->And(f.mod->Not(SigSpec(a)), f.mod->Not(SigSpec(b)));
  f.mod->connect(SigSpec(y2), f.mod->Or(both, neither));

  const auto golden = rtlil::clone_design(f.design);
  const sweep::FraigStats stats = sweep::fraig_sweep(*f.mod);
  opt::opt_clean(*f.mod);

  EXPECT_GE(stats.proved_complement, 1u);
  EXPECT_GE(stats.inverter_cells, 1u);
  // Xor + one inverter beat the 5-cell complement cone.
  EXPECT_EQ(f.mod->cell_count(), 2u);
  EXPECT_EQ(f.mod->count_cells(CellType::Not), 1u);
  expect_equivalent(*golden->top(), *f.mod, "complement pair");
}

TEST(Fraig, DoesNotRebuildExistingInverter) {
  // y2 = ~y1 already is a single inverter of the representative: the engine
  // must leave it alone instead of replacing it with a fresh identical
  // inverter every round (the inverter ping-pong failure mode).
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* y1 = f.out("y1");
  Wire* y2 = f.out("y2");
  const SigSpec x = f.mod->Xor(SigSpec(a), SigSpec(b));
  f.mod->connect(SigSpec(y1), x);
  f.mod->connect(SigSpec(y2), f.mod->Not(x));

  const sweep::FraigStats stats = sweep::fraig_sweep(*f.mod);
  opt::opt_clean(*f.mod);

  EXPECT_EQ(stats.merged_cells, 0u);
  EXPECT_EQ(stats.inverter_cells, 0u);
  EXPECT_LE(stats.rounds, 2u);
  EXPECT_EQ(f.mod->cell_count(), 2u);
}

TEST(Fraig, FoldsConstantNodes) {
  // y = (a & ~a) | (b & ~b) is identically zero but needs SAT (strash does
  // not fold the Or of two distinct constant-zero cones' wires here since
  // each And is over distinct literals... the engine must prove y == 0).
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* y = f.out("y");
  const SigSpec za = f.mod->And(SigSpec(a), f.mod->Not(SigSpec(a)));
  const SigSpec zb = f.mod->And(SigSpec(b), f.mod->Not(SigSpec(b)));
  f.mod->connect(SigSpec(y), f.mod->Or(za, zb));

  const auto golden = rtlil::clone_design(f.design);
  const sweep::FraigStats stats = sweep::fraig_sweep(*f.mod);
  opt::opt_clean(*f.mod);

  EXPECT_GE(stats.proved_constant, 1u);
  EXPECT_EQ(f.mod->cell_count(), 0u);
  expect_equivalent(*golden->top(), *f.mod, "constant node");
}

TEST(Fraig, SignatureRefinementConverges) {
  // Two 16-bit equality comparators against different constants: both are 0
  // on (almost surely) every random pattern, so simulation aliases them with
  // each other and with constant zero. SAT must disprove the candidates, the
  // counterexamples must refine the classes, and the engine must terminate
  // without merging anything.
  const char* src = "module top(a, y1, y2);\n"
                    "  input [15:0] a;\n"
                    "  output y1;\n"
                    "  output y2;\n"
                    "  assign y1 = (a == 16'h1234);\n"
                    "  assign y2 = (a == 16'h1235);\n"
                    "endmodule\n";
  auto design = verilog::read_verilog(src);
  const auto golden = rtlil::clone_design(*design);
  Module& top = *design->top();

  const sweep::FraigStats stats = sweep::fraig_sweep(top);
  opt::opt_clean(top);

  EXPECT_GE(stats.disproved, 1u);
  EXPECT_GE(stats.cex_patterns, 1u);
  EXPECT_LT(stats.rounds, sweep::FraigOptions().max_rounds); // converged, not capped
  EXPECT_EQ(stats.merged_cells, 0u);
  expect_equivalent(*golden->top(), top, "refinement convergence");
}

TEST(Fraig, RandomizedCircuitsStayEquivalent) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto design = verilog::read_verilog(benchgen::random_verilog(seed, 6));
    const auto golden = rtlil::clone_design(*design);
    Module& top = *design->top();
    sweep::fraig_sweep(top);
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "random verilog");
  }
}

TEST(Fraig, RandomizedNetlistsStayEquivalent) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Design design;
    benchgen::random_netlist(design, "top", seed, 24);
    const auto golden = rtlil::clone_design(design);
    Module& top = *design.top();
    sweep::fraig_sweep(top);
    opt::opt_clean(top);
    expect_equivalent(*golden->top(), top, "random netlist");
  }
}

TEST(Fraig, FreshParsesGiveIdenticalNetlistAndStats) {
  // Two parses alive at once put every wire and cell at a different address,
  // so a decision keyed on pointers (hash-map iteration order) shows here.
  const auto circuit = benchgen::public_suite().front();
  auto first = verilog::read_verilog(circuit.verilog);
  auto second = verilog::read_verilog(circuit.verilog);
  const sweep::FraigStats first_stats = sweep::fraig_sweep(*first->top());
  const sweep::FraigStats second_stats = sweep::fraig_sweep(*second->top());
  opt::opt_clean(*first->top());
  opt::opt_clean(*second->top());
  EXPECT_GE(first_stats.merged_cells, 1u); // the determinism check must see real work
  EXPECT_EQ(backend::write_rtlil(*second->top()), backend::write_rtlil(*first->top()));
  EXPECT_TRUE(sweep::same_work(second_stats, first_stats));
}

namespace {

/// opt::fraig_rewrite_loop's stage sequence with a fresh pattern-slot table
/// per fraig stage (fraig_stage without a shared table).
opt::DeepOptStats loop_with_fresh_tables(Module& m, const opt::DeepOptOptions& o) {
  const util::ResourceGuard* guard = o.fraig.guard != nullptr ? o.fraig.guard : o.rewrite.guard;
  const auto halted = [&] { return guard != nullptr && guard->halted(); };
  opt::DeepOptStats stats;
  for (size_t iter = 0; iter < o.max_iterations; ++iter) {
    stats.fraig += opt::fraig_stage(m, o.fraig, o.recovery);
    if (halted())
      return stats;
    const rewrite::RewriteStats rw = opt::rewrite_stage(m, o.rewrite, o.recovery);
    stats.rewrite += rw;
    ++stats.iterations;
    if (halted() || rw.rewrites == 0)
      return stats;
  }
  stats.fraig += opt::fraig_stage(m, o.fraig, o.recovery);
  return stats;
}

} // namespace

TEST(PatternSlots, SharedTableGivesTheResultOfAFreshTablePerStage) {
  // The deep loop shares one slot table across its fraig stages. Its slots
  // are pure functions of the bit names, so the netlist and every counter
  // must equal those of a fresh table per stage — also when the recovery
  // layer rolls a fraig stage back (restore_module gives the restored wires
  // new bit ids) and the retry reads the shared table again.
  struct Case {
    std::string name;
    std::string verilog;
    uint64_t fault_seed; ///< 0: no fault plan, no recovery
  };
  std::vector<Case> cases;
  cases.push_back({"industrial:2",
                   benchgen::generate_industrial(2, 1, 0x5eedULL + 2).verilog, 0});
  for (const char* name : {"wb_conmax", "usb_funct", "riscv"})
    cases.push_back({std::string(name) + ":0",
                     benchgen::generate_circuit(name, benchgen::profile_for(name), 0x5eedULL)
                         .verilog,
                     0});
  cases.push_back({"riscv:0 --recover", cases.back().verilog, 3});

  size_t fraig_rollbacks = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string netlists[2];
    opt::DeepOptStats stats[2];
    for (int shared = 0; shared < 2; ++shared) {
      auto design = verilog::read_verilog(c.verilog);
      Module& top = *design->top();
      core::smartly_flow(top, {});
      opt::RecoveryContext ctx;
      ctx.options.enabled = c.fault_seed != 0;
      // The guard is what tells the transaction that an engine contained
      // an injected fault, so the stage rolls back.
      util::ResourceGuard guard;
      opt::DeepOptOptions deep;
      deep.fraig.guard = &guard;
      deep.rewrite.guard = &guard;
      deep.recovery = c.fault_seed != 0 ? &ctx : nullptr;
      std::optional<util::FaultScope> faults;
      if (c.fault_seed != 0) {
        util::FaultPlan plan;
        plan.seed = c.fault_seed;
        plan.throw_permille = 20;
        plan.site_filter = "fraig";
        faults.emplace(plan);
      }
      stats[shared] = shared ? opt::fraig_rewrite_loop(top, deep)
                             : loop_with_fresh_tables(top, deep);
      netlists[shared] = backend::write_rtlil(top);
      for (const util::RecoveryEvent& ev : ctx.stats.events)
        fraig_rollbacks += shared && ev.stage == "fraig" ? 1 : 0;
    }
    EXPECT_EQ(netlists[1], netlists[0]);
    EXPECT_TRUE(sweep::same_work(stats[1].fraig, stats[0].fraig));
    EXPECT_TRUE(rewrite::same_work(stats[1].rewrite, stats[0].rewrite));
    EXPECT_EQ(stats[1].iterations, stats[0].iterations);
    EXPECT_GE(stats[0].fraig.classes, 1u);
  }
  EXPECT_GE(fraig_rollbacks, 1u); // the recover case must roll a fraig stage back
}

TEST(Fraig, FraigStageComposesWithFlows) {
  // Runnable before and after the muxtree flows: both orders stay equivalent.
  const auto circuit = benchgen::public_suite()[1];
  auto golden = verilog::read_verilog(circuit.verilog);

  {
    auto design = rtlil::clone_design(*golden);
    opt::fraig_stage(*design->top());
    opt::yosys_flow(*design->top());
    expect_equivalent(*golden->top(), *design->top(), "fraig before yosys_flow");
  }
  {
    auto design = rtlil::clone_design(*golden);
    core::SmartlyOptions options;
    options.enable_fraig = true;
    core::smartly_flow(*design->top(), options);
    expect_equivalent(*golden->top(), *design->top(), "smartly_flow with fraig");
  }
}

TEST(NetlistIndexAddCell, MatchesRebuildAfterInverterInsertion) {
  // The incremental-maintenance sequence the fraig engine's barrier performs:
  // remove a duplicate cell, add an inverter at its freed topo position,
  // alias the removed cell's output. The updated index must answer
  // driver/reader queries like a from-scratch rebuild of the edited module.
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* y1 = f.out("y1");
  Wire* y2 = f.out("y2");
  const SigSpec x = f.mod->Xor(SigSpec(a), SigSpec(b));
  f.mod->connect(SigSpec(y1), x);
  const SigSpec nx =
      f.mod->add_binary(CellType::Xnor, SigSpec(a), SigSpec(b), 1); // to be replaced
  f.mod->connect(SigSpec(y2), nx);

  rtlil::NetlistIndex index(*f.mod);
  rtlil::Cell* dup = index.driver(index.sigmap()(nx.as_bit()));
  ASSERT_NE(dup, nullptr);
  const int freed = index.topo_position(dup);

  Wire* w = f.mod->new_wire(1, "$inv");
  rtlil::Cell* inv = f.mod->add_cell(CellType::Not);
  inv->set_port(Port::A, x);
  inv->set_port(Port::Y, SigSpec(w));
  inv->infer_widths();

  opt::SweepJournal journal;
  journal.removed.push_back(dup);
  journal.added.push_back({inv, freed});
  journal.connects.emplace_back(nx, SigSpec(w));
  opt::apply_sweep_journal(*f.mod, index, journal);

  const rtlil::NetlistIndex rebuilt(*f.mod);
  for (const auto& wire : f.mod->wires())
    for (int i = 0; i < wire->width(); ++i) {
      const SigBit bit(wire.get(), i);
      EXPECT_EQ(index.driver(bit), rebuilt.driver(bit)) << wire->name() << "[" << i << "]";
      EXPECT_EQ(index.fanout(bit), rebuilt.fanout(bit)) << wire->name() << "[" << i << "]";
    }
  // Topo order respects the inserted edge: inverter after the xor.
  const auto& topo = index.topo_order();
  const auto xor_pos = std::find(topo.begin(), topo.end(),
                                 index.driver(index.sigmap()(x.as_bit())));
  const auto inv_pos = std::find(topo.begin(), topo.end(), inv);
  ASSERT_NE(xor_pos, topo.end());
  ASSERT_NE(inv_pos, topo.end());
  EXPECT_LT(xor_pos - topo.begin(), inv_pos - topo.begin());
}

TEST(StructuralKey, SharedHashingDrivesOptMerge) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  const rtlil::SigMap sigmap(*f.mod);

  // Commutative normalization: a&b and b&a get one key.
  const SigSpec y1 = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec y2 = f.mod->And(SigSpec(b), SigSpec(a));
  const auto key_of = [&](const SigSpec& y) {
    for (const auto& cptr : f.mod->cells())
      if (cptr->port(Port::Y) == y)
        return sweep::cell_structural_key(*cptr, sigmap);
    ADD_FAILURE() << "cell not found";
    return Hash128{};
  };
  EXPECT_EQ(key_of(y1), key_of(y2));

  // Non-commutative cells keep operand order in the key.
  const SigSpec s1 = f.mod->Sub(SigSpec(a), SigSpec(b), 4);
  const SigSpec s2 = f.mod->Sub(SigSpec(b), SigSpec(a), 4);
  EXPECT_NE(key_of(s1), key_of(s2));

  // opt_merge keyed on the shared fingerprint still merges the And pair.
  Wire* o1 = f.out("o1", 4);
  Wire* o2 = f.out("o2", 4);
  Wire* o3 = f.out("o3", 4);
  Wire* o4 = f.out("o4", 4);
  f.mod->connect(SigSpec(o1), y1);
  f.mod->connect(SigSpec(o2), y2);
  f.mod->connect(SigSpec(o3), s1);
  f.mod->connect(SigSpec(o4), s2);
  EXPECT_EQ(opt::opt_merge(*f.mod), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::Sub), 2u);
}
