// SAT-sweeping (fraig) engine: duplicate-cone / complement-pair / constant
// merges, randomized fraig-then-CEC properties, determinism across parses,
// signature-refinement convergence, NetlistIndex::add_cell maintenance, and
// the structural key shared with opt_merge.
#include "backend/write_rtlil.hpp"
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
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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

} // namespace

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
  index.sigmap().flatten();
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
