// opt_expr: constant folding and identity simplification. Checked both
// structurally (cells disappear) and semantically (evaluator agreement).
#include "aig/aigmap.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "rtlil/design_stats.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "sim/eval.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace smartly;
using rtlil::CellType;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;
using rtlil::Wire;

namespace {

struct Fixture {
  Design design;
  Module* mod;
  explicit Fixture() { mod = design.add_module("top"); }

  Wire* in(const char* name, int w) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_input(x);
    return x;
  }
  Wire* out(const char* name, int w) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_output(x);
    return x;
  }
};

/// Canonical value of output `y` under the module's connections.
Const out_const(Module& mod, Wire* y) {
  const rtlil::SigMap sm(mod);
  const SigSpec canon = sm(SigSpec(y));
  EXPECT_TRUE(canon.is_fully_const()) << "output not fully folded";
  return canon.as_const();
}

/// The `cell` and `connect` lines of the module's dump, in order.
std::string cells_and_connections(const Module& mod) {
  std::istringstream dump(rtlil::dump_module(mod));
  std::string out, line;
  while (std::getline(dump, line))
    if (line.rfind("  cell ", 0) == 0 || line.rfind("  connect ", 0) == 0)
      out += line + "\n";
  return out;
}

} // namespace

TEST(OptExpr, FoldsFullyConstantAnd) {
  Fixture f;
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y),
                 f.mod->add_binary(CellType::And, Const(0b1100, 4), Const(0b1010, 4), 4));
  const auto stats = opt::opt_expr(*f.mod);
  EXPECT_GE(stats.folded_cells, 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 0b1000u);
}

TEST(OptExpr, FoldsConstantChain) {
  Fixture f;
  Wire* y = f.out("y", 8);
  const SigSpec s1 = f.mod->Add(SigSpec(Const(3, 8)), SigSpec(Const(4, 8)), 8);
  const SigSpec s2 = f.mod->add_binary(CellType::Mul, s1, SigSpec(Const(6, 8)), 8);
  f.mod->connect(SigSpec(y), s2);
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->cell_count(), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 42u);
}

TEST(OptExpr, MuxWithConstantSelect) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->add_mux(SigSpec(a), SigSpec(b), SigSpec(State::S0), SigSpec(y0));
  f.mod->add_mux(SigSpec(a), SigSpec(b), SigSpec(State::S1), SigSpec(y1));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Mux), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y0)), sm(SigSpec(a)));
  EXPECT_EQ(sm(SigSpec(y1)), sm(SigSpec(b)));
}

TEST(OptExpr, MuxWithEqualBranchesCollapses) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* s = f.in("s", 1);
  Wire* y = f.out("y", 4);
  f.mod->add_mux(SigSpec(a), SigSpec(a), SigSpec(s), SigSpec(y));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Mux), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, AndWithZeroIsZero) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->And(SigSpec(a), SigSpec(Const(0, 4))));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 0u);
}

TEST(OptExpr, AndWithAllOnesIsIdentity) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->And(SigSpec(a), SigSpec(Const(0xF, 4))));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, OrWithZeroIsIdentity) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Or(SigSpec(a), SigSpec(Const(0, 4))));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Or), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, XorWithSelfIsZero) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Xor(SigSpec(a), SigSpec(a)));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Xor), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 0u);
}

TEST(OptExpr, EqOfIdenticalSignalsIsOne) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 1);
  f.mod->connect(SigSpec(y), f.mod->Eq(SigSpec(a), SigSpec(a)));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Eq), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 1u);
}

TEST(OptExpr, DoesNotTouchOpaqueCells) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->And(SigSpec(a), SigSpec(b)));
  const auto stats = opt::opt_expr(*f.mod);
  EXPECT_EQ(stats.folded_cells, 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 1u);
}

TEST(OptExpr, RunsToFixpointThroughLayers) {
  // not(not(const)) nested 6 deep folds completely in one opt_expr call.
  Fixture f;
  Wire* y = f.out("y", 1);
  SigSpec v = SigSpec(State::S1);
  for (int i = 0; i < 6; ++i)
    v = f.mod->Not(v);
  f.mod->connect(SigSpec(y), v);
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->cell_count(), 0u);
  EXPECT_EQ(out_const(*f.mod, y)[0], State::S1);
}

TEST(OptExpr, PreservesSemanticsOnMixedCircuit) {
  // Fold a circuit with a mix of constant and opaque logic, then verify the
  // result matches the unoptimized evaluation for all inputs.
  Fixture f;
  Wire* a = f.in("a", 3);
  Wire* y = f.out("y", 3);
  const SigSpec t1 = f.mod->And(SigSpec(a), SigSpec(Const(5, 3)));   // a & 3'b101
  const SigSpec t2 = f.mod->Xor(t1, SigSpec(Const(0, 3)));           // identity
  const SigSpec t3 = f.mod->Or(t2, f.mod->And(SigSpec(Const(2, 3)), SigSpec(Const(6, 3))));
  f.mod->connect(SigSpec(y), t3);

  // Reference values before optimization.
  std::vector<uint64_t> want;
  for (uint64_t v = 0; v < 8; ++v) {
    sim::Evaluator ev(*f.mod);
    ev.set_input(a, Const(v, 3));
    ev.run();
    want.push_back(ev.value(SigSpec(y)).as_uint());
  }

  opt::opt_expr(*f.mod);
  opt::opt_clean(*f.mod);

  for (uint64_t v = 0; v < 8; ++v) {
    sim::Evaluator ev(*f.mod);
    ev.set_input(a, Const(v, 3));
    ev.run();
    EXPECT_EQ(ev.value(SigSpec(y)).as_uint(), want[v]) << "v=" << v;
  }
  EXPECT_LE(f.mod->cell_count(), 2u);
}

TEST(OptExpr, SimplifiesIdentityChainToWires) {
  Fixture f;
  Wire* a = f.in("a", 8);
  Wire* y = f.out("y", 8);
  // (a & 0) | (a ^ a) | (a + 0): everything folds to a. (The AIG area is
  // already 0 before opt_expr — aigmap constant-folds — so the observable
  // effect is at the cell level.)
  const SigSpec t1 = f.mod->And(SigSpec(a), SigSpec(Const(0, 8)));
  const SigSpec t2 = f.mod->Xor(SigSpec(a), SigSpec(a));
  const SigSpec t3 = f.mod->Add(SigSpec(a), SigSpec(Const(0, 8)), 8);
  f.mod->connect(SigSpec(y), f.mod->Or(f.mod->Or(t1, t2), t3));
  const size_t area_before = aig::aig_area(*f.mod);
  opt::opt_expr(*f.mod);
  opt::opt_clean(*f.mod);
  EXPECT_EQ(f.mod->cell_count(), 0u);
  EXPECT_LE(aig::aig_area(*f.mod), area_before);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, XorWithZeroIsIdentity) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Xor(SigSpec(a), SigSpec(Const(0, 4))));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Xor), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, XorWithAllOnesBecomesNot) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Xor(SigSpec(a), SigSpec(Const(0xF, 4))));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Xor), 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::Not), 1u);
}

TEST(OptExpr, SubOfSelfIsZero) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Sub(SigSpec(a), SigSpec(a), 4));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Sub), 0u);
  EXPECT_EQ(out_const(*f.mod, y).as_uint(), 0u);
}

TEST(OptExpr, AddWithZeroIsIdentity) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->Add(SigSpec(a), SigSpec(Const(0, 4)), 4));
  opt::opt_expr(*f.mod);
  EXPECT_EQ(f.mod->count_cells(CellType::Add), 0u);
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y)), sm(SigSpec(a)));
}

TEST(OptExpr, AddedCellDoesNotInvalidateTheCellLoop) {
  // Two cells fill the cell list; turning the xnor with zero into a $not
  // adds a third, which moves the list while the loop still has the $and to
  // visit.
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  Wire* z = f.out("z", 4);
  f.mod->connect(SigSpec(y),
                 f.mod->add_binary(CellType::Xnor, SigSpec(a), SigSpec(Const(0, 4)), 4));
  f.mod->connect(SigSpec(z), f.mod->And(SigSpec(a), SigSpec(b)));
  ASSERT_EQ(f.mod->cells().size(), f.mod->cells().capacity());

  const auto stats = opt::opt_expr(*f.mod);
  EXPECT_EQ(stats.simplified_cells, 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::Xnor), 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::Not), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 1u);
  sim::Evaluator ev(*f.mod);
  ev.set_input(a, Const(0b1010, 4));
  ev.set_input(b, Const(0b0110, 4));
  ev.run();
  EXPECT_EQ(ev.value(SigSpec(y)).as_uint(), 0b0101u);
  EXPECT_EQ(ev.value(SigSpec(z)).as_uint(), 0b0010u);
}

TEST(OptExpr, FoldChainConnectsLandInIterationOrder) {
  // The second fold reads the first fold's output, so it folds only in the
  // next iteration, after the third fold of the first one: an iteration
  // reads the map it started with.
  Fixture f;
  Wire* y0 = f.out("y0", 2);
  Wire* y1 = f.out("y1", 2);
  Wire* y2 = f.out("y2", 2);
  const SigSpec first = f.mod->And(SigSpec(Const(3, 2)), SigSpec(Const(1, 2)));
  const SigSpec second = f.mod->Not(first);
  const SigSpec third = f.mod->Or(SigSpec(Const(2, 2)), SigSpec(Const(0, 2)));
  f.mod->connect(SigSpec(y0), first);
  f.mod->connect(SigSpec(y1), second);
  f.mod->connect(SigSpec(y2), third);

  const auto stats = opt::opt_expr(*f.mod);
  EXPECT_EQ(stats.folded_cells, 3u);
  EXPECT_EQ(cells_and_connections(*f.mod), "  connect {y0} = {$sig$0}\n"
                                            "  connect {y1} = {$sig$2}\n"
                                            "  connect {y2} = {$sig$4}\n"
                                            "  connect {$sig$0} = {2'b01}\n"
                                            "  connect {$sig$4} = {2'b10}\n"
                                            "  connect {$sig$2} = {2'b10}\n");
}
