// Sub-graph extraction (§II): distance-k ball, Theorem II.1 relevance
// filter, the cone's boundary inputs, and sequential-cell exclusion.
#include "core/subgraph.hpp"
#include "rtlil/module.hpp"

#include <gtest/gtest.h>

#include <algorithm>

using namespace smartly;
using core::Subgraph;
using core::SubgraphOptions;
using core::extract_subgraph;
using rtlil::Cell;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::NetlistIndex;
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

  bool contains(const Subgraph& sg, CellType t) const {
    return std::any_of(sg.cells.begin(), sg.cells.end(),
                       [&](Cell* c) { return c->type() == t; });
  }
};

/// Canonical bits the sub-graph's cells read but do not drive: the free
/// inputs of the cone the oracle bit-blasts.
std::vector<SigBit> boundary_of(const Subgraph& sg, const NetlistIndex& index) {
  std::vector<SigBit> driven;
  for (Cell* c : sg.cells)
    for (const SigBit& raw : c->port(c->output_port()))
      driven.push_back(index.sigmap()(raw));
  std::vector<SigBit> boundary;
  for (Cell* c : sg.cells)
    for (rtlil::Port p : c->input_ports())
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = index.sigmap()(raw);
        if (bit.is_wire() &&
            std::find(driven.begin(), driven.end(), bit) == driven.end() &&
            std::find(boundary.begin(), boundary.end(), bit) == boundary.end())
          boundary.push_back(bit);
      }
  return boundary;
}

} // namespace

TEST(Subgraph, ContainsDriverOfTarget) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  NetlistIndex index(*f.mod);
  const SigBit target = index.sigmap()(sr[0]);
  const Subgraph sg =
      extract_subgraph(*f.mod, index, target, {index.sigmap()(SigBit(s, 0))}, {});
  ASSERT_EQ(sg.cells.size(), 1u);
  EXPECT_EQ(sg.cells[0]->type(), CellType::Or);
  // Boundary = the or's inputs (s, r).
  EXPECT_EQ(boundary_of(sg, index).size(), 2u);
}

TEST(Subgraph, DepthLimitsBall) {
  // not(not(not(...s))) chain of 6; with small k only nearby cells enter.
  Fixture f;
  Wire* s = f.in("s");
  SigSpec v(s);
  for (int i = 0; i < 6; ++i)
    v = f.mod->Not(v);
  f.mod->connect(SigSpec(f.out("y")), v);

  NetlistIndex index(*f.mod);
  const SigBit target = index.sigmap()(v[0]);
  SubgraphOptions small;
  small.depth = 1;
  small.relevance_filter = false;
  SubgraphOptions large;
  large.depth = 10;
  large.relevance_filter = false;
  const Subgraph sg_small = extract_subgraph(*f.mod, index, target, {}, small);
  const Subgraph sg_large = extract_subgraph(*f.mod, index, target, {}, large);
  EXPECT_LT(sg_small.cells.size(), sg_large.cells.size());
  EXPECT_EQ(sg_large.cells.size(), 6u);
}

TEST(Subgraph, RelevanceFilterDropsSideLogic) {
  // Target's cone: or(s, r). Side logic hanging off s (large xor tree) is in
  // the distance ball but is NOT an ancestor of target/known => dismissed.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  Wire* n1 = f.in("n1", 8);
  Wire* n2 = f.in("n2", 8);
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  // Side consumer of s: (s ? n1 : n2) ^ n1 ... readers of s, not ancestors.
  const SigSpec side1 = f.mod->Mux(SigSpec(n1), SigSpec(n2), SigSpec(s));
  const SigSpec side2 = f.mod->Xor(side1, SigSpec(n1));
  f.mod->connect(SigSpec(f.out("z", 8)), side2);

  NetlistIndex index(*f.mod);
  const SigBit target = index.sigmap()(sr[0]);
  SubgraphOptions no_filter;
  no_filter.relevance_filter = false;
  const Subgraph unfiltered =
      extract_subgraph(*f.mod, index, target, {index.sigmap()(SigBit(s, 0))}, no_filter);
  const Subgraph filtered =
      extract_subgraph(*f.mod, index, target, {index.sigmap()(SigBit(s, 0))}, {});
  EXPECT_GT(unfiltered.cells.size(), filtered.cells.size());
  EXPECT_EQ(filtered.cells.size(), 1u);
  EXPECT_FALSE(f.contains(filtered, CellType::Mux));
  EXPECT_FALSE(f.contains(filtered, CellType::Xor));
  // gates_before_filter reports the ball size for the stats.
  EXPECT_GE(filtered.gates_before_filter, filtered.cells.size());
}

TEST(Subgraph, KeepsAncestorsOfKnownSignals) {
  // known = output of and(a, b); its driver must be kept so the path
  // condition can be asserted on it.
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* t = f.in("t");
  const SigSpec k = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec tgt = f.mod->Or(SigSpec(t), k);
  f.mod->connect(SigSpec(f.out("y")), tgt);

  NetlistIndex index(*f.mod);
  const Subgraph sg = extract_subgraph(*f.mod, index, index.sigmap()(tgt[0]),
                                       {index.sigmap()(k[0])}, {});
  EXPECT_TRUE(f.contains(sg, CellType::And));
  EXPECT_TRUE(f.contains(sg, CellType::Or));
}

TEST(Subgraph, SequentialCellsExcluded) {
  // dff between s and the or: the dff must not be pulled in (sub-graph stays
  // a combinational DAG; q is a boundary input).
  Fixture f;
  Wire* clk = f.in("clk");
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  Wire* q = f.mod->add_wire("q", 1);
  f.mod->add_dff(SigSpec(s), SigSpec(q), SigSpec(clk));
  const SigSpec sr = f.mod->Or(SigSpec(q), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  NetlistIndex index(*f.mod);
  const Subgraph sg = extract_subgraph(*f.mod, index, index.sigmap()(sr[0]),
                                       {index.sigmap()(SigBit(q, 0))}, {});
  EXPECT_FALSE(f.contains(sg, CellType::Dff));
  // q must appear as a boundary bit.
  const SigBit qb = index.sigmap()(SigBit(q, 0));
  const std::vector<SigBit> boundary = boundary_of(sg, index);
  EXPECT_NE(std::find(boundary.begin(), boundary.end(), qb), boundary.end());
}

TEST(Subgraph, EmptyWhenTargetIsPrimaryInput) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  NetlistIndex index(*f.mod);
  // Target = s itself (no driver): relevance filter keeps nothing.
  const Subgraph sg =
      extract_subgraph(*f.mod, index, index.sigmap()(SigBit(s, 0)), {}, {});
  EXPECT_TRUE(sg.cells.empty());
}

TEST(Subgraph, BoundaryBitsAreExactlyUndrivenReads) {
  Fixture f;
  Wire* a = f.in("a");
  Wire* b = f.in("b");
  Wire* c = f.in("c");
  const SigSpec ab = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec y = f.mod->Or(ab, SigSpec(c));
  f.mod->connect(SigSpec(f.out("y")), y);

  NetlistIndex index(*f.mod);
  const Subgraph sg = extract_subgraph(*f.mod, index, index.sigmap()(y[0]), {}, {});
  ASSERT_EQ(sg.cells.size(), 2u);
  // Boundary: a, b, c (ab is driven inside).
  const std::vector<SigBit> boundary = boundary_of(sg, index);
  EXPECT_EQ(boundary.size(), 3u);
  for (Wire* w : {a, b, c}) {
    const SigBit bit = index.sigmap()(SigBit(w, 0));
    EXPECT_NE(std::find(boundary.begin(), boundary.end(), bit), boundary.end()) << w->name();
  }
}

TEST(Subgraph, WideCellsEnterAsWholeCells) {
  // Multi-bit eq driver: one cell in the sub-graph even though 4 bits feed it.
  Fixture f;
  Wire* s = f.in("s", 4);
  const SigSpec e = f.mod->Eq(SigSpec(s), SigSpec(rtlil::Const(5, 4)));
  f.mod->connect(SigSpec(f.out("y")), e);

  NetlistIndex index(*f.mod);
  const Subgraph sg = extract_subgraph(*f.mod, index, index.sigmap()(e[0]), {}, {});
  ASSERT_EQ(sg.cells.size(), 1u);
  EXPECT_EQ(sg.cells[0]->type(), CellType::Eq);
  EXPECT_EQ(boundary_of(sg, index).size(), 4u); // the four selector bits
}

TEST(Subgraph, Fig3ShapeKeepsOnlyControlCone) {
  // The paper's Fig. 3: muxtree with controls s and s|r plus a datapath.
  // Extracting around the inner control (s|r) with known={s} must keep only
  // the or cell, not the datapath muxes.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  Wire* c = f.in("c", 8);
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec inner = f.mod->Mux(SigSpec(b), SigSpec(a), sr); // sr ? a : b
  const SigSpec root = f.mod->Mux(SigSpec(c), inner, SigSpec(s));
  f.mod->connect(SigSpec(f.out("y", 8)), root);

  NetlistIndex index(*f.mod);
  const Subgraph sg = extract_subgraph(*f.mod, index, index.sigmap()(sr[0]),
                                       {index.sigmap()(SigBit(s, 0))}, {});
  ASSERT_EQ(sg.cells.size(), 1u);
  EXPECT_EQ(sg.cells[0]->type(), CellType::Or);
  // Paper: "the method can dismiss about 80% gates in the sub-graph" — here
  // the ball contains the muxes too, so the filter must shrink it.
  EXPECT_GT(sg.gates_before_filter, sg.cells.size());
}
