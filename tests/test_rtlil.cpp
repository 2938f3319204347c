#include "rtlil/design_stats.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "rtlil/topo.hpp"

#include <gtest/gtest.h>

using namespace smartly::rtlil;

TEST(Module, WireAndCellNamesAreUnique) {
  Design d;
  Module* m = d.add_module("top");
  m->add_wire("w", 4);
  EXPECT_THROW(m->add_wire("w", 2), std::invalid_argument);
  m->add_cell(CellType::And, "c");
  EXPECT_THROW(m->add_cell(CellType::Or, "c"), std::invalid_argument);
  EXPECT_THROW(d.add_module("top"), std::invalid_argument);
}

TEST(Module, PortsKeepRegistrationOrder) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* y = m->add_wire("y", 1);
  m->set_port_input(a);
  m->set_port_output(y);
  ASSERT_EQ(m->ports().size(), 2u);
  EXPECT_EQ(m->ports()[0], a);
  EXPECT_EQ(m->ports()[1], y);
  EXPECT_EQ(a->port_id, 1);
  EXPECT_EQ(y->port_id, 2);
}

TEST(Module, BuildersInferWidthsAndPassCheck) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  Wire* b = m->add_wire("b", 4);
  const SigSpec sum = m->Add(SigSpec(a), SigSpec(b), 5);
  EXPECT_EQ(sum.size(), 5);
  const SigSpec eq = m->Eq(SigSpec(a), SigSpec(b));
  EXPECT_EQ(eq.size(), 1);
  const SigSpec y = m->Mux(SigSpec(a), SigSpec(b), eq);
  EXPECT_EQ(y.size(), 4);
  EXPECT_NO_THROW(m->check());
}

TEST(Module, ConnectRejectsWidthMismatch) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  Wire* b = m->add_wire("b", 2);
  EXPECT_THROW(m->connect(SigSpec(a), SigSpec(b)), std::invalid_argument);
}

TEST(Module, RemoveCellsDropsLookup) {
  Design d;
  Module* m = d.add_module("top");
  Cell* c = m->add_cell(CellType::And, "a1");
  EXPECT_EQ(m->cell("a1"), c);
  m->remove_cell(c);
  EXPECT_EQ(m->cell("a1"), nullptr);
  EXPECT_EQ(m->cell_count(), 0u);
}

TEST(SigMapTest, AliasChainsCollapseTowardDrivers) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  Wire* c = m->add_wire("c", 1);
  m->connect(SigSpec(b), SigSpec(a)); // b aliases a
  m->connect(SigSpec(c), SigSpec(b)); // c aliases b
  SigMap sm(*m);
  EXPECT_EQ(sm(SigBit(c, 0)), sm(SigBit(a, 0)));
  EXPECT_EQ(sm(SigBit(b, 0)), sm(SigBit(a, 0)));
}

TEST(SigMapTest, ConstantsWinAsRepresentatives) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->connect(SigSpec(a), SigSpec(State::S1));
  SigMap sm(*m);
  EXPECT_TRUE(sm(SigBit(a, 0)).is_const());
  EXPECT_EQ(sm(SigBit(a, 0)).data, State::S1);
}

TEST(SigMapTest, DefaultConstructedIsIdentityUntilFirstAdd) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  SigMap sm;
  EXPECT_EQ(sm(SigBit(a, 0)), SigBit(a, 0));
  EXPECT_EQ(sm(SigBit(State::S1)), SigBit(State::S1));
  sm.add(SigBit(b, 0), SigBit(a, 0)); // adopts the module of its bits
  EXPECT_EQ(sm(SigBit(b, 0)), SigBit(a, 0));
  Design other;
  Wire* x = other.add_module("other")->add_wire("x", 1);
  EXPECT_THROW(sm.add(SigBit(x, 0), SigBit(a, 0)), std::invalid_argument);
}

TEST(SigMapTest, ForeignAndLateBitsAreTheirOwnRepresentatives) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  m->connect(SigSpec(b), SigSpec(a));
  // Another module's bit with b's id: ids are per module, so it must not
  // pick up b's alias.
  Module* m2 = d.add_module("other");
  m2->add_wire("p", 1);
  Wire* q = m2->add_wire("q", 1);
  ASSERT_EQ(q->bit_base(), b->bit_base());
  const SigMap sm(*m);
  EXPECT_EQ(sm(SigBit(b, 0)), SigBit(a, 0));
  EXPECT_EQ(sm(SigBit(q, 0)), SigBit(q, 0));
  Wire* late = m->add_wire("late", 1); // past the parent table
  EXPECT_EQ(sm(SigBit(late, 0)), SigBit(late, 0));
}

TEST(SigMapTest, ConstantKeysChainLikeWireKeys) {
  // A class tied to two constants merges them; the lhs constant wins, and
  // every later lookup of the other constant follows it.
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->connect(SigSpec(a), SigSpec(State::S0));
  m->connect(SigSpec(a), SigSpec(State::S1));
  SigMap sm(*m);
  EXPECT_EQ(sm(SigBit(a, 0)), SigBit(State::S0));
  EXPECT_EQ(sm(SigBit(State::S1)), SigBit(State::S0));
  EXPECT_EQ(sm(SigBit(State::S1)), SigBit(State::S0)); // after compression
  EXPECT_EQ(sm(SigBit(State::Sx)), SigBit(State::Sx));
}

TEST(NetlistIndexTest, DriversReadersAndTopo) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 2);
  m->set_port_input(a);
  const SigSpec n1 = m->Not(SigSpec(a));
  const SigSpec n2 = m->Not(n1);
  Wire* y = m->add_wire("y", 2);
  m->set_port_output(y);
  m->connect(SigSpec(y), n2);

  NetlistIndex idx(*m);
  Cell* first = idx.driver(n1[0]);
  Cell* second = idx.driver(n2[0]);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  EXPECT_EQ(idx.readers(n1[0]).size(), 1u);
  EXPECT_EQ(idx.readers(n1[0])[0], second);
  EXPECT_TRUE(idx.drives_output_port(n2[0]));
  EXPECT_EQ(idx.fanout(n2[0]), 1); // output port counts as one

  // Topological order puts first before second.
  const auto& topo = idx.topo_order();
  const auto p1 = std::find(topo.begin(), topo.end(), first);
  const auto p2 = std::find(topo.begin(), topo.end(), second);
  EXPECT_LT(p1, p2);
}

TEST(NetlistIndexTest, DffBreaksCombLoop) {
  Design d;
  Module* m = d.add_module("top");
  Wire* clk = m->add_wire("clk", 1);
  m->set_port_input(clk);
  Wire* q = m->add_wire("q", 1);
  const SigSpec n = m->Not(SigSpec(q));
  m->add_dff(n, SigSpec(q), SigSpec(clk)); // q <= ~q : fine through a dff
  EXPECT_NO_THROW(NetlistIndex idx(*m));
}

TEST(NetlistIndexTest, CombinationalCycleThrows) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  Cell* c1 = m->add_cell(CellType::Not);
  c1->set_port(Port::A, SigSpec(a));
  c1->set_port(Port::Y, SigSpec(b));
  c1->infer_widths();
  Cell* c2 = m->add_cell(CellType::Not);
  c2->set_port(Port::A, SigSpec(b));
  c2->set_port(Port::Y, SigSpec(a));
  c2->infer_widths();
  EXPECT_THROW(NetlistIndex idx(*m), std::logic_error);
}

TEST(NetlistIndexTest, ForeignBitsAndCellsAreUnknown) {
  // Both modules number bits and cells from 0, so every foreign query below
  // hits an id the index does hold for its own module.
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->set_port_input(a);
  Wire* y = m->add_wire("y", 1);
  m->set_port_output(y);
  m->connect(SigSpec(y), m->Not(SigSpec(a)));
  Module* m2 = d.add_module("other");
  Wire* a2 = m2->add_wire("a2", 1);
  Wire* y2 = m2->add_wire("y2", 1);
  m2->set_port_output(y2);
  const SigSpec n2 = m2->Not(SigSpec(a2));
  m2->connect(SigSpec(y2), n2);

  const NetlistIndex idx(*m);
  ASSERT_NE(idx.driver(SigBit(y, 0)), nullptr);
  for (const auto& w : m2->wires()) {
    const SigBit bit(w.get(), 0);
    EXPECT_EQ(idx.driver(bit), nullptr) << w->name();
    EXPECT_TRUE(idx.readers(bit).empty()) << w->name();
    EXPECT_EQ(idx.fanout(bit), 0) << w->name();
    EXPECT_FALSE(idx.drives_output_port(bit)) << w->name();
  }
  EXPECT_EQ(idx.topo_position(m2->cells().front().get()), -1);
}

TEST(NetlistIndexTest, LateWiresAndCellsAppearOnceRegistered) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->set_port_input(a);
  const SigSpec n1 = m->Not(SigSpec(a));
  NetlistIndex idx(*m);
  const int first_pos = idx.topo_position(idx.driver(n1[0]));
  ASSERT_EQ(first_pos, 0);

  // Created after the build: unknown to the index until registered.
  Wire* w = m->add_wire("w", 1);
  Cell* late = m->add_cell(CellType::Not);
  late->set_port(Port::A, n1);
  late->set_port(Port::Y, SigSpec(w));
  late->infer_widths();
  EXPECT_EQ(idx.driver(SigBit(w, 0)), nullptr);
  EXPECT_EQ(idx.topo_position(late), -1);
  EXPECT_TRUE(idx.readers(n1[0]).empty());
  idx.add_cell(late, first_pos + 1);
  EXPECT_EQ(idx.driver(SigBit(w, 0)), late);
  EXPECT_EQ(idx.topo_position(late), first_pos + 1);
  ASSERT_EQ(idx.readers(n1[0]).size(), 1u);
  EXPECT_EQ(idx.readers(n1[0])[0], late);

  // A late output-port wire aliased onto the late net.
  Wire* y = m->add_wire("y", 1);
  m->set_port_output(y);
  EXPECT_EQ(idx.driver(SigBit(y, 0)), nullptr);
  idx.connect(*m, SigSpec(y), SigSpec(w));
  EXPECT_EQ(idx.driver(SigBit(y, 0)), late);
  idx.compact_topo();
  ASSERT_EQ(idx.topo_order().size(), 2u);
  EXPECT_EQ(idx.topo_order()[1], late);
  // The port flag of a wire marked after the build is the one thing a
  // rebuild sees that the maintenance API never registered.
  EXPECT_FALSE(idx.drives_output_port(SigBit(y, 0)));
  EXPECT_TRUE(NetlistIndex(*m).drives_output_port(SigBit(y, 0)));
}

TEST(NetlistIndexTest, OutputPortFlagMovesOntoConstantRepresentative) {
  Design d;
  Module* m = d.add_module("top");
  Wire* y = m->add_wire("y", 1);
  m->set_port_output(y);
  Wire* t = m->add_wire("t", 1);
  m->connect(SigSpec(y), SigSpec(t));
  NetlistIndex idx(*m);
  EXPECT_TRUE(idx.drives_output_port(SigBit(t, 0)));
  EXPECT_FALSE(idx.drives_output_port(SigBit(State::S0)));

  idx.connect(*m, SigSpec(t), SigSpec(State::S0));
  EXPECT_EQ(idx.sigmap()(SigBit(y, 0)), SigBit(State::S0));
  EXPECT_TRUE(idx.drives_output_port(SigBit(State::S0)));
  EXPECT_TRUE(idx.drives_output_port(SigBit(y, 0)));
  EXPECT_FALSE(idx.drives_output_port(SigBit(State::S1)));
  EXPECT_EQ(idx.fanout(SigBit(State::S0)), 1);
  EXPECT_TRUE(NetlistIndex(*m).drives_output_port(SigBit(State::S0)));
  EXPECT_TRUE(index_consistent(*m, idx));
}

TEST(NetlistIndexTest, IdsStayUniqueAfterRemoveCells) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  Cell* c0 = m->add_cell(CellType::Not);
  Cell* c1 = m->add_cell(CellType::Not);
  Cell* c2 = m->add_cell(CellType::Not);
  EXPECT_EQ(c0->id(), 0u);
  EXPECT_EQ(c2->id(), 2u);
  const uint32_t removed = c1->id();
  m->remove_cells({c1});
  Cell* c3 = m->add_cell(CellType::Not);
  EXPECT_NE(c3->id(), removed);
  EXPECT_EQ(c3->id(), 3u);
  EXPECT_EQ(m->cell_id_bound(), 4u);

  Wire* b = m->add_wire("b", 2);
  EXPECT_EQ(a->bit_base(), 0u);
  EXPECT_EQ(b->bit_base(), 4u);
  m->remove_wire(b);
  Wire* c = m->add_wire("c", 1);
  EXPECT_EQ(c->bit_base(), 6u);
  EXPECT_EQ(m->bit_id_bound(), 7u);
}

TEST(NetlistIndexTest, ConsistentAfterRemoveAliasAddCompact) {
  // y = ~~a, z = ~a: drop the outer inverter, alias its output onto a, then
  // insert two inverters in its freed position. The removed cell is destroyed
  // before compact_topo, and a new cell may reuse its memory: the index must
  // drop it by id, never by address.
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->set_port_input(a);
  const SigSpec n1 = m->Not(SigSpec(a));
  const SigSpec n2 = m->Not(n1);
  Wire* y = m->add_wire("y", 1);
  m->set_port_output(y);
  m->connect(SigSpec(y), n2);
  Wire* z = m->add_wire("z", 1);
  m->set_port_output(z);
  m->connect(SigSpec(z), n1);
  NetlistIndex idx(*m);
  Cell* inv1 = idx.driver(n1[0]);
  Cell* inv2 = idx.driver(n2[0]);
  const int pos1 = idx.topo_position(inv1);
  const int pos2 = idx.topo_position(inv2);

  idx.remove_cell(inv2);
  m->remove_cells({inv2});
  idx.connect(*m, n2, SigSpec(a));
  EXPECT_TRUE(idx.drives_output_port(SigBit(a, 0)));

  Wire* w = m->add_wire("w", 1);
  Cell* late = m->add_cell(CellType::Not);
  late->set_port(Port::A, n1);
  late->set_port(Port::Y, SigSpec(w));
  late->infer_widths();
  idx.add_cell(late, pos2);
  Wire* v = m->add_wire("v", 1);
  Cell* late2 = m->add_cell(CellType::Not);
  late2->set_port(Port::A, SigSpec(w));
  late2->set_port(Port::Y, SigSpec(v));
  late2->infer_widths();
  idx.add_cell(late2, pos2);
  idx.compact_topo();

  EXPECT_TRUE(index_consistent(*m, idx));
  ASSERT_EQ(idx.topo_order().size(), 3u);
  EXPECT_LT(pos1, pos2);
  EXPECT_EQ(idx.topo_order()[0], inv1);
  EXPECT_EQ(idx.topo_order()[1], late);
  EXPECT_EQ(idx.topo_order()[2], late2);
}

namespace {

/// Bit ids follow wires() order: every bit of a wire ranks below every bit
/// of the wires after it. The rewrite anchors and group keys and the fraig
/// member order rank bits by rtlil::bit_id on the strength of this.
void expect_bit_ids_ascend_along_wires(const Module& m) {
  for (size_t i = 1; i < m.wires().size(); ++i) {
    const Wire& prev = *m.wires()[i - 1];
    const Wire& next = *m.wires()[i];
    EXPECT_LT(prev.bit_base(), next.bit_base()) << next.name();
    EXPECT_LE(prev.bit_base() + static_cast<uint32_t>(prev.width()), next.bit_base())
        << next.name();
  }
}

/// Cell ids ascend along cells(): the §II engines sort muxtree roots and tag
/// decision traces by Cell::id() on the strength of this.
void expect_cell_ids_ascend_along_cells(const Module& m) {
  for (size_t i = 1; i < m.cells().size(); ++i)
    EXPECT_LT(m.cells()[i - 1]->id(), m.cells()[i]->id()) << m.cells()[i]->name();
}

} // namespace

TEST(CloneDesign, DeepCopyIsIndependentAndIdentical) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  m->set_port_input(a);
  Wire* y = m->add_wire("y", 4);
  m->set_port_output(y);
  m->connect(SigSpec(y), m->Not(SigSpec(a)));
  // Retire a wire from the middle of wires(): its ids are not reused.
  Wire* tmp = m->add_wire("tmp", 3);
  m->add_wire("late", 2);
  m->remove_wire(tmp);
  expect_bit_ids_ascend_along_wires(*m);
  // Likewise a cell from the middle of cells().
  m->And(SigSpec(a), SigSpec(a));
  m->Or(SigSpec(a), SigSpec(a));
  m->remove_cells({m->cells()[1].get()});
  ASSERT_EQ(m->cell_count(), 2u);
  expect_cell_ids_ascend_along_cells(*m);

  auto copy = clone_design(d);
  Module* cm = copy->top();
  ASSERT_NE(cm, nullptr);
  EXPECT_EQ(cm->cell_count(), m->cell_count());
  EXPECT_EQ(cm->wires().size(), m->wires().size());
  EXPECT_EQ(dump_module(*cm), dump_module(*m));
  expect_bit_ids_ascend_along_wires(*cm);
  expect_cell_ids_ascend_along_cells(*cm);
  // Mutating the copy leaves the original intact.
  cm->add_wire("extra", 1);
  EXPECT_FALSE(m->has_wire("extra"));

  // Rollback re-adds the wires in order, above the ids already issued.
  restore_module(*m, *cm);
  EXPECT_EQ(dump_module(*m), dump_module(*cm));
  expect_bit_ids_ascend_along_wires(*m);
  expect_cell_ids_ascend_along_cells(*m);
}

TEST(CloneDesign, BitOfAForeignWireThrows) {
  // A cell port holding a bit of another module's wire has no copy to map
  // to; the copy refuses it instead of indexing past its table.
  Design d;
  Module* m = d.add_module("top");
  Module* other = d.add_module("other");
  Wire* a = m->add_wire("a", 2);
  Wire* foreign = other->add_wire("f", 8);
  m->And(SigSpec(a), SigSpec(foreign, 6, 2));
  EXPECT_THROW(clone_design(d), std::out_of_range);
}

TEST(Stats, CountsCellKinds) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 2);
  Wire* s = m->add_wire("s", 1);
  m->Mux(SigSpec(a), SigSpec(a), SigSpec(s));
  m->Eq(SigSpec(a), SigSpec(a));
  const ModuleStats st = compute_stats(*m);
  EXPECT_EQ(st.mux_cells, 1u);
  EXPECT_EQ(st.eq_cells, 1u);
  EXPECT_EQ(st.cells, 2u);
}
