// NetlistIndex: driver/reader maps, fanout, output-port tracking,
// topological order, topo_position, cycle detection, the neighbour cache
// behind the §II balls, and reader order under randomized maintenance.
#include "benchgen/random_circuit.hpp"
#include "opt/region_partition.hpp"
#include "rtlil/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_set>

using namespace smartly;
using rtlil::Cell;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::NetlistIndex;
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

} // namespace

TEST(NetlistIndex, DriverAndReaders) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  const SigSpec ab = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec n = f.mod->Not(ab);
  f.mod->connect(SigSpec(y), n);

  NetlistIndex index(*f.mod);
  const SigBit ab0 = index.sigmap()(ab[0]);
  Cell* and_cell = index.driver(ab0);
  ASSERT_NE(and_cell, nullptr);
  EXPECT_EQ(and_cell->type(), CellType::And);
  ASSERT_EQ(index.readers(ab0).size(), 1u);
  EXPECT_EQ(index.readers(ab0)[0]->type(), CellType::Not);
  EXPECT_EQ(index.driver(index.sigmap()(SigBit(a, 0))), nullptr) << "inputs have no driver";
}

TEST(NetlistIndex, FanoutCountsReadersAndOutputPorts) {
  Fixture f;
  Wire* a = f.in("a", 1);
  Wire* y = f.out("y", 1);
  Wire* z = f.out("z", 1);
  const SigSpec n = f.mod->Not(SigSpec(a));
  f.mod->connect(SigSpec(y), n);
  f.mod->connect(SigSpec(z), f.mod->Not(n)); // n read by a cell too

  NetlistIndex index(*f.mod);
  const SigBit n0 = index.sigmap()(n[0]);
  EXPECT_TRUE(index.drives_output_port(n0));
  EXPECT_EQ(index.fanout(n0), 2); // one reader cell + output port
}

TEST(NetlistIndex, TopoOrderRespectsDependencies) {
  Fixture f;
  Wire* a = f.in("a", 2);
  Wire* y = f.out("y", 2);
  const SigSpec t1 = f.mod->Not(SigSpec(a));
  const SigSpec t2 = f.mod->Not(t1);
  const SigSpec t3 = f.mod->Not(t2);
  f.mod->connect(SigSpec(y), t3);

  NetlistIndex index(*f.mod);
  const auto& topo = index.topo_order();
  ASSERT_EQ(topo.size(), 3u);
  for (size_t i = 0; i + 1 < topo.size(); ++i)
    EXPECT_LT(index.topo_position(topo[i]), index.topo_position(topo[i + 1]));
  // Each cell's input driver must come earlier.
  for (Cell* c : topo) {
    for (const SigBit& bit : c->port(rtlil::Port::A)) {
      Cell* d = index.driver(index.sigmap()(bit));
      if (d) {
        EXPECT_LT(index.topo_position(d), index.topo_position(c));
      }
    }
  }
}

TEST(NetlistIndex, TopoPositionOfUnknownCellIsMinusOne) {
  Fixture f;
  Wire* a = f.in("a", 1);
  f.mod->connect(SigSpec(f.out("y", 1)), f.mod->Not(SigSpec(a)));
  Design other;
  Module* m2 = other.add_module("other");
  Wire* b = m2->add_wire("b", 1);
  m2->set_port_input(b);
  const SigSpec foreign = m2->Not(SigSpec(b));
  (void)foreign;

  NetlistIndex index(*f.mod);
  EXPECT_EQ(index.topo_position(m2->cells()[0].get()), -1);
}

TEST(NetlistIndex, DffBreaksCombinationalCycles) {
  // q -> not -> d -> dff -> q is fine because the dff cuts the cycle.
  Fixture f;
  Wire* clk = f.in("clk", 1);
  Wire* q = f.mod->add_wire("q", 1);
  Wire* y = f.out("y", 1);
  const SigSpec d = f.mod->Not(SigSpec(q));
  f.mod->add_dff(d, SigSpec(q), SigSpec(clk));
  f.mod->connect(SigSpec(y), SigSpec(q));
  EXPECT_NO_THROW(NetlistIndex index(*f.mod));
}

TEST(NetlistIndex, CombinationalCycleThrows) {
  Fixture f;
  Wire* a = f.in("a", 1);
  Wire* loop = f.mod->add_wire("loop", 1);
  Wire* y = f.out("y", 1);
  // loop = ~(a & loop): a genuine combinational cycle.
  Cell* andc = f.mod->add_cell(CellType::And);
  andc->set_port(rtlil::Port::A, SigSpec(a));
  andc->set_port(rtlil::Port::B, SigSpec(loop));
  Wire* t = f.mod->add_wire("t", 1);
  andc->set_port(rtlil::Port::Y, SigSpec(t));
  andc->infer_widths();
  Cell* notc = f.mod->add_cell(CellType::Not);
  notc->set_port(rtlil::Port::A, SigSpec(t));
  notc->set_port(rtlil::Port::Y, SigSpec(loop));
  notc->infer_widths();
  f.mod->connect(SigSpec(y), SigSpec(loop));
  EXPECT_THROW(NetlistIndex index(*f.mod), std::logic_error);
}

TEST(NetlistIndex, SigmapCanonicalizesThroughConnections) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* alias = f.mod->add_wire("alias", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(alias), SigSpec(a));
  f.mod->connect(SigSpec(y), f.mod->Not(SigSpec(alias)));

  NetlistIndex index(*f.mod);
  EXPECT_EQ(index.sigmap()(SigBit(alias, 2)), index.sigmap()(SigBit(a, 2)));
  // Readers of the canonical bit must include the Not cell.
  const auto& readers = index.readers(SigBit(alias, 0));
  ASSERT_EQ(readers.size(), 1u);
  EXPECT_EQ(readers[0]->type(), CellType::Not);
}

TEST(NetlistIndex, ConstantTiedBitsCanonicalizeToConstants) {
  Fixture f;
  Wire* t = f.mod->add_wire("t", 2);
  f.mod->connect(SigSpec(t), SigSpec(rtlil::Const(2, 2)));
  NetlistIndex index(*f.mod);
  const SigBit b0 = index.sigmap()(SigBit(t, 0));
  const SigBit b1 = index.sigmap()(SigBit(t, 1));
  EXPECT_TRUE(b0.is_const());
  EXPECT_EQ(b0.data, rtlil::State::S0);
  EXPECT_TRUE(b1.is_const());
  EXPECT_EQ(b1.data, rtlil::State::S1);
}

namespace {

std::vector<Cell*> cells_of(const rtlil::CellRange& range) {
  return std::vector<Cell*>(range.begin(), range.end());
}

/// combinational_adjacent_cells over every port bit of `cell`, a fresh scan
/// each call (what extraction did before the neighbour cache).
std::vector<Cell*> scanned_adjacency(const NetlistIndex& index, const Cell* cell) {
  std::vector<Cell*> adjacent;
  for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
    const Port p = static_cast<Port>(pi);
    if (!cell->has_port(p))
      continue;
    for (const SigBit& raw : cell->port(p)) {
      const SigBit bit = index.sigmap()(raw);
      if (bit.is_wire())
        rtlil::combinational_adjacent_cells(index, bit, adjacent);
    }
  }
  return adjacent;
}

std::vector<Cell*> scanned_neighbours(const NetlistIndex& index, const Cell* cell) {
  std::vector<Cell*> out;
  std::unordered_set<const Cell*> seen;
  for (Cell* n : scanned_adjacency(index, cell))
    if (seen.insert(n).second)
      out.push_back(n);
  return out;
}

/// A ball grown from fresh scans, layer by layer.
std::vector<Cell*> scanned_ball(const NetlistIndex& index, std::vector<Cell*> ball, int layers) {
  std::unordered_set<const Cell*> seen(ball.begin(), ball.end());
  size_t layer_begin = 0;
  for (int d = 0; d < layers && layer_begin < ball.size(); ++d) {
    const size_t layer_end = ball.size();
    for (size_t i = layer_begin; i < layer_end; ++i)
      for (Cell* n : scanned_adjacency(index, ball[i]))
        if (seen.insert(n).second)
          ball.push_back(n);
    layer_begin = layer_end;
  }
  return ball;
}

std::vector<Cell*> grown_ball(const NetlistIndex& index, Cell* seed, int layers) {
  std::vector<Cell*> ball{seed};
  rtlil::IdSet seen;
  seen.insert(seed->id());
  rtlil::grow_combinational_ball(index, ball, seen, layers);
  return ball;
}

} // namespace

TEST(NeighbourCache, FollowsInPlacePortShrinks) {
  // y = pmux(~a, {~b, ~c}, {s0, ~s1}). A walker drops the second case in
  // place (set_port on B and S) between barriers, with no index call. The
  // next ball and closure through the pmux must not reach ~c or ~s1 — the
  // cells only the dropped bits led to — exactly like a rebuilt index.
  Fixture f;
  const SigSpec na = f.mod->Not(SigSpec(f.in("a")));
  const SigSpec nb = f.mod->Not(SigSpec(f.in("b")));
  const SigSpec nc = f.mod->Not(SigSpec(f.in("c")));
  const SigBit s0(f.in("s0"), 0);
  const SigSpec ns1 = f.mod->Not(SigSpec(f.in("s1")));
  SigSpec cases = nb;
  cases.append(nc);
  SigSpec sel(s0);
  sel.append(ns1);
  f.mod->connect(SigSpec(f.out("y")), f.mod->Pmux(na, cases, sel));

  NetlistIndex index(*f.mod);
  Cell* pmux = index.driver(SigBit(f.mod->wire("y"), 0));
  ASSERT_NE(pmux, nullptr);
  ASSERT_EQ(pmux->type(), CellType::Pmux);
  const std::vector<Cell*> tree{pmux};
  EXPECT_EQ(grown_ball(index, pmux, 2).size(), 5u); // pmux and its four drivers
  EXPECT_EQ(opt::region_read_closure(index, tree, 1).size(), 5u);

  pmux->set_port(Port::B, nb);
  pmux->set_port(Port::S, SigSpec(s0));
  pmux->infer_widths();

  const NetlistIndex rebuilt(*f.mod);
  const std::vector<Cell*> ball = grown_ball(index, pmux, 2);
  EXPECT_EQ(ball, grown_ball(rebuilt, pmux, 2));
  EXPECT_EQ(ball.size(), 3u);
  EXPECT_EQ(opt::region_read_closure(index, tree, 1), opt::region_read_closure(rebuilt, tree, 1));
  EXPECT_EQ(cells_of(index.combinational_neighbours(pmux)),
            cells_of(rebuilt.combinational_neighbours(pmux)));
}

TEST(NeighbourCache, SharedSelectNetKeepsBallsAndBound) {
  // A chain of 2,000 muxes reads one select net, so every mux and the
  // select's driver has more neighbours than port bits: those are scanned
  // per query, never cached; each mux's private inverter is cached. Balls
  // must equal the uncached scan's and the cache stays within the cells'
  // port bits.
  Fixture f;
  const SigSpec s = f.mod->Not(SigSpec(f.in("s_n")));
  SigSpec chain(f.in("d"));
  for (int i = 0; i < 2000; ++i)
    chain = f.mod->Mux(chain, f.mod->Not(SigSpec(f.in(("e" + std::to_string(i)).c_str()))), s);
  f.mod->connect(SigSpec(f.out("y")), chain);

  const NetlistIndex index(*f.mod);
  size_t port_bits = 0;
  for (const auto& c : f.mod->cells())
    for (int pi = 0; pi < rtlil::kPortCount; ++pi)
      if (c->has_port(static_cast<Port>(pi)))
        port_bits += static_cast<size_t>(c->port(static_cast<Port>(pi)).size());

  // The select's driver, the last mux and a mux and an inverter in the middle.
  const std::vector<Cell*> seeds{index.driver(s[0]), index.driver(chain[0]),
                                 f.mod->cells()[1000].get(), f.mod->cells()[1001].get()};
  for (int pass = 0; pass < 2; ++pass) // the second pass reads what the first cached
    for (Cell* seed : seeds)
      for (const int layers : {1, 2})
        EXPECT_EQ(grown_ball(index, seed, layers), scanned_ball(index, {seed}, layers))
            << seed->name() << " at " << layers << " layers, pass " << pass;
  EXPECT_EQ(grown_ball(index, seeds[0], 1).size(), 2001u); // the inverter and every mux
  EXPECT_GT(index.cached_neighbours(), 0u);
  EXPECT_LE(index.cached_neighbours(), port_bits);
}

namespace {

/// Reader lists as per-net std::vectors under the documented rules: a
/// cell's reads append in port / bit order, an erase drops one occurrence
/// per stored read, and an alias hands the old net's list to the
/// representative (appended after the representative's own readers).
struct ReaderModel {
  rtlil::SigMap map;
  std::map<size_t, std::vector<Cell*>> lists; ///< by canonical bit id
  std::map<const Cell*, std::vector<SigBit>> reads;

  explicit ReaderModel(const Module& m) : map(m) {
    for (const auto& c : m.cells())
      add(c.get());
  }
  void add(Cell* c) {
    std::vector<SigBit>& r = reads[c];
    for (const Port p : c->input_ports())
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = map(raw);
        if (!bit.is_wire())
          continue;
        lists[rtlil::bit_id(bit)].push_back(c);
        r.push_back(bit);
      }
  }
  void erase(Cell* c) {
    for (const SigBit& stored : reads[c]) {
      const SigBit bit = map(stored);
      if (!bit.is_wire())
        continue;
      std::vector<Cell*>& l = lists[rtlil::bit_id(bit)];
      const auto it = std::find(l.begin(), l.end(), c);
      if (it != l.end())
        l.erase(it);
    }
    reads.erase(c);
  }
  void alias(const SigSpec& lhs, const SigSpec& rhs) {
    for (int i = 0; i < std::min(lhs.size(), rhs.size()); ++i) {
      const SigBit a = map(lhs[i]);
      const SigBit b = map(rhs[i]);
      if (a == b)
        continue;
      map.add(lhs[i], rhs[i]);
      const SigBit rep = map(lhs[i]);
      for (const SigBit& old : {a, b}) {
        if (old == rep || !old.is_wire())
          continue;
        std::vector<Cell*> moved = std::move(lists[rtlil::bit_id(old)]);
        lists.erase(rtlil::bit_id(old));
        if (rep.is_wire()) {
          std::vector<Cell*>& dst = lists[rtlil::bit_id(rep)];
          dst.insert(dst.end(), moved.begin(), moved.end());
        }
      }
    }
  }
  std::vector<Cell*> readers(const SigBit& raw) {
    const SigBit bit = map(raw);
    return bit.is_wire() ? lists[rtlil::bit_id(bit)] : std::vector<Cell*>{};
  }
};

} // namespace

TEST(NetlistIndexMaintenance, RandomEditsKeepIndexAndReaderOrder) {
  // Random remove / bypass (remove, then alias the output onto the first
  // input, as a walker's collapse does) / in-place port rewrite + refresh /
  // add sequences on random circuits: after every step the index must equal
  // a rebuild, list every net's readers in the model's order, and answer
  // every neighbour query as a fresh scan does (the lists cached before the
  // step are stale).
  size_t steps = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Design design;
    Module* m = benchgen::random_netlist(design, "top", seed, 60);
    NetlistIndex index(*m);
    ReaderModel model(*m);
    std::mt19937_64 rng(seed * 7919);
    for (int step = 0; step < 40 && m->cells().size() > 4; ++step) {
      for (const auto& cell : m->cells())
        index.combinational_neighbours(cell.get());
      Cell* c = m->cells()[rng() % m->cells().size()].get();
      const SigSpec y = c->port(Port::Y);
      switch (rng() % 4) {
      case 0: // remove
        index.remove_cell(c);
        model.erase(c);
        m->remove_cell(c);
        break;
      case 1: { // bypass: Y becomes an alias of A
        const SigSpec a = c->port(Port::A).extended(y.size(), false);
        index.remove_cell(c);
        model.erase(c);
        m->remove_cell(c);
        m->connect(y, a);
        index.add_alias(y, a);
        model.alias(y, a);
        break;
      }
      case 2: // in-place rewrite: read A's bits through the other data port too
        if (c->has_port(Port::B) && c->port(Port::B).size() == c->port(Port::A).size()) {
          c->set_port(Port::B, c->port(Port::A));
          index.refresh_cell_reads(c);
          model.erase(c);
          model.add(c);
        }
        break;
      default: { // add: an inverter of a slice of a random wire, read by nothing
        const auto& w = m->wires()[rng() % m->wires().size()];
        const int width = std::min(w->width(), 1 + static_cast<int>(rng() % 3));
        const SigSpec in(w.get(), 0, width);
        Cell* inv = m->add_cell(CellType::Not);
        inv->set_port(Port::A, in);
        inv->set_port(Port::Y, SigSpec(m->new_wire(width)));
        inv->infer_widths();
        index.add_cell(inv, static_cast<int>(index.topo_order().size()) + 1000);
        model.add(inv);
        break;
      }
      }
      index.compact_topo();
      ASSERT_TRUE(index_consistent(*m, index)) << "seed " << seed << " step " << step;
      for (const auto& w : m->wires())
        for (int i = 0; i < w->width(); ++i)
          ASSERT_EQ(cells_of(index.readers(SigBit(w.get(), i))), model.readers(SigBit(w.get(), i)))
              << "seed " << seed << " step " << step << " " << w->name() << "[" << i << "]";
      for (const auto& cell : m->cells())
        ASSERT_EQ(cells_of(index.combinational_neighbours(cell.get())),
                  scanned_neighbours(index, cell.get()))
            << "seed " << seed << " step " << step << " " << cell->name();
      ++steps;
    }
  }
  EXPECT_GE(steps, 400u);
}
