// NetlistIndex: driver/reader maps, fanout, output-port tracking,
// topological order, topo_position, cycle detection, the neighbour cache
// behind the §II balls, reader order under randomized maintenance, and the
// module's alias map against a from-scratch rebuild.
#include "benchgen/random_circuit.hpp"
#include "opt/muxtree_walker.hpp"
#include "opt/region_partition.hpp"
#include "rtlil/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
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
        index.connect(*m, y, a);
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

namespace {

/// The alias map rebuilt from scratch, as the reference: a plain union-find
/// over SigBits that replays the module's connections bit by bit with
/// SigMap's rule (a constant representative wins, else the rhs side's).
class ReferenceMap {
public:
  explicit ReferenceMap(const Module& m) {
    for (const auto& [lhs, rhs] : m.connections())
      for (int i = 0; i < std::min(lhs.size(), rhs.size()); ++i) {
        const SigBit a = find(lhs[i]);
        const SigBit b = find(rhs[i]);
        if (a == b)
          continue;
        if (a.is_const())
          parent_[b] = a;
        else
          parent_[a] = b;
      }
  }
  SigBit find(SigBit bit) const {
    for (auto it = parent_.find(bit); it != parent_.end(); it = parent_.find(bit))
      bit = it->second;
    return bit;
  }

private:
  std::map<SigBit, SigBit> parent_;
};

/// Every wire bit and constant: the module's own map and a copy of it
/// answer as the reference rebuild does, by bit and by bit id.
::testing::AssertionResult map_matches_rebuild(const Module& m) {
  const ReferenceMap reference(m);
  const rtlil::SigMap copy(m);
  std::vector<SigBit> bits = {SigBit(rtlil::State::S0), SigBit(rtlil::State::S1),
                              SigBit(rtlil::State::Sx), SigBit(rtlil::State::Sz)};
  for (const auto& w : m.wires())
    for (int i = 0; i < w->width(); ++i)
      bits.emplace_back(w.get(), i);
  for (const SigBit& bit : bits) {
    const SigBit want = reference.find(bit);
    if (m.sigmap()(bit) != want || copy(bit) != want)
      return ::testing::AssertionFailure()
             << (bit.is_wire() ? bit.wire->name() + "[" + std::to_string(bit.offset) + "]"
                               : std::string("constant"))
             << " maps away from the rebuild's representative";
    if (bit.is_wire()) {
      const size_t want_id = want.is_wire() ? rtlil::bit_id(want) : rtlil::SigMap::kConstant;
      if (m.sigmap().find_id(rtlil::bit_id(bit)) != want_id)
        return ::testing::AssertionFailure() << bit.wire->name() << ": find_id disagrees";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random slice of a random wire of `m`, `width` bits wide.
SigSpec random_slice(const Module& m, std::mt19937_64& rng, int width) {
  for (;;) {
    const auto& w = m.wires()[rng() % m.wires().size()];
    if (w->width() < width)
      continue;
    return SigSpec(w.get(), static_cast<int>(rng() % static_cast<uint64_t>(w->width() - width + 1)),
                   width);
  }
}

} // namespace

TEST(AliasMap, ModuleMapEqualsARebuildUnderRandomConnects) {
  // Random connect sequences on a module whose map is read from the start:
  // wire–wire chains in both directions, constants on either side,
  // redundant and repeated connects, and bits of wires created after the
  // first read. Then the map of a clone, of a restored module and of a
  // module that lost a wire.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed * 104729);
    Design design;
    Module* m = design.add_module("top");
    for (int i = 0; i < 8; ++i)
      m->add_wire("w" + std::to_string(i), 1 + static_cast<int>(rng() % 4));
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed; // builds the map
    std::unique_ptr<Design> snapshot;
    for (int step = 0; step < 60; ++step) {
      const int width = 1 + static_cast<int>(rng() % 2);
      const SigSpec a = random_slice(*m, rng, width);
      const SigSpec b = random_slice(*m, rng, width);
      const SigSpec k(rtlil::Const(static_cast<int>(rng() % 4), width));
      switch (rng() % 6) {
      case 0: // chain toward the rhs
      case 1:
        m->connect(a, b);
        break;
      case 2: // a constant on either side
        if (rng() % 2)
          m->connect(a, k);
        else
          m->connect(k, a);
        break;
      case 3: { // a connect already made, again (or a self-connect)
        if (m->connections().empty()) {
          m->connect(a, a);
        } else {
          const auto& [lhs, rhs] = m->connections()[rng() % m->connections().size()];
          m->connect(SigSpec(lhs), SigSpec(rhs));
        }
        break;
      }
      case 4: { // a wire created after the map was first read
        Wire* w = m->add_wire("late" + std::to_string(step), width);
        if (rng() % 2)
          m->connect(SigSpec(w), a);
        else
          m->connect(a, SigSpec(w));
        break;
      }
      default: // both sides the same class already
        m->connect(b, b);
        break;
      }
      ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " step " << step;
      if (step == 30)
        snapshot = rtlil::clone_design(design);
    }

    const std::unique_ptr<Design> clone = rtlil::clone_design(design);
    EXPECT_EQ(clone->top()->connections().size(), m->connections().size());
    ASSERT_TRUE(map_matches_rebuild(*clone->top())) << "seed " << seed << " clone";

    rtlil::restore_module(*m, *snapshot->top());
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " restored";
    m->connect(random_slice(*m, rng, 1), random_slice(*m, rng, 1));
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " restored, then connected";

    Wire* spare = m->add_wire("spare", 2);
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed;
    m->remove_wire(spare);
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " after remove_wire";
    m->connect(random_slice(*m, rng, 2), random_slice(*m, rng, 2));
    ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " removed, then connected";
  }
}

TEST(AliasMap, SweepJournalConnectsKeepTheIndexConsistent) {
  // Journals as the walkers and fraig write them: some cells removed, each
  // one's output aliased onto its first input or onto a constant, applied
  // through NetlistIndex::connect. The index must equal a rebuild and the
  // module's map the reference after every journal.
  size_t journals = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Design design;
    Module* m = benchgen::random_netlist(design, "top", seed, 60);
    NetlistIndex index(*m);
    std::mt19937_64 rng(seed * 31337);
    for (int round = 0; round < 6 && m->cells().size() > 6; ++round) {
      opt::SweepJournal journal;
      std::unordered_set<Cell*> picked;
      for (int k = 0; k < 3; ++k) {
        Cell* c = m->cells()[rng() % m->cells().size()].get();
        if (c->type() == CellType::Dff || !picked.insert(c).second)
          continue;
        const SigSpec y = c->port(Port::Y);
        const SigSpec to = rng() % 4 == 0
                               ? SigSpec(rtlil::Const(static_cast<int>(rng() % 2), y.size()))
                               : c->port(Port::A).extended(y.size(), false);
        journal.removed.push_back(c);
        journal.connects.emplace_back(y, to);
      }
      opt::apply_sweep_journal(*m, index, journal);
      ASSERT_TRUE(rtlil::index_consistent(*m, index)) << "seed " << seed << " round " << round;
      ASSERT_TRUE(map_matches_rebuild(*m)) << "seed " << seed << " round " << round;
      ++journals;
    }
  }
  EXPECT_GE(journals, 60u);
}
