// opt_clean (dead-cell elimination) and opt_merge (structural sharing),
// and the structural key both share with the fraig pre-merge and rewrite.
#include "opt/opt_clean.hpp"
#include "opt/opt_merge.hpp"
#include "rtlil/design_stats.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "sweep/equiv_classes.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace smartly;
using rtlil::Cell;
using rtlil::CellType;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;
using rtlil::Wire;

namespace {

struct Fixture {
  Design design;
  Module* mod;
  Fixture() { mod = design.add_module("top"); }
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

TEST(OptClean, RemovesUnreadCell) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), f.mod->And(SigSpec(a), SigSpec(b)));
  (void)f.mod->Or(SigSpec(a), SigSpec(b)); // dead
  EXPECT_EQ(f.mod->cell_count(), 2u);
  EXPECT_EQ(opt::opt_clean(*f.mod), 1u);
  EXPECT_EQ(f.mod->cell_count(), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 1u);
}

TEST(OptClean, RemovesDeadChainTransitively) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(y), SigSpec(a));
  // Three-cell dead chain.
  const SigSpec t1 = f.mod->Not(SigSpec(a));
  const SigSpec t2 = f.mod->Not(t1);
  (void)f.mod->Not(t2);
  EXPECT_EQ(opt::opt_clean(*f.mod), 3u);
  EXPECT_EQ(f.mod->cell_count(), 0u);
}

TEST(OptClean, KeepsCellsFeedingOutputs) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* y = f.out("y", 4);
  const SigSpec t1 = f.mod->Not(SigSpec(a));
  f.mod->connect(SigSpec(y), f.mod->Not(t1));
  EXPECT_EQ(opt::opt_clean(*f.mod), 0u);
  EXPECT_EQ(f.mod->cell_count(), 2u);
}

TEST(OptClean, KeepsDffsAndTheirCones) {
  // A dff whose Q never reaches an output is still kept if its Q is read —
  // and the D-cone of a live dff must be kept alive.
  Fixture f;
  Wire* clk = f.in("clk", 1);
  Wire* a = f.in("a", 4);
  Wire* q = f.mod->add_wire("q", 4);
  Wire* y = f.out("y", 4);
  const SigSpec d = f.mod->Not(SigSpec(a)); // D-cone cell
  f.mod->add_dff(d, SigSpec(q), SigSpec(clk));
  f.mod->connect(SigSpec(y), SigSpec(q));
  EXPECT_EQ(opt::opt_clean(*f.mod), 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::Dff), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::Not), 1u);
}

TEST(OptClean, RemovesDeadDff) {
  Fixture f;
  Wire* clk = f.in("clk", 1);
  Wire* a = f.in("a", 4);
  Wire* q = f.mod->add_wire("q", 4);
  Wire* y = f.out("y", 4);
  f.mod->add_dff(SigSpec(a), SigSpec(q), SigSpec(clk)); // q unread
  f.mod->connect(SigSpec(y), SigSpec(a));
  EXPECT_EQ(opt::opt_clean(*f.mod), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::Dff), 0u);
}

TEST(OptClean, AliasThroughConnectionKeepsDriver) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* t = f.mod->add_wire("t", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(t), f.mod->Not(SigSpec(a)));
  f.mod->connect(SigSpec(y), SigSpec(t)); // y <- t <- $not
  EXPECT_EQ(opt::opt_clean(*f.mod), 0u);
  EXPECT_EQ(f.mod->cell_count(), 1u);
}

TEST(OptClean, EmptyModuleIsFine) {
  Fixture f;
  EXPECT_EQ(opt::opt_clean(*f.mod), 0u);
}

// --- opt_merge --------------------------------------------------------------

TEST(OptMerge, MergesIdenticalCells) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->connect(SigSpec(y0), f.mod->And(SigSpec(a), SigSpec(b)));
  f.mod->connect(SigSpec(y1), f.mod->And(SigSpec(a), SigSpec(b)));
  EXPECT_EQ(opt::opt_merge(*f.mod), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::And), 1u);
  // Both outputs must now alias the same net.
  const rtlil::SigMap sm(*f.mod);
  EXPECT_EQ(sm(SigSpec(y0)), sm(SigSpec(y1)));
}

TEST(OptMerge, NormalizesCommutativeOperandOrder) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->connect(SigSpec(y0), f.mod->And(SigSpec(a), SigSpec(b)));
  f.mod->connect(SigSpec(y1), f.mod->And(SigSpec(b), SigSpec(a))); // swapped
  EXPECT_EQ(opt::opt_merge(*f.mod), 1u);
}

TEST(OptMerge, DoesNotMergeNonCommutativeSwapped) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->connect(SigSpec(y0), f.mod->Sub(SigSpec(a), SigSpec(b), 4));
  f.mod->connect(SigSpec(y1), f.mod->Sub(SigSpec(b), SigSpec(a), 4));
  EXPECT_EQ(opt::opt_merge(*f.mod), 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::Sub), 2u);
}

TEST(OptMerge, DoesNotMergeDifferentTypes) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->connect(SigSpec(y0), f.mod->And(SigSpec(a), SigSpec(b)));
  f.mod->connect(SigSpec(y1), f.mod->Or(SigSpec(a), SigSpec(b)));
  EXPECT_EQ(opt::opt_merge(*f.mod), 0u);
}

TEST(OptMerge, DoesNotMergeDifferentWidthResults) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 5);
  f.mod->connect(SigSpec(y0), f.mod->Add(SigSpec(a), SigSpec(b), 4));
  f.mod->connect(SigSpec(y1), f.mod->Add(SigSpec(a), SigSpec(b), 5));
  EXPECT_EQ(opt::opt_merge(*f.mod), 0u);
}

TEST(OptMerge, MergesCascadeToFixpoint) {
  // Two identical 2-level trees: merging the leaves makes the roots identical.
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* c = f.in("c", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->connect(SigSpec(y0), f.mod->Or(f.mod->And(SigSpec(a), SigSpec(b)), SigSpec(c)));
  f.mod->connect(SigSpec(y1), f.mod->Or(f.mod->And(SigSpec(a), SigSpec(b)), SigSpec(c)));
  EXPECT_EQ(opt::opt_merge(*f.mod), 2u);
  EXPECT_EQ(f.mod->cell_count(), 2u);
}

TEST(OptMerge, CascadeConnectsLandInIterationOrder) {
  // A and B are identical; C reads B's output and D reads A's. C and D
  // become identical only once B's merge is in the map, which an iteration
  // reads as it found it: they merge in the next iteration, after E and F.
  Fixture f;
  Wire* a = f.in("a", 2);
  Wire* b = f.in("b", 2);
  const SigSpec ya = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec yb = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec yc = f.mod->Not(yb);
  const SigSpec yd = f.mod->Not(ya);
  const SigSpec ye = f.mod->Xor(SigSpec(a), SigSpec(b));
  const SigSpec yf = f.mod->Xor(SigSpec(b), SigSpec(a));
  int i = 0;
  for (const SigSpec* y : {&ya, &yc, &yd, &ye, &yf})
    f.mod->connect(SigSpec(f.out(("y" + std::to_string(i++)).c_str(), 2)), *y);

  EXPECT_EQ(opt::opt_merge(*f.mod), 3u);
  EXPECT_EQ(cells_and_connections(*f.mod), "  cell $and $and$1\n"
                                            "  cell $not $not$5\n"
                                            "  cell $xor $xor$9\n"
                                            "  connect {y0} = {$sig$0}\n"
                                            "  connect {y1} = {$sig$4}\n"
                                            "  connect {y2} = {$sig$6}\n"
                                            "  connect {y3} = {$sig$8}\n"
                                            "  connect {y4} = {$sig$10}\n"
                                            "  connect {$sig$2} = {$sig$0}\n"
                                            "  connect {$sig$10} = {$sig$8}\n"
                                            "  connect {$sig$6} = {$sig$4}\n");
}

TEST(OptMerge, MergesIdenticalDffs) {
  // Two dffs with the same D and CLK always hold the same value: merging is
  // sound (Yosys's opt_merge does the same).
  Fixture f;
  Wire* clk = f.in("clk", 1);
  Wire* a = f.in("a", 4);
  Wire* q0 = f.mod->add_wire("q0", 4);
  Wire* q1 = f.mod->add_wire("q1", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->add_dff(SigSpec(a), SigSpec(q0), SigSpec(clk));
  f.mod->add_dff(SigSpec(a), SigSpec(q1), SigSpec(clk));
  f.mod->connect(SigSpec(y0), SigSpec(q0));
  f.mod->connect(SigSpec(y1), SigSpec(q1));
  EXPECT_EQ(opt::opt_merge(*f.mod), 1u);
  EXPECT_EQ(f.mod->count_cells(CellType::Dff), 1u);
}

TEST(OptMerge, DoesNotMergeDffsWithDifferentClocks) {
  Fixture f;
  Wire* clk0 = f.in("clk0", 1);
  Wire* clk1 = f.in("clk1", 1);
  Wire* a = f.in("a", 4);
  Wire* q0 = f.mod->add_wire("q0", 4);
  Wire* q1 = f.mod->add_wire("q1", 4);
  Wire* y0 = f.out("y0", 4);
  Wire* y1 = f.out("y1", 4);
  f.mod->add_dff(SigSpec(a), SigSpec(q0), SigSpec(clk0));
  f.mod->add_dff(SigSpec(a), SigSpec(q1), SigSpec(clk1));
  f.mod->connect(SigSpec(y0), SigSpec(q0));
  f.mod->connect(SigSpec(y1), SigSpec(q1));
  EXPECT_EQ(opt::opt_merge(*f.mod), 0u);
  EXPECT_EQ(f.mod->count_cells(CellType::Dff), 2u);
}

TEST(OptMergeClean, PipelineShrinksRedundantCircuit) {
  Fixture f;
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  Wire* y = f.out("y", 8);
  // Four copies of the same expression, only one feeds the output.
  const SigSpec e0 = f.mod->Xor(f.mod->And(SigSpec(a), SigSpec(b)), SigSpec(b));
  for (int i = 0; i < 3; ++i)
    (void)f.mod->Xor(f.mod->And(SigSpec(a), SigSpec(b)), SigSpec(b));
  f.mod->connect(SigSpec(y), e0);
  EXPECT_EQ(f.mod->cell_count(), 8u);
  opt::opt_merge(*f.mod);
  opt::opt_clean(*f.mod);
  EXPECT_EQ(f.mod->cell_count(), 2u);
}

// --- structural key -----------------------------------------------------------

namespace {

/// The key and the comparison as first defined, over canonical input
/// SigSpecs with commutative operands ordered by SigSpec hash: the
/// reference the allocation-free versions must reproduce exactly.
std::vector<std::pair<Port, SigSpec>> reference_inputs(const Cell& cell,
                                                       const rtlil::SigMap& sigmap) {
  std::vector<std::pair<Port, SigSpec>> inputs;
  for (Port port : cell.input_ports())
    inputs.emplace_back(port, sigmap(cell.port(port)));
  if (sweep::cell_inputs_commutative(cell.type()) && inputs.size() >= 2 &&
      inputs[1].second.hash() < inputs[0].second.hash())
    std::swap(inputs[0].second, inputs[1].second);
  return inputs;
}

Hash128 reference_key(const Cell& cell, const rtlil::SigMap& sigmap) {
  const rtlil::CellParams& p = cell.params();
  Hash128 k{hash_mix(static_cast<uint64_t>(cell.type())),
            hash_mix(static_cast<uint64_t>(cell.type()) ^ 0x9216d5d98979fb1bULL)};
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.a_width)) << 32) |
                             static_cast<uint32_t>(p.b_width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.y_width)) << 32) |
                             static_cast<uint32_t>(p.width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.s_width)) << 2) |
                             (p.a_signed ? 2u : 0u) | (p.b_signed ? 1u : 0u));
  for (const auto& [port, sig] : reference_inputs(cell, sigmap)) {
    k = hash128_combine(k, static_cast<uint64_t>(port));
    for (const SigBit& bit : sig)
      k = hash128_combine(k, bit.hash());
  }
  return k;
}

bool reference_identical(const Cell& a, const Cell& b, const rtlil::SigMap& sigmap) {
  const rtlil::CellParams& pa = a.params();
  const rtlil::CellParams& pb = b.params();
  return a.type() == b.type() && pa.a_width == pb.a_width && pa.b_width == pb.b_width &&
         pa.y_width == pb.y_width && pa.width == pb.width && pa.s_width == pb.s_width &&
         pa.a_signed == pb.a_signed && pa.b_signed == pb.b_signed &&
         reference_inputs(a, sigmap) == reference_inputs(b, sigmap);
}

} // namespace

TEST(StructuralKey, MatchesTheNormalizedInputsReference) {
  // Random cells of every type over a module whose nets have several names:
  // q_i aliases p_i, r aliases q_0 (a chain) and k is tied to constants.
  // Each cell gets a twin whose inputs name the same nets through random
  // aliases, with commutative operands swapped at random and, at times, one
  // bit changed. Keys and comparisons must equal the reference's.
  std::mt19937_64 rng(2024);
  Design design;
  Module* m = design.add_module("top");
  std::vector<Wire*> p;
  for (int i = 0; i < 4; ++i)
    p.push_back(m->add_wire("p" + std::to_string(i), 4));
  for (int i = 0; i < 3; ++i)
    m->connect(SigSpec(m->add_wire("q" + std::to_string(i), 4)),
               SigSpec(p[static_cast<size_t>(i)]));
  m->connect(SigSpec(m->add_wire("r", 4)), SigSpec(m->wire("q0")));
  m->connect(SigSpec(m->add_wire("k", 4)), SigSpec(Const(0b0110, 4)));
  const rtlil::SigMap& sigmap = m->sigmap();

  // Every name of every net: wire bits and the constants, by representative.
  std::vector<SigBit> names = {SigBit(State::S0), SigBit(State::S1), SigBit(State::Sx)};
  for (const auto& w : m->wires())
    for (int i = 0; i < w->width(); ++i)
      names.emplace_back(w.get(), i);
  std::map<SigBit, std::vector<SigBit>> aliases;
  for (const SigBit& n : names)
    aliases[sigmap(n)].push_back(n);
  const auto random_sig = [&](int width) {
    SigSpec s;
    for (int i = 0; i < width; ++i)
      s.append(names[rng() % names.size()]);
    return s;
  };
  const auto renamed = [&](const SigSpec& sig) {
    SigSpec s;
    for (const SigBit& bit : sig) {
      const std::vector<SigBit>& group = aliases[sigmap(bit)];
      s.append(group[rng() % group.size()]);
    }
    return s;
  };

  size_t identical = 0, different = 0;
  for (int t = 0; t <= static_cast<int>(CellType::Dff); ++t) {
    const CellType type = static_cast<CellType>(t);
    for (int n = 0; n < 40; ++n) {
      const int width = 1 + static_cast<int>(rng() % 3);
      Cell* c = m->add_cell(type);
      if (type == CellType::Dff) {
        c->set_port(Port::D, random_sig(width));
        c->set_port(Port::Clk, random_sig(1));
        c->set_port(Port::Q, SigSpec(m->new_wire(width)));
      } else {
        c->set_port(Port::A, random_sig(width));
        if (type == CellType::Pmux) {
          const int cases = 1 + static_cast<int>(rng() % 3);
          c->set_port(Port::B, random_sig(width * cases));
          c->set_port(Port::S, random_sig(cases));
        } else if (type == CellType::Mux) {
          c->set_port(Port::B, random_sig(width));
          c->set_port(Port::S, random_sig(1));
        } else if (rtlil::cell_is_binary(type)) {
          c->set_port(Port::B, random_sig(1 + static_cast<int>(rng() % 3)));
        }
        c->set_port(Port::Y, SigSpec(m->new_wire(type == CellType::Pmux || type == CellType::Mux
                                                       ? width
                                                       : 1 + static_cast<int>(rng() % 3))));
      }
      c->infer_widths();
      c->params().a_signed = rng() % 4 == 0;

      Cell* twin = m->add_cell(type);
      twin->params() = c->params();
      for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
        const Port port = static_cast<Port>(pi);
        if (c->has_port(port))
          twin->set_port(port, port == c->output_port() ? SigSpec(m->new_wire(c->port(port).size()))
                                                        : renamed(c->port(port)));
      }
      if (sweep::cell_inputs_commutative(type) && rng() % 2) {
        const SigSpec a = twin->port(Port::A);
        twin->set_port(Port::A, twin->port(Port::B));
        twin->set_port(Port::B, a);
        twin->infer_widths();
      }
      if (rng() % 4 == 0) {
        const Port port = twin->input_ports()[rng() % twin->input_ports().size()];
        SigSpec sig = twin->port(port);
        const int at = static_cast<int>(rng() % static_cast<uint64_t>(sig.size()));
        sig[at] = names[rng() % names.size()];
        twin->set_port(port, sig);
      }

      for (const Cell* cell : {c, twin})
        ASSERT_EQ(sweep::cell_structural_key(*cell, sigmap), reference_key(*cell, sigmap))
            << cell->name();
      const bool want = reference_identical(*c, *twin, sigmap);
      ASSERT_EQ(sweep::cell_structurally_identical(*c, *twin, sigmap), want) << c->name();
      ASSERT_EQ(sweep::cell_structurally_identical(*twin, *c, sigmap), want) << c->name();
      ++(want ? identical : different);
    }
  }
  EXPECT_GT(identical, 200u);
  EXPECT_GT(different, 100u);
}
