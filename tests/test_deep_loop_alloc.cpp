// Heap allocations of the deep loop's rounds: a fraig round whose classes
// need no SAT call, a rewrite round's setup, and the evaluation and
// planning of rewrite roots that commit nothing allocate a number of blocks
// that does not grow with the number of classes or roots. A counting global
// operator new sees every allocation the engines make; each check compares
// two generated sizes of one netlist family.
#include "rewrite/rewrite_engine.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>

namespace {
size_t g_allocations = 0;
} // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace smartly;
using rtlil::CellType;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

/// `n` two-bit And cells on fresh inputs, each output a port. With
/// `twin_bits` both bits of a cell compute a & b (one candidate class per
/// cell whose members share their driver: nothing to prove, so no SAT
/// call); without, the bits compute a & b and a & c (no class).
std::unique_ptr<rtlil::Design> and_pairs(size_t n, bool twin_bits) {
  auto design = std::make_unique<rtlil::Design>();
  Module* m = design->add_module("top");
  for (size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    Wire* a = m->add_wire("a" + k);
    Wire* b = m->add_wire("b" + k);
    Wire* c = m->add_wire("c" + k);
    Wire* y = m->add_wire("y" + k, 2);
    for (Wire* in : {a, b, c})
      m->set_port_input(in);
    m->set_port_output(y);
    SigSpec lhs(a);
    lhs.append(SigSpec(a));
    SigSpec rhs(b);
    rhs.append(SigSpec(twin_bits ? b : c));
    rtlil::Cell* cell = m->add_cell(CellType::And);
    cell->set_port(Port::A, lhs);
    cell->set_port(Port::B, rhs);
    cell->set_port(Port::Y, SigSpec(y));
    cell->infer_widths();
  }
  return design;
}

/// Allocations of one fraig_sweep call on and_pairs(n, twin_bits).
long fraig_allocations(size_t n, bool twin_bits, sweep::FraigStats* stats) {
  auto design = and_pairs(n, twin_bits);
  const size_t before = g_allocations;
  *stats = sweep::fraig_sweep(*design->top());
  return static_cast<long>(g_allocations - before);
}

/// `n` And cells on fresh inputs, each output a port: every cell is a
/// rewrite root.
std::unique_ptr<rtlil::Design> and_roots(size_t n) {
  auto design = std::make_unique<rtlil::Design>();
  Module* m = design->add_module("top");
  for (size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    Wire* a = m->add_wire("a" + k);
    Wire* b = m->add_wire("b" + k);
    Wire* y = m->add_wire("y" + k);
    m->set_port_input(a);
    m->set_port_input(b);
    m->set_port_output(y);
    m->connect(SigSpec(y), m->And(SigSpec(a), SigSpec(b)));
  }
  return design;
}

/// `n` copies of y = (a & b) | (a & c) whose two products are output ports
/// too. Each product's only cut rebuilds it, so its evaluation finds no
/// candidate; the Or's best candidate, a & (b | c), adds two cells and frees
/// only the Or, so the gain gate rejects its plan. Nothing commits.
std::unique_ptr<rtlil::Design> shared_products(size_t n) {
  auto design = std::make_unique<rtlil::Design>();
  Module* m = design->add_module("top");
  for (size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    Wire* a = m->add_wire("a" + k);
    Wire* b = m->add_wire("b" + k);
    Wire* c = m->add_wire("c" + k);
    Wire* p = m->add_wire("p" + k);
    Wire* q = m->add_wire("q" + k);
    Wire* y = m->add_wire("y" + k);
    for (Wire* in : {a, b, c})
      m->set_port_input(in);
    for (Wire* out : {p, q, y})
      m->set_port_output(out);
    m->connect(SigSpec(p), m->And(SigSpec(a), SigSpec(b)));
    m->connect(SigSpec(q), m->And(SigSpec(a), SigSpec(c)));
    m->connect(SigSpec(y), m->Or(SigSpec(p), SigSpec(q)));
  }
  return design;
}

} // namespace

TEST(DeepLoopAlloc, FraigRoundWithoutSatCallsAllocatesPerRoundNotPerClass) {
  // The twin and plain families differ only in their classes: same cells,
  // same pre-merge, same index and blast sizes. So the difference of their
  // allocation counts is what the classes cost, and it must not grow when
  // the class count quadruples.
  sweep::FraigStats twin_small, plain_small, twin_large, plain_large;
  const long small = fraig_allocations(200, true, &twin_small) -
                     fraig_allocations(200, false, &plain_small);
  const long large = fraig_allocations(800, true, &twin_large) -
                     fraig_allocations(800, false, &plain_large);
  ASSERT_EQ(twin_small.classes, 200u);
  ASSERT_EQ(twin_large.classes, 800u);
  ASSERT_EQ(plain_large.classes, 0u);
  ASSERT_EQ(twin_large.rounds, 1u);
  ASSERT_EQ(twin_large.sat_queries, 0u);
  ASSERT_EQ(twin_large.merged_cells, 0u);
  // Growing round arrays reallocate a few times per quadrupling.
  EXPECT_LE(large, small + 24) << "classes cost " << small << " allocations at 200 and "
                               << large << " at 800";
}

TEST(DeepLoopAlloc, RewriteRoundSetupAllocatesPerRoundNotPerRoot) {
  // Every root quarantined: the round builds its setup (anchors, root list,
  // structural-key map) over all of them and then evaluates none, so the
  // sweep's allocations are its setup's plus a per-call constant.
  const auto allocations = [](size_t n) {
    auto design = and_roots(n);
    Module& top = *design->top();
    util::QuarantineSet quarantine;
    {
      const rtlil::NetlistIndex index(top);
      for (const auto& cell : top.cells()) {
        const rtlil::SigBit bit = index.sigmap()(cell->port(Port::Y)[0]);
        quarantine.add("rewrite.eval", util::bit_unit_id(bit.wire->name(), bit.offset));
      }
    }
    rewrite::RewriteOptions options;
    options.quarantine = &quarantine;
    const size_t before = g_allocations;
    const rewrite::RewriteStats stats = rewrite::rewrite_sweep(top, options);
    const size_t made = g_allocations - before;
    EXPECT_EQ(stats.quarantined, n);
    EXPECT_EQ(stats.roots_evaluated, 0u);
    return made;
  };
  allocations(8); // builds the NPN table and the rewrite library once
  const size_t small = allocations(200);
  const size_t large = allocations(800);
  EXPECT_LE(large, small + 24) << "rewrite_sweep made " << small << " allocations at 200 roots and "
                               << large << " at 800";
}

TEST(DeepLoopAlloc, RewriteEvaluationAllocatesPerRoundNotPerRoot) {
  // Every root is evaluated and none commits, so the sweep is one round
  // whose roots only evaluate and plan: its allocations are the round's
  // tables plus a per-call constant, whatever the number of roots.
  const auto allocations = [](size_t n) {
    auto design = shared_products(n);
    const size_t before = g_allocations;
    const rewrite::RewriteStats stats = rewrite::rewrite_sweep(*design->top());
    const size_t made = g_allocations - before;
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_EQ(stats.roots_evaluated, 3 * n);
    EXPECT_EQ(stats.plans_rejected, n);
    EXPECT_EQ(stats.rewrites, 0u);
    EXPECT_EQ(stats.plans_noop, 0u);
    return made;
  };
  allocations(8); // builds the NPN table and the rewrite library once
  const size_t small = allocations(150);
  const size_t large = allocations(600);
  EXPECT_LE(large, small + 24) << "rewrite_sweep made " << small << " allocations at 450 roots and "
                               << large << " at 1800";
}
