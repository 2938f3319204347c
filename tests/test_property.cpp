// Property-based tests: randomized circuits driven through every optimizer
// with machine-checked invariants —
//   P1  every flow preserves functional equivalence (CEC)
//   P2  optimization never increases AIG area
//   P3  word-level evaluator == AIG bit-blast semantics (random netlists)
//   P4  smartly_flow(x) is idempotent on area
//   P5  restructuring + redundancy elimination compose soundly in any order
#include "aig/aigmap.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/smartly_pass.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_reduce.hpp"
#include "opt/pipeline.hpp"
#include "core/mux_restructure.hpp"
#include "core/sat_redundancy.hpp"
#include "rtlil/sigmap.hpp"
#include "sim/eval.hpp"
#include "util/hashing.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using rtlil::Const;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;
using rtlil::Wire;

// --- P1 + P2: flows preserve equivalence and never grow the circuit ---------

class FlowProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowProperties, AllFlowsEquivalentAndMonotone) {
  const uint64_t seed = GetParam();
  const std::string src = benchgen::random_verilog(seed, 5);

  size_t area_original = 0;
  {
    auto d = verilog::read_verilog(src);
    opt::original_flow(*d->top());
    area_original = aig::aig_area(*d->top());
  }
  size_t area_yosys = 0;
  {
    auto d = verilog::read_verilog(src);
    auto golden = rtlil::clone_design(*d);
    opt::yosys_flow(*d->top());
    const auto r = cec::check_equivalence(*golden->top(), *d->top());
    ASSERT_TRUE(r.equivalent) << "yosys_flow seed=" << seed << " out=" << r.failing_output;
    area_yosys = aig::aig_area(*d->top());
  }
  size_t area_smartly = 0;
  {
    auto d = verilog::read_verilog(src);
    auto golden = rtlil::clone_design(*d);
    core::smartly_flow(*d->top());
    const auto r = cec::check_equivalence(*golden->top(), *d->top());
    ASSERT_TRUE(r.equivalent) << "smartly_flow seed=" << seed
                              << " out=" << r.failing_output;
    area_smartly = aig::aig_area(*d->top());
  }
  EXPECT_LE(area_yosys, area_original) << seed;
  EXPECT_LE(area_smartly, area_yosys) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowProperties, ::testing::Range<uint64_t>(1, 30));

// --- P3: evaluator vs AIG on random word-level netlists ----------------------

class EvalVsAig : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalVsAig, RandomNetlistSemanticsAgree) {
  const uint64_t seed = GetParam();
  rtlil::Design design;
  Module* mod = benchgen::random_netlist(design, "rand", seed, 20);

  const aig::AigMap m = aig::aigmap(*mod);
  const rtlil::SigMap sm(*mod);

  std::vector<Wire*> ins;
  for (const auto& w : mod->wires())
    if (w->port_input)
      ins.push_back(w.get());

  Rng rng(seed * 77 + 1);
  for (int trial = 0; trial < 16; ++trial) {
    sim::Evaluator ev(*mod);
    std::vector<uint64_t> aig_in(m.aig.num_inputs(), 0);
    // Map AIG input node -> index once.
    std::unordered_map<uint32_t, size_t> input_index;
    for (size_t k = 0; k < m.aig.inputs().size(); ++k)
      input_index[m.aig.inputs()[k]] = k;

    for (Wire* w : ins) {
      const uint64_t v = rng.next() & ((w->width() >= 64) ? ~0ull
                                                          : ((uint64_t(1) << w->width()) - 1));
      ev.set_input(w, Const(v, w->width()));
      for (int i = 0; i < w->width(); ++i) {
        const SigBit canon = sm(SigBit(w, i));
        const aig::Lit l = m.find(canon);
        if (l == aig::kNoLit)
          continue;
        const auto ii = input_index.find(aig::lit_node(l));
        if (ii != input_index.end())
          aig_in[ii->second] = ((v >> i) & 1) ? ~0ull : 0ull;
      }
    }
    ev.run();
    const auto words = m.aig.simulate(aig_in);

    for (const auto& w : mod->wires()) {
      if (!w->port_output)
        continue;
      for (int i = 0; i < w->width(); ++i) {
        const SigBit raw(w.get(), i);
        const State want = ev.value(sm(raw));
        if (want != State::S0 && want != State::S1)
          continue; // x: aigmap resolves to 0, evaluator keeps x
        const SigBit canon = sm(raw);
        if (canon.is_const())
          continue;
        const aig::Lit l = m.find(canon);
        ASSERT_NE(l, aig::kNoLit) << w->name() << "[" << i << "]";
        const uint64_t got = aig::Aig::sim_lit(words, l) & 1;
        EXPECT_EQ(got, want == State::S1 ? 1u : 0u)
            << "seed=" << seed << " trial=" << trial << " " << w->name() << "[" << i << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalVsAig, ::testing::Range<uint64_t>(1, 40));

// --- P4: idempotence ---------------------------------------------------------

class Idempotence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Idempotence, SecondSmartlyRunIsANoopOnArea) {
  const uint64_t seed = GetParam();
  const std::string src = benchgen::random_verilog(seed, 4);
  auto d = verilog::read_verilog(src);
  core::smartly_flow(*d->top());
  const size_t once = aig::aig_area(*d->top());
  core::smartly_flow(*d->top());
  const size_t twice = aig::aig_area(*d->top());
  EXPECT_LE(twice, once) << seed;
  // Allow tiny additional gains (second pass may see newly exposed trees)
  // but a blow-up indicates the pass is not converging.
  EXPECT_GE(twice + twice / 4 + 4, once) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Idempotence, ::testing::Range<uint64_t>(1, 12));

// --- P5: engine composition order --------------------------------------------

class EngineOrder : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOrder, BothOrdersSoundAndComparable) {
  const uint64_t seed = GetParam();
  const benchgen::Profile p{.case_chains = 2,
                            .dependent = 2,
                            .same_ctrl = 1,
                            .decoders = 1,
                            .datapath = 1,
                            .width = 8};
  const std::string src = benchgen::generate_circuit("mix", p, seed).verilog;

  auto run = [&](bool rebuild_first) {
    auto d = verilog::read_verilog(src);
    auto golden = rtlil::clone_design(*d);
    opt::coarse_opt(*d->top());
    if (rebuild_first) {
      core::mux_restructure(*d->top(), {});
      core::sat_redundancy(*d->top(), {});
    } else {
      core::sat_redundancy(*d->top(), {});
      core::mux_restructure(*d->top(), {});
    }
    opt::coarse_opt(*d->top());
    const auto r = cec::check_equivalence(*golden->top(), *d->top());
    EXPECT_TRUE(r.equivalent) << "seed=" << seed << " rebuild_first=" << rebuild_first
                              << " out=" << r.failing_output;
    return aig::aig_area(*d->top());
  };

  const size_t rebuild_then_sat = run(true);
  const size_t sat_then_rebuild = run(false);
  // Both orders must be sound; areas may differ but not wildly.
  const size_t lo = std::min(rebuild_then_sat, sat_then_rebuild);
  const size_t hi = std::max(rebuild_then_sat, sat_then_rebuild);
  EXPECT_LE(hi, lo * 2 + 16) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrder, ::testing::Range<uint64_t>(1, 10));

// --- bonus: evaluator self-consistency on public circuits --------------------

TEST(PropertySmoke, PublicSuiteSmallProfilesOptimizeSoundly) {
  benchgen::Profile p = benchgen::profile_for("riscv");
  p.case_chains = 2;
  p.dependent = 2;
  p.same_ctrl = 1;
  p.decoders = 1;
  p.datapath = 1;
  p.registered_outputs = 1;
  const auto c = benchgen::generate_circuit("riscv_small", p, 5);
  auto d = verilog::read_verilog(c.verilog);
  auto golden = rtlil::clone_design(*d);
  core::smartly_flow(*d->top());
  const auto r = cec::check_equivalence(*golden->top(), *d->top());
  EXPECT_TRUE(r.equivalent) << r.failing_output;
}

// --- P6: the opt_reduce extension composes with the full pipeline ------------

class OptReduceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptReduceProperty, ReduceAfterSmartlyStaysEquivalentAndMonotone) {
  const uint64_t seed = GetParam();
  const std::string src = benchgen::random_verilog(seed, 4);
  auto d = verilog::read_verilog(src);
  auto golden = rtlil::clone_design(*d);
  core::smartly_flow(*d->top());
  const size_t area_smartly = aig::aig_area(*d->top());
  opt::opt_reduce(*d->top());
  opt::opt_clean(*d->top());
  const auto r = cec::check_equivalence(*golden->top(), *d->top());
  ASSERT_TRUE(r.equivalent) << "seed " << seed << " out=" << r.failing_output;
  EXPECT_LE(aig::aig_area(*d->top()), area_smartly + 2) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptReduceProperty, ::testing::Range<uint64_t>(1, 12));

// --- P7: random netlists (with pmux and signed cells) survive every pass ----

class NetlistPassProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetlistPassProperty, AllPassesSoundOnRawNetlists) {
  const uint64_t seed = GetParam();
  rtlil::Design d;
  Module* m = benchgen::random_netlist(d, "top", seed, 30);
  auto golden = rtlil::clone_design(d);

  opt::coarse_opt(*m);
  core::mux_restructure(*m, {});
  core::sat_redundancy(*m, {});
  opt::opt_reduce(*m);
  opt::coarse_opt(*m);
  EXPECT_NO_THROW(m->check());
  const auto r = cec::check_equivalence(*golden->top(), *m);
  EXPECT_TRUE(r.equivalent) << "seed " << seed << " out=" << r.failing_output;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistPassProperty, ::testing::Range<uint64_t>(1, 25));
