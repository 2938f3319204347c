// Region sweep engine: decision differentials against the walk-everything
// reference, region-partition safety invariants, incremental-index
// equivalence, and determinism of the full flow with rewrite on across two
// parses alive at once (byte-equal netlists, identical stats).
#include "backend/write_rtlil.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/sat_redundancy.hpp"
#include "core/smartly_pass.hpp"
#include "opt/parallel_sweep.hpp"
#include "opt/pipeline.hpp"
#include "opt/region_partition.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

using namespace smartly;

namespace {

std::unique_ptr<rtlil::Design> load(const std::string& verilog) {
  return verilog::read_verilog(verilog);
}

struct FlowResult {
  std::string netlist;
  core::SmartlyStats stats;
};

FlowResult run_flow(rtlil::Design& design) {
  core::SmartlyOptions opt;
  opt.enable_rewrite = true;
  FlowResult r;
  r.stats = core::smartly_flow(*design.top(), opt);
  r.netlist = backend::write_rtlil(*design.top());
  return r;
}

void expect_same_stats(const core::SmartlyStats& a, const core::SmartlyStats& b) {
  EXPECT_EQ(a.sat.queries, b.sat.queries);
  EXPECT_EQ(a.sat.decided_syntactic, b.sat.decided_syntactic);
  EXPECT_EQ(a.sat.decided_inference, b.sat.decided_inference);
  EXPECT_EQ(a.sat.decided_sim, b.sat.decided_sim);
  EXPECT_EQ(a.sat.decided_sat, b.sat.decided_sat);
  EXPECT_EQ(a.sat.dead_paths, b.sat.dead_paths);
  EXPECT_EQ(a.sat.skipped_too_large, b.sat.skipped_too_large);
  EXPECT_EQ(a.sat.gates_seen, b.sat.gates_seen);
  EXPECT_EQ(a.sat.gates_kept, b.sat.gates_kept);
  EXPECT_EQ(a.sat.sim_filter_kills, b.sat.sim_filter_kills);
  EXPECT_EQ(a.sat.sim_filter_half, b.sat.sim_filter_half);
  EXPECT_EQ(a.sat.sat_calls, b.sat.sat_calls);
  EXPECT_EQ(a.sat.solver_conflicts, b.sat.solver_conflicts);
  EXPECT_EQ(a.sat.walker.mux_collapsed, b.sat.walker.mux_collapsed);
  EXPECT_EQ(a.sat.walker.pmux_branches_removed, b.sat.walker.pmux_branches_removed);
  EXPECT_EQ(a.sat.walker.data_bits_replaced, b.sat.walker.data_bits_replaced);
  EXPECT_EQ(a.sat.walker.oracle_queries, b.sat.walker.oracle_queries);
  EXPECT_EQ(a.sat.walker.iterations, b.sat.walker.iterations);
  EXPECT_EQ(a.rebuild.trees_rebuilt, b.rebuild.trees_rebuilt);
  EXPECT_EQ(a.sweep.regions, b.sweep.regions);
  EXPECT_EQ(a.sweep.region_walks, b.sweep.region_walks);
  EXPECT_EQ(a.sweep.regions_skipped_clean, b.sweep.regions_skipped_clean);
  EXPECT_EQ(a.sweep.region_merges, b.sweep.region_merges);
  EXPECT_TRUE(sweep::same_work(a.fraig, b.fraig));
  EXPECT_TRUE(rewrite::same_work(a.rewrite, b.rewrite));
}

/// Two parses alive at once put every wire and cell at a different address,
/// so a decision keyed on pointers (hash-map iteration order) shows here.
void expect_fresh_parse_determinism(const std::string& verilog, const char* label) {
  SCOPED_TRACE(label);
  const auto first = load(verilog);
  const auto second = load(verilog);
  const FlowResult a = run_flow(*first);
  const FlowResult b = run_flow(*second);
  EXPECT_EQ(a.netlist, b.netlist);
  expect_same_stats(a.stats, b.stats);
}

} // namespace

TEST(ParallelSweep, ByteIdenticalOnFreshParsesOfPublicCircuits) {
  for (const auto& c : benchgen::public_suite()) {
    if (c.name != "pci_bridge32" && c.name != "mem_ctrl" && c.name != "tv80" &&
        c.name != "wb_conmax")
      continue; // small subset: determinism, not throughput
    expect_fresh_parse_determinism(c.verilog, c.name.c_str());
  }
}

TEST(ParallelSweep, ByteIdenticalOnFreshParsesOfRandomCircuits) {
  for (uint64_t seed : {11u, 23u, 47u, 91u})
    expect_fresh_parse_determinism(benchgen::random_verilog(seed, 8),
                                    ("random_" + std::to_string(seed)).c_str());
}

TEST(ParallelSweep, DecisionsMatchSerialEngine) {
  for (const auto& c : benchgen::public_suite()) {
    if (c.name != "pci_bridge32" && c.name != "ac97_ctrl")
      continue;
    SCOPED_TRACE(c.name);
    const auto golden = load(c.verilog);

    auto serial_design = rtlil::clone_design(*golden);
    opt::coarse_opt(*serial_design->top());
    opt::DecisionTrace serial_trace;
    core::InferenceOracle oracle({});
    opt::optimize_muxtrees(*serial_design->top(), oracle, &serial_trace);

    auto region_design = rtlil::clone_design(*golden);
    opt::coarse_opt(*region_design->top());
    opt::DecisionTrace trace;
    core::sat_redundancy_parallel(*region_design->top(), {}, 1, &trace);
    EXPECT_EQ(opt::canonical_trace(trace), opt::canonical_trace(serial_trace));
  }
}

TEST(ParallelSweep, EquivalentAndSameRemovalsAsSerial) {
  const auto golden = load(benchgen::public_suite().front().verilog);

  auto serial_design = rtlil::clone_design(*golden);
  opt::coarse_opt(*serial_design->top());
  const core::SatRedundancyStats serial = core::sat_redundancy(*serial_design->top());

  auto parallel_design = rtlil::clone_design(*golden);
  opt::coarse_opt(*parallel_design->top());
  opt::ParallelSweepStats sweep;
  const core::SatRedundancyStats parallel =
      core::sat_redundancy_parallel(*parallel_design->top(), {}, 1, nullptr, &sweep);

  // The serial engine re-walks every tree each sweep; the region engine
  // re-queues only regions near a change and must still remove the same.
  EXPECT_GT(sweep.regions_skipped_clean, 0u);
  EXPECT_EQ(parallel.walker.mux_collapsed, serial.walker.mux_collapsed);
  EXPECT_EQ(parallel.walker.pmux_branches_removed, serial.walker.pmux_branches_removed);
  EXPECT_EQ(parallel.walker.data_bits_replaced, serial.walker.data_bits_replaced);
  EXPECT_TRUE(cec::check_equivalence(*golden->top(), *parallel_design->top()).equivalent);
  EXPECT_TRUE(
      cec::check_equivalence(*serial_design->top(), *parallel_design->top()).equivalent);
}

TEST(ParallelSweep, RegionClosuresNeverContainForeignTrees) {
  // The safety invariant the whole engine rests on: no region's read closure
  // may contain another region's (mutable) mux cells.
  const auto design = load(benchgen::public_suite().front().verilog);
  rtlil::Module& top = *design->top();
  opt::coarse_opt(top);
  rtlil::NetlistIndex index(top);
  const opt::MuxtreeForest forest = opt::muxtree_forest(top, index);
  const opt::RegionPartition partition = opt::partition_regions(top, index, forest, 4);
  ASSERT_GT(partition.regions.size(), 1u);

  std::unordered_map<const rtlil::Cell*, size_t> owner;
  for (size_t i = 0; i < partition.regions.size(); ++i)
    for (rtlil::Cell* c : partition.regions[i].tree_cells)
      owner.emplace(c, i);
  size_t trees = 0;
  for (size_t i = 0; i < partition.regions.size(); ++i) {
    trees += partition.regions[i].roots.size();
    for (rtlil::Cell* c :
         opt::region_read_closure(index, partition.regions[i].tree_cells, 4)) {
      auto it = owner.find(c);
      if (it != owner.end()) {
        EXPECT_EQ(it->second, i) << "closure of region " << i << " reaches region "
                                 << it->second;
      }
    }
  }
  EXPECT_EQ(trees, partition.trees);
}

TEST(ParallelSweep, IncrementalIndexMatchesRebuildAfterSweep) {
  // Walk + journal application must leave the shared index equal to a
  // from-scratch rebuild of the edited module: same driver, same fanout
  // (reader-entry multiset size), same output-port flags per canonical net.
  const auto design = load(benchgen::public_suite().front().verilog);
  rtlil::Module& top = *design->top();
  opt::coarse_opt(top);

  rtlil::NetlistIndex incremental(top);
  core::InferenceOracle oracle({});
  opt::MuxtreeStats stats;
  size_t sweeps = 0;
  for (size_t iter = 0; iter < 16; ++iter) {
    ++sweeps;
    oracle.begin_module(top, incremental);
    opt::SweepJournal journal;
    opt::MuxtreeWalker walker(incremental, oracle, stats, journal);
    const opt::MuxtreeForest forest = opt::muxtree_forest(top, incremental);
    for (rtlil::Cell* root : forest.roots)
      walker.walk_root(root);
    if (!walker.changed())
      break;
    opt::apply_sweep_journal(top, incremental, journal);
  }
  ASSERT_GT(sweeps, 1u); // the incremental path actually ran
  EXPECT_GT(stats.mux_collapsed + stats.pmux_branches_removed, 0u);

  const rtlil::NetlistIndex rebuilt(top);
  for (const auto& w : top.wires())
    for (int i = 0; i < w->width(); ++i) {
      const rtlil::SigBit bit(w.get(), i);
      EXPECT_EQ(incremental.driver(bit), rebuilt.driver(bit));
      EXPECT_EQ(incremental.fanout(bit), rebuilt.fanout(bit));
      EXPECT_EQ(incremental.drives_output_port(bit), rebuilt.drives_output_port(bit));
      EXPECT_EQ(incremental.sigmap()(bit), rebuilt.sigmap()(bit));
    }
  // Topo positions must stay a valid linear extension: every combinational
  // reader sits after its driver.
  for (const auto& cptr : top.cells()) {
    rtlil::Cell* c = cptr.get();
    if (c->type() == rtlil::CellType::Dff)
      continue;
    for (rtlil::Port p : c->input_ports())
      for (const rtlil::SigBit& raw : c->port(p)) {
        rtlil::Cell* d = incremental.driver(raw);
        if (d && d->type() != rtlil::CellType::Dff) {
          EXPECT_LT(incremental.topo_position(d), incremental.topo_position(c));
        }
      }
  }
}

TEST(ParallelSweep, EmptyAndMuxFreeModules) {
  rtlil::Design d;
  rtlil::Module* m = d.add_module("empty");
  core::InferenceOracle oracle({});
  const opt::ParallelSweepStats stats = opt::parallel_sweep(*m, oracle, {});
  EXPECT_EQ(stats.regions, 0u);
  EXPECT_EQ(stats.region_walks, 0u);
  EXPECT_EQ(stats.walker.iterations, 1u);
}
