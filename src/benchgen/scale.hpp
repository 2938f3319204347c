// Multi-million-AIG-node benchmark families for timing the engines at scale
// (bench_rewrite --scale-nodes).
//
// The classic suites (public/industrial/random) top out at a few thousand
// AIG nodes — far too small to show how a layer's cost grows: the rewrite
// engine's per-round fixed costs dominate. These generators build
// gate-level netlists *directly on the IR* (no Verilog round-trip, which
// would dominate generation time at this size) with a target AIG-node budget
// in the millions.
//
// Two families, mirroring the classic split:
//  * scale_random      — a layered random DAG of word-wide And/Or/Xor/Mux/Not
//    gates over a sliding signal window. A round-robin cursor guarantees
//    every produced signal is read again, so nearly the whole graph stays
//    live and the rewrite engine sees the full root population.
//  * scale_industrial  — replicated datapath tiles (and/xor halves re-merged
//    by muxes, same-control redundancy, or-of-ands decompositions) drawing
//    operands from the sliding window; deliberately redundant structure of
//    the kind DAG-aware rewriting exploits, so commits actually happen at
//    scale.
//
// Generation is a pure function of (seed, spec): byte-identical modules on
// every run and platform.
#pragma once

#include "rtlil/module.hpp"

#include <cstdint>
#include <string>

namespace smartly::benchgen {

struct ScaleSpec {
  uint64_t seed = 1;
  /// Approximate AIG-node budget (AND nodes after bit blasting). Generation
  /// stops at the first gate that crosses it, so the real count overshoots
  /// by at most one gate's worth of nodes.
  size_t target_aig_nodes = 1000000;
  /// Word width of the generated gates. Wider words mean fewer RTLIL cells
  /// per AIG node (cheaper generation) but coarser rewrite roots.
  int width = 8;
};

/// Build the scale_random family member into `design` as module `name`.
rtlil::Module* scale_random_netlist(rtlil::Design& design, const std::string& name,
                                    const ScaleSpec& spec);

/// Build the scale_industrial family member into `design` as module `name`.
rtlil::Module* scale_industrial_netlist(rtlil::Design& design, const std::string& name,
                                        const ScaleSpec& spec);

} // namespace smartly::benchgen
