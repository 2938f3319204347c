// Exhaustive packed (64-way) simulation of AIG sub-graphs.
//
// §II of the paper: "For a smaller number of inputs, simulation is more
// efficient, while the SAT solver is better suited for handling larger sets
// of inputs." This module is the simulation side: it enumerates all
// assignments of the sub-graph's free inputs 64 patterns at a time, discards
// patterns that contradict the known signal values (which is how logical
// dependencies between control signals are honoured), and reports whether
// the target signal is forced.
//
// The sweep terminates as soon as both target polarities have been observed
// rather than enumerating all 2^k assignments; `SimResult::early_exit`
// surfaces that event to the oracle's `sim_filter_half` counter.
#pragma once

#include "aig/aig.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace smartly::sim {

enum class Forced {
  None,          ///< target can be 0 or 1
  Zero,          ///< target is 0 under every consistent assignment
  One,           ///< target is 1 under every consistent assignment
  Contradiction, ///< no assignment satisfies the constraints (dead path)
};

struct SimOptions {
  int max_free_inputs = 14; ///< give up (Forced::None) above 2^14 patterns
};

struct SimResult {
  Forced forced = Forced::None;
  /// Every consistent assignment was examined (the verdict is exhaustive,
  /// not a give-up). False when free inputs exceed max_free_inputs or when
  /// the sweep exited early on None.
  bool exhausted = false;
  /// The sweep stopped before its last word because both target polarities
  /// had been observed ("half sweep" — surfaced as sim_filter_half).
  bool early_exit = false;
};

/// Decide whether `target` is forced under `constraints` (pairs of AIG
/// literal and required value), with early-exit accounting.
SimResult exhaustive_forced_ex(const aig::Aig& aig,
                               const std::vector<std::pair<aig::Lit, bool>>& constraints,
                               aig::Lit target, const SimOptions& options);

/// Exhaustively decide whether `target` is forced under `constraints`
/// (pairs of AIG literal and required value). Inputs directly constrained are
/// fixed; the rest are enumerated. Returns Forced::None without work if the
/// number of free inputs exceeds `max_free_inputs`.
Forced exhaustive_forced(const aig::Aig& aig,
                         const std::vector<std::pair<aig::Lit, bool>>& constraints,
                         aig::Lit target, int max_free_inputs = 14);

// --- multi-word signature simulation (SAT-sweeping support) ----------------
//
// The fraig engine classifies every combinational bit of a whole-netlist AIG
// by its behaviour over W×64 packed patterns, one 64-pattern batch at a time.

/// Per-node simulation words over W independent 64-pattern batches, stored
/// batch-major: word(node, w) is batch w's 64 pattern results for `node`.
struct SignatureTable {
  size_t words = 0;                 ///< number of 64-pattern batches (W)
  size_t nodes = 0;                 ///< aig.num_nodes() at simulation time
  std::vector<uint64_t> node_words; ///< [w * nodes + node]

  uint64_t word(uint32_t node, size_t w) const { return node_words[w * nodes + node]; }
  uint64_t lit_word(aig::Lit l, size_t w) const {
    const uint64_t v = word(aig::lit_node(l), w);
    return aig::lit_compl(l) ? ~v : v;
  }
};

/// Simulate all nodes of `aig` over the given batches. `batch_inputs[w]` is
/// one word per AIG input (Aig::inputs() order).
SignatureTable simulate_signatures(const aig::Aig& aig,
                                   const std::vector<std::vector<uint64_t>>& batch_inputs);

// --- cut truth-table extraction (DAG-aware rewriting support) --------------

/// Projection word of cut input `i` (i < 4): bit m of the word is the value
/// of input i in minterm m — the packed-simulation pattern set that makes one
/// 16-pattern sweep of a 4-leaf cone yield the cone's full truth table.
constexpr uint16_t cut_projection(size_t i) {
  constexpr uint16_t proj[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
  return proj[i];
}

/// Truth table of `root` as a function of up to four cut leaves, extracted by
/// packed simulation of the cone over the 16 projection patterns: leaf i's
/// *literal* takes cut_projection(i) (so a complemented leaf literal models
/// the complement anchor bit), interior nodes evaluate bitwise. Returns false
/// — and leaves `tt` untouched — if the cone escapes the leaf set (reaches a
/// primary input or the constant node that is not listed as a leaf), which
/// marks the cut unusable rather than being an error.
bool cut_truth_table(const aig::Aig& aig, aig::Lit root, const aig::Lit* leaves,
                     size_t num_leaves, uint16_t& tt);

} // namespace smartly::sim
