// And-Inverter Graph with structural hashing.
//
// The paper measures quality as "AIG area, specifically the number of AND
// gates in the optimized circuit" after Yosys `aigmap`; this package provides
// that graph plus 64-way packed simulation (used for exhaustive sub-graph
// evaluation in §II) and is the substrate for CNF encoding / CEC.
#pragma once

#include "util/hashing.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace smartly::aig {

/// AIG literal: 2*node + complement. Node 0 is constant false, so literal 0
/// is FALSE and literal 1 is TRUE.
using Lit = uint32_t;

constexpr Lit kFalse = 0;
constexpr Lit kTrue = 1;

/// "No such node" sentinel returned by the non-mutating strash probes.
constexpr Lit kNoLit = 0xffffffffu;

inline Lit mk_lit(uint32_t node, bool complement = false) { return node * 2 + (complement ? 1 : 0); }
inline uint32_t lit_node(Lit l) noexcept { return l >> 1; }
inline bool lit_compl(Lit l) noexcept { return l & 1; }
inline Lit lit_not(Lit l) noexcept { return l ^ 1; }
/// lit_not for the strash probes: a kNoLit operand gives kNoLit.
inline Lit find_not(Lit l) noexcept { return l == kNoLit ? kNoLit : lit_not(l); }

class Aig {
public:
  Aig();

  /// Create a new primary input; returns its (positive) literal. A name is
  /// stored only when one is given (see input_name).
  Lit add_input();
  Lit add_input(std::string name);

  /// Size the graph for `ands` more AND nodes and `inputs` more inputs: the
  /// node array's capacity and a strash table that holds them without
  /// regrowing. Growing past the estimate still works; the graph built is
  /// the same either way.
  void reserve(size_t ands, size_t inputs);

  /// Register an output. Returns the output index.
  int add_output(Lit l);
  int add_output(Lit l, std::string name);

  // --- construction (with constant folding + structural hashing) ----------
  // A gate built from several ANDs creates them in a fixed order, so the
  // node numbering (and the AIGER output) does not depend on the compiler.
  Lit and_(Lit a, Lit b);
  Lit or_(Lit a, Lit b);
  Lit xor_(Lit a, Lit b);
  Lit xnor_(Lit a, Lit b) { return lit_not(xor_(a, b)); }
  /// s ? t : e
  Lit mux_(Lit s, Lit t, Lit e);

  // --- strash probes (non-mutating) -----------------------------------------
  /// The literal and_ / or_ / xor_ / mux_ *would* return, or kNoLit if it
  /// would have to create a node; a kNoLit operand gives kNoLit. Each probe
  /// runs the body of the gate it probes with find_and as the AND, so folded
  /// cases (constants, a == b, a == ~b) always resolve. The DAG-aware
  /// rewrite engine prices candidate structures with these against logic
  /// the graph already contains, without polluting the strash table.
  Lit find_and(Lit a, Lit b) const;
  Lit find_or(Lit a, Lit b) const;
  Lit find_xor(Lit a, Lit b) const;
  Lit find_mux(Lit s, Lit t, Lit e) const;

  // --- inspection ----------------------------------------------------------
  size_t num_nodes() const noexcept { return nodes_.size(); } ///< incl. const + inputs
  size_t num_inputs() const noexcept { return inputs_.size(); }
  size_t num_outputs() const noexcept { return outputs_.size(); }
  /// Number of AND nodes — the paper's "AIG area".
  size_t num_ands() const noexcept { return num_ands_; }

  bool is_input(uint32_t node) const noexcept {
    return nodes_[node].fanin0 == kInputMark;
  }
  bool is_and(uint32_t node) const noexcept {
    return node != 0 && nodes_[node].fanin0 != kInputMark;
  }
  Lit fanin0(uint32_t node) const noexcept { return nodes_[node].fanin0; }
  Lit fanin1(uint32_t node) const noexcept { return nodes_[node].fanin1; }

  const std::vector<uint32_t>& inputs() const noexcept { return inputs_; }
  Lit output(int i) const { return outputs_.at(static_cast<size_t>(i)); }
  /// The name given to add_input / add_output, else `i<k>` / `o<k>`.
  std::string input_name(int i) const;
  std::string output_name(int i) const;

  /// Count of AND nodes reachable from the outputs (area after dead-node
  /// removal; strash can leave unreachable nodes behind).
  size_t num_ands_reachable() const;

  // --- packed simulation ---------------------------------------------------
  /// Evaluate all nodes over 64 parallel patterns. `input_words[i]` holds the
  /// patterns for input i (order of add_input). Returns one word per node;
  /// evaluate a literal with `sim_lit`.
  std::vector<uint64_t> simulate(const std::vector<uint64_t>& input_words) const;

  /// Same, writing into a caller-owned buffer (resized to num_nodes). Query
  /// loops that simulate many word-batches reuse one buffer instead of
  /// allocating a node-sized vector per batch.
  void simulate_into(const std::vector<uint64_t>& input_words,
                     std::vector<uint64_t>& node_words) const;

  static uint64_t sim_lit(const std::vector<uint64_t>& node_words, Lit l) {
    const uint64_t w = node_words[lit_node(l)];
    return lit_compl(l) ? ~w : w;
  }

private:
  static constexpr Lit kInputMark = 0xffffffffu;

  struct Node {
    Lit fanin0 = kInputMark;
    Lit fanin1 = kInputMark;
  };

  /// Slot of AND node (a, b) in strash_, or the empty slot ending its probe.
  size_t strash_slot(Lit a, Lit b) const noexcept;
  /// Resize strash_ to `size` slots (a power of two) and re-insert every AND
  /// node.
  void strash_rehash(size_t size);

  std::vector<Node> nodes_;
  std::vector<uint32_t> inputs_;
  std::vector<Lit> outputs_;
  /// Caller-given names by input / output index; shorter than inputs_ /
  /// outputs_ (or empty strings) where none was given.
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;
  /// Structural hash: AND node ids in open addressing with linear probing
  /// from hash_combine(fanin0, fanin1), a power of two at most half full.
  /// Slot value 0 is empty (node 0 is the constant, never an AND).
  std::vector<uint32_t> strash_;
  size_t num_ands_ = 0;
};

} // namespace smartly::aig
