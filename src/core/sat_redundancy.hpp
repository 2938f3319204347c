// SAT-based redundancy elimination (paper §II) — smaRTLy's first engine.
//
// Plugs into the shared muxtree walker as an oracle: for each descendant
// control bit it (1) looks the bit up among the path-known signals,
// (2) extracts a distance-k sub-graph reduced by the Theorem II.1 relevance
// filter, (3) runs the Table I inference rules, and (4) if still undecided,
// asks exhaustive simulation (few free inputs) or the CDCL solver
// (SAT(s=0) / SAT(s=1)) whether the bit is forced.
#pragma once

#include "core/subgraph.hpp"
#include "opt/muxtree_walker.hpp"
#include "opt/parallel_sweep.hpp"
#include "util/hashing.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace smartly::core {

/// Cross-process decision memo consulted by InferenceOracle (service warm
/// cache). Keys are *portable* canonical fingerprints of (cone structure,
/// target role, known-value assignment) — pure functions of content, no
/// pointers or process-local state — so an entry written by one daemon run
/// is sound in the next: a hit replays a decision the full pipeline provably
/// made on an isomorphic cone under the same constraints and oracle options.
/// Only verdicts that are deterministic functions of the salted cone are
/// ever inserted: Zero/One/DeadPath always, and Unknown only when proven
/// not-forced or out of scope (exhaustive simulation found no forcing, both
/// SAT polarities were satisfiable, the cone exceeds sat_max_inputs, use_sat
/// is off, or the target lies outside the cone). A guard-halt,
/// fault-injected, or budget-exhausted Unknown could resolve on a retry and
/// is never inserted.
///
/// Implementations must be thread-safe: the parallel sweep engine's
/// per-worker oracles share one memo. A hit can resolve a query whose fresh
/// recomputation would exhaust the per-query conflict budget into Unknown,
/// so memo-enabled runs are reproducible only for a given memo content.
class PortableDecisionMemo {
public:
  virtual ~PortableDecisionMemo() = default;
  /// Returns true and fills `*out` on a hit.
  virtual bool lookup(const Hash128& key, opt::CtrlDecision* out) const = 0;
  virtual void insert(const Hash128& key, opt::CtrlDecision decision) = 0;
};

struct SatRedundancyOptions {
  SubgraphOptions subgraph;     ///< distance k and relevance filter toggle
  int sim_max_inputs = 14;      ///< exhaustive simulation up to 2^14 patterns
  int sat_max_inputs = 4096;    ///< "threshold for the number of inputs": skip SAT above
  int64_t sat_conflict_budget = 20000; ///< per-query conflict cap (Unknown above)
  bool use_inference = true;    ///< Table I rules (ablatable)
  bool use_sat = true;          ///< sim/SAT stage (ablatable; inference-only otherwise)
  /// Optional run-wide resource governor (not owned). The oracle charges its
  /// solver work here and answers Unknown without solving once a halt is
  /// observed.
  util::ResourceGuard* guard = nullptr;
  /// Units the recovery layer has quarantined (not owned; frozen during the
  /// run). Control bits whose bit_unit_id is quarantined under "oracle.solve"
  /// are answered Unknown at the top of decide(); sat_redundancy_parallel
  /// also forwards the set to the sweep engine for its
  /// "sweep.region"/"sweep.iteration" filters. smartly_pass replaces it with
  /// its own recovery set while recovery is on.
  const util::QuarantineSet* quarantine = nullptr;
  /// Optional persistent cross-job decision memo (not owned; thread-safe);
  /// see PortableDecisionMemo.
  PortableDecisionMemo* memo = nullptr;
};

struct SatRedundancyStats {
  size_t queries = 0;
  size_t decided_syntactic = 0; ///< bit was literally a known signal
  size_t decided_inference = 0;
  size_t decided_sim = 0;
  size_t decided_sat = 0;
  size_t dead_paths = 0;
  size_t skipped_too_large = 0;
  size_t gates_seen = 0;     ///< sub-graph gates before the relevance filter
  size_t gates_kept = 0;     ///< after the filter (paper: ~20% kept)
  size_t sim_filter_kills = 0; ///< queries settled at the simulation stage
  size_t sim_filter_half = 0;  ///< sim sweeps that early-exited (both polarities seen)
  size_t sat_calls = 0;        ///< individual solve() invocations
  size_t skipped_halt = 0;     ///< queries answered Unknown after a halt, unsolved
  size_t skipped_quarantine = 0; ///< queries answered Unknown for a quarantined target
  uint64_t solver_conflicts = 0;
  size_t portable_hits = 0;    ///< persistent-memo hits
  size_t portable_misses = 0;  ///< memo consultations that fell through
  size_t portable_inserts = 0; ///< definitive verdicts recorded into the memo
  opt::MuxtreeStats walker;  ///< removal statistics from the shared walker
};

/// The §II oracle: syntactic lookup, then (after sub-graph extraction and
/// the optional memo lookup) Table I inference, then simulation or SAT. It
/// keeps nothing between queries except its statistics, so every verdict is
/// a function of the query and the module alone.
class InferenceOracle final : public opt::MuxtreeOracle {
public:
  explicit InferenceOracle(const SatRedundancyOptions& options);

  /// Legacy entry: builds a private NetlistIndex (direct oracle users).
  void begin_module(rtlil::Module& module) override;
  /// Index-sharing entry: binds the walker's incrementally-maintained index
  /// instead of rebuilding one per sweep.
  void begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) override;
  opt::CtrlDecision decide(rtlil::SigBit ctrl, const opt::KnownMap& known) override;

  const SatRedundancyStats& stats() const noexcept { return stats_; }

private:
  /// Stages 3-4 on an extracted, non-empty sub-graph under the path
  /// condition in known_sorted_. Sets `*definitive` when an Unknown verdict
  /// is a pure function of the salted cone (and so may enter the memo).
  opt::CtrlDecision decide_cone(rtlil::SigBit ctrl, const Subgraph& sg, uint64_t unit,
                                bool* definitive);

  SatRedundancyOptions options_;
  SatRedundancyStats stats_;
  uint64_t memo_salt_ = 0; ///< decision-affecting options, folded into memo keys
  rtlil::Module* module_ = nullptr;
  const rtlil::NetlistIndex* index_ = nullptr;
  std::unique_ptr<rtlil::NetlistIndex> owned_index_;
  SubgraphScratch scratch_;
  std::vector<std::pair<rtlil::SigBit, bool>> known_sorted_; ///< per-query scratch
  std::vector<rtlil::SigBit> known_bits_;                     ///< its bits
};

/// Run the full §II pass on a module (walker + oracle). Pair with
/// opt_expr/opt_clean afterwards to sweep the disconnected logic.
SatRedundancyStats sat_redundancy(rtlil::Module& module,
                                  const SatRedundancyOptions& options = {});

/// §II pass over the parallel deterministic sweep engine: region-partitioned
/// walks with one InferenceOracle per pool worker (stateless between
/// queries, so results are bit-identical for every thread count).
/// threads = 0 picks one worker per hardware thread. max_iterations >= 0
/// caps the sweep's fixpoint iterations (the recovery layer's bisection
/// probes use it); -1 keeps the engine default.
SatRedundancyStats sat_redundancy_parallel(rtlil::Module& module,
                                           const SatRedundancyOptions& options,
                                           int threads,
                                           opt::DecisionTrace* trace = nullptr,
                                           opt::ParallelSweepStats* sweep_out = nullptr,
                                           int max_iterations = -1);

} // namespace smartly::core
