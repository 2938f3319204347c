// Persistent warm caches for the service daemon.
//
// Three cache layers survive restarts:
//
//   * OracleMemo — the cross-job decision memo core::InferenceOracle
//     consults through core::PortableDecisionMemo. Keys are canonical cone
//     fingerprints (see portable_query_key in core/sat_redundancy.cpp), so an
//     entry recorded by one daemon run answers isomorphic queries in the
//     next. Only verdicts that are deterministic functions of the salted
//     cone are stored: Zero/One/DeadPath always, Unknown only when proven
//     not-forced or out of scope (exhaustive sim, both polarities SAT, an
//     over-threshold cone) — never when a budget, guard halt, or fault
//     injection cut the query short.
//
//   * RewriteLibrary programs — the min-cost gate programs the cut-rewriting
//     engine synthesizes per truth table. Pure functions of the truth table;
//     a snapshot skips re-deriving the tail beyond the built-in 222 NPN
//     representatives.
//
//   * ResultCache — whole published results keyed by the exact job source
//     bytes (plus the flow-config generation). The deep convergence flow is
//     deterministic, so a byte-identical resubmission — the common case for
//     incremental clients whose designs mostly didn't change — replays the
//     stored netlist + manifest without running any engine. This is the
//     cache that turns warm-start throughput from "slightly better" into
//     "orders of magnitude better" on repeat traffic.
//
// All three serialize into one snapshot payload (service/snapshot.hpp container,
// kWarmCacheVersion) guarded by RewriteLibrary::fingerprint(): a snapshot
// from a build with different decomposition rules is rejected wholesale. On
// load every record is validated — decisions must be in the definitive
// range, programs must re-evaluate to their declared truth tables — because
// a snapshot is evidence, never trusted input. Validation failures skip the
// record and are counted; they never abort the daemon.
#pragma once

#include "core/sat_redundancy.hpp"
#include "util/hashing.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace smartly::service {

/// Snapshot-container version of the warm-cache payload. Bumped whenever
/// the layout *or the semantics behind the keys* change (e.g. an oracle
/// pipeline change that invalidates memoized verdicts); old snapshots are
/// then rejected at the container level and the daemon cold-rebuilds.
constexpr uint32_t kWarmCacheVersion = 1;

class ResultCache;

/// Thread-safe PortableDecisionMemo shared by every job the daemon runs
/// (the parallel sweep's per-worker oracles all point here).
class OracleMemo final : public core::PortableDecisionMemo {
public:
  bool lookup(const Hash128& key, opt::CtrlDecision* out) const override;
  void insert(const Hash128& key, opt::CtrlDecision decision) override;
  size_t size() const;

private:
  friend std::string serialize_warm_cache(const OracleMemo& memo, const ResultCache& results);

  mutable std::mutex mutex_;
  std::unordered_map<Hash128, uint8_t, Hash128Hasher> entries_;
};

/// Whole-job result memo: exact source bytes (hashed with job_result_key)
/// -> the published optimized netlist and the name-independent manifest
/// tail. Hits replay stored bytes verbatim, so they are deterministic by
/// construction. Thread-safe; bounded by kResultCacheMax (beyond it new
/// entries are dropped — the cache degrades to a plain miss, never evicts
/// nondeterministically).
class ResultCache {
public:
  struct Entry {
    std::string verilog;       ///< optimized netlist, exactly as published
    std::string manifest_tail; ///< manifest minus the job= line (name-free)
  };

  bool lookup(const Hash128& key, Entry* out) const;
  void insert(const Hash128& key, Entry entry);
  size_t size() const;

private:
  friend std::string serialize_warm_cache(const OracleMemo& memo, const ResultCache& results);

  mutable std::mutex mutex_;
  std::unordered_map<Hash128, Entry, Hash128Hasher> entries_;
};

/// Entries beyond this are dropped at insert (deterministic degradation).
constexpr size_t kResultCacheMax = 4096;

/// Key of one job result: the exact source bytes plus a generation tag for
/// the service's flow configuration — bump the tag whenever the job flow
/// changes in a result-affecting way, and every stale entry stops matching.
Hash128 job_result_key(const std::string& source);

/// What a warm-cache load found (reported in service_stats.json and by
/// bench_service).
struct WarmCacheLoadStats {
  bool loaded = false;            ///< a snapshot was opened and applied
  bool corrupt_quarantined = false; ///< damaged file moved to *.corrupt
  size_t oracle_entries = 0;      ///< memo entries installed
  size_t rewrite_programs = 0;    ///< programs installed into RewriteLibrary
  size_t result_entries = 0;      ///< whole-job results installed
  size_t rejected_records = 0;    ///< records that failed validation
  std::string error;              ///< diagnostic when loaded == false ("" on cold start)
};

/// Serialize the memo, the result cache, and every program currently
/// memoized in RewriteLibrary::instance() into a snapshot payload.
std::string serialize_warm_cache(const OracleMemo& memo, const ResultCache& results);

/// Load a warm-cache snapshot file into `memo`, `results`, and the
/// process-wide RewriteLibrary. Missing file = cold start (returns false,
/// empty error). Damaged file = quarantined aside + cold start. Never
/// throws, never partially applies a damaged snapshot.
bool load_warm_cache(const std::string& path, OracleMemo* memo, ResultCache* results,
                     WarmCacheLoadStats* stats);

/// Atomically persist the warm cache to `path`.
bool save_warm_cache(const std::string& path, const OracleMemo& memo,
                     const ResultCache& results, std::string* error);

} // namespace smartly::service
