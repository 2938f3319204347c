// Persistent warm cache for the service daemon: the ResultCache.
//
// Whole published results are keyed by the exact job source bytes (plus the
// flow-config generation). The deep convergence flow is deterministic, so a
// byte-identical resubmission — the common case for incremental clients
// whose designs mostly didn't change — replays the stored netlist +
// manifest without running any engine. This is the cache that turns
// warm-start throughput from "slightly better" into "orders of magnitude
// better" on repeat traffic.
//
// The cache serializes into one snapshot payload (service/snapshot.hpp
// container, kWarmCacheVersion). On load every record is validated, because
// a snapshot is evidence, never trusted input. Validation failures skip the
// record and are counted; they never abort the daemon.
//
// There is deliberately no cache below the job level. A cross-job memo of
// §II verdicts and a persisted rewrite-program table both measured within
// noise of no cache (README "Warm-cache snapshots"), and a memo made a
// job's verdicts depend on what earlier jobs left behind.
#pragma once

#include "util/hashing.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace smartly::service {

/// Snapshot-container version of the warm-cache payload. Bumped whenever
/// the layout *or the semantics behind the keys* change; old snapshots are
/// then rejected at the container level (moved aside as *.corrupt) and the
/// daemon cold-rebuilds. Version 2 holds the result section only; version 1
/// also carried a §II decision memo and rewrite programs.
constexpr uint32_t kWarmCacheVersion = 2;

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
  friend std::string serialize_warm_cache(const ResultCache& results);

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
  size_t result_entries = 0;      ///< whole-job results installed
  size_t rejected_records = 0;    ///< records that failed validation
  std::string error;              ///< diagnostic when loaded == false ("" on cold start)
};

/// Serialize the result cache into a snapshot payload (entries sorted by
/// key, so equal caches give equal bytes).
std::string serialize_warm_cache(const ResultCache& results);

/// Load a warm-cache snapshot file into `results`. Missing file = cold start
/// (returns false, empty error). Damaged file or another version =
/// quarantined aside + cold start. Never throws. A sealed payload whose
/// records stop parsing keeps the records before the damage and reports
/// the rest as rejected.
bool load_warm_cache(const std::string& path, ResultCache* results, WarmCacheLoadStats* stats);

/// Atomically persist the warm cache to `path`.
bool save_warm_cache(const std::string& path, const ResultCache& results, std::string* error);

} // namespace smartly::service
