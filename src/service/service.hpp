// The crash-safe optimization service (opt_tool --serve).
//
// OptService watches a spool directory (service/spool.hpp) and runs the
// full fraig -> rewrite convergence flow (core::smartly_flow with the deep
// loop enabled) on every job, on the shared util::ThreadPool, under per-job
// resource budgets. Three robustness layers make it kill -9 tolerant:
//
//   1. Write-ahead journal (service/journal.hpp): a job's claim is fsynced
//      before it runs; startup replays the journal, requeues interrupted
//      jobs, and quarantines any job whose claim count says it took the
//      daemon down `crash_threshold` times — with a repro bundle, so the
//      crash loop is broken *and* debuggable.
//
//   2. Persistent warm cache (service/warm_cache.hpp): the whole-job result
//      cache serializes into a checksummed snapshot after each batch that
//      added results. A truncated, corrupt or other-version snapshot is
//      moved aside and the cache cold-rebuilds — corruption costs warmth,
//      never correctness, and is never fatal.
//
//   3. Overload + lifecycle: each poll cycle admits at most `queue_max`
//      jobs; backlog beyond that is shed with an explicit response in
//      failed/ (clients resubmit later). A SIGTERM (stop_flag) drains:
//      in-flight jobs finish, the snapshot and service_stats.json are
//      flushed, and run() returns 0.
//
// Every result is deterministic: jobs run single-threaded on top of the
// engines' thread-count-independent guarantees, manifests carry no
// timestamps, and no state but the result cache (which replays stored
// bytes) crosses jobs — so a run interrupted by kill -9 and restarted
// produces the byte-identical result set of an uninterrupted run
// (tests/test_service.cpp asserts this).
#pragma once

#include "service/journal.hpp"
#include "service/spool.hpp"
#include "service/warm_cache.hpp"
#include "util/budget.hpp"
#include "util/recovery.hpp"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace smartly::service {

struct ServiceOptions {
  int threads = 0;       ///< worker pool size (0 = one per hardware thread)
  int poll_ms = 50;      ///< spool scan interval when idle
  bool drain_and_exit = false; ///< --serve-once: exit when the spool is empty
  int queue_max = 64;    ///< admission bound per cycle; excess backlog is shed
  int crash_threshold = 2; ///< journal claims before a job is quarantined
  int retry_max = 2;     ///< in-process retries per job (Luby backoff)
  util::ResourceBudgets budgets; ///< per-job budgets (deadline_ms is per job)

  /// Set by the SIGTERM/SIGINT handler; polled between batches. Non-null
  /// enables graceful drain.
  const volatile std::sig_atomic_t* stop_flag = nullptr;

  // Deterministic crash hooks for the recovery tests and bench_service.
  // Production runs leave both unset.
  uint64_t crash_after_jobs = 0;      ///< _exit(137) once N jobs completed this run
  bool crash_during_snapshot = false; ///< tear the next snapshot write, then _exit(137)
};

struct ServiceStats {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;     ///< exhausted retries (parse error, repeated throw)
  uint64_t jobs_shed = 0;       ///< rejected by the admission bound
  uint64_t jobs_requeued = 0;   ///< interrupted jobs recovered from the journal
  uint64_t jobs_quarantined = 0;
  uint64_t job_retries = 0;
  uint64_t poll_cycles = 0;
  uint64_t snapshots_written = 0;
  // Always 0 (there is no decision memo); flowbench, frozen with BENCHMARK.json, reads them.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_inserts = 0;
  uint64_t result_hits = 0;     ///< whole-job replays from the result cache
  uint64_t result_misses = 0;   ///< jobs that had to run the engines
  uint64_t recovered_stages = 0; ///< in-job transactional rollbacks (recovery layer)
  size_t journal_torn_lines = 0;
  size_t journal_malformed_lines = 0;
  WarmCacheLoadStats warm;      ///< what the startup cache load found
};

class OptService {
public:
  OptService(const std::string& root, const ServiceOptions& options);

  /// Startup (replay journal, quarantine crash-loopers, load caches) plus
  /// the poll/run/snapshot loop. Returns an opt_tool exit code: 0 on
  /// graceful drain or stop, 1 on a setup I/O error.
  int run();

  const ServiceStats& stats() const { return stats_; }
  const SpoolPaths& paths() const { return paths_; }

private:
  bool startup(std::string* error);
  void recover_from_journal(const JournalState& state);
  void quarantine_crash_looper(const std::string& name, int claims);
  /// Process up to queue_max spooled jobs; returns how many were admitted.
  size_t run_cycle();
  void run_job(const std::string& name, int attempt);
  void flush_snapshot();
  void write_stats_file();

  SpoolPaths paths_;
  ServiceOptions options_;
  ServiceStats stats_;
  ResultCache results_;
  JobJournal journal_;
  util::QuarantineSet quarantine_;
  std::map<std::string, int> claims_; ///< per-job claim count (journal + this run)
  std::mutex mutex_; ///< serializes journal appends + stats from workers
  std::atomic<uint64_t> completed_this_run_{0}; ///< drives crash_after_jobs
  size_t snapshot_entries_ = 0; ///< result-cache size at the last snapshot flush
};

} // namespace smartly::service
