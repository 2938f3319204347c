#include "service/service.hpp"

#include "backend/write_verilog.hpp"
#include "core/smartly_pass.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/luby.hpp"
#include "util/thread_pool.hpp"
#include "verilog/elaborate.hpp"
#include "verilog/parse_error.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace smartly::service {

namespace fs = std::filesystem;

namespace {

constexpr const char* kJobSite = "service.job";

/// The per-job flow: the full deep-optimization convergence loop (fraig ->
/// DAG-aware rewrite -> fraig) with transactional in-job recovery. One
/// flow configuration for every job, summarized in result manifests.
core::SmartlyOptions job_flow_options(const ServiceOptions& service) {
  core::SmartlyOptions o;
  o.enable_rewrite = true;
  // Jobs are the unit of parallelism (one pool task each); the engines run
  // single-threaded inside a job. Engine output is thread-count independent
  // anyway — this only avoids pool-inside-pool oversubscription.
  o.threads = 1;
  o.budgets = service.budgets;
  o.recovery.enabled = true;
  return o;
}

} // namespace

OptService::OptService(const std::string& root, const ServiceOptions& options)
    : paths_(SpoolPaths::at(root)), options_(options) {}

bool OptService::startup(std::string* error) {
  if (!paths_.ensure(error))
    return false;

  std::string text;
  if (util::read_file(paths_.quarantine_set_path(), &text, nullptr))
    quarantine_ = util::QuarantineSet::parse(text);

  JournalState state;
  if (!JobJournal::replay(paths_.journal_path(), &state, error))
    return false;
  stats_.journal_torn_lines = state.torn_lines;
  stats_.journal_malformed_lines = state.malformed_lines;
  recover_from_journal(state);

  // Compact before reopening: the journal restarts holding only the records
  // that still matter, so it stays bounded by the live job set.
  JournalState compacted;
  for (const auto& [name, claims] : claims_) {
    JournalJob j;
    j.claims = claims;
    compacted.jobs[name] = j;
  }
  for (const auto& [name, job] : state.jobs)
    if (job.quarantined)
      compacted.jobs[name].quarantined = true;
  if (!JobJournal::compact(paths_.journal_path(), compacted, error))
    return false;
  if (!journal_.open(paths_.journal_path(), error))
    return false;

  load_warm_cache(paths_.warm_cache_path(), &results_, &stats_.warm);
  return true;
}

void OptService::recover_from_journal(const JournalState& state) {
  for (const std::string& name : state.interrupted()) {
    const int claims = state.jobs.at(name).claims;

    // Crash window between publishing the result and appending the done
    // record: the result pair is the durable truth, the journal entry is
    // just late. Count the job finished, don't rerun it.
    std::error_code ec;
    if (fs::exists(paths_.done + "/" + name + ".result", ec)) {
      ++stats_.jobs_completed;
      continue;
    }
    if (!fs::exists(paths_.jobs + "/" + name + ".v", ec))
      continue; // job file gone (client withdrew it): nothing to recover

    if (claims >= options_.crash_threshold) {
      quarantine_crash_looper(name, claims);
      continue;
    }
    // Requeued: the file is still in jobs/, so the scan picks it up; the
    // claim count survives into the compacted journal through claims_.
    claims_[name] = claims;
    ++stats_.jobs_requeued;
  }
}

void OptService::quarantine_crash_looper(const std::string& name, int claims) {
  // The job brought the daemon down crash_threshold times without ever
  // completing: break the crash loop. Evidence first (repro bundle), then
  // the quarantine records, then the file move.
  util::ReproBundle bundle;
  util::read_file(paths_.jobs + "/" + name + ".v", &bundle.design_verilog, nullptr);
  bundle.stage = kJobSite;
  bundle.reason = "crash-loop: daemon died " + std::to_string(claims) +
                  " times with this job claimed";
  bundle.site = kJobSite;
  bundle.unit = util::stable_name_hash(name);
  bundle.attempt = claims;
  bundle.quarantine = quarantine_.serialize();
  bundle.options = "serve: smartly_flow enable_rewrite=1 threads=1";
  util::write_repro_bundle(paths_.quarantine, bundle,
                           static_cast<int>(stats_.jobs_quarantined));

  quarantine_.add(kJobSite, util::stable_name_hash(name));
  util::atomic_write_file(paths_.quarantine_set_path(), quarantine_.serialize(), nullptr);
  quarantine_job(paths_, name, nullptr);
  ++stats_.jobs_quarantined;
}

void OptService::run_job(const std::string& name, int attempt) {
  (void)attempt; // durable in the journal; results stay attempt-independent
  const obs::Span job_span("service", "job:" + name);
  const uint64_t job_t0 = obs::trace_now_us();
  struct JobTimer {
    uint64_t t0;
    ~JobTimer() {
      static obs::Histogram& h = obs::histogram("service.job_us");
      h.observe(obs::trace_now_us() - t0);
    }
  } job_timer{job_t0};
  std::string source;
  std::string io_error;
  if (!util::read_file(paths_.jobs + "/" + name + ".v", &source, &io_error)) {
    std::lock_guard<std::mutex> lock(mutex_);
    write_failure(paths_, name, "io: " + io_error, nullptr);
    journal_.append_done(name, "failed");
    ++stats_.jobs_failed;
    return;
  }

  // Whole-job fast path: a byte-identical source optimized before (possibly
  // by a previous daemon run, via the snapshot) replays its published result
  // without touching any engine. The flow is deterministic, so the replayed
  // bytes are exactly what a fresh run would produce.
  const Hash128 result_key = job_result_key(source);
  ResultCache::Entry cached;
  if (results_.lookup(result_key, &cached)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.result_hits;
    std::string error;
    if (write_result(paths_, name, cached.verilog, "job=" + name + "\n" + cached.manifest_tail,
                     &error)) {
      journal_.append_done(name, "ok");
      ++stats_.jobs_completed;
    } else {
      write_failure(paths_, name, "io: " + error, nullptr);
      journal_.append_done(name, "failed");
      ++stats_.jobs_failed;
    }
    const uint64_t completed = ++completed_this_run_;
    if (options_.crash_after_jobs != 0 && completed >= options_.crash_after_jobs)
      _exit(137);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.result_misses;
  }

  std::string result_verilog;
  std::string manifest_tail;
  std::string failure;
  bool ok = false;
  for (int retry = 0; retry <= options_.retry_max && !ok; ++retry) {
    if (retry > 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.job_retries;
      }
      // Luby-scheduled backoff, the same schedule the SAT solver restarts
      // on: short retries for transient failures, growing pauses for
      // persistent ones, deterministic run-to-run.
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * luby(retry - 1)));
    }
    try {
      auto design = verilog::read_verilog(source, name + ".v");
      if (design->top() == nullptr)
        throw verilog::ParseError(name + ".v", 1, 1, "no module in job file");
      rtlil::Module& top = *design->top();
      const size_t cells_before = top.cells().size();

      const core::SmartlyOptions flow = job_flow_options(options_);
      const core::SmartlyStats flow_stats = core::smartly_flow(top, flow);

      result_verilog = backend::write_verilog(top);
      // Deterministic fields only: an interrupted-and-restarted run must
      // publish byte-identical results, and cache hit counts or timings
      // legitimately differ between runs (those live in service_stats.json).
      // The job= line is prepended at publish so the tail stays name-free
      // and the result cache can serve identical sources under any name.
      std::ostringstream m;
      m << "status=ok\n";
      m << "cells.before=" << cells_before << "\n";
      m << "cells.after=" << top.cells().size() << "\n";
      m << "recovered.stages=" << flow_stats.recovery.stages_skipped << "\n";
      manifest_tail = m.str();

      std::lock_guard<std::mutex> lock(mutex_);
      stats_.recovered_stages += flow_stats.recovery.rollbacks;
      ok = true;
    } catch (const verilog::ParseError& e) {
      failure = std::string("parse: ") + e.what();
      break; // deterministic: retrying can't fix a parse error
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (ok) {
    results_.insert(result_key, {result_verilog, manifest_tail});
    std::string error;
    if (write_result(paths_, name, result_verilog, "job=" + name + "\n" + manifest_tail,
                     &error)) {
      journal_.append_done(name, "ok");
      ++stats_.jobs_completed;
    } else {
      write_failure(paths_, name, "io: " + error, nullptr);
      journal_.append_done(name, "failed");
      ++stats_.jobs_failed;
    }
  } else {
    write_failure(paths_, name, failure, nullptr);
    journal_.append_done(name, "failed");
    ++stats_.jobs_failed;
  }

  const uint64_t completed = ++completed_this_run_;
  if (options_.crash_after_jobs != 0 && completed >= options_.crash_after_jobs) {
    // Test hook: die the hard way (no destructors, no flushes) at the worst
    // moment — other workers hold claimed-but-unfinished jobs.
    _exit(137);
  }
}

size_t OptService::run_cycle() {
  const obs::Span cycle_span("service", "service.cycle");
  std::vector<std::string> backlog = list_jobs(paths_);

  // Quarantined jobs never run again, even when resubmitted: the quarantine
  // set is the durable record, the spool just mirrors it.
  std::vector<std::string> runnable;
  for (const std::string& name : backlog) {
    if (quarantine_.contains(kJobSite, util::stable_name_hash(name))) {
      quarantine_job(paths_, name, nullptr);
      journal_.append_quarantine(name);
      continue;
    }
    runnable.push_back(name);
  }

  // Bounded admission: take the first queue_max (sorted, so deterministic),
  // shed the rest explicitly. The shed response tells the client to
  // resubmit when the queue drains — silently growing the backlog is how
  // daemons die of old age.
  std::vector<std::string> admitted = runnable;
  if (admitted.size() > static_cast<size_t>(options_.queue_max)) {
    admitted.resize(static_cast<size_t>(options_.queue_max));
    for (size_t i = admitted.size(); i < runnable.size(); ++i) {
      write_failure(paths_, runnable[i],
                    "shed: admission queue full (" + std::to_string(runnable.size()) +
                        " waiting, queue-max " + std::to_string(options_.queue_max) + ")",
                    nullptr);
      journal_.append_done(runnable[i], "shed");
      ++stats_.jobs_shed;
    }
  }
  if (admitted.empty())
    return 0;

  // Write-ahead claims, fsynced before any job starts: a crash from here on
  // is recoverable by replay. A claim that cannot be made durable keeps its
  // job out of the batch (it stays spooled for the next cycle).
  std::vector<std::pair<std::string, int>> batch;
  for (const std::string& name : admitted) {
    const int attempt = claims_[name] + 1;
    if (!journal_.append_claim(name, attempt))
      continue;
    claims_[name] = attempt;
    batch.emplace_back(name, attempt);
  }

  util::ThreadPool pool(util::resolve_thread_count(options_.threads));
  pool.run_batch(batch.size(), [&](int /*worker*/, size_t i) {
    run_job(batch[i].first, batch[i].second);
  });

  // Completed jobs can leave the journal at the next compaction.
  for (const auto& [name, attempt] : batch) {
    (void)attempt;
    claims_.erase(name);
  }
  return batch.size();
}

void OptService::flush_snapshot() {
  const obs::Span span("service", "service.snapshot");
  if (options_.crash_during_snapshot) {
    // Test hook: simulate the one failure mode atomic writes can't rule out
    // (storage losing the rename guarantee / bit rot under the file) by
    // planting a torn snapshot *at the final path*, then dying. The next
    // startup must quarantine it aside and cold-rebuild.
    const std::string sealed =
        seal_snapshot(kWarmCacheVersion, serialize_warm_cache(results_));
    std::ofstream torn(paths_.warm_cache_path(), std::ios::binary | std::ios::trunc);
    torn.write(sealed.data(), static_cast<std::streamsize>(sealed.size() / 2));
    torn.flush();
    _exit(137);
  }
  if (save_warm_cache(paths_.warm_cache_path(), results_, nullptr))
    ++stats_.snapshots_written;
}

void OptService::write_stats_file() {
  std::ostringstream j;
  j << "{\n";
  j << "  \"jobs_completed\": " << stats_.jobs_completed << ",\n";
  j << "  \"jobs_failed\": " << stats_.jobs_failed << ",\n";
  j << "  \"jobs_shed\": " << stats_.jobs_shed << ",\n";
  j << "  \"jobs_requeued\": " << stats_.jobs_requeued << ",\n";
  j << "  \"jobs_quarantined\": " << stats_.jobs_quarantined << ",\n";
  j << "  \"job_retries\": " << stats_.job_retries << ",\n";
  j << "  \"poll_cycles\": " << stats_.poll_cycles << ",\n";
  j << "  \"snapshots_written\": " << stats_.snapshots_written << ",\n";
  j << "  \"result_hits\": " << stats_.result_hits << ",\n";
  j << "  \"result_misses\": " << stats_.result_misses << ",\n";
  j << "  \"result_entries\": " << results_.size() << ",\n";
  j << "  \"recovered_stages\": " << stats_.recovered_stages << ",\n";
  j << "  \"journal_torn_lines\": " << stats_.journal_torn_lines << ",\n";
  j << "  \"journal_malformed_lines\": " << stats_.journal_malformed_lines << ",\n";
  j << "  \"warm_loaded\": " << (stats_.warm.loaded ? 1 : 0) << ",\n";
  j << "  \"warm_corrupt_quarantined\": " << (stats_.warm.corrupt_quarantined ? 1 : 0)
    << ",\n";
  j << "  \"warm_result_entries\": " << stats_.warm.result_entries << ",\n";
  j << "  \"warm_rejected_records\": " << stats_.warm.rejected_records << "\n";
  j << "}\n";
  util::atomic_write_file(paths_.stats_path(), j.str(), nullptr);

  // Mirror the job-lifecycle and warm-cache stats into the metrics registry
  // (gauges: these are current totals, re-published every cycle), then
  // publish the whole registry — engine counters and the journal-fsync /
  // job-latency histograms included — as a Prometheus-style text exposition
  // next to service_stats.json. Written atomically on every cycle and again
  // in the drain epilogue, so --serve-once exits leave a final metrics.prom.
  obs::gauge("service.jobs_completed").set(stats_.jobs_completed);
  obs::gauge("service.jobs_failed").set(stats_.jobs_failed);
  obs::gauge("service.jobs_shed").set(stats_.jobs_shed);
  obs::gauge("service.jobs_requeued").set(stats_.jobs_requeued);
  obs::gauge("service.jobs_quarantined").set(stats_.jobs_quarantined);
  obs::gauge("service.job_retries").set(stats_.job_retries);
  obs::gauge("service.poll_cycles").set(stats_.poll_cycles);
  obs::gauge("service.snapshots_written").set(stats_.snapshots_written);
  obs::gauge("service.result_cache_hits").set(stats_.result_hits);
  obs::gauge("service.result_cache_misses").set(stats_.result_misses);
  obs::gauge("service.recovered_stages").set(stats_.recovered_stages);
  util::atomic_write_file(paths_.metrics_path(),
                          obs::Registry::global().prometheus_text(), nullptr);
}

int OptService::run() {
  std::string error;
  if (!startup(&error)) {
    std::fprintf(stderr, "opt_tool: --serve: %s\n", error.c_str());
    return 1;
  }

  for (;;) {
    if (options_.stop_flag != nullptr && *options_.stop_flag != 0)
      break; // graceful drain: no new admissions

    ++stats_.poll_cycles;
    const size_t ran = run_cycle();

    if (ran > 0 && results_.size() != snapshot_entries_) {
      flush_snapshot();
      snapshot_entries_ = results_.size();
    }
    write_stats_file();

    if (ran == 0) {
      if (options_.drain_and_exit)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
  }

  // Drain epilogue: in-flight work already finished (run_cycle is a
  // barrier); make the learned state durable and leave cleanly.
  flush_snapshot();
  write_stats_file();
  journal_.close();
  return 0;
}

} // namespace smartly::service
