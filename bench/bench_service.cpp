// Service-mode benchmark: cold vs warm cache throughput and kill -9
// crash-recovery fidelity, emitting the BENCH_service.json schema.
//
//   ./bench_service [--smoke] [--json] [--jobs N]
//
//   --smoke    small job set — the tier-2 CTest target. Exits nonzero if the
//              crash-interrupted run's result set is not byte-identical to
//              the uninterrupted run's, if anything was spuriously
//              quarantined, if a corruption event lost data, or if the warm
//              run's cache hit rate fails to beat the cold run's.
//   --json     print the JSON document to stdout (human table otherwise).
//   --jobs N   override the job-set size.
//
// Three phases over the same generated job set (mutated benchgen variants —
// industrial muxtree circuits and random netlists, several mutation seeds
// per family):
//
//   cold   fresh spool, empty cache: the reference run. Its done/ tree is
//          the golden result set and its throughput the cold baseline.
//   warm   fresh spool, but the cold run's warm-cache snapshot is installed
//          first. Gates: result-cache hit rate strictly above cold and
//          throughput above cold.
//   crash  fresh spool, same jobs, then a kill-and-restart gauntlet driven
//          by the daemon's deterministic crash hooks in fork()ed children:
//          run 1 dies (_exit 137) after a third of the jobs with the other
//          workers mid-job; run 2 replays the journal, requeues every
//          interrupted job, finishes the burst, then dies tearing the
//          warm-cache snapshot at the final path; run 3 runs in-process and
//          must quarantine the torn snapshot aside, cold-rebuild, and find
//          nothing left to do. The final done/ tree must be byte-identical
//          to the cold run's (results AND manifests) and nothing may be
//          quarantined — corruption_loss_events counts every file where any
//          of that failed, and its baseline is zero.
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/random_circuit.hpp"
#include "service/service.hpp"
#include "util/atomic_file.hpp"
#include "util/budget.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace smartly;
using benchjson::seconds_since;

namespace fs = std::filesystem;

namespace {

struct JobSet {
  std::vector<std::pair<std::string, std::string>> jobs; ///< name -> verilog
};

/// Mutated benchgen variants: every job is a distinct mutation seed of its
/// family, so the cold run pays full price per job while the warm run
/// replays every result from the cold run's snapshot.
JobSet make_jobs(size_t count) {
  JobSet set;
  char name[64];
  for (size_t j = 0; j < count; ++j) {
    if (j % 2 == 0) {
      const auto c = benchgen::generate_industrial(static_cast<int>(j % 8), /*scale=*/1,
                                                   0x5eedULL + j);
      std::snprintf(name, sizeof(name), "job-%03zu-ind", j);
      set.jobs.emplace_back(name, c.verilog);
    } else {
      std::snprintf(name, sizeof(name), "job-%03zu-rnd", j);
      set.jobs.emplace_back(name, benchgen::random_verilog(1 + j, /*size=*/5));
    }
  }
  return set;
}

void submit_all(const service::SpoolPaths& paths, const JobSet& set) {
  for (const auto& [name, verilog] : set.jobs) {
    std::string error;
    if (!service::submit_job(paths, name, verilog, &error)) {
      std::fprintf(stderr, "bench_service: submit %s: %s\n", name.c_str(), error.c_str());
      std::exit(2);
    }
  }
}

service::ServiceOptions base_options(size_t job_count) {
  service::ServiceOptions o;
  o.drain_and_exit = true;
  // The whole job set is pre-submitted, so admission must cover it: a
  // smaller bound would shed the backlog instead of queueing it (sheds are
  // an overload response, exercised in tests/test_service.cpp).
  o.queue_max = static_cast<int>(job_count);
  o.poll_ms = 1;
  return o;
}

struct PhaseResult {
  double seconds = 0;
  service::ServiceStats stats;
};

/// Run the daemon in-process until the spool drains.
PhaseResult run_inprocess(const std::string& root, const service::ServiceOptions& options) {
  PhaseResult r;
  const auto t0 = std::chrono::steady_clock::now();
  service::OptService daemon(root, options);
  const int rc = daemon.run();
  r.seconds = seconds_since(t0);
  r.stats = daemon.stats();
  if (rc != 0) {
    std::fprintf(stderr, "bench_service: daemon exited %d\n", rc);
    std::exit(2);
  }
  return r;
}

/// Run the daemon in a fork()ed child (for runs that _exit(137) on purpose).
/// Returns the child's exit code.
int run_forked(const std::string& root, const service::ServiceOptions& options) {
  const pid_t pid = fork();
  if (pid == 0) {
    service::OptService daemon(root, options);
    _exit(daemon.run());
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string slurp(const fs::path& p) {
  std::string out;
  util::read_file(p.string(), &out, nullptr);
  return out;
}

/// Compare two done/ trees byte-for-byte over the expected job set. Every
/// missing pair, mismatched netlist, or mismatched manifest is one loss
/// event.
size_t count_loss_events(const service::SpoolPaths& golden, const service::SpoolPaths& got,
                         const JobSet& set, bool verbose) {
  size_t losses = 0;
  for (const auto& [name, verilog] : set.jobs) {
    (void)verilog;
    for (const char* ext : {".v", ".result"}) {
      const std::string a = slurp(fs::path(golden.done) / (name + ext));
      const std::string b = slurp(fs::path(got.done) / (name + ext));
      if (a.empty() || a != b) {
        ++losses;
        if (verbose)
          std::fprintf(stderr, "bench_service: %s%s differs from the uninterrupted run\n",
                       name.c_str(), ext);
      }
    }
  }
  return losses;
}

/// Result-cache hit rate: whole-job replays over all jobs that reached the
/// cache. Deterministic — hits depend on cache content, never on timing.
double hit_rate(const service::ServiceStats& s) {
  const uint64_t total = s.result_hits + s.result_misses;
  return total == 0 ? 0.0 : static_cast<double>(s.result_hits) / static_cast<double>(total);
}

std::string phase_json(const char* name, size_t jobs, const PhaseResult& r) {
  benchjson::JsonObject o;
  o.put("name", std::string(name))
      .put("jobs", jobs)
      .putf("seconds", r.seconds)
      .putf("jobs_per_second", r.seconds > 0 ? double(jobs) / r.seconds : 0.0)
      .put("result_hits", r.stats.result_hits)
      .put("result_misses", r.stats.result_misses)
      .putf("hit_rate", hit_rate(r.stats))
      .put("jobs_completed", r.stats.jobs_completed)
      .put("jobs_requeued", r.stats.jobs_requeued)
      .put("jobs_quarantined", r.stats.jobs_quarantined)
      .put("snapshots_written", r.stats.snapshots_written)
      .put("warm_loaded", r.stats.warm.loaded)
      .put("warm_corrupt_quarantined", r.stats.warm.corrupt_quarantined);
  return o.str();
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  size_t job_count = 0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      job_count = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: bench_service [--smoke] [--json] [--jobs N] [--trace-out FILE]\n\n"
                  "Service-mode benchmark: cold vs warm warm-cache throughput plus a\n"
                  "kill-and-restart gauntlet (BENCH_service.json schema). The crash\n"
                  "phase's result set must be byte-identical to the uninterrupted\n"
                  "run's and the warm hit rate strictly above the cold one.\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_service: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (job_count == 0)
    job_count = smoke ? 12 : 240;

  const JobSet set = make_jobs(job_count);
  const fs::path root = fs::temp_directory_path() /
                        ("bench_service." + std::to_string(::getpid()));
  fs::remove_all(root);
  const service::SpoolPaths cold_paths = service::SpoolPaths::at((root / "cold").string());
  const service::SpoolPaths warm_paths = service::SpoolPaths::at((root / "warm").string());
  const service::SpoolPaths crash_paths = service::SpoolPaths::at((root / "crash").string());
  std::string error;
  for (const auto* p : {&cold_paths, &warm_paths, &crash_paths})
    if (!p->ensure(&error)) {
      std::fprintf(stderr, "bench_service: %s\n", error.c_str());
      return 2;
    }

  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_service");
  obs::StageProfile profile;

  // --- cold: the reference run -------------------------------------------
  submit_all(cold_paths, set);
  PhaseResult cold;
  {
    const auto stage = profile.scope("cold");
    const obs::Span span("bench", "cold");
    cold = run_inprocess(cold_paths.root, base_options(job_count));
  }

  // --- warm: same jobs, the cold run's snapshot pre-installed ------------
  fs::copy_file(cold_paths.warm_cache_path(), warm_paths.warm_cache_path(),
                fs::copy_options::overwrite_existing);
  submit_all(warm_paths, set);
  PhaseResult warm;
  {
    const auto stage = profile.scope("warm");
    const obs::Span span("bench", "warm");
    warm = run_inprocess(warm_paths.root, base_options(job_count));
  }

  // --- crash: kill -9 gauntlet, then drain, then compare -----------------
  auto crash_stage = std::make_unique<obs::StageProfile::Scope>(profile, "crash");
  auto crash_span = std::make_unique<obs::Span>("bench", "crash");
  submit_all(crash_paths, set);
  size_t crash_restarts = 0;

  // Run 1: die the hard way after a third of the jobs, with the rest of the
  // batch claimed and several workers mid-job.
  service::ServiceOptions crash1 = base_options(job_count);
  crash1.crash_after_jobs = std::max<uint64_t>(1, job_count / 3);
  int rc = run_forked(crash_paths.root, crash1);
  if (rc != 137) {
    std::fprintf(stderr, "bench_service: crash run 1 exited %d, expected 137\n", rc);
    return 2;
  }
  ++crash_restarts;

  // Measure the recovery surface exactly the way the daemon will: replay
  // the write-ahead journal and count claimed-but-unfinished jobs.
  service::JournalState wal;
  if (!service::JobJournal::replay(crash_paths.journal_path(), &wal, &error)) {
    std::fprintf(stderr, "bench_service: journal replay: %s\n", error.c_str());
    return 2;
  }
  size_t jobs_recovered = 0;
  for (const std::string& name : wal.interrupted())
    if (!fs::exists(fs::path(crash_paths.done) / (name + ".result")))
      ++jobs_recovered;

  // Run 2: replay + requeue + finish the burst, then tear the warm-cache
  // snapshot at the final path and die mid-write.
  service::ServiceOptions crash2 = base_options(job_count);
  crash2.crash_during_snapshot = true;
  rc = run_forked(crash_paths.root, crash2);
  if (rc != 137) {
    std::fprintf(stderr, "bench_service: crash run 2 exited %d, expected 137\n", rc);
    return 2;
  }
  ++crash_restarts;

  // Run 3: must quarantine the torn snapshot aside, cold-rebuild, and find
  // every job already published.
  const PhaseResult recovered = run_inprocess(crash_paths.root, base_options(job_count));
  crash_span.reset();
  crash_stage.reset();

  const size_t loss_events = count_loss_events(cold_paths, crash_paths, set, !json);
  const bool results_match = loss_events == 0;
  const bool no_spurious_quarantine = recovered.stats.jobs_quarantined == 0 &&
                                      fs::is_empty(crash_paths.quarantine);
  // Run 2's torn snapshot must have been detected and moved aside.
  const bool snapshot_recovered = recovered.stats.warm.corrupt_quarantined &&
                                  fs::exists(crash_paths.warm_cache_path() + ".corrupt");
  const bool warm_hits_beat_cold = hit_rate(warm.stats) > hit_rate(cold.stats);
  const double cold_jps = cold.seconds > 0 ? double(job_count) / cold.seconds : 0.0;
  const double warm_jps = warm.seconds > 0 ? double(job_count) / warm.seconds : 0.0;
  const bool warm_beats_cold = warm_jps > cold_jps;

  if (json) {
    std::string phases = "[\n    " + phase_json("cold", job_count, cold) + ",\n    " +
                         phase_json("warm", job_count, warm) + ",\n    " +
                         phase_json("crash_recovered", job_count, recovered) + "\n  ]";
    benchjson::JsonObject total;
    total.put("jobs", job_count)
        .putf("cold_jobs_per_second", cold_jps)
        .putf("warm_jobs_per_second", warm_jps)
        .putf("warm_speedup", cold_jps > 0 ? warm_jps / cold_jps : 0.0)
        .putf("cold_hit_rate", hit_rate(cold.stats))
        .putf("warm_hit_rate", hit_rate(warm.stats))
        .put("crash_restarts", crash_restarts)
        .put("jobs_recovered", jobs_recovered)
        .put("jobs_quarantined", recovered.stats.jobs_quarantined)
        .put("corruption_loss_events", loss_events)
        .put("results_match_after_crash", results_match)
        .put("no_spurious_quarantine", no_spurious_quarantine)
        .put("snapshot_corruption_recovered", snapshot_recovered)
        .put("warm_hits_beat_cold", warm_hits_beat_cold)
        .put("warm_beats_cold", warm_beats_cold);
    util::ResourceGuard guard; // service jobs govern themselves; zeros here
    std::printf("{\n  \"bench\": \"service\",\n  \"metric\": \"jobs_per_second\",\n"
                "  \"hardware_threads\": %u,\n  \"phases\": %s,\n  \"total\": %s,\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                std::thread::hardware_concurrency(), phases.c_str(), total.str().c_str(),
                benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("cold: %zu jobs in %.3fs (%.2f jobs/s), hit rate %.3f\n", job_count,
                cold.seconds, cold_jps, hit_rate(cold.stats));
    std::printf("warm: %zu jobs in %.3fs (%.2f jobs/s), hit rate %.3f\n", job_count,
                warm.seconds, warm_jps, hit_rate(warm.stats));
    std::printf("crash: %zu restarts, %zu jobs recovered, %zu loss events, snapshot "
                "recovery %s\n",
                crash_restarts, jobs_recovered, loss_events,
                snapshot_recovered ? "ok" : "FAIL");
  }

  fs::remove_all(root);

  if (!results_match) {
    std::fprintf(stderr,
                 "FAIL: %zu result files differ from the uninterrupted run\n", loss_events);
    return 1;
  }
  if (!no_spurious_quarantine) {
    std::fprintf(stderr, "FAIL: the crash gauntlet quarantined a job spuriously\n");
    return 1;
  }
  if (!snapshot_recovered) {
    std::fprintf(stderr, "FAIL: the torn warm-cache snapshot was not quarantined aside\n");
    return 1;
  }
  if (!warm_hits_beat_cold) {
    std::fprintf(stderr, "FAIL: warm hit rate (%.3f) did not beat cold (%.3f)\n",
                 hit_rate(warm.stats), hit_rate(cold.stats));
    return 1;
  }
  if (!warm_beats_cold) {
    std::fprintf(stderr, "FAIL: warm throughput (%.2f jobs/s) did not beat cold (%.2f)\n",
                 warm_jps, cold_jps);
    return 1;
  }
  return 0;
}
