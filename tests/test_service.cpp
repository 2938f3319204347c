// Crash-safety tests for the service daemon (src/service/).
//
// Covers the three robustness layers end to end: the snapshot container
// rejects every damage mode and quarantines corrupt files aside, the
// write-ahead journal replays claims/done/quarantine records through torn
// and malformed lines, and OptService itself survives kill-style _exit()
// mid-burst and mid-snapshot-write with a byte-identical result set.
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

namespace {

namespace fs = std::filesystem;
using namespace smartly;
using namespace smartly::service;

// Fresh scratch directory per test (same idiom as test_recovery.cpp).
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "smartly-service-" + tag + "-" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::string out;
  EXPECT_TRUE(util::read_file(path, &out, nullptr)) << path;
  return out;
}

// Two small jobs with genuine muxtree redundancy (the frontend takes only
// non-ANSI port declarations). kRedundantMux: the outer select re-tests s,
// so y collapses to the inner mux. kSameOperandMux: a mux whose branches
// are identical is a wire.
const char* kRedundantMux = "module top(a, b, s, y);\n"
                            "  input a, b, s;\n"
                            "  output y;\n"
                            "  wire n1, n2;\n"
                            "  assign n1 = s ? a : b;\n"
                            "  assign n2 = s ? n1 : b;\n"
                            "  assign y = n2;\n"
                            "endmodule\n";

const char* kSameOperandMux = "module top(a, b, c, s, t, y);\n"
                              "  input a, b, c, s, t;\n"
                              "  output y;\n"
                              "  wire m0, m1;\n"
                              "  assign m0 = s ? a : b;\n"
                              "  assign m1 = t ? m0 : c;\n"
                              "  assign y = s ? m1 : m1;\n"
                              "endmodule\n";

ServiceOptions drain_options() {
  ServiceOptions o;
  o.threads = 1;
  o.poll_ms = 1;
  o.drain_and_exit = true;
  o.queue_max = 8;
  return o;
}

void submit_standard_jobs(const SpoolPaths& paths) {
  std::string error;
  ASSERT_TRUE(paths.ensure(&error)) << error;
  ASSERT_TRUE(submit_job(paths, "alpha", kRedundantMux, &error)) << error;
  ASSERT_TRUE(submit_job(paths, "beta", kSameOperandMux, &error)) << error;
}

// Filename -> bytes of everything under done/. Byte-level equality of two
// of these maps is the "crash changed nothing" oracle.
std::map<std::string, std::string> read_done_tree(const SpoolPaths& paths) {
  std::map<std::string, std::string> out;
  if (!fs::exists(paths.done))
    return out;
  for (const auto& e : fs::directory_iterator(paths.done))
    out[e.path().filename().string()] = read_all(e.path().string());
  return out;
}

// Run the daemon in a forked child so its crash hooks (_exit) cannot take
// the test binary down. Returns the exit code, or 128+signal.
int run_forked(const std::string& root, const ServiceOptions& options) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    OptService daemon(root, options);
    ::_exit(daemon.run());
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// --- snapshot container -----------------------------------------------------

TEST(Snapshot, SealOpenRoundTrip) {
  std::string payload;
  for (int i = 0; i < 256; ++i)
    put_u8(payload, static_cast<uint8_t>(i));

  const std::string sealed = seal_snapshot(7, payload);
  std::string out, error;
  ASSERT_TRUE(open_snapshot(sealed, 7, &out, &error)) << error;
  EXPECT_EQ(out, payload);
}

TEST(Snapshot, OpenRejectsEveryDamageMode) {
  const std::string sealed = seal_snapshot(7, "snapshot payload bytes");
  std::string out, error;

  // Truncated header.
  EXPECT_FALSE(open_snapshot(sealed.substr(0, 10), 7, &out, &error));
  EXPECT_FALSE(error.empty());

  // Bad magic.
  std::string bad = sealed;
  bad[0] ^= 0x20;
  EXPECT_FALSE(open_snapshot(bad, 7, &out, &error));

  // Version mismatch (an old daemon must not misread a new snapshot).
  EXPECT_FALSE(open_snapshot(sealed, 8, &out, &error));

  // Declared length disagrees with the bytes present (torn write).
  EXPECT_FALSE(open_snapshot(sealed.substr(0, sealed.size() - 3), 7, &out, &error));

  // Checksum catches a payload bit flip.
  bad = sealed;
  bad[sealed.size() - 1] ^= 0x01;
  EXPECT_FALSE(open_snapshot(bad, 7, &out, &error));

  // The undamaged original still opens — the rejects above were real.
  EXPECT_TRUE(open_snapshot(sealed, 7, &out, &error)) << error;
}

TEST(Snapshot, MissingFileIsColdStartNotFailure) {
  const std::string dir = fresh_dir("snap-missing");
  fs::create_directories(dir);
  std::string payload, error = "sentinel";
  bool aside = true;
  EXPECT_FALSE(load_snapshot_file(dir + "/absent.snap", 1, &payload, &error, &aside));
  EXPECT_TRUE(error.empty()); // cold start: no diagnostic, nothing quarantined
  EXPECT_FALSE(aside);
  fs::remove_all(dir);
}

TEST(Snapshot, DamagedFileIsQuarantinedAside) {
  const std::string dir = fresh_dir("snap-corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/state.snap";
  std::string error;
  ASSERT_TRUE(store_snapshot_file(path, 3, "good payload", &error)) << error;

  // Flip one payload byte on disk.
  std::string bytes = read_all(path);
  bytes.back() ^= 0x01;
  ASSERT_TRUE(util::atomic_write_file(path, bytes, &error)) << error;

  std::string payload;
  bool aside = false;
  EXPECT_FALSE(load_snapshot_file(path, 3, &payload, &error, &aside));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(aside);
  EXPECT_FALSE(fs::exists(path));             // moved, not deleted:
  EXPECT_TRUE(fs::exists(path + ".corrupt")); // the evidence survives
  fs::remove_all(dir);
}

// --- write-ahead journal ----------------------------------------------------

TEST(Journal, AppendReplayRoundTrip) {
  const std::string dir = fresh_dir("journal-rt");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.log";

  JobJournal j;
  std::string error;
  ASSERT_TRUE(j.open(path, &error)) << error;
  ASSERT_TRUE(j.append_claim("alpha", 1));
  ASSERT_TRUE(j.append_claim("beta", 1));
  ASSERT_TRUE(j.append_done("alpha", "ok"));
  ASSERT_TRUE(j.append_quarantine("gamma"));
  j.close();

  JournalState state;
  ASSERT_TRUE(JobJournal::replay(path, &state, &error)) << error;
  EXPECT_TRUE(state.jobs.at("alpha").done);
  EXPECT_EQ(state.jobs.at("alpha").status, "ok");
  EXPECT_EQ(state.jobs.at("beta").claims, 1);
  EXPECT_FALSE(state.jobs.at("beta").done);
  EXPECT_TRUE(state.jobs.at("gamma").quarantined);
  EXPECT_EQ(state.interrupted(), std::vector<std::string>{"beta"});
  EXPECT_EQ(state.torn_lines, 0u);
  EXPECT_EQ(state.malformed_lines, 0u);
  fs::remove_all(dir);
}

TEST(Journal, TornTrailingLineIsIgnored) {
  const std::string dir = fresh_dir("journal-torn");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.log";
  // The final append was interrupted mid-write: no trailing newline.
  ASSERT_TRUE(util::atomic_write_file(path, "claim alpha 1\ndone alpha ok\nclaim be", nullptr));

  JournalState state;
  std::string error;
  ASSERT_TRUE(JobJournal::replay(path, &state, &error)) << error;
  EXPECT_EQ(state.torn_lines, 1u);
  EXPECT_EQ(state.jobs.count("be"), 0u); // the torn claim never happened
  EXPECT_TRUE(state.jobs.at("alpha").done);
  EXPECT_TRUE(state.interrupted().empty());
  fs::remove_all(dir);
}

TEST(Journal, MalformedInteriorLinesAreCountedNotFatal) {
  const std::string dir = fresh_dir("journal-bad");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.log";
  ASSERT_TRUE(util::atomic_write_file(
      path, "complete garbage\nclaim missing-attempt\nclaim alpha 2\n", nullptr));

  JournalState state;
  std::string error;
  ASSERT_TRUE(JobJournal::replay(path, &state, &error)) << error;
  EXPECT_EQ(state.malformed_lines, 2u);
  EXPECT_EQ(state.jobs.at("alpha").claims, 2);
  fs::remove_all(dir);
}

TEST(Journal, FreshClaimSupersedesEarlierDone) {
  const std::string dir = fresh_dir("journal-resubmit");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.log";
  // A client finished "alpha", then resubmitted it; the second claim must
  // replay as interrupted or the resubmission is silently lost on restart.
  ASSERT_TRUE(util::atomic_write_file(path, "claim alpha 1\ndone alpha ok\nclaim alpha 2\n",
                                      nullptr));

  JournalState state;
  std::string error;
  ASSERT_TRUE(JobJournal::replay(path, &state, &error)) << error;
  EXPECT_FALSE(state.jobs.at("alpha").done);
  EXPECT_EQ(state.jobs.at("alpha").claims, 2);
  EXPECT_EQ(state.interrupted(), std::vector<std::string>{"alpha"});
  fs::remove_all(dir);
}

TEST(Journal, CompactKeepsOnlyLiveRecords) {
  const std::string dir = fresh_dir("journal-compact");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.log";
  ASSERT_TRUE(util::atomic_write_file(path,
                                      "claim finished 1\ndone finished ok\n"
                                      "claim live 3\nquarantine poison\n",
                                      nullptr));

  JournalState state;
  std::string error;
  ASSERT_TRUE(JobJournal::replay(path, &state, &error)) << error;
  ASSERT_TRUE(JobJournal::compact(path, state, &error)) << error;

  JournalState after;
  ASSERT_TRUE(JobJournal::replay(path, &after, &error)) << error;
  EXPECT_EQ(after.jobs.count("finished"), 0u); // done claims are dropped
  EXPECT_EQ(after.jobs.at("live").claims, 3);  // claim counts survive
  EXPECT_TRUE(after.jobs.at("poison").quarantined);
  EXPECT_EQ(after.jobs.size(), 2u);
  fs::remove_all(dir);
}

// --- warm caches ------------------------------------------------------------

TEST(WarmCache, ResultCacheDegradesToMissWhenFull) {
  ResultCache cache;
  for (size_t i = 0; i < kResultCacheMax; ++i)
    cache.insert({i, i}, {"module top; endmodule\n", "status=ok\n"});
  ASSERT_EQ(cache.size(), kResultCacheMax);

  cache.insert({~0ull, ~0ull}, {"overflow\n", "status=ok\n"});
  EXPECT_EQ(cache.size(), kResultCacheMax); // dropped, not evicted
  ResultCache::Entry e;
  EXPECT_FALSE(cache.lookup({~0ull, ~0ull}, &e));
  EXPECT_TRUE(cache.lookup({0, 0}, &e)); // the old entries are all intact
}

TEST(WarmCache, JobResultKeySeparatesSourcesAndGenerations) {
  const Hash128 a = job_result_key(kRedundantMux);
  const Hash128 b = job_result_key(kSameOperandMux);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == job_result_key(kRedundantMux)); // pure function of the bytes
  const std::string shifted = std::string("\n") + kRedundantMux;
  EXPECT_FALSE(a == job_result_key(shifted));
}

TEST(WarmCache, SerializeLoadRoundTripsTheResultCache) {
  const std::string dir = fresh_dir("warm-rt");
  fs::create_directories(dir);
  const std::string path = dir + "/warm_cache.snap";

  ResultCache results;
  results.insert(job_result_key(kRedundantMux),
                 {"module top(y); output y; endmodule\n", "status=ok\ncells.before=3\n"});
  results.insert(job_result_key(kSameOperandMux), {"module top; endmodule\n", "status=ok\n"});

  // Stable bytes: serializing twice must be byte-identical (the recovery
  // tests compare snapshot files across daemon runs).
  EXPECT_EQ(serialize_warm_cache(results), serialize_warm_cache(results));

  std::string error;
  ASSERT_TRUE(save_warm_cache(path, results, &error)) << error;

  ResultCache results2;
  WarmCacheLoadStats stats;
  ASSERT_TRUE(load_warm_cache(path, &results2, &stats)) << stats.error;
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.result_entries, 2u);
  EXPECT_EQ(stats.rejected_records, 0u);
  EXPECT_EQ(serialize_warm_cache(results2), serialize_warm_cache(results));

  ResultCache::Entry e;
  ASSERT_TRUE(results2.lookup(job_result_key(kRedundantMux), &e));
  EXPECT_EQ(e.verilog, "module top(y); output y; endmodule\n");
  EXPECT_EQ(e.manifest_tail, "status=ok\ncells.before=3\n");
  fs::remove_all(dir);
}

/// Appends one result record in the snapshot's layout (key hi first).
void put_result(std::string& payload, const Hash128& key, const std::string& verilog,
                const std::string& manifest_tail) {
  put_u64(payload, key.hi);
  put_u64(payload, key.lo);
  put_u32(payload, static_cast<uint32_t>(verilog.size()));
  payload += verilog;
  put_u32(payload, static_cast<uint32_t>(manifest_tail.size()));
  payload += manifest_tail;
}

TEST(WarmCache, LoadRejectsInvalidRecordsKeepsTheRest) {
  const std::string dir = fresh_dir("warm-reject");
  fs::create_directories(dir);
  const std::string path = dir + "/warm_cache.snap";

  // Hand-build a payload: one result with an empty netlist (a broken
  // writer: reject it), then one valid result.
  std::string payload;
  put_u32(payload, 2);
  put_result(payload, {555, 666}, "", "tail");
  put_result(payload, {111, 222}, "module top; endmodule\n", "status=ok\n");

  std::string error;
  ASSERT_TRUE(store_snapshot_file(path, kWarmCacheVersion, payload, &error)) << error;

  ResultCache results;
  WarmCacheLoadStats stats;
  ASSERT_TRUE(load_warm_cache(path, &results, &stats));
  EXPECT_TRUE(stats.error.empty()) << stats.error;
  EXPECT_EQ(stats.result_entries, 1u);
  EXPECT_EQ(stats.rejected_records, 1u);

  ResultCache::Entry e;
  EXPECT_TRUE(results.lookup({111, 222}, &e));
  EXPECT_FALSE(results.lookup({555, 666}, &e));
  fs::remove_all(dir);
}

TEST(WarmCache, LoadSurvivesTruncatedPayload) {
  const std::string dir = fresh_dir("warm-truncated");
  fs::create_directories(dir);
  const std::string path = dir + "/warm_cache.snap";

  // Claims three results but carries one and a half: the checksum passes
  // (the file was sealed this way) yet the records must not parse past the
  // end. The loader keeps what it applied and reports the damage.
  std::string payload;
  put_u32(payload, 3);
  put_result(payload, {1, 2}, "module top; endmodule\n", "status=ok\n");
  put_u64(payload, 3);
  put_u64(payload, 4);
  put_u32(payload, 1000); // a blob length that overruns the payload
  payload += "module";

  std::string error;
  ASSERT_TRUE(store_snapshot_file(path, kWarmCacheVersion, payload, &error)) << error;

  ResultCache results;
  WarmCacheLoadStats stats;
  ASSERT_TRUE(load_warm_cache(path, &results, &stats));
  EXPECT_FALSE(stats.error.empty());
  EXPECT_EQ(stats.rejected_records, 1u);
  EXPECT_EQ(stats.result_entries, 1u);
  EXPECT_EQ(results.size(), 1u);
  fs::remove_all(dir);
}

// --- spool protocol ---------------------------------------------------------

TEST(Spool, JobNameValidation) {
  EXPECT_TRUE(job_name_valid("alpha"));
  EXPECT_TRUE(job_name_valid("job-003.ind_x"));
  EXPECT_FALSE(job_name_valid(""));
  EXPECT_FALSE(job_name_valid(".hidden"));
  EXPECT_FALSE(job_name_valid("has space"));
  EXPECT_FALSE(job_name_valid("path/traversal"));
  EXPECT_FALSE(job_name_valid(std::string(129, 'a')));
}

TEST(Spool, SubmitListPublishLifecycle) {
  const SpoolPaths paths = SpoolPaths::at(fresh_dir("spool"));
  std::string error;
  ASSERT_TRUE(paths.ensure(&error)) << error;

  ASSERT_TRUE(submit_job(paths, "zeta", "module top; endmodule\n", &error)) << error;
  ASSERT_TRUE(submit_job(paths, "alpha", "module top; endmodule\n", &error)) << error;
  EXPECT_EQ(list_jobs(paths), (std::vector<std::string>{"alpha", "zeta"}));

  ASSERT_TRUE(write_result(paths, "alpha", "module top; endmodule\n", "job=alpha\nstatus=ok\n",
                           &error))
      << error;
  EXPECT_EQ(list_jobs(paths), std::vector<std::string>{"zeta"}); // consumed
  EXPECT_EQ(list_done(paths), std::vector<std::string>{"alpha"});
  EXPECT_EQ(read_all(paths.done + "/alpha.result"), "job=alpha\nstatus=ok\n");
  fs::remove_all(paths.root);
}

// --- the daemon end to end --------------------------------------------------

TEST(OptServiceEndToEnd, DrainOnceOptimizesAndPersists) {
  const SpoolPaths paths = SpoolPaths::at(fresh_dir("drain"));
  submit_standard_jobs(paths);

  OptService daemon(paths.root, drain_options());
  ASSERT_EQ(daemon.run(), 0);
  EXPECT_EQ(daemon.stats().jobs_completed, 2u);
  EXPECT_EQ(daemon.stats().jobs_failed, 0u);
  EXPECT_EQ(daemon.stats().jobs_quarantined, 0u);

  EXPECT_EQ(list_done(paths), (std::vector<std::string>{"alpha", "beta"}));
  const std::string manifest = read_all(paths.done + "/alpha.result");
  EXPECT_NE(manifest.find("job=alpha\n"), std::string::npos);
  EXPECT_NE(manifest.find("status=ok\n"), std::string::npos);
  EXPECT_NE(manifest.find("cells.before="), std::string::npos);
  EXPECT_FALSE(read_all(paths.done + "/alpha.v").empty());
  EXPECT_TRUE(fs::exists(paths.warm_cache_path()));
  EXPECT_TRUE(fs::exists(paths.stats_path()));
  fs::remove_all(paths.root);
}

TEST(OptServiceEndToEnd, WarmRunReplaysFromResultCacheByteIdentically) {
  const SpoolPaths cold = SpoolPaths::at(fresh_dir("warm-a"));
  submit_standard_jobs(cold);
  OptService cold_daemon(cold.root, drain_options());
  ASSERT_EQ(cold_daemon.run(), 0);
  EXPECT_EQ(cold_daemon.stats().result_hits, 0u);

  const SpoolPaths warm = SpoolPaths::at(fresh_dir("warm-b"));
  submit_standard_jobs(warm);
  fs::copy_file(cold.warm_cache_path(), warm.warm_cache_path(),
                fs::copy_options::overwrite_existing);

  OptService warm_daemon(warm.root, drain_options());
  ASSERT_EQ(warm_daemon.run(), 0);
  EXPECT_TRUE(warm_daemon.stats().warm.loaded);
  EXPECT_EQ(warm_daemon.stats().result_hits, 2u); // no engine ran at all
  EXPECT_EQ(warm_daemon.stats().result_misses, 0u);
  EXPECT_EQ(read_done_tree(warm), read_done_tree(cold));
  fs::remove_all(cold.root);
  fs::remove_all(warm.root);
}

TEST(OptServiceEndToEnd, KillMidBurstThenRestartIsByteIdentical) {
  // Golden reference: the same jobs with no interruption.
  const SpoolPaths golden = SpoolPaths::at(fresh_dir("crash-golden"));
  submit_standard_jobs(golden);
  OptService golden_daemon(golden.root, drain_options());
  ASSERT_EQ(golden_daemon.run(), 0);

  const SpoolPaths crash = SpoolPaths::at(fresh_dir("crash"));
  submit_standard_jobs(crash);
  ServiceOptions crashing = drain_options();
  crashing.crash_after_jobs = 1; // die after the first completion
  ASSERT_EQ(run_forked(crash.root, crashing), 137);

  // The claim of the in-flight second job must already be durable.
  JournalState state;
  std::string error;
  ASSERT_TRUE(JobJournal::replay(crash.journal_path(), &state, &error)) << error;
  EXPECT_FALSE(state.interrupted().empty());

  OptService restarted(crash.root, drain_options());
  ASSERT_EQ(restarted.run(), 0);
  EXPECT_EQ(restarted.stats().jobs_quarantined, 0u); // one crash != crash loop
  EXPECT_EQ(read_done_tree(crash), read_done_tree(golden));
  fs::remove_all(golden.root);
  fs::remove_all(crash.root);
}

TEST(OptServiceEndToEnd, TornSnapshotIsQuarantinedAndColdRebuilt) {
  const SpoolPaths paths = SpoolPaths::at(fresh_dir("snap-tear"));
  submit_standard_jobs(paths);
  OptService first(paths.root, drain_options());
  ASSERT_EQ(first.run(), 0); // leaves a good snapshot behind

  // The next run dies while overwriting it, leaving torn bytes at the
  // final path — the one corruption atomic rename cannot prevent alone.
  ServiceOptions tearing = drain_options();
  tearing.crash_during_snapshot = true;
  ASSERT_EQ(run_forked(paths.root, tearing), 137);

  OptService recovered(paths.root, drain_options());
  ASSERT_EQ(recovered.run(), 0);
  EXPECT_TRUE(recovered.stats().warm.corrupt_quarantined);
  EXPECT_FALSE(recovered.stats().warm.loaded);
  EXPECT_TRUE(fs::exists(paths.warm_cache_path() + ".corrupt"));

  // The drain epilogue re-persisted a fresh, valid snapshot.
  std::string payload, error;
  EXPECT_TRUE(load_snapshot_file(paths.warm_cache_path(), kWarmCacheVersion, &payload, &error))
      << error;
  fs::remove_all(paths.root);
}

TEST(OptServiceEndToEnd, VersionOneSnapshotIsMovedAsideAndColdRebuilt) {
  const SpoolPaths fresh = SpoolPaths::at(fresh_dir("upgrade-fresh"));
  submit_standard_jobs(fresh);
  OptService fresh_daemon(fresh.root, drain_options());
  ASSERT_EQ(fresh_daemon.run(), 0);

  // A well-formed version-1 snapshot (rewrite-library fingerprint, empty
  // decision memo, no programs, then the results) holding a result no run
  // of this build publishes. It must be moved aside, never served.
  const SpoolPaths upgraded = SpoolPaths::at(fresh_dir("upgrade"));
  submit_standard_jobs(upgraded);
  std::string v1;
  put_u64(v1, 0); // fingerprint
  put_u32(v1, 0); // decision-memo entries
  put_u32(v1, 0); // rewrite programs
  put_u32(v1, 1); // results
  put_result(v1, job_result_key(kRedundantMux), "module stale; endmodule\n", "status=ok\n");
  std::string error;
  ASSERT_TRUE(store_snapshot_file(upgraded.warm_cache_path(), 1, v1, &error)) << error;

  OptService daemon(upgraded.root, drain_options());
  ASSERT_EQ(daemon.run(), 0);
  EXPECT_FALSE(daemon.stats().warm.loaded);
  EXPECT_TRUE(daemon.stats().warm.corrupt_quarantined);
  EXPECT_TRUE(fs::exists(upgraded.warm_cache_path() + ".corrupt"));
  EXPECT_EQ(daemon.stats().result_hits, 0u);
  EXPECT_EQ(read_done_tree(upgraded), read_done_tree(fresh));
  fs::remove_all(fresh.root);
  fs::remove_all(upgraded.root);
}

TEST(OptServiceEndToEnd, CrashLoopingJobIsQuarantinedWithReproBundle) {
  const SpoolPaths paths = SpoolPaths::at(fresh_dir("poison"));
  submit_standard_jobs(paths);
  std::string error;
  ASSERT_TRUE(submit_job(paths, "boom", kRedundantMux, &error)) << error;

  // Seed the journal as if "boom" took the daemon down twice already
  // (crash_threshold = 2) without ever finishing.
  ASSERT_TRUE(util::atomic_write_file(paths.journal_path(), "claim boom 1\nclaim boom 2\n",
                                      &error))
      << error;

  OptService daemon(paths.root, drain_options());
  ASSERT_EQ(daemon.run(), 0);
  EXPECT_EQ(daemon.stats().jobs_quarantined, 1u);
  EXPECT_EQ(daemon.stats().jobs_completed, 2u); // the healthy jobs still ran
  EXPECT_TRUE(fs::exists(paths.quarantine + "/boom.v"));
  EXPECT_EQ(list_done(paths), (std::vector<std::string>{"alpha", "beta"}));

  // The bundle makes the crash loop debuggable, not just broken.
  util::ReproBundle bundle;
  ASSERT_TRUE(util::read_repro_bundle(paths.quarantine + "/bundle-0000-service.job", &bundle,
                                      &error))
      << error;
  EXPECT_EQ(bundle.design_verilog, kRedundantMux);
  EXPECT_EQ(bundle.attempt, 2);

  // A second startup must not re-quarantine or resurrect the job.
  OptService again(paths.root, drain_options());
  ASSERT_EQ(again.run(), 0);
  EXPECT_EQ(again.stats().jobs_quarantined, 0u);
  EXPECT_TRUE(fs::exists(paths.quarantine + "/boom.v"));
  fs::remove_all(paths.root);
}

TEST(OptServiceEndToEnd, BacklogBeyondQueueMaxIsShedExplicitly) {
  const SpoolPaths paths = SpoolPaths::at(fresh_dir("shed"));
  std::string error;
  ASSERT_TRUE(paths.ensure(&error)) << error;
  ASSERT_TRUE(submit_job(paths, "j1", kRedundantMux, &error)) << error;
  ASSERT_TRUE(submit_job(paths, "j2", kSameOperandMux, &error)) << error;
  ASSERT_TRUE(submit_job(paths, "j3", kRedundantMux, &error)) << error;

  ServiceOptions options = drain_options();
  options.queue_max = 1;
  OptService daemon(paths.root, options);
  ASSERT_EQ(daemon.run(), 0);

  EXPECT_EQ(daemon.stats().jobs_completed, 1u);
  EXPECT_EQ(daemon.stats().jobs_shed, 2u);
  // Shed is a response, not silence: the client gets an explicit reason.
  EXPECT_TRUE(fs::exists(paths.failed + "/j2.error"));
  EXPECT_TRUE(fs::exists(paths.failed + "/j3.error"));
  EXPECT_NE(read_all(paths.failed + "/j2.error").find("shed"), std::string::npos);
  fs::remove_all(paths.root);
}

} // namespace
