// Recovery-layer data model: quarantine sets, the engines' shared round
// barrier, recovery options/stats, and failure repro bundles.
//
// A QuarantineSet names the work units the engines must skip: each entry is
// an injection-site prefix plus the stable 64-bit unit id of the offending
// item (fraig: class-representative bit, rewrite: root output bit, sweep:
// region root bit, oracle: target control bit). Unit ids are name hashes
// (util::stable_name_hash over wire names), so they are identical across
// thread counts, across deep copies, and across processes — a quarantine
// recorded in a repro bundle means the same thing when the bundle is
// replayed elsewhere.
//
// A repro bundle is a directory with two files:
//   design.v      pre-stage netlist (backend::write_verilog — round-trips
//                 through the front end with names preserved)
//   manifest.txt  line-based key=value: stage, failure reason/site/unit,
//                 attempt number, active FaultPlan, quarantine set, and the
//                 engine options in force
// opt_tool --replay <dir> reconstructs the run from these two files. The
// format is deliberately dependency-free (no JSON reader exists in-tree).
//
// The driver around these types lives in src/opt/transaction.{hpp,cpp}.
#pragma once

#include "util/fault.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smartly::util {

/// Stable unit id of one netlist bit: the wire name's FNV-1a hash mixed with
/// the bit offset. Never returns 0 (0 means "no unit"). Name-based, so the
/// id survives deep copies, thread-count changes, and a write_verilog
/// round-trip — everything quarantine determinism and bundle replay need.
uint64_t bit_unit_id(const std::string& wire_name, int offset);

/// Deterministic, ordered set of quarantined work units. Mutated only from
/// single-threaded recovery code between stage attempts; engines read it
/// (contains) concurrently from workers, which is safe because the set is
/// frozen for the duration of a stage run.
class QuarantineSet {
public:
  /// Returns true when the entry is new. Keeps entries sorted, so
  /// serialization and reporting order are independent of insertion order.
  bool add(const std::string& site, uint64_t unit);
  bool contains(const char* site, uint64_t unit) const noexcept;
  bool empty() const noexcept { return entries_.empty(); }
  size_t size() const noexcept { return entries_.size(); }
  const std::vector<std::pair<std::string, uint64_t>>& entries() const noexcept {
    return entries_;
  }

  /// "site:hexunit,site:hexunit" in sorted order; "" for the empty set.
  std::string serialize() const;
  /// Inverse of serialize(); ignores malformed fragments.
  static QuarantineSet parse(const std::string& text);

private:
  std::vector<std::pair<std::string, uint64_t>> entries_; ///< sorted
};

class ResourceGuard;

/// What a round loop does after its barrier.
enum class RoundEntry { Run, Skip, Halt };

/// The barrier the fraig, rewrite and §II sweep loops run single-threaded
/// before each 1-based round: the guard checkpoint (the only place
/// deterministic budgets trip; `cells` feeds the growth budget, 0 skips it),
/// then Skip for a round quarantined under `site`, then the round's fault
/// point, which halts as a tripped budget would. On Halt the guard has noted
/// the halted engine; the caller counts it and leaves the loop.
RoundEntry enter_round(ResourceGuard* guard, const QuarantineSet* quarantine, const char* site,
                       uint64_t round, uint64_t cells);

/// Halt tail for an injected fault absorbed inside a round: records the
/// fault (first report wins), trips the guard with BudgetKind::Fault and
/// notes the halted engine. No-op without a guard.
void halt_on_fault(ResourceGuard* guard, const FaultInjected& e);

/// Knobs for the transactional stage driver.
struct RecoveryOptions {
  bool enabled = false;  ///< wrap stages in snapshot/rollback transactions
  int max_retries = 3;   ///< rollback+retry attempts per stage before skipping it
  bool paranoid = false; ///< CEC every stage's output against its snapshot
  int64_t paranoid_conflict_budget = 200000; ///< SAT budget for each paranoid check
  std::string repro_dir; ///< when nonempty, write a repro bundle per recovery event
};

/// One rollback/retry/skip incident, kept for stats and logging.
struct RecoveryEvent {
  std::string stage;  ///< "sweep", "fraig", "rewrite", ...
  std::string reason; ///< "fault-injected", "fault-halt", "verify-failed",
                      ///< "paranoid-miscompare", "exception"
  std::string site;   ///< fault site when known ("" otherwise)
  uint64_t unit = 0;  ///< stable unit id when known (0 otherwise)
  int attempt = 0;    ///< 1-based attempt that failed
  int round = -1;     ///< bisected faulting round (paranoid mode), -1 unknown
  bool quarantined = false; ///< a new quarantine entry was added
  bool skipped = false;     ///< stage abandoned after exhausting retries
  std::string bundle_dir;   ///< repro bundle path ("" when not written)
};

/// Aggregated over a pass; reported in SmartlyStats::recovery.
struct RecoveryStats {
  uint64_t stages = 0;    ///< protected stages entered
  uint64_t rollbacks = 0; ///< snapshot restores performed
  uint64_t retries = 0;   ///< re-runs after a rollback
  uint64_t quarantined_units = 0;
  uint64_t stages_skipped = 0; ///< stages abandoned after exhausting retries
  uint64_t bundles_written = 0;
  uint64_t paranoid_checks = 0;
  uint64_t paranoid_miscompares = 0;
  std::vector<RecoveryEvent> events;

  RecoveryStats& operator+=(const RecoveryStats& o);
  bool any() const noexcept { return stages != 0; }
};

/// Everything needed to reproduce one stage failure.
struct ReproBundle {
  std::string design_verilog; ///< pre-stage netlist (write_verilog output)
  std::string stage;
  std::string reason;
  std::string site;
  uint64_t unit = 0;
  int attempt = 0;
  bool plan_active = false; ///< was a FaultScope installed?
  FaultPlan plan;           ///< the active plan (valid when plan_active)
  std::string quarantine;   ///< QuarantineSet::serialize() at stage entry
  std::string options;      ///< free-form engine-option summary (one line)
};

/// Write `bundle` under `dir` as `dir/bundle-<index>-<stage>/`. Creates
/// directories as needed. Returns the bundle directory path, or "" on any
/// filesystem error (recovery must never fail because a disk is full).
std::string write_repro_bundle(const std::string& dir, const ReproBundle& bundle, int index);

/// Load a bundle written by write_repro_bundle. Returns false and fills
/// `*error` when the directory or either file is missing/malformed.
bool read_repro_bundle(const std::string& bundle_dir, ReproBundle* out, std::string* error);

} // namespace smartly::util
