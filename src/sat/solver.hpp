// A MiniSAT-style CDCL SAT solver.
//
// The paper uses MiniSAT v1.13 ("a SAT solver with conflict-clause
// minimization"); this is a from-scratch implementation of the same
// architecture: two-watched-literal propagation, first-UIP conflict analysis
// with recursive conflict-clause minimization, EVSIDS variable activities,
// phase saving, Luby restarts, and learnt-clause database reduction.
// Assumption-based incremental solving is supported (the redundancy
// elimination pass issues many queries against one sub-graph encoding).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace smartly::sat {

using Var = int32_t;

/// A literal encodes (variable, polarity) as 2*var + (negated ? 1 : 0).
struct Lit {
  int32_t x = -2;

  Lit() = default;
  Lit(Var v, bool negated) : x(v * 2 + (negated ? 1 : 0)) {}

  bool operator==(const Lit& o) const noexcept { return x == o.x; }
  bool operator!=(const Lit& o) const noexcept { return x != o.x; }
  bool operator<(const Lit& o) const noexcept { return x < o.x; }
};

inline Lit mk_lit(Var v, bool negated = false) { return Lit(v, negated); }
inline Lit operator~(Lit l) { Lit r; r.x = l.x ^ 1; return r; }
inline bool sign(Lit l) noexcept { return l.x & 1; }       // true = negated
inline Var var(Lit l) noexcept { return l.x >> 1; }
inline int to_index(Lit l) noexcept { return l.x; }
const Lit lit_undef{};

enum class Result { Sat, Unsat, Unknown };

/// Ternary assignment value.
enum class LBool : uint8_t { True, False, Undef };
inline LBool lbool_from(bool b) { return b ? LBool::True : LBool::False; }
inline LBool operator^(LBool v, bool flip) {
  if (v == LBool::Undef)
    return v;
  return lbool_from((v == LBool::True) != flip);
}

struct SolverStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learnts_literals = 0;
  uint64_t minimized_literals = 0; ///< removed by conflict-clause minimization
};

class Solver {
public:
  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  Var new_var();
  int num_vars() const noexcept { return static_cast<int>(assigns_.size()); }

  /// Add a clause (top-level). Returns false if the database became
  /// trivially unsatisfiable.
  bool add_clause(const std::vector<Lit>& lits) { return add_clause(lits.data(), lits.size()); }
  bool add_clause(Lit a) { return add_clause(&a, 1); }
  bool add_clause(Lit a, Lit b) {
    const Lit lits[] = {a, b};
    return add_clause(lits, 2);
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    const Lit lits[] = {a, b, c};
    return add_clause(lits, 3);
  }

  /// Solve under assumptions. Returns Unknown only when a conflict budget is
  /// set and exhausted.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// After Result::Sat: value of a variable in the model.
  bool model_value(Var v) const { return model_.at(static_cast<size_t>(v)) == LBool::True; }

  /// Limit the number of conflicts for the next solve() calls (-1 = off).
  void set_conflict_budget(int64_t budget) noexcept { conflict_budget_ = budget; }

  /// Install a callback polled periodically during search; returning true
  /// aborts the in-flight solve with Result::Unknown. Used for wall-clock
  /// deadlines and cooperative cancellation — both inherently
  /// nondeterministic, so deterministic flows leave this unset.
  void set_interrupt_check(std::function<bool()> cb) { interrupt_check_ = std::move(cb); }

  bool okay() const noexcept { return ok_; }
  const SolverStats& stats() const noexcept { return stats_; }

private:
  struct Clause;
  struct Watcher {
    Clause* clause;
    Lit blocker;
  };

  LBool value(Lit l) const {
    return assigns_[static_cast<size_t>(var(l))] ^ sign(l);
  }
  LBool value(Var v) const { return assigns_[static_cast<size_t>(v)]; }

  /// Sorts and dedups [lits, lits + n) in add_tmp_, then adds the clause.
  bool add_clause(const Lit* lits, size_t n);
  void attach_clause(Clause* c);
  void detach_clause(Clause* c);
  void remove_clause(Clause* c);
  bool satisfied(const Clause& c) const;

  void unchecked_enqueue(Lit l, Clause* reason);
  bool enqueue(Lit l, Clause* reason);
  Clause* propagate();
  void cancel_until(int level);
  Lit pick_branch_lit();
  void analyze(Clause* confl, std::vector<Lit>& out_learnt, int& out_btlevel);
  bool lit_redundant(Lit l, uint32_t abstract_levels);
  void reduce_db();
  Result search(int64_t nof_conflicts);

  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ *= (1.0 / 0.95); }
  void cla_bump_activity(Clause& c);
  void cla_decay_activity() { cla_inc_ *= (1.0 / 0.999); }

  // order heap (max-heap on activity)
  void heap_insert(Var v);
  void heap_update(Var v);
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);
  Var heap_pop();
  bool heap_empty() const noexcept { return heap_.empty(); }

  int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }
  int level(Var v) const { return level_[static_cast<size_t>(v)]; }
  uint32_t abstract_level(Var v) const { return 1u << (level(v) & 31); }

  // database
  std::vector<Clause*> clauses_; ///< problem clauses
  std::vector<Clause*> learnts_;
  std::vector<std::vector<Watcher>> watches_; ///< indexed by literal

  // assignment state
  std::vector<LBool> assigns_;
  std::vector<uint8_t> polarity_; ///< saved phase (1 = last assigned false)
  std::vector<Clause*> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;

  // VSIDS
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<int> heap_pos_; ///< -1 when not in heap

  // analyze temporaries
  std::vector<uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;

  std::vector<Lit> add_tmp_; ///< add_clause scratch
  std::vector<Lit> assumptions_;
  std::vector<LBool> model_;

  bool budgets_exhausted() const noexcept {
    return conflict_budget_ >= 0 && static_cast<int64_t>(stats_.conflicts) > conflict_budget_;
  }

  bool ok_ = true;
  int64_t conflict_budget_ = -1;
  std::function<bool()> interrupt_check_;
  bool interrupted_ = false;
  double max_learnts_ = 0;
  double learnt_adjust_cnt_ = 100;
  double learnt_adjust_confl_ = 100;
  SolverStats stats_;
};

} // namespace smartly::sat
