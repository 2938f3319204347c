#include "sat/solver.hpp"

#include "util/luby.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smartly::sat {

struct Solver::Clause {
  float activity = 0.0f;
  bool learnt = false;
  bool deleted = false;
  std::vector<Lit> lits;

  int size() const noexcept { return static_cast<int>(lits.size()); }
  Lit& operator[](int i) { return lits[static_cast<size_t>(i)]; }
  Lit operator[](int i) const { return lits[static_cast<size_t>(i)]; }
};

Solver::Solver() = default;

Solver::~Solver() {
  for (Clause* c : clauses_)
    delete c;
  for (Clause* c : learnts_)
    delete c;
}

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(1); // default phase: false (MiniSAT default)
  reason_.push_back(nullptr);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(const Lit* lits, size_t n) {
  assert(decision_level() == 0);
  if (!ok_)
    return false;

  // Sort, dedup, drop false literals, detect tautology / satisfied clause.
  add_tmp_.assign(lits, lits + n);
  std::sort(add_tmp_.begin(), add_tmp_.end());
  size_t kept = 0;
  Lit prev = lit_undef;
  for (size_t i = 0; i < add_tmp_.size(); ++i) {
    const Lit l = add_tmp_[i];
    if (value(l) == LBool::True || l == ~prev)
      return true; // clause already satisfied or tautological
    if (value(l) != LBool::False && l != prev)
      add_tmp_[kept++] = l;
    prev = l;
  }
  add_tmp_.resize(kept);

  if (add_tmp_.empty()) {
    ok_ = false;
    return false;
  }
  if (add_tmp_.size() == 1) {
    unchecked_enqueue(add_tmp_[0], nullptr);
    ok_ = (propagate() == nullptr);
    return ok_;
  }

  auto* c = new Clause();
  c->lits.assign(add_tmp_.begin(), add_tmp_.end());
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

void Solver::attach_clause(Clause* c) {
  assert(c->size() >= 2);
  watches_[static_cast<size_t>(to_index(~(*c)[0]))].push_back({c, (*c)[1]});
  watches_[static_cast<size_t>(to_index(~(*c)[1]))].push_back({c, (*c)[0]});
}

void Solver::detach_clause(Clause* c) {
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[static_cast<size_t>(to_index(~(*c)[i]))];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].clause == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::remove_clause(Clause* c) {
  detach_clause(c);
  c->deleted = true;
  delete c;
}

bool Solver::satisfied(const Clause& c) const {
  for (int i = 0; i < c.size(); ++i)
    if (value(c[i]) == LBool::True)
      return true;
  return false;
}

void Solver::unchecked_enqueue(Lit l, Clause* reason) {
  assert(value(l) == LBool::Undef);
  const Var v = var(l);
  assigns_[static_cast<size_t>(v)] = lbool_from(!sign(l));
  reason_[static_cast<size_t>(v)] = reason;
  level_[static_cast<size_t>(v)] = decision_level();
  trail_.push_back(l);
}

bool Solver::enqueue(Lit l, Clause* reason) {
  if (value(l) != LBool::Undef)
    return value(l) != LBool::False;
  unchecked_enqueue(l, reason);
  return true;
}

Solver::Clause* Solver::propagate() {
  Clause* confl = nullptr;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<size_t>(to_index(p))];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = *w.clause;
      // Make sure the false literal is at position 1.
      const Lit false_lit = ~p;
      if (c[0] == false_lit)
        std::swap(c[0], c[1]);
      assert(c[1] == false_lit);
      ++i;

      const Lit first = c[0];
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = {&c, first};
        continue;
      }

      // Look for a new literal to watch.
      bool found = false;
      for (int k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::False) {
          std::swap(c[1], c[k]);
          watches_[static_cast<size_t>(to_index(~c[1]))].push_back({&c, first});
          found = true;
          break;
        }
      }
      if (found)
        continue;

      // Clause is unit or conflicting.
      ws[j++] = {&c, first};
      if (value(first) == LBool::False) {
        confl = &c;
        qhead_ = trail_.size();
        while (i < ws.size())
          ws[j++] = ws[i++];
      } else {
        unchecked_enqueue(first, &c);
      }
    }
    ws.resize(j);
    if (confl)
      break;
  }
  return confl;
}

void Solver::cancel_until(int lvl) {
  if (decision_level() <= lvl)
    return;
  for (size_t c = trail_.size(); c-- > static_cast<size_t>(trail_lim_[static_cast<size_t>(lvl)]);) {
    const Var v = var(trail_[c]);
    polarity_[static_cast<size_t>(v)] = static_cast<uint8_t>(sign(trail_[c]));
    assigns_[static_cast<size_t>(v)] = LBool::Undef;
    reason_[static_cast<size_t>(v)] = nullptr;
    if (heap_pos_[static_cast<size_t>(v)] < 0)
      heap_insert(v);
  }
  qhead_ = static_cast<size_t>(trail_lim_[static_cast<size_t>(lvl)]);
  trail_.resize(qhead_);
  trail_lim_.resize(static_cast<size_t>(lvl));
}

Lit Solver::pick_branch_lit() {
  Var next = -1;
  while (next == -1 || value(next) != LBool::Undef) {
    if (heap_empty())
      return lit_undef;
    next = heap_pop();
  }
  return mk_lit(next, polarity_[static_cast<size_t>(next)] != 0);
}

void Solver::analyze(Clause* confl, std::vector<Lit>& out_learnt, int& out_btlevel) {
  int path_c = 0;
  Lit p = lit_undef;
  out_learnt.clear();
  out_learnt.push_back(lit_undef); // placeholder for the asserting literal
  size_t index = trail_.size();

  Clause* reason = confl;
  do {
    assert(reason != nullptr);
    if (reason->learnt)
      cla_bump_activity(*reason);
    const int start = (p == lit_undef) ? 0 : 1;
    for (int j = start; j < reason->size(); ++j) {
      const Lit q = (*reason)[j];
      const Var v = var(q);
      if (!seen_[static_cast<size_t>(v)] && level(v) > 0) {
        var_bump_activity(v);
        seen_[static_cast<size_t>(v)] = 1;
        if (level(v) >= decision_level())
          ++path_c;
        else
          out_learnt.push_back(q);
      }
    }
    // Select next literal on the trail to expand.
    while (!seen_[static_cast<size_t>(var(trail_[index - 1]))])
      --index;
    --index;
    p = trail_[index];
    reason = reason_[static_cast<size_t>(var(p))];
    seen_[static_cast<size_t>(var(p))] = 0;
    --path_c;
  } while (path_c > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization (recursive / "deep" mode).
  analyze_toclear_ = out_learnt;
  uint32_t abstract = 0;
  for (size_t i = 1; i < out_learnt.size(); ++i)
    abstract |= abstract_level(var(out_learnt[i]));
  size_t keep = 1;
  for (size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason_[static_cast<size_t>(var(out_learnt[i]))] == nullptr ||
        !lit_redundant(out_learnt[i], abstract))
      out_learnt[keep++] = out_learnt[i];
  }
  stats_.minimized_literals += out_learnt.size() - keep;
  out_learnt.resize(keep);
  stats_.learnts_literals += out_learnt.size();

  // Find backtrack level (second-highest level in the clause).
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < out_learnt.size(); ++i)
      if (level(var(out_learnt[i])) > level(var(out_learnt[max_i])))
        max_i = i;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(var(out_learnt[1]));
  }

  for (Lit l : analyze_toclear_)
    seen_[static_cast<size_t>(var(l))] = 0;
}

bool Solver::lit_redundant(Lit l, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    Clause* reason = reason_[static_cast<size_t>(var(q))];
    assert(reason != nullptr);
    for (int i = 1; i < reason->size(); ++i) {
      const Lit r = (*reason)[i];
      const Var v = var(r);
      if (seen_[static_cast<size_t>(v)] || level(v) == 0)
        continue;
      if (reason_[static_cast<size_t>(v)] != nullptr &&
          (abstract_level(v) & abstract_levels) != 0) {
        seen_[static_cast<size_t>(v)] = 1;
        analyze_stack_.push_back(r);
        analyze_toclear_.push_back(r);
      } else {
        // Not removable: undo the marks added in this call.
        for (size_t j = top; j < analyze_toclear_.size(); ++j)
          seen_[static_cast<size_t>(var(analyze_toclear_[j]))] = 0;
        analyze_toclear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::var_bump_activity(Var v) {
  if ((activity_[static_cast<size_t>(v)] += var_inc_) > 1e100) {
    for (double& a : activity_)
      a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<size_t>(v)] >= 0)
    heap_update(v);
}

void Solver::cla_bump_activity(Clause& c) {
  if ((c.activity += static_cast<float>(cla_inc_)) > 1e20f) {
    for (Clause* cl : learnts_)
      cl->activity *= 1e-20f;
    cla_inc_ *= 1e-20;
  }
}

void Solver::reduce_db() {
  // Drop the least active half of the learnt clauses (never reasons).
  const double extra_lim = cla_inc_ / std::max<size_t>(learnts_.size(), 1);
  std::sort(learnts_.begin(), learnts_.end(), [](const Clause* a, const Clause* b) {
    if ((a->size() > 2) != (b->size() > 2))
      return a->size() > 2;
    return a->activity < b->activity;
  });
  std::vector<Clause*> kept;
  kept.reserve(learnts_.size());
  for (size_t i = 0; i < learnts_.size(); ++i) {
    Clause* c = learnts_[i];
    const bool locked = c->size() >= 1 && reason_[static_cast<size_t>(var((*c)[0]))] == c &&
                        value((*c)[0]) == LBool::True;
    if (c->size() > 2 && !locked &&
        (i < learnts_.size() / 2 || c->activity < extra_lim)) {
      remove_clause(c);
    } else {
      kept.push_back(c);
    }
  }
  learnts_.swap(kept);
}

Result Solver::search(int64_t nof_conflicts) {
  int64_t conflicts_here = 0;
  int interrupt_countdown = 128;
  std::vector<Lit> learnt_clause;

  for (;;) {
    Clause* confl = propagate();
    if (confl != nullptr) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (decision_level() == 0)
        return Result::Unsat;

      int backtrack_level = 0;
      analyze(confl, learnt_clause, backtrack_level);
      cancel_until(backtrack_level);

      if (learnt_clause.size() == 1) {
        unchecked_enqueue(learnt_clause[0], nullptr);
      } else {
        auto* c = new Clause();
        c->learnt = true;
        c->lits = learnt_clause;
        learnts_.push_back(c);
        attach_clause(c);
        cla_bump_activity(*c);
        unchecked_enqueue(learnt_clause[0], c);
      }
      var_decay_activity();
      cla_decay_activity();

      if (--learnt_adjust_cnt_ <= 0) {
        learnt_adjust_confl_ *= 1.5;
        learnt_adjust_cnt_ = learnt_adjust_confl_;
        max_learnts_ *= 1.1;
      }
      continue;
    }

    // No conflict.
    if ((nof_conflicts >= 0 && conflicts_here >= nof_conflicts)) {
      cancel_until(0);
      return Result::Unknown;
    }
    if (budgets_exhausted()) {
      cancel_until(0);
      return Result::Unknown;
    }
    // Poll the interrupt hook every 128 decisions: frequent enough for
    // deadline responsiveness, rare enough that the std::function call
    // disappears against propagation cost.
    if (interrupt_check_ && --interrupt_countdown <= 0) {
      interrupt_countdown = 128;
      if (interrupt_check_()) {
        interrupted_ = true;
        cancel_until(0);
        return Result::Unknown;
      }
    }
    if (static_cast<double>(learnts_.size()) - static_cast<double>(trail_.size()) >=
        max_learnts_)
      reduce_db();

    Lit next = lit_undef;
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const Lit a = assumptions_[static_cast<size_t>(decision_level())];
      if (value(a) == LBool::True) {
        trail_lim_.push_back(static_cast<int>(trail_.size())); // dummy level
      } else if (value(a) == LBool::False) {
        return Result::Unsat; // conflicting assumption
      } else {
        next = a;
        break;
      }
    }

    if (next == lit_undef) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next == lit_undef) {
        // All variables assigned: model found.
        model_.assign(assigns_.begin(), assigns_.end());
        return Result::Sat;
      }
    }

    trail_lim_.push_back(static_cast<int>(trail_.size()));
    unchecked_enqueue(next, nullptr);
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  if (!ok_)
    return Result::Unsat;
  assumptions_ = assumptions;
  model_.clear();
  max_learnts_ = std::max(static_cast<double>(clauses_.size()) / 3.0, 1000.0);
  learnt_adjust_confl_ = 100;
  learnt_adjust_cnt_ = 100;

  interrupted_ = false;
  Result status = Result::Unknown;
  for (uint64_t restarts = 0; status == Result::Unknown; ++restarts) {
    const int64_t budget = static_cast<int64_t>(luby(restarts) * 100);
    status = search(budget);
    if (status == Result::Unknown)
      ++stats_.restarts;
    if (budgets_exhausted() || interrupted_)
      break;
  }
  cancel_until(0);
  return status;
}

// --- order heap (max-heap on activity) -------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_percolate_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  const int i = heap_pos_[static_cast<size_t>(v)];
  if (i >= 0) {
    heap_percolate_up(i);
    heap_percolate_down(heap_pos_[static_cast<size_t>(v)]);
  }
}

void Solver::heap_percolate_up(int i) {
  const Var v = heap_[static_cast<size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[static_cast<size_t>(heap_[static_cast<size_t>(parent)])] >=
        activity_[static_cast<size_t>(v)])
      break;
    heap_[static_cast<size_t>(i)] = heap_[static_cast<size_t>(parent)];
    heap_pos_[static_cast<size_t>(heap_[static_cast<size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_pos_[static_cast<size_t>(v)] = i;
}

void Solver::heap_percolate_down(int i) {
  const Var v = heap_[static_cast<size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n)
      break;
    if (child + 1 < n && activity_[static_cast<size_t>(heap_[static_cast<size_t>(child + 1)])] >
                             activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])])
      ++child;
    if (activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])] <=
        activity_[static_cast<size_t>(v)])
      break;
    heap_[static_cast<size_t>(i)] = heap_[static_cast<size_t>(child)];
    heap_pos_[static_cast<size_t>(heap_[static_cast<size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_pos_[static_cast<size_t>(v)] = i;
}

Var Solver::heap_pop() {
  const Var v = heap_[0];
  heap_pos_[static_cast<size_t>(v)] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[static_cast<size_t>(heap_[0])] = 0;
    heap_.pop_back();
    heap_percolate_down(0);
  } else {
    heap_.pop_back();
  }
  return v;
}

} // namespace smartly::sat
