#include "core/incremental_oracle.hpp"

#include "aig/cnf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/packed_sim.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

#include <algorithm>

namespace smartly::core {

using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::Cell;
using rtlil::SigBit;

IncrementalOracle::IncrementalOracle(const IncrementalOracleOptions& options)
    : options_(options), solver_(std::make_unique<sat::Solver>()) {
  if (options_.base.guard != nullptr && options_.base.guard->wants_interrupts())
    solver_->set_interrupt_check([g = options_.base.guard] { return g->poll(); });
  // Every decision-affecting knob is folded into the portable-memo keys:
  // entries recorded under one configuration must never answer queries made
  // under another (e.g. a wider sim threshold flips sim-vs-SAT routing).
  uint64_t salt = hash_mix(0x736d6172746c79ULL); // "smartly"
  salt = hash_combine(salt, static_cast<uint64_t>(options_.base.subgraph.depth));
  salt = hash_combine(salt, options_.base.subgraph.relevance_filter ? 1 : 0);
  salt = hash_combine(salt, static_cast<uint64_t>(options_.base.sim_max_inputs));
  salt = hash_combine(salt, static_cast<uint64_t>(options_.base.sat_max_inputs));
  salt = hash_combine(salt, static_cast<uint64_t>(options_.base.sat_conflict_budget));
  salt = hash_combine(salt, options_.base.use_inference ? 1 : 0);
  salt = hash_combine(salt, options_.base.use_sat ? 1 : 0);
  options_salt_ = salt;
}

IncrementalOracle::~IncrementalOracle() = default;

void IncrementalOracle::full_reset() {
  decision_cache_.clear();
  live_decisions_.clear();
  cell_to_queries_.clear();
  bit_to_queries_.clear();
  pending_removed_.clear();
  pending_removed_bits_.clear();
  cone_cache_.clear();
  cell_to_cones_.clear();
  patterns_.clear();
  solver_ = std::make_unique<sat::Solver>();
  if (options_.base.guard != nullptr && options_.base.guard->wants_interrupts())
    solver_->set_interrupt_check([g = options_.base.guard] { return g->poll(); });
  ++solver_generation_;
}

void IncrementalOracle::flush_pending_removed() {
  // Cells removed last sweep only vanished (and their output classes only
  // merged) when the sweep's pending connects were applied — after queries
  // may have re-cached decisions depending on them. Kill those now.
  if (!pending_removed_.empty()) {
    std::vector<Cell*> removed;
    removed.swap(pending_removed_);
    for (Cell* c : removed)
      invalidate_cell(c);
  }
  // The applied connects also rewired the removed cells' output classes: a
  // decision whose cone read such a bit as a *free input* (driver outside the
  // ball) is stale even though no ball cell changed. Invalidate by boundary.
  if (!pending_removed_bits_.empty()) {
    std::vector<SigBit> bits;
    bits.swap(pending_removed_bits_);
    for (const SigBit& bit : bits) {
      if (auto it = bit_to_queries_.find(bit); it != bit_to_queries_.end()) {
        for (const uint64_t id : it->second)
          invalidate_decision(id);
        bit_to_queries_.erase(it);
      }
    }
  }
}

void IncrementalOracle::begin_module(rtlil::Module& module) {
  if (module_ != &module) {
    full_reset();
    module_ = &module;
  }
  owned_index_ = std::make_unique<rtlil::NetlistIndex>(module);
  index_ = owned_index_.get();
  flush_pending_removed();
}

void IncrementalOracle::begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) {
  if (module_ != &module) {
    full_reset();
    module_ = &module;
  }
  owned_index_.reset();
  index_ = &index;
  flush_pending_removed();
}

void IncrementalOracle::invalidate_decision(uint64_t id) {
  auto it = live_decisions_.find(id);
  if (it == live_decisions_.end())
    return; // already invalidated through the other support index
  decision_cache_.erase(*it->second);
  live_decisions_.erase(it);
}

void IncrementalOracle::reset_solver() {
  if (solver_)
    ++stats_.engine_resets;
  solver_ = std::make_unique<sat::Solver>();
  if (options_.base.guard != nullptr && options_.base.guard->wants_interrupts())
    solver_->set_interrupt_check([g = options_.base.guard] { return g->poll(); });
  ++solver_generation_; // generation tag: all existing clause groups are dead
}

void IncrementalOracle::invalidate_cell(Cell* cell) {
  // Decisions are invalidated by support: a cached answer can only change if
  // a cell inside its extraction ball changed. (The walker only ever shrinks
  // cell ports, so adjacency never grows — a query whose ball excluded this
  // cell would extract the same ball, and therefore the same answer, today.)
  if (auto it = cell_to_queries_.find(cell); it != cell_to_queries_.end()) {
    for (const uint64_t id : it->second)
      invalidate_decision(id);
    cell_to_queries_.erase(it);
  }

  // Cone entries are content-addressed and would stop matching on their own;
  // evicting them eagerly reclaims memory and retires their clause groups so
  // the persistent solver stops carrying constraints of dead structure.
  auto it = cell_to_cones_.find(cell);
  if (it == cell_to_cones_.end())
    return;
  for (const Hash128& key : it->second) {
    auto ce = cone_cache_.find(key);
    if (ce == cone_cache_.end())
      continue;
    ConeEntry& entry = ce->second;
    if (entry.encoded && entry.generation == solver_generation_ && solver_) {
      solver_->add_clause(~entry.activation);
      ++stats_.dropped_constraints;
    }
    cone_cache_.erase(ce);
  }
  cell_to_cones_.erase(it);
}

void IncrementalOracle::notify_external_rewire(const std::vector<SigBit>& bits) {
  for (const SigBit& bit : bits) {
    if (auto it = bit_to_queries_.find(bit); it != bit_to_queries_.end()) {
      for (const uint64_t id : it->second)
        invalidate_decision(id);
      bit_to_queries_.erase(it);
    }
  }
}

void IncrementalOracle::notify_cell_mutated(Cell* cell) {
  ++stats_.cells_remapped;
  invalidate_cell(cell);
}

void IncrementalOracle::notify_cell_removed(Cell* cell) {
  ++stats_.cells_remapped;
  invalidate_cell(cell);
  // The cell is still in the module until sweep end; invalidate again at the
  // sweep boundary so nothing cached in the meantime survives its actual
  // disappearance (and the output-class merge the pending connect applies).
  pending_removed_.push_back(cell);
  if (index_)
    for (const SigBit& raw : cell->port(cell->output_port())) {
      const SigBit bit = index_->sigmap()(raw);
      if (bit.is_wire())
        pending_removed_bits_.push_back(bit);
    }
}

IncrementalOracle::ConeEntry& IncrementalOracle::cone_for(
    const Subgraph& sg, SigBit ctrl, const std::vector<SigBit>& known_bits) {
  Hash128 key = sg.fingerprint(index_->sigmap());
  key = hash128_combine(key, ctrl.hash());
  for (const SigBit& kb : known_bits)
    key = hash128_combine(key, kb.hash());

  auto it = cone_cache_.find(key);
  if (it != cone_cache_.end()) {
    ++stats_.cone_cache_hits;
    static obs::Counter& hits = obs::counter("oracle.cache_hits.cone");
    hits.add();
    return it->second;
  }
  ++stats_.cone_cache_misses;

  if (cone_cache_.size() >= options_.cone_cache_max) {
    // Wholesale reset: cheaper and safer than LRU bookkeeping at this size,
    // and it lets the solver shed the retired groups' variables too.
    cone_cache_.clear();
    cell_to_cones_.clear();
    reset_solver();
  }

  ConeEntry entry;
  std::vector<SigBit> roots;
  roots.reserve(known_bits.size() + 1);
  roots.push_back(ctrl);
  for (const SigBit& kb : known_bits)
    roots.push_back(kb);
  entry.cone = aig::aigmap_cone(*module_, *index_, sg.cells, roots);
  entry.cells = sg.cells;

  // AIG input index -> module bit, for translating recycled patterns and
  // harvesting SAT models.
  std::unordered_map<uint32_t, size_t> node_to_input;
  const auto& inputs = entry.cone.aig.inputs();
  for (size_t i = 0; i < inputs.size(); ++i)
    node_to_input.emplace(inputs[i], i);
  entry.input_bits.assign(inputs.size(), SigBit());
  for (const auto& [bit, lit] : entry.cone.bits) {
    if (aig::lit_compl(lit))
      continue;
    auto in = node_to_input.find(aig::lit_node(lit));
    if (in != node_to_input.end())
      entry.input_bits[in->second] = bit;
  }

  auto [pos, inserted] = cone_cache_.emplace(key, std::move(entry));
  (void)inserted;
  for (Cell* c : pos->second.cells)
    cell_to_cones_[c].push_back(key);
  return pos->second;
}

void IncrementalOracle::ensure_encoded(ConeEntry& entry) {
  if (entry.encoded && entry.generation == solver_generation_)
    return;
  if (solver_->num_vars() > options_.solver_var_budget)
    reset_solver();
  entry.activation = sat::mk_lit(solver_->new_var());
  aig::CnfEncoder enc(*solver_);
  enc.encode(entry.cone.aig, entry.activation);
  entry.vars = enc.vars();
  entry.encoded = true;
  entry.generation = solver_generation_;
}

void IncrementalOracle::build_replay_candidates(const ConeEntry& entry) {
  replay_.clear();
  if (patterns_.empty() || entry.input_bits.empty())
    return;
  const size_t n_inputs = entry.input_bits.size();
  // Newest first: recent witnesses come from structurally nearby queries.
  for (auto p = patterns_.rbegin(); p != patterns_.rend(); ++p) {
    if (replay_.size() >= options_.replay_max)
      break;
    std::vector<uint8_t> values(n_inputs, 0);
    size_t covered = 0;
    for (size_t i = 0; i < n_inputs; ++i) {
      const SigBit& bit = entry.input_bits[i];
      if (!bit.is_wire())
        continue;
      auto it = p->find(bit);
      if (it == p->end())
        continue;
      values[i] = it->second ? 1 : 0;
      ++covered;
    }
    // A pattern sharing less than half the cone's inputs is noise: replaying
    // it costs simulation time with little chance of being consistent.
    if (covered * 2 < n_inputs)
      continue;
    replay_.push_back(std::move(values));
  }
}

void IncrementalOracle::remember_pattern(const ConeEntry& entry,
                                         const std::vector<uint8_t>& input_values) {
  std::unordered_map<SigBit, bool> pattern;
  const size_t n = std::min(entry.input_bits.size(), input_values.size());
  for (size_t i = 0; i < n; ++i) {
    const SigBit& bit = entry.input_bits[i];
    if (bit.is_wire())
      pattern.emplace(bit, input_values[i] != 0);
  }
  if (pattern.empty())
    return;
  for (const auto& existing : patterns_)
    if (existing == pattern)
      return;
  patterns_.push_back(std::move(pattern));
  if (patterns_.size() > options_.pattern_store_max)
    patterns_.pop_front();
}

namespace {

/// Canonical, process-portable fingerprint of one oracle query: the cone's
/// structure with every bit renamed to a dense first-appearance index, plus
/// the target's and the known bits' roles and values. Pointer-free and
/// name-free (names only fix the cell visiting order), so the same cone in
/// another process — or another design — produces the same key, and two
/// queries with equal keys are isomorphic and provably share their verdict.
Hash128 portable_query_key(const Subgraph& sg, const rtlil::SigMap& sigmap, SigBit ctrl,
                           const std::vector<std::pair<SigBit, bool>>& known,
                           uint64_t salt) {
  // Visit cells in name order: SubgraphScratch's cell order follows the
  // index's adjacency lists, and the key must not depend on it. Names are
  // unique per module.
  std::vector<const Cell*> cells(sg.cells.begin(), sg.cells.end());
  std::sort(cells.begin(), cells.end(),
            [](const Cell* a, const Cell* b) { return a->name() < b->name(); });

  std::unordered_map<SigBit, uint64_t> dense;
  auto id_of = [&](const SigBit& raw) -> uint64_t {
    const SigBit bit = sigmap(raw);
    if (!bit.is_wire()) // constants encode by value, disjoint from dense ids
      return 0x4000000000000000ULL + static_cast<uint64_t>(bit.data);
    return dense.emplace(bit, dense.size()).first->second;
  };

  Hash128 h = hash128_combine({salt, hash_mix(salt)}, cells.size());
  for (const Cell* c : cells) {
    const rtlil::CellParams& p = c->params();
    uint64_t ch = hash_combine(0x9d5u, static_cast<uint64_t>(c->type()));
    ch = hash_combine(ch, static_cast<uint64_t>(p.a_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.b_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.y_width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.width));
    ch = hash_combine(ch, static_cast<uint64_t>(p.s_width));
    ch = hash_combine(ch, (p.a_signed ? 2u : 0u) | (p.b_signed ? 1u : 0u));
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const rtlil::Port port = static_cast<rtlil::Port>(pi);
      if (!c->has_port(port))
        continue;
      ch = hash_combine(ch, 0x1000u + static_cast<uint64_t>(pi));
      for (const SigBit& raw : c->port(port))
        ch = hash_combine(ch, id_of(raw));
    }
    h = hash128_combine(h, ch);
  }

  h = hash128_combine(h, 0xC7A1u); // role separator
  h = hash128_combine(h, id_of(ctrl));
  // Pair values with dense ids and sort by id: the pairing survives any
  // known-map iteration order, and ids are unambiguous within one key.
  std::vector<std::pair<uint64_t, bool>> kv;
  kv.reserve(known.size());
  for (const auto& [bit, value] : known)
    kv.emplace_back(id_of(bit), value);
  std::sort(kv.begin(), kv.end());
  for (const auto& [id, value] : kv)
    h = hash128_combine(h, id * 2 + (value ? 1 : 0));
  return h;
}

} // namespace

CtrlDecision IncrementalOracle::finish(const QueryKey& key, const Subgraph& sg,
                                       CtrlDecision decision, bool definitive_unknown) {
  // Record deterministic verdicts into the persistent memo: Zero/One/DeadPath
  // always (pure functions of the cone + constraints), Unknown only when the
  // caller proved it definitively — a guard-halt, fault-injection, or
  // budget-exhausted Unknown could resolve on a retry and must be recomputed.
  if (pending_portable_) {
    pending_portable_ = false;
    if (decision != CtrlDecision::Unknown || definitive_unknown) {
      options_.base.memo->insert(portable_key_, decision);
      ++stats_.portable_inserts;
    }
  }
  if (decision_cache_.size() >= options_.decision_cache_max) {
    // Wholesale flush: the support indexes hold ids into this cache, so they
    // go with it (their stale ids would otherwise pin dead memory forever).
    decision_cache_.clear();
    live_decisions_.clear();
    cell_to_queries_.clear();
    bit_to_queries_.clear();
  }
  const uint64_t id = next_decision_id_++;
  auto [pos, inserted] = decision_cache_.emplace(key, DecisionEntry{decision, id});
  if (!inserted)
    return decision; // lost a race with itself: key already cached this sweep
  live_decisions_.emplace(id, &pos->first);
  for (Cell* c : sg.ball)
    cell_to_queries_[c].push_back(id);
  for (const SigBit& bit : sg.boundary)
    bit_to_queries_[bit].push_back(id);
  return decision;
}

CtrlDecision IncrementalOracle::decide(SigBit ctrl, const KnownMap& known) {
  ++stats_.queries;

  // Quarantined target: answer Unknown before any cache interaction,
  // mirroring the top of InferenceOracle::decide exactly (the lockstep
  // contract). The same unit keys the "oracle.solve" fault site below.
  const uint64_t unit =
      ctrl.is_wire() ? util::bit_unit_id(ctrl.wire->name(), ctrl.offset) : 1;
  if (options_.base.quarantine != nullptr &&
      options_.base.quarantine->contains("oracle.solve", unit)) {
    ++stats_.skipped_quarantine;
    return CtrlDecision::Unknown;
  }

  // Stage 1: syntactic (identical to the from-scratch oracle).
  if (auto it = known.find(ctrl); it != known.end()) {
    ++stats_.decided_syntactic;
    return it->second ? CtrlDecision::One : CtrlDecision::Zero;
  }
  if (known.empty())
    return CtrlDecision::Unknown; // no path condition: nothing to infer from

  // Stage 1b: exact-repeat lookup. Only populated while the module is
  // provably unchanged (see invalidate_cell/begin_module), so a hit replays
  // a decision the full pipeline made on this very module state.
  QueryKey key;
  key.target = ctrl;
  key.known.assign(known.begin(), known.end());
  std::sort(key.known.begin(), key.known.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (auto it = decision_cache_.find(key); it != decision_cache_.end()) {
    ++stats_.decision_cache_hits;
    static obs::Counter& hits = obs::counter("oracle.cache_hits.decision");
    hits.add();
    return it->second.decision;
  }

  std::vector<SigBit> known_bits;
  known_bits.reserve(key.known.size());
  for (const auto& [bit, value] : key.known) {
    (void)value;
    known_bits.push_back(bit);
  }

  // Stage 2: bounded sub-graph (same extraction, allocation-reusing scratch).
  const Subgraph sg =
      subgraph_scratch_.extract(*module_, *index_, ctrl, known_bits, options_.base.subgraph);
  stats_.gates_seen += sg.gates_before_filter;
  stats_.gates_kept += sg.cells.size();
  if (sg.cells.empty())
    return finish(key, sg, CtrlDecision::Unknown);

  // Stage 2b: persistent cross-job memo (service warm cache). The canonical
  // key renames every cone bit to a dense index, so a hit means some earlier
  // run — possibly another process — drove an isomorphic cone through the
  // full pipeline under identical options and got a definitive verdict.
  if (options_.base.memo != nullptr) {
    portable_key_ = portable_query_key(sg, index_->sigmap(), ctrl, key.known, options_salt_);
    CtrlDecision memoized;
    if (options_.base.memo->lookup(portable_key_, &memoized)) {
      ++stats_.portable_hits;
      static obs::Counter& hits = obs::counter("oracle.memo_hits");
      hits.add();
      if (memoized == CtrlDecision::DeadPath)
        ++stats_.dead_paths;
      return finish(key, sg, memoized);
    }
    ++stats_.portable_misses;
    static obs::Counter& misses = obs::counter("oracle.memo_misses");
    misses.add();
    pending_portable_ = true;
  }

  // Stage 3: Table I inference rules, one engine reused across queries.
  if (options_.base.use_inference) {
    engine_.reset(sg.cells, index_->sigmap());
    bool ok = true;
    for (const auto& [bit, value] : key.known)
      ok = ok && engine_.assume(bit, value);
    ok = ok && engine_.propagate();
    if (!ok) {
      ++stats_.dead_paths;
      return finish(key, sg, CtrlDecision::DeadPath);
    }
    if (auto v = engine_.value(ctrl)) {
      ++stats_.decided_inference;
      return finish(key, sg, *v ? CtrlDecision::One : CtrlDecision::Zero);
    }
  }
  if (!options_.base.use_sat)
    return finish(key, sg, CtrlDecision::Unknown, /*definitive_unknown=*/true);

  // Stage 4: AIG cone, served from the content-addressed cache.
  ConeEntry& entry = cone_for(sg, ctrl, known_bits);
  auto aig_lit_of = [&](const SigBit& bit) -> std::optional<aig::Lit> {
    auto it = entry.cone.bits.find(bit);
    if (it == entry.cone.bits.end())
      return std::nullopt;
    return it->second;
  };
  const auto target_lit = aig_lit_of(ctrl);
  if (!target_lit)
    return finish(key, sg, CtrlDecision::Unknown, /*definitive_unknown=*/true);

  std::vector<std::pair<aig::Lit, bool>> constraints;
  for (const auto& [bit, value] : key.known) {
    if (auto l = aig_lit_of(bit))
      constraints.emplace_back(*l, value);
    // Known bits outside the sub-graph cannot be asserted; dropping them is
    // sound (fewer constraints can only weaken deductions, never falsify).
  }

  const int n_inputs = static_cast<int>(entry.cone.aig.num_inputs());

  // Stage 4a: simulation. Sim-sized cones take the baseline's exhaustive
  // sweep unchanged — replay would only add a simulation batch to a stage
  // that is already cheap and always conclusive. SAT-sized cones replay the
  // recycled candidates instead of enumerating: a verified both-polarity
  // pair proves "not forced" without any solver call, and a single verified
  // witness still halves the SAT protocol below.
  const bool sim_sized = n_inputs <= options_.base.sim_max_inputs;
  sim::SimOptions sim_opts;
  sim_opts.max_free_inputs = options_.base.sim_max_inputs;
  sim_opts.enumerate = sim_sized;
  sim_opts.scratch = &sim_scratch_;
  if (!sim_sized) {
    build_replay_candidates(entry);
    sim_opts.recycled = replay_.empty() ? nullptr : &replay_;
    // has_witness0/1 are enough for the SAT-call skip below; the witness
    // *vectors* would only repeat patterns already in the recycling store,
    // so leave capture_witnesses off and skip their allocation.
  }
  const sim::SimResult sr =
      sim::exhaustive_forced_ex(entry.cone.aig, constraints, *target_lit, sim_opts);
  stats_.patterns_recycled += sr.patterns_recycled;

  if (sim_sized) {
    ++stats_.sim_filter_kills;
    if (sr.early_exit)
      ++stats_.sim_filter_half;
    switch (sr.forced) {
    case sim::Forced::Zero: ++stats_.decided_sim; return finish(key, sg, CtrlDecision::Zero);
    case sim::Forced::One: ++stats_.decided_sim; return finish(key, sg, CtrlDecision::One);
    case sim::Forced::Contradiction:
      ++stats_.dead_paths;
      return finish(key, sg, CtrlDecision::DeadPath);
    case sim::Forced::None:
      // Exhaustive enumeration proved "not forced": a definitive verdict.
      return finish(key, sg, CtrlDecision::Unknown, /*definitive_unknown=*/true);
    }
  }
  if (sr.recycled_decisive) {
    // Both polarities witnessed on the current cone: the from-scratch oracle
    // would reach Unknown through SAT(s=0)/SAT(s=1) both satisfiable. The
    // witnesses were verified against this very cone, so "not forced" is
    // proven, not history-dependent — memoizable.
    ++stats_.sim_filter_kills;
    ++stats_.sim_filter_half;
    return finish(key, sg, CtrlDecision::Unknown, /*definitive_unknown=*/true);
  }

  // Stage 4b: SAT. Same size threshold as the baseline. (The threshold is in
  // the key salt, so the skip verdict is deterministic and memoizable.)
  if (n_inputs > options_.base.sat_max_inputs) {
    ++stats_.skipped_too_large;
    return finish(key, sg, CtrlDecision::Unknown, /*definitive_unknown=*/true);
  }

  // Resource-governed skip, mirroring InferenceOracle::decide exactly (the
  // lockstep contract): a halt observed here only comes from the
  // nondeterministic sources or fault injection, and degrades to Unknown.
  if ((options_.base.guard != nullptr && options_.base.guard->poll()) ||
      util::fault_unknown("oracle.solve", unit)) {
    ++stats_.skipped_halt;
    if (options_.base.guard != nullptr)
      options_.base.guard->note_skipped_solves();
    return finish(key, sg, CtrlDecision::Unknown);
  }

  // SAT stage: rare relative to the cache/sim stages above, so one span per
  // solved query is cheap; the span covers encode + both polarity solves.
  const obs::Span solve_span("oracle", "oracle.solve", "unit", unit);
  static obs::Counter& m_solves = obs::counter("oracle.solves");
  m_solves.add();
  ensure_encoded(entry);
  auto sat_lit = [&](aig::Lit l) {
    return sat::mk_lit(entry.vars[aig::lit_node(l)], aig::lit_compl(l));
  };

  std::vector<sat::Lit> assumptions;
  assumptions.push_back(entry.activation);
  for (const auto& [l, v] : constraints)
    assumptions.push_back(v ? sat_lit(l) : ~sat_lit(l));

  // The solver's conflict budget is cumulative; re-arm it per query so the
  // persistent engine gets the same per-query allowance as a fresh one.
  // Negative means unlimited and must stay the bare sentinel: adding it to
  // the conflict count would instead produce an already-exhausted budget.
  solver_->set_conflict_budget(options_.base.sat_conflict_budget < 0
                                   ? options_.base.sat_conflict_budget
                                   : static_cast<int64_t>(solver_->stats().conflicts) +
                                         options_.base.sat_conflict_budget);

  uint64_t conflicts_seen = solver_->stats().conflicts;
  uint64_t propagations_seen = solver_->stats().propagations;
  auto solve_with = [&](bool target_value) {
    ++stats_.sat_calls;
    std::vector<sat::Lit> a = assumptions;
    a.push_back(target_value ? sat_lit(*target_lit) : ~sat_lit(*target_lit));
    const sat::Result r = solver_->solve(a);
    stats_.solver_conflicts += solver_->stats().conflicts - conflicts_seen;
    if (options_.base.guard != nullptr) {
      options_.base.guard->charge_conflicts(solver_->stats().conflicts - conflicts_seen);
      options_.base.guard->charge_propagations(solver_->stats().propagations -
                                               propagations_seen);
    }
    conflicts_seen = solver_->stats().conflicts;
    propagations_seen = solver_->stats().propagations;
    if (r == sat::Result::Sat) {
      std::vector<uint8_t> model(entry.cone.aig.num_inputs());
      for (size_t i = 0; i < model.size(); ++i) {
        const sat::Var v = entry.vars[entry.cone.aig.inputs()[i]];
        model[i] = solver_->model_value(v) ? 1 : 0;
      }
      remember_pattern(entry, model);
    }
    return r;
  };

  // The solve(true)/solve(false) decision tree below must stay in lockstep
  // with InferenceOracle::decide (sat_redundancy.cpp) — the differential
  // tests and bench_oracle's decisions_match enforce it on every change.
  //
  // A replay-verified witness already proves one polarity satisfiable, which
  // makes the corresponding solve() call redundant (its Unsat outcome is
  // impossible, and Sat/Unknown both lead to the same branch below). Caveat:
  // when a query sits exactly at the conflict-budget edge, skipping a call
  // leaves the remaining one more budget than the baseline's shared
  // allowance had, and the persistent solver's learned clauses shift
  // conflict counts — the only ways the two oracles can legitimately
  // diverge, and only on queries whose baseline verdict was already the
  // budget-exhausted Unknown.
  if (sr.has_witness1) {
    ++stats_.sat_calls_skipped;
    const sat::Result r0 = solve_with(false);
    if (r0 == sat::Result::Unsat) {
      ++stats_.decided_sat;
      return finish(key, sg, CtrlDecision::One);
    }
    // Sat: both polarities proven achievable (witness + model) — definitive.
    // Unknown: the solver gave up on budget — recompute next time.
    return finish(key, sg, CtrlDecision::Unknown, r0 == sat::Result::Sat);
  }
  if (sr.has_witness0) {
    ++stats_.sat_calls_skipped;
    const sat::Result r1 = solve_with(true);
    if (r1 == sat::Result::Unsat) {
      ++stats_.decided_sat;
      return finish(key, sg, CtrlDecision::Zero);
    }
    return finish(key, sg, CtrlDecision::Unknown, r1 == sat::Result::Sat);
  }

  const sat::Result r1 = solve_with(true);
  if (r1 == sat::Result::Unsat) {
    const sat::Result r0 = solve_with(false);
    if (r0 == sat::Result::Unsat) {
      ++stats_.dead_paths;
      return finish(key, sg, CtrlDecision::DeadPath);
    }
    ++stats_.decided_sat;
    return finish(key, sg, CtrlDecision::Zero); // s=1 impossible
  }
  const sat::Result r0 = solve_with(false);
  if (r0 == sat::Result::Unsat) {
    ++stats_.decided_sat;
    return finish(key, sg, CtrlDecision::One); // s=0 impossible
  }
  // Both-Sat is a proven "not forced"; any budget-exhausted Unknown is not.
  return finish(key, sg, CtrlDecision::Unknown,
                r1 == sat::Result::Sat && r0 == sat::Result::Sat);
}

} // namespace smartly::core
