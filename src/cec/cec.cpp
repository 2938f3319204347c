#include "cec/cec.hpp"

#include "aig/aigmap.hpp"
#include "aig/cnf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"

#include <stdexcept>
#include <unordered_map>

namespace smartly::cec {

namespace {

/// The two designs must expose the same ports with the same widths and
/// directions — otherwise "equivalence" is not even well-posed.
void check_interfaces(const rtlil::Module& gold, const rtlil::Module& gate) {
  auto describe = [](const rtlil::Wire* w) {
    return w->name() + "[" + std::to_string(w->width()) + "]" +
           (w->port_input ? ":in" : ":out");
  };
  std::unordered_map<std::string, const rtlil::Wire*> gate_ports;
  for (const rtlil::Wire* w : gate.ports())
    gate_ports.emplace(w->name(), w);
  size_t matched = 0;
  for (const rtlil::Wire* w : gold.ports()) {
    auto it = gate_ports.find(w->name());
    if (it == gate_ports.end())
      throw std::invalid_argument("CEC: gate design is missing port " + describe(w));
    const rtlil::Wire* g = it->second;
    if (g->width() != w->width() || g->port_input != w->port_input ||
        g->port_output != w->port_output)
      throw std::invalid_argument("CEC: port mismatch: gold " + describe(w) + " vs gate " +
                                  describe(g));
    ++matched;
  }
  if (matched != gate_ports.size()) {
    for (const auto& [name, w] : gate_ports)
      if (!gold.wire(name) || (!gold.wire(name)->port_input && !gold.wire(name)->port_output))
        throw std::invalid_argument("CEC: gold design is missing port " + describe(w));
  }
}

} // namespace

CecResult check_equivalence(const rtlil::Module& gold, const rtlil::Module& gate,
                            const CecOptions& options) {
  check_interfaces(gold, gate);
  static obs::Counter& m_trivial = obs::counter("cec.strash_trivial");
  static obs::Counter& m_miters = obs::counter("cec.miters");
  static obs::Counter& m_conflicts = obs::counter("cec.conflicts");

  // Both designs are blasted into ONE structurally hashed graph with inputs
  // unified by name. Identical cones therefore strash to the same literal,
  // and the corresponding miter legs vanish before any SAT work — which is
  // what makes checking a design against a lightly-optimized copy of itself
  // cheap even when it contains multipliers.
  aig::Aig graph;
  aig::SharedInputs inputs;
  struct Pair {
    std::string name;
    aig::Lit diff;
  };
  std::vector<Pair> pairs;
  {
    const obs::Span blast_span("cec", "cec.blast");
    const auto outs0 = aig::aigmap_shared(graph, inputs, gold);
    const auto outs1 = aig::aigmap_shared(graph, inputs, gate);

    std::unordered_map<std::string, aig::Lit> out1;
    for (const auto& [name, lit] : outs1)
      out1.emplace(name, lit);
    for (const auto& [name, lit] : outs0) {
      auto it = out1.find(name);
      if (it == out1.end()) {
        // Missing dff D-cones belong to registers proven dead and removed by
        // opt_clean; anything else is an interface violation.
        if (name.find(".D") == std::string::npos)
          throw std::invalid_argument("CEC: gate design lost output " + name);
        continue;
      }
      const aig::Lit diff = graph.xor_(lit, it->second);
      if (diff == aig::kFalse) {
        m_trivial.add();
        continue; // structurally identical: proven without SAT
      }
      pairs.push_back({name, diff});
    }
  }

  CecResult result;
  if (pairs.empty()) {
    result.equivalent = true;
    return result;
  }

  // Prove the surviving miters one output at a time, each on a fresh solver
  // that encodes only that miter's cone. A solver kept across miters grows
  // with every cone it has seen, and its per-call cost grows with it.
  const obs::Span prove_span("cec", "cec.prove", "miters", pairs.size());
  aig::CnfTable cnf; // every miter's encoder, one after another
  for (const Pair& p : pairs) {
    // A halt (deadline, cancel, or a budget tripped by the engines upstream)
    // stops the proof here: remaining outputs stay unproven and the result
    // degrades to inconclusive instead of pretending equivalence.
    if (options.guard != nullptr && options.guard->poll()) {
      result.inconclusive = true;
      result.failing_output = p.name;
      return result;
    }
    m_miters.add();
    sat::Solver solver;
    if (options.guard != nullptr && options.guard->wants_interrupts())
      solver.set_interrupt_check([g = options.guard] { return g->poll(); });
    solver.set_conflict_budget(options.conflict_budget);
    aig::ConeCnfEncoder enc(solver, graph, cnf);
    const sat::Result r = solver.solve({enc.ensure(p.diff)});
    m_conflicts.add(solver.stats().conflicts);
    if (options.guard != nullptr) {
      options.guard->charge_conflicts(solver.stats().conflicts);
      options.guard->charge_propagations(solver.stats().propagations);
    }
    if (r == sat::Result::Unsat)
      continue;
    if (r == sat::Result::Unknown) {
      result.inconclusive = true;
      result.failing_output = p.name;
      return result;
    }

    result.equivalent = false;
    result.failing_output = p.name;
    // Inputs outside this miter's cone are unconstrained; report them as 0.
    std::unordered_map<uint32_t, bool> encoded;
    for (const uint32_t node : enc.encoded_inputs())
      encoded.emplace(node, true);
    for (const auto& [name, lit] : inputs.by_name) {
      bool value = false;
      if (encoded.count(aig::lit_node(lit))) {
        const sat::Lit l = enc.lit(lit);
        value = solver.model_value(sat::var(l)) != sat::sign(l);
      }
      result.counterexample.emplace_back(name, value);
    }
    return result;
  }
  result.equivalent = true;
  return result;
}

} // namespace smartly::cec
