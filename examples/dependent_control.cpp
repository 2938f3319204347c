// SAT-based redundancy elimination walkthrough (paper §II, Fig. 3).
//
// Drives the InferenceOracle directly to show each decision stage —
// syntactic lookup, sub-graph extraction with the Theorem II.1 filter,
// Table I inference rules, and the simulation/SAT fallback — then runs the
// full pass on a netlist the baseline cannot touch.
//
//   $ ./dependent_control
#include "aig/aigmap.hpp"
#include "core/sat_redundancy.hpp"
#include "core/subgraph.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/opt_muxtree.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"
#include "verilog/elaborate.hpp"

#include <cstdio>

using namespace smartly;

namespace {
const char* decision_name(opt::CtrlDecision d) {
  switch (d) {
  case opt::CtrlDecision::Unknown: return "Unknown";
  case opt::CtrlDecision::Zero: return "Zero";
  case opt::CtrlDecision::One: return "One";
  case opt::CtrlDecision::DeadPath: return "DeadPath";
  }
  return "?";
}
} // namespace

int main() {
  // Build Fig. 3 by hand: Y = S ? ((S|R) ? A : B) : C.
  rtlil::Design design;
  rtlil::Module* m = design.add_module("fig3");
  rtlil::Wire* s = m->add_wire("s", 1);
  rtlil::Wire* r = m->add_wire("r", 1);
  rtlil::Wire* a = m->add_wire("a", 8);
  rtlil::Wire* b = m->add_wire("b", 8);
  rtlil::Wire* c = m->add_wire("c", 8);
  rtlil::Wire* y = m->add_wire("y", 8);
  for (rtlil::Wire* w : {s, r, a, b, c})
    m->set_port_input(w);
  m->set_port_output(y);

  using rtlil::SigBit;
  using rtlil::SigSpec;
  const SigSpec sr = m->Or(SigSpec(s), SigSpec(r));
  const SigSpec inner = m->Mux(SigSpec(b), SigSpec(a), sr);   // (s|r) ? a : b
  m->add_mux(SigSpec(c), inner, SigSpec(s), SigSpec(y));      // s ? inner : c

  std::printf("Fig. 3 netlist: %zu cells, AIG area %zu\n\n", m->cell_count(),
              aig::aig_area(*m));

  // --- Stage by stage: ask the oracle about the inner control -----------------
  std::printf("== Oracle decision for ctrl = (s|r) given the path s=1 ==\n");
  core::InferenceOracle oracle({});
  const rtlil::NetlistIndex index(*m);
  oracle.begin_module(*m, index);
  const opt::KnownMap path{{SigBit(s, 0), true}};
  const auto decision = oracle.decide(sr[0], path);
  std::printf("decision: %s  (the muxtree branch B is always taken)\n",
              decision_name(decision));
  const auto& st = oracle.stats();
  std::printf("decided by: syntactic=%zu inference=%zu sim=%zu sat=%zu\n",
              st.decided_syntactic, st.decided_inference, st.decided_sim, st.decided_sat);
  std::printf("sub-graph: %zu gates in the distance-k ball, %zu kept by the\n"
              "Theorem II.1 relevance filter\n\n",
              st.gates_seen, st.gates_kept);

  // --- Baseline vs smaRTLy on the same netlist -------------------------------
  std::printf("== Baseline (syntactic) vs SAT-based elimination ==\n");
  {
    auto d2 = rtlil::clone_design(design);
    opt::opt_muxtree(*d2->top());
    opt::opt_expr(*d2->top());
    opt::opt_clean(*d2->top());
    std::printf("baseline opt_muxtree: area %zu (cannot see that s forces s|r)\n",
                aig::aig_area(*d2->top()));
  }
  {
    auto d2 = rtlil::clone_design(design);
    core::sat_redundancy(*d2->top(), {});
    opt::opt_expr(*d2->top());
    opt::opt_clean(*d2->top());
    std::printf("smaRTLy sat_redundancy: area %zu (Y = s ? a : c)\n",
                aig::aig_area(*d2->top()));
  }

  // --- A deeper nest showing the inference chain -------------------------------
  std::printf("\n== Deeper dependence: controls s, s|r1, (s|r1)|r2 ==\n");
  auto d3 = verilog::read_verilog(R"(
    module deep(s, r1, r2, a, b, c, d, y);
      input s, r1, r2;
      input [15:0] a, b, c, d;
      output [15:0] y;
      wire k1, k2;
      assign k1 = s | r1;
      assign k2 = k1 | r2;
      assign y = s ? (k1 ? (k2 ? a : b) : c) : d;
    endmodule
  )");
  const size_t before = aig::aig_area(*d3->top());
  const auto stats = core::sat_redundancy(*d3->top(), {});
  opt::opt_expr(*d3->top());
  opt::opt_clean(*d3->top());
  std::printf("area %zu -> %zu; muxes collapsed: %zu (both k1 and k2 forced by s=1)\n",
              before, aig::aig_area(*d3->top()), stats.walker.mux_collapsed);
  return 0;
}
