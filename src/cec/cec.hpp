// Combinational equivalence checking (CEC).
//
// Paper §IV.A: "All the results generated by our program passed equivalence
// checking." This module provides that check: both designs are bit-blasted
// to AIGs, corresponding outputs (matched by name, with dff D-cones included
// and Q-bits treated as shared free inputs) are XORed into a miter, and the
// CDCL solver proves the miter UNSAT or produces a counterexample. Each
// miter that does not fold away under structural hashing gets a fresh
// solver holding only its own cone.
#pragma once

#include "rtlil/module.hpp"
#include "util/budget.hpp"

#include <optional>
#include <string>
#include <vector>

namespace smartly::cec {

struct CecOptions {
  /// Conflict cap of each output's solver. Negative = unlimited (the
  /// default: the checker historically ran to completion). When the cap or
  /// the guard interrupts a solve, the result degrades to `inconclusive`
  /// instead of throwing.
  int64_t conflict_budget = -1;
  /// Optional run-wide resource governor (not owned): solver conflicts and
  /// propagations are charged here, a deadline/cancel interrupts the solver
  /// mid-search, and an observed halt skips the remaining outputs.
  util::ResourceGuard* guard = nullptr;
};

struct CecResult {
  bool equivalent = false;
  /// True when a resource limit stopped the proof before every output was
  /// settled: the designs were neither proven equivalent nor distinguished.
  /// `equivalent` is false and `failing_output` names the first unproven
  /// output, but there is no counterexample.
  bool inconclusive = false;
  /// When not equivalent: name of the first differing output and the input
  /// assignment that distinguishes the designs (input name -> value). Inputs
  /// outside that output's miter cone are reported as 0.
  std::string failing_output;
  std::vector<std::pair<std::string, bool>> counterexample;
};

/// Check combinational equivalence of two modules with identical interfaces
/// (same port names/widths; dffs must register the same named Q wires).
/// Throws std::invalid_argument if the interfaces cannot be matched.
CecResult check_equivalence(const rtlil::Module& gold, const rtlil::Module& gate,
                            const CecOptions& options = {});

} // namespace smartly::cec
