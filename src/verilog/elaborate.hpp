// Elaboration: Verilog AST -> RTLIL netlist.
//
// This is the step that *creates* the structures smaRTLy optimizes:
//   * `if (c) ... else ...`   -> $mux per assigned signal
//   * `case (S) ...`          -> a priority chain of $mux cells whose selects
//                                are $eq(S, label) cells (paper Fig. 5); casez
//                                labels with z bits compare only the non-z
//                                bit positions (paper Listing 2)
//   * `always @(posedge clk)` -> $dff cells around the combinational cone
//
// Procedural semantics: assignments in @(*) blocks are blocking; assignments
// in posedge blocks are treated as nonblocking (reads see the register
// output). Unassigned paths in combinational blocks read as x (a latch would
// be inferred by real tools; the generators in this repo always fully assign).
#pragma once

#include "rtlil/module.hpp"
#include "verilog/ast.hpp"

#include <memory>
#include <string>

namespace smartly::verilog {

/// Elaborate one module AST into `design`. Returns the created module.
/// Throws verilog::ParseError (a std::runtime_error) on semantic errors
/// (unknown identifiers, width-0 signals, unsupported constructs).
rtlil::Module* elaborate(const ModuleAst& ast, rtlil::Design& design);

/// Parse + elaborate all modules in `source` into a fresh design. Front-end
/// diagnostics are verilog::ParseError with line/column; when `filename` is
/// given it is stamped into the error so what() reads `file:line:col: msg`.
/// Traced as `verilog.read`, holding parse_verilog's `verilog.lex` and
/// `verilog.parse` spans and a `verilog.elaborate` span.
std::unique_ptr<rtlil::Design> read_verilog(const std::string& source,
                                            const std::string& filename = "");

} // namespace smartly::verilog
