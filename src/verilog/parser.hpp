// Recursive-descent parser for the synthesizable Verilog subset.
//
// Grammar (informal):
//   module IDENT ( port {, port} ) ; { item } endmodule
//   item  := (input|output|wire|reg) [range] ident {, ident} ;
//          | parameter/localparam IDENT = expr ;
//          | assign lvalue = expr ;
//          | always @ ( * | posedge IDENT ) stmt
//   stmt  := begin { stmt } end | if (expr) stmt [else stmt]
//          | case|casez (expr) { case_item } endcase
//          | lvalue (= | <=) expr ;
// Expressions support the full operator set of ast.hpp with standard
// Verilog precedence, plus concat {..}, replication {n{..}}, bit-select and
// constant part-select.
#pragma once

#include "verilog/ast.hpp"

#include <string>
#include <vector>

namespace smartly::verilog {

/// Parse all modules in `source`. Throws verilog::ParseError (a
/// std::runtime_error carrying line/column) on syntax errors. Traced as a
/// `verilog.lex` span (arg `bytes`) followed by `verilog.parse` (arg `tokens`).
std::vector<ModuleAst> parse_verilog(const std::string& source);

} // namespace smartly::verilog
