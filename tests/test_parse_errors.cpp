// Front-end diagnostics: every layer (lexer, parser, elaboration) reports
// failures as verilog::ParseError carrying file/line/column, and what()
// renders the conventional `file:line:col: message` form. opt_tool's exit
// code 1 ("input could not be parsed") rides on these errors, so their shape
// is part of the CLI contract.
#include "verilog/elaborate.hpp"
#include "verilog/lexer.hpp"
#include "verilog/parse_error.hpp"
#include "verilog/parser.hpp"

#include <gtest/gtest.h>

#include <string>

using namespace smartly;

namespace {

/// Run read_verilog, demand a ParseError, and hand it to the caller.
template <typename Check>
void expect_parse_error(const std::string& source, const std::string& filename,
                        Check&& check) {
  try {
    verilog::read_verilog(source, filename);
    FAIL() << "expected ParseError, but parsing succeeded";
  } catch (const verilog::ParseError& e) {
    check(e);
  }
}

} // namespace

// --- error formatting --------------------------------------------------------

TEST(ParseErrors, WhatRendersFileLineCol) {
  const verilog::ParseError e("muxtree.v", 12, 7, "unexpected token");
  EXPECT_STREQ(e.what(), "muxtree.v:12:7: unexpected token");
  EXPECT_EQ(e.file(), "muxtree.v");
  EXPECT_EQ(e.line(), 12);
  EXPECT_EQ(e.col(), 7);
  EXPECT_EQ(e.message(), "unexpected token");
}

TEST(ParseErrors, ZeroColumnIsOmitted) {
  // Elaboration only tracks lines; a zero column must not print as ":0".
  const verilog::ParseError e("a.v", 3, 0, "unknown identifier");
  EXPECT_EQ(std::string(e.what()).find(":0:"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("a.v:3"), std::string::npos);
}

TEST(ParseErrors, WithFileRestampsTheLocation) {
  const verilog::ParseError e("", 4, 2, "bad literal");
  const verilog::ParseError stamped = e.with_file("design.v");
  EXPECT_EQ(stamped.file(), "design.v");
  EXPECT_EQ(stamped.line(), 4);
  EXPECT_EQ(stamped.col(), 2);
  EXPECT_EQ(stamped.message(), e.message());
}

// --- lexer-layer failures ----------------------------------------------------

TEST(ParseErrors, LexerRejectsStrayCharacterWithPosition) {
  // '#' is not part of the supported token set; line 3, after two newlines.
  expect_parse_error("module top(a);\ninput a;\n  # x;\nendmodule\n", "lex.v",
                     [](const verilog::ParseError& e) {
                       EXPECT_EQ(e.file(), "lex.v");
                       EXPECT_EQ(e.line(), 3);
                       EXPECT_GT(e.col(), 0);
                     });
}

TEST(ParseErrors, LexerRejectsMalformedNumber) {
  expect_parse_error("module top(a, y);\ninput a;\noutput y;\nassign y = 4'bxq01;\n"
                     "endmodule\n",
                     "num.v", [](const verilog::ParseError& e) {
                       EXPECT_EQ(e.file(), "num.v");
                       EXPECT_EQ(e.line(), 4);
                     });
}

// --- parser-layer failures ---------------------------------------------------

TEST(ParseErrors, ParserRejectsMissingSemicolonWithPosition) {
  expect_parse_error("module top(a, y);\ninput a;\noutput y;\nassign y = a\nendmodule\n",
                     "parse.v", [](const verilog::ParseError& e) {
                       EXPECT_EQ(e.file(), "parse.v");
                       // The error is at the token that is not ';' — `endmodule`.
                       EXPECT_EQ(e.line(), 5);
                     });
}

TEST(ParseErrors, ParserRejectsUnbalancedExpression) {
  expect_parse_error("module top(a, b, y);\ninput a, b;\noutput y;\n"
                     "assign y = (a & ;\nendmodule\n",
                     "expr.v", [](const verilog::ParseError& e) {
                       EXPECT_EQ(e.file(), "expr.v");
                       EXPECT_EQ(e.line(), 4);
                       EXPECT_GT(e.col(), 0);
                     });
}

// --- elaboration-layer failures ----------------------------------------------

TEST(ParseErrors, ElaborationRejectsUnknownIdentifierWithLine) {
  expect_parse_error("module top(a, y);\ninput a;\noutput y;\nassign y = a & ghost;\n"
                     "endmodule\n",
                     "elab.v", [](const verilog::ParseError& e) {
                       EXPECT_EQ(e.file(), "elab.v");
                       EXPECT_EQ(e.line(), 4);
                       EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
                     });
}

// --- the filename is optional ------------------------------------------------

TEST(ParseErrors, MissingFilenameStillReportsLineCol) {
  try {
    verilog::read_verilog("module top(a);\ninput a;\n  # x;\nendmodule\n");
    FAIL() << "expected ParseError";
  } catch (const verilog::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    // No file prefix, but the location must still be in the message.
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos);
  }
}

// --- pinned diagnostics -------------------------------------------------------

TEST(ParseErrors, MalformedInputsKeepTheirMessageAndPosition) {
  // Message, line and column of each diagnostic, as the table-driven lexer
  // and the string-comparing parser reported them. Column 0 means the layer
  // reports the line only (decode_number and the Eof token).
  struct Case {
    const char* source;
    int line;
    int col;
    const char* message;
  };
  const Case kCases[] = {
      {"module top(a);\n  input a;\n  ` x;\nendmodule\n", 3, 3,
       "verilog lexer: unexpected character '`'"},
      {"module top(a);\n input a; /* never\n closed\nendmodule\n", 2, 11,
       "verilog lexer: unterminated block comment"},
      {"module top(y);\n output [3:0] y;\n assign y = 4'", 3, 13,
       "verilog lexer: truncated based literal"},
      {"module top(y);\n output [3:0] y;\n assign y = 4'b;\nendmodule\n", 3, 0,
       "verilog lexer: literal has no digits: 4'b"},
      {"module top(a, y);\n input a;\n output y;\n\tassign y = 'sb;\nendmodule\n", 4, 0,
       "verilog lexer: literal has no digits: 'sb"},
      {"module top(y);\n output [3:0] y;\n assign y = 4'b1021;\nendmodule\n", 3, 0,
       "verilog lexer: digit out of range for base: 4'b1021"},
      {"module top(y);\n output [7:0] y;\n assign y = 8'hfg;\nendmodule\n", 3, 0,
       "verilog lexer: bad digit in literal: 8'hfg"},
      {"module top(a, y);\n input a;\n output y;\n assign y = 8'q12;\nendmodule\n", 4, 0,
       "verilog lexer: unsupported base in literal: 8'q12"},
      {"module top(a, y);\n input a;\n output y;\n assign y = a + ;\nendmodule\n", 4, 17,
       "verilog parser: unexpected token ';' in expression"},
      {"module top(a, y);\n input a;\n output y;\n assign y = a\nendmodule\n", 5, 1,
       "verilog parser: expected ';', got 'endmodule'"},
      {"module top(a, y);\r\n input a;\r\n output y;\r\n assign y = a ==== a;\r\nendmodule\r\n", 4,
       15, "verilog parser: expected ';', got '==='"},
      {"module top(a, y);\n input a;\n output y;\n assign y = a ? a;\nendmodule\n", 4, 18,
       "verilog parser: expected ':', got ';'"},
      {"module top(a, y);\n input a;\n output y;\n assign y = (a | a;\nendmodule\n", 4, 19,
       "verilog parser: expected ')', got ';'"},
      {"module top(a);\n input 3;\nendmodule\n", 2, 8,
       "verilog parser: expected identifier, got '3'"},
      {"module top(a);\n input a;\n a = 1;\nendmodule\n", 3, 2,
       "verilog parser: unexpected token 'a' in module body"},
      {"module top(a, y);\n input a;\n output y;\n always @(posedge a) begin\n y <= a;\n", 6, 0,
       "verilog parser: unexpected EOF in begin/end block"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.source);
    expect_parse_error(c.source, "bad.v", [&](const verilog::ParseError& e) {
      EXPECT_EQ(e.message(), c.message);
      EXPECT_EQ(e.line(), c.line);
      EXPECT_EQ(e.col(), c.col);
      EXPECT_EQ(e.file(), "bad.v");
    });
  }
}
