// Verilog lexer: token classification, number literal decoding, comments,
// line tracking, and error reporting. The identity suite at the end compares
// tokenize() with a reference copy of the first table-driven lexer on
// generated designs and on a table of edge cases.
#include "verilog/lexer.hpp"

#include "backend/write_verilog.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "util/log.hpp"
#include "verilog/elaborate.hpp"
#include "verilog/parse_error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>

using namespace smartly::verilog;
using smartly::str_format;

namespace {
std::vector<std::string> texts(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : tokenize(src))
    if (t.kind != TokKind::Eof)
      out.push_back(t.text);
  return out;
}
} // namespace

TEST(Lexer, BasicTokens) {
  const auto t = texts("module top(a, b); endmodule");
  const std::vector<std::string> want{"module", "top", "(", "a",    ",",
                                      "b",      ")",   ";", "endmodule"};
  EXPECT_EQ(t, want);
}

TEST(Lexer, IdentifiersWithUnderscores) {
  const auto t = texts("_foo bar_1 baz2");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "_foo");
  EXPECT_EQ(t[1], "bar_1");
  EXPECT_EQ(t[2], "baz2");
}

TEST(Lexer, MultiCharOperators) {
  const auto t = texts("a <= b == c != d && e || f ~^ g >>> h << i >= j");
  EXPECT_NE(std::find(t.begin(), t.end(), "<="), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "=="), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "!="), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "&&"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "||"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "~^"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), ">>>"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "<<"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), ">="), t.end());
}

TEST(Lexer, LineCommentsSkipped) {
  const auto t = texts("a // this is a comment\nb");
  const std::vector<std::string> want{"a", "b"};
  EXPECT_EQ(t, want);
}

TEST(Lexer, BlockCommentsSkippedAcrossLines) {
  const auto t = texts("a /* multi\nline\ncomment */ b");
  const std::vector<std::string> want{"a", "b"};
  EXPECT_EQ(t, want);
}

TEST(Lexer, LineNumbersTracked) {
  const auto toks = tokenize("a\nb\n\nc");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, NumberTokensKeepSpelling) {
  const auto toks = tokenize("42 8'hf0 3'b1zz 4'd9");
  ASSERT_GE(toks.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(toks[size_t(i)].kind, TokKind::Number) << i;
  EXPECT_EQ(toks[0].text, "42");
  EXPECT_EQ(toks[1].text, "8'hf0");
  EXPECT_EQ(toks[2].text, "3'b1zz");
}

// --- decode_number ---------------------------------------------------------

TEST(DecodeNumber, UnsizedDecimal) {
  const NumberValue v = decode_number("42", 1);
  EXPECT_EQ(v.width, 32);
  EXPECT_FALSE(v.sized);
  ASSERT_GE(v.bits_lsb_first.size(), 6u);
  EXPECT_EQ(v.bits_lsb_first.substr(0, 6), "010101"); // 42 = 0b101010
}

TEST(DecodeNumber, SizedHex) {
  const NumberValue v = decode_number("8'hf0", 1);
  EXPECT_EQ(v.width, 8);
  EXPECT_TRUE(v.sized);
  EXPECT_EQ(v.bits_lsb_first, "00001111");
}

TEST(DecodeNumber, SizedBinaryWithZ) {
  const NumberValue v = decode_number("3'b1zz", 1);
  EXPECT_EQ(v.width, 3);
  EXPECT_EQ(v.bits_lsb_first, "zz1");
}

TEST(DecodeNumber, SizedBinaryWithX) {
  const NumberValue v = decode_number("4'b10x1", 1);
  EXPECT_EQ(v.width, 4);
  EXPECT_EQ(v.bits_lsb_first, "1x01");
}

TEST(DecodeNumber, SizedDecimal) {
  const NumberValue v = decode_number("4'd9", 1);
  EXPECT_EQ(v.width, 4);
  EXPECT_EQ(v.bits_lsb_first, "1001");
}

TEST(DecodeNumber, TruncationToDeclaredWidth) {
  const NumberValue v = decode_number("2'd7", 1); // 7 truncated to 2 bits = 3
  EXPECT_EQ(v.width, 2);
  EXPECT_EQ(v.bits_lsb_first, "11");
}

TEST(DecodeNumber, PaddingToDeclaredWidth) {
  const NumberValue v = decode_number("8'b11", 1);
  EXPECT_EQ(v.width, 8);
  EXPECT_EQ(v.bits_lsb_first, "11000000");
}

TEST(DecodeNumber, MalformedThrows) {
  EXPECT_THROW(decode_number("8'q12", 1), std::runtime_error);
  EXPECT_THROW(decode_number("8'b", 1), std::runtime_error);
  EXPECT_THROW(decode_number("8'b12", 1), std::runtime_error); // 2 not binary
}

TEST(Lexer, EmptySourceYieldsEofOnly) {
  const auto toks = tokenize("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::Eof);
}

TEST(Lexer, WhitespaceOnlySource) {
  const auto toks = tokenize("  \t\n  \r\n ");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::Eof);
}

// --- identity with the reference lexer -------------------------------------

namespace reference {

// The lexer as it was before the single-switch rewrite: a longest-first
// punctuation table walked per token, <cctype> classes and a per-character
// advance(). Kept here only as the reference tokenize() must match.

[[noreturn]] void lex_error(int line, int col, const std::string& msg) {
  throw ParseError("", line, col, "verilog lexer: " + msg);
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

const char* kPuncts[] = {
    ">>>", "<<<", "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "~^", "^~", "+:", "-:", "(", ")", "[", "]", "{", "}", ",", ";", ":", "?",
    "=", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "@", "#", ".",
};

std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  size_t i = 0;
  int line = 1, col = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (src[i + k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += n;
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n')
        advance(1);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const int start_line = line;
      const int start_col = col;
      advance(2);
      for (;;) {
        if (i + 1 >= src.size())
          lex_error(start_line, start_col, "unterminated block comment");
        if (src[i] == '*' && src[i + 1] == '/') {
          advance(2);
          break;
        }
        advance(1);
      }
      continue;
    }

    Token tok;
    tok.line = line;
    tok.col = col;

    if (is_ident_start(c)) {
      size_t j = i;
      while (j < src.size() && is_ident_char(src[j]))
        ++j;
      tok.kind = TokKind::Ident;
      tok.text = src.substr(i, j - i);
      advance(j - i);
      out.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < src.size() && (std::isdigit(static_cast<unsigned char>(src[j])) || src[j] == '_'))
        ++j;
      if (j < src.size() && src[j] == '\'') {
        ++j;
        if (j < src.size() && (src[j] == 's' || src[j] == 'S'))
          ++j;
        if (j >= src.size())
          lex_error(line, col, "truncated based literal");
        ++j;
        while (j < src.size() &&
               (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '_' ||
                src[j] == '?'))
          ++j;
      }
      tok.kind = TokKind::Number;
      tok.text = src.substr(i, j - i);
      advance(j - i);
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      if (j < src.size() && (src[j] == 's' || src[j] == 'S'))
        ++j;
      if (j >= src.size())
        lex_error(line, col, "truncated based literal");
      ++j;
      while (j < src.size() && (std::isalnum(static_cast<unsigned char>(src[j])) ||
                                src[j] == '_' || src[j] == '?'))
        ++j;
      tok.kind = TokKind::Number;
      tok.text = src.substr(i, j - i);
      advance(j - i);
      out.push_back(std::move(tok));
      continue;
    }

    bool matched = false;
    for (const char* p : kPuncts) {
      const size_t len = std::char_traits<char>::length(p);
      if (src.compare(i, len, p) == 0) {
        tok.kind = TokKind::Punct;
        tok.text = p;
        advance(len);
        out.push_back(std::move(tok));
        matched = true;
        break;
      }
    }
    if (!matched)
      lex_error(line, col, str_format("unexpected character '%c'", c));
  }

  Token eof;
  eof.kind = TokKind::Eof;
  eof.line = line;
  out.push_back(std::move(eof));
  return out;
}

} // namespace reference

namespace {

const char* const kKeywords[] = {
    "module", "endmodule", "input",  "output", "wire",  "reg",   "parameter",
    "localparam", "assign", "always", "posedge", "or", "begin", "end",
    "if", "else", "case", "casez", "endcase", "default",
};

/// One token as "kind:text@line:col", or the error a lexer threw.
std::vector<std::string> stream(std::vector<Token> (*lex)(const std::string&),
                                const std::string& src) {
  std::vector<std::string> out;
  try {
    for (const Token& t : lex(src))
      out.push_back(str_format("%d:%s@%d:%d", static_cast<int>(t.kind), t.text.c_str(), t.line,
                               t.col));
  } catch (const ParseError& e) {
    out.push_back(str_format("error %d:%d %s", e.line(), e.col(), e.message().c_str()));
  }
  return out;
}

/// tokenize() must give the reference's (kind, text, line, col) stream or
/// error, and stamp each punctuation and keyword with the code of its text.
void expect_same_tokens(const std::string& src, const std::string& what) {
  const std::vector<std::string> want = stream(&reference::tokenize, src);
  const std::vector<std::string> got = stream(&tokenize, src);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << ", token " << i;
  if (got.back().rfind("error", 0) == 0)
    return;
  for (const Token& t : tokenize(src)) {
    const bool keyword = t.kind == TokKind::Ident &&
                         std::find_if(std::begin(kKeywords), std::end(kKeywords),
                                      [&](const char* k) { return t.text == k; }) !=
                             std::end(kKeywords);
    if (t.kind == TokKind::Punct || keyword) {
      ASSERT_NE(t.code, TokCode::None) << what << ": " << t.text;
      ASSERT_EQ(std::string(tok_code_text(t.code)), t.text) << what;
    } else {
      ASSERT_EQ(t.code, TokCode::None) << what << ": " << t.text;
    }
  }
}

} // namespace

TEST(LexerIdentity, GeneratedDesignsAndTheirRoundTrips) {
  const char* kPublic[] = {"top_cache_axi", "pci_bridge32", "wb_conmax", "mem_ctrl", "wb_dma",
                           "tv80",          "usb_funct",    "ethernet",  "riscv",    "ac97_ctrl"};
  std::vector<std::pair<std::string, std::string>> designs;
  for (uint64_t variant = 0; variant < 2; ++variant)
    for (const char* name : kPublic)
      designs.emplace_back(str_format("%s:%d", name, static_cast<int>(variant)),
                           smartly::benchgen::generate_circuit(
                               name, smartly::benchgen::profile_for(name), 0x5eedULL + variant)
                               .verilog);
  for (int variant = 0; variant < 8; ++variant)
    designs.emplace_back(str_format("industrial:%d", variant),
                         smartly::benchgen::generate_industrial(variant, 1, 0x5eedULL + variant)
                             .verilog);
  for (uint64_t seed = 1; seed <= 6; ++seed)
    designs.emplace_back(str_format("random:%d", static_cast<int>(seed)),
                         smartly::benchgen::random_verilog(seed, 8));
  for (const auto& [name, src] : designs) {
    expect_same_tokens(src, name);
    // One write_verilog round trip: escaped names, constants and operators
    // as the backend spells them.
    const auto design = read_verilog(src);
    expect_same_tokens(smartly::backend::write_verilog(*design), name + " written back");
  }
}

TEST(LexerIdentity, EdgeCaseTable) {
  const char* kCases[] = {
      // every punctuation next to its longer and shorter neighbours
      ">>> >> >= > >>= >>>> >=>",
      "<<< << <= < <<= <<<< <=<",
      "=== == = ==== =>",
      "!== != ! !=== !!",
      "&& & &&& |||| || | ^~ ~^ ^ ~ ~^~ ^~^ ~~ ^^",
      "+: -: + - +:: -:- ++ -- :+",
      "()[]{},;:?*/%@#.",
      "a[3+:2] b[7-:4] {2{c}} d?e:f @(*) #1 x.y",
      // keywords, and keywords glued to identifier characters
      "module endmodule input output wire reg parameter localparam assign always",
      "posedge or begin end if else case casez endcase default",
      "modules end_ $end end$ iff Case BEGIN casex or2 _if",
      // numbers: sizes, signed bases, x/z/? digits, underscores, unsized
      "4'sb1010 8'Sh_ff 'sb1 'b0 'd3 'hx 'o7 16'hdead_beef 12'o7_7_7",
      "3'b1zz 4'bx0z? 8'hXz 2'dz 32'b? 1_000 0 007 8 'sb 4'sd",
      "9'q12 4'b1021 5'\nb1 5'\tb1 5' b1",
      // comments at EOF, CRLF and tabs
      "a // trailing comment",
      "a /* block at EOF */",
      "a\r\nb\r\n\tc\t=\t1;\r\n",
      "/* multi\nline */ x /*\n*/ y // c\n z",
      "a /**/ b /*/ c */ d /***/ e",
      "\t\t\ta\n\t b",
      // errors: stray character, unterminated comment, truncated literal
      "a ` b",
      "x\n  \\esc",
      "a /* never closed",
      "a /*/",
      "y = 4'",
      "y = 4's",
      "y = '",
      "ok\n\n   $",
  };
  for (const char* src : kCases)
    expect_same_tokens(src, str_format("case \"%s\"", src));
}
