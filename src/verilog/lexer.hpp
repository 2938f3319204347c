// Lexer for the synthesizable Verilog subset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smartly::verilog {

enum class TokKind : uint8_t {
  Eof,
  Ident,   ///< identifier or keyword (keywords also carry a TokCode)
  Number,  ///< numeric literal, normalized in `text` (see Lexer docs)
  Punct,   ///< operator / punctuation, exact characters in `text`
};

/// What a punctuation or keyword token is, stamped by the lexer so the
/// parser switches on a byte instead of comparing text. Every Punct token
/// has a code; an Ident token has one iff its text is a keyword of the
/// subset (it stays an Ident, so keywords still read as identifiers where
/// the grammar wants one). Numbers and Eof carry None.
enum class TokCode : uint8_t {
  None,
  // punctuation, one per spelling
  LParen, RParen, LBracket, RBracket, LBrace, RBrace, Comma, Semi, Colon, Question,
  Assign, Lt, Gt, Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Bang,
  At, Hash, Dot,
  EqEq, NotEq, CaseEq, CaseNe, LtEq, GtEq, AndAnd, OrOr, Shl, Shr, Sshr, Ashl,
  TildeCaret, CaretTilde, PlusColon, MinusColon,
  // keywords
  KwModule, KwEndmodule, KwInput, KwOutput, KwWire, KwReg, KwParameter, KwLocalparam,
  KwAssign, KwAlways, KwPosedge, KwOr, KwBegin, KwEnd, KwIf, KwElse, KwCase, KwCasez,
  KwEndcase, KwDefault,
};

/// The spelling of a punctuation or keyword code ("" for None).
const char* tok_code_text(TokCode code) noexcept;

struct Token {
  TokKind kind = TokKind::Eof;
  TokCode code = TokCode::None;
  std::string text;
  int line = 0;
  int col = 0;
};

/// Tokenize Verilog source. Throws std::runtime_error with line info on
/// malformed input. Comments (`//`, `/* */`) and whitespace are skipped.
/// Numbers keep their original spelling (e.g. "8'hf0", "3'b1zz", "42").
/// Punctuation is matched longest first (`>>>` before `>>` before `>`).
/// Columns count bytes from 1; a tab or '\r' is one column.
std::vector<Token> tokenize(const std::string& source);

/// Decode a number token into (width, bits). Unsized decimals get width 32.
/// Bits are returned LSB-first as chars '0','1','x','z'.
struct NumberValue {
  int width = 32;
  bool sized = false;
  std::string bits_lsb_first;
};
NumberValue decode_number(const std::string& text, int line);

} // namespace smartly::verilog
