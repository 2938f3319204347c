#include "verilog/lexer.hpp"

#include "util/log.hpp"
#include "verilog/parse_error.hpp"

#include <cctype>
#include <cstring>
#include <stdexcept>

namespace smartly::verilog {

namespace {

[[noreturn]] void lex_error(int line, int col, const std::string& msg) {
  throw ParseError("", line, col, "verilog lexer: " + msg);
}

// Character classes are plain ASCII ranges: the source is bytes, and the
// locale-aware <cctype> calls cost a table lookup through the C locale each.
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) { return is_alpha(c) || c == '_' || c == '$'; }
bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }
/// A character after the base of a based literal (validated by decode_number).
bool is_based_digit(char c) { return is_alpha(c) || is_digit(c) || c == '_' || c == '?'; }

/// Spellings, indexed by TokCode.
const char* const kCodeText[] = {
    "",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?",
    "=", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "@", "#", ".",
    "==", "!=", "===", "!==", "<=", ">=", "&&", "||", "<<", ">>", ">>>", "<<<",
    "~^", "^~", "+:", "-:",
    "module", "endmodule", "input", "output", "wire", "reg", "parameter", "localparam",
    "assign", "always", "posedge", "or", "begin", "end", "if", "else", "case", "casez",
    "endcase", "default",
};
static_assert(sizeof(kCodeText) / sizeof(kCodeText[0]) ==
                  static_cast<size_t>(TokCode::KwDefault) + 1,
              "one spelling per TokCode");

/// The keyword code of identifier text [s, s + n), or None.
TokCode keyword_code(const char* s, size_t n) {
  const auto is = [&](TokCode code) {
    return std::memcmp(s, kCodeText[static_cast<size_t>(code)], n) == 0;
  };
  using T = TokCode;
  switch (n) {
  case 2: return is(T::KwIf) ? T::KwIf : is(T::KwOr) ? T::KwOr : T::None;
  case 3: return is(T::KwReg) ? T::KwReg : is(T::KwEnd) ? T::KwEnd : T::None;
  case 4:
    return is(T::KwWire) ? T::KwWire : is(T::KwElse) ? T::KwElse : is(T::KwCase) ? T::KwCase
                                                                                 : T::None;
  case 5:
    return is(T::KwInput) ? T::KwInput : is(T::KwBegin) ? T::KwBegin
                                       : is(T::KwCasez) ? T::KwCasez : T::None;
  case 6:
    return is(T::KwModule) ? T::KwModule : is(T::KwOutput) ? T::KwOutput
                                         : is(T::KwAssign) ? T::KwAssign
                                         : is(T::KwAlways) ? T::KwAlways : T::None;
  case 7:
    return is(T::KwPosedge) ? T::KwPosedge : is(T::KwEndcase) ? T::KwEndcase
                                           : is(T::KwDefault) ? T::KwDefault : T::None;
  case 9:
    return is(T::KwEndmodule) ? T::KwEndmodule : is(T::KwParameter) ? T::KwParameter
                                                                    : T::None;
  case 10: return is(T::KwLocalparam) ? T::KwLocalparam : T::None;
  default: return T::None;
  }
}

/// The longest punctuation that starts with c0, given the two characters
/// after it ('\0' past the end of the source); sets `len`. None if no
/// punctuation starts with c0.
TokCode punct_at(char c0, char c1, char c2, size_t& len) {
  using T = TokCode;
  len = 1;
  const auto two = [&](T code) { len = 2; return code; };
  const auto three = [&](T code) { len = 3; return code; };
  switch (c0) {
  case '(': return T::LParen;
  case ')': return T::RParen;
  case '[': return T::LBracket;
  case ']': return T::RBracket;
  case '{': return T::LBrace;
  case '}': return T::RBrace;
  case ',': return T::Comma;
  case ';': return T::Semi;
  case ':': return T::Colon;
  case '?': return T::Question;
  case '*': return T::Star;
  case '/': return T::Slash;
  case '%': return T::Percent;
  case '@': return T::At;
  case '#': return T::Hash;
  case '.': return T::Dot;
  case '=':
    if (c1 == '=')
      return c2 == '=' ? three(T::CaseEq) : two(T::EqEq);
    return T::Assign;
  case '!':
    if (c1 == '=')
      return c2 == '=' ? three(T::CaseNe) : two(T::NotEq);
    return T::Bang;
  case '<':
    if (c1 == '<')
      return c2 == '<' ? three(T::Ashl) : two(T::Shl);
    return c1 == '=' ? two(T::LtEq) : T::Lt;
  case '>':
    if (c1 == '>')
      return c2 == '>' ? three(T::Sshr) : two(T::Shr);
    return c1 == '=' ? two(T::GtEq) : T::Gt;
  case '&': return c1 == '&' ? two(T::AndAnd) : T::Amp;
  case '|': return c1 == '|' ? two(T::OrOr) : T::Pipe;
  case '~': return c1 == '^' ? two(T::TildeCaret) : T::Tilde;
  case '^': return c1 == '~' ? two(T::CaretTilde) : T::Caret;
  case '+': return c1 == ':' ? two(T::PlusColon) : T::Plus;
  case '-': return c1 == ':' ? two(T::MinusColon) : T::Minus;
  default: return T::None;
  }
}

} // namespace

const char* tok_code_text(TokCode code) noexcept { return kCodeText[static_cast<size_t>(code)]; }

std::vector<Token> tokenize(const std::string& src) {
  const char* const s = src.data();
  const size_t n = src.size();
  std::vector<Token> out;
  out.reserve(n / 3 + 1); // generated designs run 3.4-4.0 bytes per token
  size_t i = 0;
  int line = 1, col = 1;

  // Past the base character, a based literal holds only letters, digits, '_'
  // and '?'. Returns its end; `base` gets the base character's position.
  const auto based_tail = [&](size_t j, size_t& base) {
    if (j < n && (s[j] == 's' || s[j] == 'S'))
      ++j;
    if (j >= n)
      lex_error(line, col, "truncated based literal");
    base = j++; // base char, validated by decode_number
    while (j < n && is_based_digit(s[j]))
      ++j;
    return j;
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++col;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      size_t j = i + 2;
      while (j < n && s[j] != '\n')
        ++j;
      col += static_cast<int>(j - i);
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const size_t close = src.find("*/", i + 2);
      if (close == std::string::npos)
        lex_error(line, col, "unterminated block comment");
      const size_t j = close + 2;
      size_t last_newline = std::string::npos;
      for (size_t k = i + 2; k < close; ++k) {
        if (s[k] == '\n') {
          ++line;
          last_newline = k;
        }
      }
      col = last_newline == std::string::npos ? col + static_cast<int>(j - i)
                                              : static_cast<int>(j - last_newline);
      i = j;
      continue;
    }

    // A token: [i, j). Only a based literal's base character can be a newline.
    TokKind kind = TokKind::Punct;
    TokCode code = TokCode::None;
    size_t j = i;
    size_t base = std::string::npos;
    if (is_ident_start(c)) {
      while (j < n && is_ident_char(s[j]))
        ++j;
      kind = TokKind::Ident;
      code = keyword_code(s + i, j - i);
    } else if (is_digit(c)) {
      // Number: [size] ['base digits]  — digits may include x/z/_ per base.
      while (j < n && (is_digit(s[j]) || s[j] == '_'))
        ++j;
      if (j < n && s[j] == '\'')
        j = based_tail(j + 1, base);
      kind = TokKind::Number;
    } else if (c == '\'') {
      // Unsized based literal like 'b0 / 'd3.
      j = based_tail(i + 1, base);
      kind = TokKind::Number;
    } else {
      size_t len = 0;
      code = punct_at(c, i + 1 < n ? s[i + 1] : '\0', i + 2 < n ? s[i + 2] : '\0', len);
      if (code == TokCode::None)
        lex_error(line, col, str_format("unexpected character '%c'", c));
      j = i + len;
    }

    Token& tok = out.emplace_back();
    tok.kind = kind;
    tok.code = code;
    tok.text.assign(s + i, j - i);
    tok.line = line;
    tok.col = col;
    if (base != std::string::npos && s[base] == '\n') {
      ++line;
      col = static_cast<int>(j - base);
    } else {
      col += static_cast<int>(j - i);
    }
    i = j;
  }

  Token& eof = out.emplace_back();
  eof.kind = TokKind::Eof;
  eof.line = line;
  return out;
}

NumberValue decode_number(const std::string& text, int line) {
  NumberValue out;
  const size_t quote = text.find('\'');
  if (quote == std::string::npos) {
    // Plain decimal, 32-bit unsigned.
    uint64_t v = 0;
    for (char c : text) {
      if (c == '_')
        continue;
      if (!std::isdigit(static_cast<unsigned char>(c)))
        lex_error(line, 0, "bad decimal literal: " + text);
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    out.width = 32;
    out.sized = false;
    for (int b = 0; b < 32; ++b)
      out.bits_lsb_first.push_back(((v >> b) & 1) ? '1' : '0');
    return out;
  }

  // Sized/based literal.
  int width = 0;
  for (size_t k = 0; k < quote; ++k) {
    if (text[k] == '_')
      continue;
    width = width * 10 + (text[k] - '0');
  }
  size_t p = quote + 1;
  if (p < text.size() && (text[p] == 's' || text[p] == 'S'))
    ++p; // signedness ignored (subset)
  if (p >= text.size())
    lex_error(line, 0, "bad literal: " + text);
  const char base = static_cast<char>(std::tolower(static_cast<unsigned char>(text[p])));
  ++p;
  const std::string digits = text.substr(p);
  if (digits.empty())
    lex_error(line, 0, "literal has no digits: " + text);

  std::string bits_msb; // msb-first accumulation
  auto push_bits = [&](int value, int nbits, char xz) {
    for (int b = nbits - 1; b >= 0; --b) {
      if (xz)
        bits_msb.push_back(xz);
      else
        bits_msb.push_back(((value >> b) & 1) ? '1' : '0');
    }
  };

  if (base == 'b' || base == 'o' || base == 'h') {
    const int per = base == 'b' ? 1 : base == 'o' ? 3 : 4;
    for (char c : digits) {
      if (c == '_')
        continue;
      const char lc = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (lc == 'x' || lc == 'z' || lc == '?') {
        push_bits(0, per, lc == '?' ? 'z' : lc);
        continue;
      }
      int v = 0;
      if (std::isdigit(static_cast<unsigned char>(lc)))
        v = lc - '0';
      else if (lc >= 'a' && lc <= 'f' && base == 'h')
        v = lc - 'a' + 10;
      else
        lex_error(line, 0, "bad digit in literal: " + text);
      if (v >= (1 << per))
        lex_error(line, 0, "digit out of range for base: " + text);
      push_bits(v, per, 0);
    }
  } else if (base == 'd') {
    uint64_t v = 0;
    for (char c : digits) {
      if (c == '_')
        continue;
      if (!std::isdigit(static_cast<unsigned char>(c)))
        lex_error(line, 0, "bad decimal digit: " + text);
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    for (int b = 63; b >= 0; --b)
      bits_msb.push_back(((v >> b) & 1) ? '1' : '0');
  } else {
    lex_error(line, 0, "unsupported base in literal: " + text);
  }

  if (width == 0)
    width = static_cast<int>(bits_msb.size());
  out.width = width;
  out.sized = true;
  // LSB-first, extended/truncated to width. Extension repeats x/z, else 0.
  std::string lsb(bits_msb.rbegin(), bits_msb.rend());
  const char fill = (!lsb.empty() && (lsb.back() == 'x' || lsb.back() == 'z')) ? lsb.back() : '0';
  lsb.resize(static_cast<size_t>(width), fill);
  out.bits_lsb_first = std::move(lsb);
  return out;
}

} // namespace smartly::verilog
