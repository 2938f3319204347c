#include "verilog/parser.hpp"

#include "obs/trace.hpp"
#include "util/log.hpp"
#include "verilog/lexer.hpp"
#include "verilog/parse_error.hpp"

#include <unordered_map>

namespace smartly::verilog {

namespace {

class Parser {
public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  std::vector<ModuleAst> parse() {
    std::vector<ModuleAst> out;
    while (!at_eof())
      out.push_back(parse_module());
    return out;
  }

private:
  [[noreturn]] void error(const std::string& msg) const {
    throw ParseError("", peek().line, peek().col, "verilog parser: " + msg);
  }

  const Token& peek() const { return toks_[pos_]; }
  bool at_eof() const { return peek().kind == TokKind::Eof; }
  /// Step past the current token; the final Eof token is never passed.
  const Token& take() {
    const Token& tok = toks_[pos_];
    if (pos_ + 1 < toks_.size())
      ++pos_;
    return tok;
  }
  /// take() that hands over the token's text: the parser never looks back.
  std::string take_text() {
    std::string text = std::move(toks_[pos_].text);
    take();
    return text;
  }

  /// The current token is punctuation or keyword `code`.
  bool is(TokCode code) const { return peek().code == code; }
  void expect(TokCode code) {
    if (!is(code))
      error(str_format("expected '%s', got '%s'", tok_code_text(code), peek().text.c_str()));
    take();
  }
  std::string expect_ident() {
    if (peek().kind != TokKind::Ident)
      error("expected identifier, got '" + peek().text + "'");
    return take_text();
  }

  // --- constant expressions (for ranges / parameters) ----------------------
  int64_t const_eval(const Expr& e) const {
    switch (e.kind) {
    case ExprKind::Number:
      return static_cast<int64_t>(e.value.as_uint());
    case ExprKind::Ident: {
      auto it = params_.find(e.name);
      if (it == params_.end())
        throw ParseError("", e.line, 0,
                         "verilog parser: '" + e.name + "' is not a constant");
      return static_cast<int64_t>(it->second.as_uint());
    }
    case ExprKind::Unary:
      if (e.uop == UnaryOp::Minus)
        return -const_eval(*e.args[0]);
      if (e.uop == UnaryOp::Plus)
        return const_eval(*e.args[0]);
      break;
    case ExprKind::Binary: {
      const int64_t a = const_eval(*e.args[0]);
      const int64_t b = const_eval(*e.args[1]);
      switch (e.bop) {
      case BinaryOp::Add: return a + b;
      case BinaryOp::Sub: return a - b;
      case BinaryOp::Mul: return a * b;
      case BinaryOp::Shl: return a << b;
      case BinaryOp::Shr: return static_cast<int64_t>(static_cast<uint64_t>(a) >> b);
      default: break;
      }
      break;
    }
    default:
      break;
    }
    throw ParseError("", e.line, 0, "verilog parser: unsupported constant expression");
  }

  // --- module --------------------------------------------------------------
  ModuleAst parse_module() {
    params_.clear();
    expect(TokCode::KwModule);
    ModuleAst m;
    m.name = expect_ident();
    if (is(TokCode::LParen)) {
      take();
      if (!is(TokCode::RParen)) {
        for (;;) {
          m.port_order.push_back(expect_ident());
          if (is(TokCode::Comma))
            take();
          else
            break;
        }
      }
      expect(TokCode::RParen);
    }
    expect(TokCode::Semi);

    while (!is(TokCode::KwEndmodule)) {
      if (at_eof())
        error("unexpected end of file inside module");
      parse_item(m);
    }
    expect(TokCode::KwEndmodule);
    return m;
  }

  void parse_item(ModuleAst& m) {
    if (is(TokCode::KwInput) || is(TokCode::KwOutput) || is(TokCode::KwWire) ||
        is(TokCode::KwReg)) {
      parse_decl(m);
      return;
    }
    if (is(TokCode::KwParameter) || is(TokCode::KwLocalparam)) {
      take();
      for (;;) {
        Parameter p;
        p.name = expect_ident();
        expect(TokCode::Assign);
        const ExprPtr e = parse_expr();
        if (e->kind == ExprKind::Number) {
          p.value = e->value;
        } else {
          p.value = rtlil::Const(static_cast<uint64_t>(const_eval(*e)), 32);
        }
        params_[p.name] = p.value;
        m.parameters.push_back(std::move(p));
        if (is(TokCode::Comma))
          take();
        else
          break;
      }
      expect(TokCode::Semi);
      return;
    }
    if (is(TokCode::KwAssign)) {
      take();
      for (;;) {
        ExprPtr lhs = parse_lvalue();
        expect(TokCode::Assign);
        ExprPtr rhs = parse_expr();
        m.assigns.emplace_back(std::move(lhs), std::move(rhs));
        if (is(TokCode::Comma))
          take();
        else
          break;
      }
      expect(TokCode::Semi);
      return;
    }
    if (is(TokCode::KwAlways)) {
      AlwaysBlock blk;
      blk.line = peek().line;
      take();
      expect(TokCode::At);
      expect(TokCode::LParen);
      if (is(TokCode::Star)) {
        take();
        blk.is_comb = true;
      } else if (is(TokCode::KwPosedge)) {
        take();
        blk.is_comb = false;
        blk.clock = expect_ident();
      } else {
        // @(a or b or c) style sensitivity list — treated as combinational.
        blk.is_comb = true;
        expect_ident();
        while (is(TokCode::KwOr) || is(TokCode::Comma)) {
          take();
          expect_ident();
        }
      }
      expect(TokCode::RParen);
      blk.body = parse_stmt();
      m.always_blocks.push_back(std::move(blk));
      return;
    }
    error("unexpected token '" + peek().text + "' in module body");
  }

  void parse_decl(ModuleAst& m) {
    Dir dir = Dir::None;
    bool is_reg = false;
    if (is(TokCode::KwInput)) {
      take();
      dir = Dir::Input;
    } else if (is(TokCode::KwOutput)) {
      take();
      dir = Dir::Output;
    }
    if (is(TokCode::KwWire))
      take();
    else if (is(TokCode::KwReg)) {
      take();
      is_reg = true;
    }

    int msb = 0, lsb = 0;
    if (is(TokCode::LBracket)) {
      take();
      msb = static_cast<int>(const_eval(*parse_expr()));
      expect(TokCode::Colon);
      lsb = static_cast<int>(const_eval(*parse_expr()));
      expect(TokCode::RBracket);
    }
    for (;;) {
      Decl d;
      d.line = peek().line;
      d.name = expect_ident();
      d.msb = msb;
      d.lsb = lsb;
      d.is_reg = is_reg;
      d.dir = dir;
      m.decls.push_back(std::move(d));
      if (is(TokCode::Comma))
        take();
      else
        break;
    }
    expect(TokCode::Semi);
  }

  // --- statements ----------------------------------------------------------
  StmtPtr parse_stmt() {
    auto s = std::make_unique<Stmt>();
    s->line = peek().line;

    if (is(TokCode::KwBegin)) {
      take();
      s->kind = StmtKind::Block;
      while (!is(TokCode::KwEnd)) {
        if (at_eof())
          error("unexpected EOF in begin/end block");
        s->stmts.push_back(parse_stmt());
      }
      take();
      return s;
    }
    if (is(TokCode::KwIf)) {
      take();
      s->kind = StmtKind::If;
      expect(TokCode::LParen);
      s->cond = parse_expr();
      expect(TokCode::RParen);
      s->then_stmt = parse_stmt();
      if (is(TokCode::KwElse)) {
        take();
        s->else_stmt = parse_stmt();
      }
      return s;
    }
    if (is(TokCode::KwCase) || is(TokCode::KwCasez)) {
      s->is_casez = is(TokCode::KwCasez);
      take();
      s->kind = StmtKind::Case;
      expect(TokCode::LParen);
      s->cond = parse_expr();
      expect(TokCode::RParen);
      while (!is(TokCode::KwEndcase)) {
        if (at_eof())
          error("unexpected EOF in case statement");
        CaseItem item;
        if (is(TokCode::KwDefault)) {
          take();
          item.is_default = true;
          if (is(TokCode::Colon))
            take();
        } else {
          for (;;) {
            item.labels.push_back(parse_expr());
            if (is(TokCode::Comma))
              take();
            else
              break;
          }
          expect(TokCode::Colon);
        }
        item.body = parse_stmt();
        s->items.push_back(std::move(item));
      }
      take();
      return s;
    }

    // Assignment.
    s->kind = StmtKind::Assign;
    s->lhs = parse_lvalue();
    if (is(TokCode::LtEq)) {
      take();
      s->nonblocking = true;
    } else {
      expect(TokCode::Assign);
    }
    s->rhs = parse_expr();
    expect(TokCode::Semi);
    return s;
  }

  // --- expressions ----------------------------------------------------------
  ExprPtr parse_lvalue() {
    if (is(TokCode::LBrace)) {
      auto e = std::make_unique<Expr>();
      e->line = peek().line;
      e->kind = ExprKind::Concat;
      take();
      for (;;) {
        e->args.push_back(parse_lvalue());
        if (is(TokCode::Comma))
          take();
        else
          break;
      }
      expect(TokCode::RBrace);
      return e;
    }
    std::string name = expect_ident();
    return parse_postfix(std::move(name), peek().line);
  }

  ExprPtr parse_postfix(std::string name, int line) {
    auto e = std::make_unique<Expr>();
    e->line = line;
    e->name = std::move(name);
    if (!is(TokCode::LBracket)) {
      e->kind = ExprKind::Ident;
      return e;
    }
    take();
    ExprPtr first = parse_expr();
    if (is(TokCode::Colon)) {
      take();
      ExprPtr second = parse_expr();
      e->kind = ExprKind::Slice;
      e->msb = static_cast<int>(const_eval(*first));
      e->lsb = static_cast<int>(const_eval(*second));
      expect(TokCode::RBracket);
      return e;
    }
    expect(TokCode::RBracket);
    e->kind = ExprKind::Index;
    e->args.push_back(std::move(first));
    return e;
  }

  /// Precedence of binary operator `code`, higher binds tighter; -1 for
  /// anything else. Ternary is handled separately (lowest).
  static int binary_prec(TokCode code) {
    switch (code) {
    case TokCode::OrOr: return 1;
    case TokCode::AndAnd: return 2;
    case TokCode::Pipe: return 3;
    case TokCode::Caret: case TokCode::TildeCaret: case TokCode::CaretTilde: return 4;
    case TokCode::Amp: return 5;
    case TokCode::EqEq: case TokCode::NotEq: return 6;
    case TokCode::Lt: case TokCode::LtEq: case TokCode::Gt: case TokCode::GtEq: return 7;
    case TokCode::Shl: case TokCode::Shr: case TokCode::Sshr: return 8;
    case TokCode::Plus: case TokCode::Minus: return 9;
    case TokCode::Star: return 10;
    default: return -1;
    }
  }

  /// The operator of a code binary_prec ranks.
  static BinaryOp binary_op(TokCode code) {
    switch (code) {
    case TokCode::OrOr: return BinaryOp::LogicOr;
    case TokCode::AndAnd: return BinaryOp::LogicAnd;
    case TokCode::Pipe: return BinaryOp::Or;
    case TokCode::Caret: return BinaryOp::Xor;
    case TokCode::TildeCaret: case TokCode::CaretTilde: return BinaryOp::Xnor;
    case TokCode::Amp: return BinaryOp::And;
    case TokCode::EqEq: return BinaryOp::Eq;
    case TokCode::NotEq: return BinaryOp::Ne;
    case TokCode::Lt: return BinaryOp::Lt;
    case TokCode::LtEq: return BinaryOp::Le;
    case TokCode::Gt: return BinaryOp::Gt;
    case TokCode::GtEq: return BinaryOp::Ge;
    case TokCode::Shl: return BinaryOp::Shl;
    case TokCode::Shr: return BinaryOp::Shr;
    case TokCode::Sshr: return BinaryOp::Sshr;
    case TokCode::Plus: return BinaryOp::Add;
    case TokCode::Minus: return BinaryOp::Sub;
    default: return BinaryOp::Mul;
    }
  }

  ExprPtr parse_expr() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(1);
    if (!is(TokCode::Question))
      return cond;
    auto e = std::make_unique<Expr>();
    e->line = peek().line;
    e->kind = ExprKind::Ternary;
    take();
    ExprPtr t = parse_ternary();
    expect(TokCode::Colon);
    ExprPtr f = parse_ternary();
    e->args.push_back(std::move(cond));
    e->args.push_back(std::move(t));
    e->args.push_back(std::move(f));
    return e;
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const TokCode op = peek().code;
      const int prec = binary_prec(op);
      if (prec < min_prec)
        return lhs;
      take();
      ExprPtr rhs = parse_binary(prec + 1);
      auto e = std::make_unique<Expr>();
      e->line = lhs->line;
      e->kind = ExprKind::Binary;
      e->bop = binary_op(op);
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    UnaryOp op;
    switch (peek().code) {
    case TokCode::Bang: op = UnaryOp::Not; break;
    case TokCode::Tilde: op = UnaryOp::BitNot; break;
    case TokCode::Minus: op = UnaryOp::Minus; break;
    case TokCode::Plus: op = UnaryOp::Plus; break;
    case TokCode::Amp: op = UnaryOp::RedAnd; break;
    case TokCode::Pipe: op = UnaryOp::RedOr; break;
    case TokCode::Caret: op = UnaryOp::RedXor; break;
    case TokCode::TildeCaret: case TokCode::CaretTilde: op = UnaryOp::RedXnor; break;
    default: return parse_primary();
    }
    auto e = std::make_unique<Expr>();
    e->line = peek().line;
    take();
    e->kind = ExprKind::Unary;
    e->uop = op;
    e->args.push_back(parse_unary());
    return e;
  }

  ExprPtr parse_primary() {
    if (is(TokCode::LParen)) {
      take();
      ExprPtr e = parse_expr();
      expect(TokCode::RParen);
      return e;
    }
    if (is(TokCode::LBrace)) {
      const int line = peek().line;
      take();
      // Replication {n{expr}} or concat {a, b, ...}.
      // Heuristic: replication iff first token forms a constant expr followed
      // by '{'.
      ExprPtr first = parse_expr();
      if (is(TokCode::LBrace)) {
        take();
        auto e = std::make_unique<Expr>();
        e->line = line;
        e->kind = ExprKind::Repeat;
        e->repeat_count = static_cast<int>(const_eval(*first));
        e->args.push_back(parse_expr());
        expect(TokCode::RBrace);
        expect(TokCode::RBrace);
        return e;
      }
      auto e = std::make_unique<Expr>();
      e->line = line;
      e->kind = ExprKind::Concat;
      e->args.push_back(std::move(first));
      while (is(TokCode::Comma)) {
        take();
        e->args.push_back(parse_expr());
      }
      expect(TokCode::RBrace);
      return e;
    }
    if (peek().kind == TokKind::Number) {
      const Token& tok = take();
      const NumberValue nv = decode_number(tok.text, tok.line);
      auto e = std::make_unique<Expr>();
      e->line = tok.line;
      e->kind = ExprKind::Number;
      e->sized = nv.sized;
      std::vector<rtlil::State> bits;
      bits.reserve(nv.bits_lsb_first.size());
      for (char c : nv.bits_lsb_first)
        bits.push_back(rtlil::state_from_char(c));
      e->value = rtlil::Const(std::move(bits));
      return e;
    }
    if (peek().kind == TokKind::Ident) {
      const int line = peek().line;
      std::string name = take_text();
      // Parameters fold to numbers at parse time.
      auto it = params_.find(name);
      if (it != params_.end() && !is(TokCode::LBracket)) {
        auto e = std::make_unique<Expr>();
        e->line = line;
        e->kind = ExprKind::Number;
        e->sized = true;
        e->value = it->second;
        return e;
      }
      return parse_postfix(std::move(name), line);
    }
    error("unexpected token '" + peek().text + "' in expression");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  std::unordered_map<std::string, rtlil::Const> params_;
};

} // namespace

std::vector<ModuleAst> parse_verilog(const std::string& source) {
  std::vector<Token> tokens;
  {
    const obs::Span lex_span("verilog", "verilog.lex", "bytes", source.size());
    tokens = tokenize(source);
  }
  const obs::Span parse_span("verilog", "verilog.parse", "tokens", tokens.size());
  return Parser(std::move(tokens)).parse();
}

} // namespace smartly::verilog
