#include "backend/write_verilog.hpp"

#include "obs/trace.hpp"
#include "util/log.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace smartly::backend {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Const;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;
using rtlil::Wire;

namespace {

const std::unordered_set<std::string>& verilog_keywords() {
  static const std::unordered_set<std::string> kw = {
      "module", "endmodule", "input",  "output", "inout",    "wire",   "reg",
      "assign", "always",    "begin",  "end",    "if",       "else",   "case",
      "casez",  "casex",     "endcase", "default", "posedge", "negedge", "parameter",
      "localparam", "signed", "integer", "function", "endfunction", "for", "while"};
  return kw;
}

// Matches the front end's identifier set (lexer.cpp is_ident_*), which
// includes '$' — so machine-generated names like $sig$5 round-trip verbatim
// instead of being renamed. Name preservation is what keeps the recovery
// layer's name-hash unit ids (quarantine keys, fault units) stable when a
// repro bundle's design.v is re-read for --replay.
bool is_clean_identifier(const std::string& s) {
  if (s.empty() || verilog_keywords().count(s))
    return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' || s[0] == '$'))
    return false;
  for (char c : s)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$'))
      return false;
  return true;
}

class Writer {
public:
  explicit Writer(const Module& module) : module_(module) { assign_names(); }

  std::string run() {
    std::ostringstream body;
    emit_connections(body);
    emit_cells(body);

    std::ostringstream out;
    emit_header(out);
    out << decls_.str();
    out << body.str();
    out << "endmodule\n";
    return out.str();
  }

private:
  void assign_names() {
    std::unordered_set<std::string> used;
    uint64_t counter = 0;
    for (const auto& w : module_.wires()) {
      std::string name = w->name();
      if (!is_clean_identifier(name) || used.count(name)) {
        do {
          name = "gen_" + std::to_string(counter++);
        } while (used.count(name));
      }
      used.insert(name);
      names_.emplace(w.get(), std::move(name));
    }
  }

  const std::string& name_of(const Wire* w) const { return names_.at(w); }

  /// Fresh helper wire declared in the output text (not added to the module).
  std::string fresh_wire(int width, bool as_reg) {
    const std::string name = "bk_" + std::to_string(fresh_counter_++);
    decls_ << "  " << (as_reg ? "reg " : "wire ") << range(width) << name << ";\n";
    return name;
  }

  static std::string range(int width) {
    return width == 1 ? "" : "[" + std::to_string(width - 1) + ":0] ";
  }

  static std::string const_literal(const Const& c) {
    std::string bits = c.to_string(); // MSB first
    return std::to_string(c.size()) + "'b" + bits;
  }

  /// Render a SigSpec as a Verilog expression (concatenation of coalesced
  /// wire slices and constant literals, MSB first).
  std::string sig_expr(const SigSpec& sig) const {
    if (sig.empty())
      return "1'b0"; // never expected on connected ports
    struct Chunk {
      const Wire* wire = nullptr;
      int lo = 0, len = 0;      // wire chunk
      std::vector<State> bits;  // constant chunk
    };
    std::vector<Chunk> chunks;
    for (const SigBit& b : sig) {
      if (b.is_wire()) {
        if (!chunks.empty() && chunks.back().wire == b.wire &&
            chunks.back().lo + chunks.back().len == b.offset) {
          ++chunks.back().len;
        } else {
          chunks.push_back({b.wire, b.offset, 1, {}});
        }
      } else {
        if (!chunks.empty() && !chunks.back().wire)
          chunks.back().bits.push_back(b.data);
        else
          chunks.push_back({nullptr, 0, 0, {b.data}});
      }
    }
    std::vector<std::string> parts; // built LSB-first, emitted reversed
    for (const Chunk& ch : chunks) {
      if (ch.wire) {
        if (ch.lo == 0 && ch.len == ch.wire->width())
          parts.push_back(name_of(ch.wire));
        else if (ch.len == 1)
          parts.push_back(name_of(ch.wire) + "[" + std::to_string(ch.lo) + "]");
        else
          parts.push_back(name_of(ch.wire) + "[" + std::to_string(ch.lo + ch.len - 1) +
                          ":" + std::to_string(ch.lo) + "]");
      } else {
        parts.push_back(const_literal(Const(ch.bits)));
      }
    }
    if (parts.size() == 1)
      return parts[0];
    std::string out = "{";
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (it != parts.rbegin())
        out += ", ";
      out += *it;
    }
    return out + "}";
  }

  /// Extend/truncate an operand to `width` structurally: sign extension is
  /// emitted as replicated MSB *bits* in a concatenation, so the frontend
  /// (which is unsigned-only) reproduces signed cell semantics exactly.
  std::string sized(const SigSpec& sig, int width, bool is_signed = false) {
    if (sig.size() == width)
      return sig_expr(sig);
    SigSpec adj = sig.extended(width, is_signed);
    return sig_expr(adj);
  }

  void emit_header(std::ostringstream& out) {
    out << "module " << module_.name() << "(";
    bool first = true;
    for (const Wire* p : module_.ports()) {
      if (!first)
        out << ", ";
      first = false;
      out << name_of(p);
    }
    out << ");\n";
  }

  void declare_all() {
    for (const auto& w : module_.wires()) {
      const bool is_reg = reg_wires_.count(w.get()) != 0;
      std::string kind;
      if (w->port_input)
        kind = "input ";
      else if (w->port_output)
        kind = is_reg ? "output reg " : "output ";
      else
        kind = is_reg ? "reg " : "wire ";
      decls_ << "  " << kind << range(w->width()) << name_of(w.get()) << ";\n";
    }
  }

  void emit_connections(std::ostringstream& out) {
    // Mark dff-driven wires as regs first (declarations need it).
    for (const auto& c : module_.cells())
      if (c->type() == CellType::Dff)
        for (const SigBit& b : c->port(Port::Q))
          if (b.is_wire())
            reg_wires_.insert(b.wire);
    declare_all();

    for (const auto& [lhs, rhs] : module_.connections())
      out << "  assign " << sig_expr(lhs) << " = " << sized(rhs, lhs.size()) << ";\n";
  }

  std::string unary_expr(const Cell& c) {
    const SigSpec& a = c.port(Port::A);
    const bool sa = c.params().a_signed;
    const int yw = c.params().y_width;
    switch (c.type()) {
    case CellType::Not: return "~" + sized(a, yw, sa);
    case CellType::Pos: return sized(a, yw, sa);
    case CellType::Neg: return "(-" + sized(a, yw, sa) + ")";
    case CellType::ReduceAnd: return "(&" + sig_expr(a) + ")";
    case CellType::ReduceOr:
    case CellType::ReduceBool: return "(|" + sig_expr(a) + ")";
    case CellType::ReduceXor: return "(^" + sig_expr(a) + ")";
    case CellType::ReduceXnor: return "(~^" + sig_expr(a) + ")";
    case CellType::LogicNot: return "(!" + sig_expr(a) + ")";
    default: break;
    }
    throw std::logic_error("write_verilog: bad unary cell");
  }

  std::string binary_expr(const Cell& c) {
    const SigSpec& a = c.port(Port::A);
    const SigSpec& b = c.port(Port::B);
    const bool sa = c.params().a_signed;
    const bool sb = c.params().b_signed;
    const int yw = c.params().y_width;
    const int w = std::max({a.size(), b.size(), yw});
    auto bin = [&](const char* op) {
      return "(" + sized(a, w, sa) + " " + op + " " + sized(b, w, sb) + ")";
    };
    // Ordered comparisons are signed iff both operands are (matching the
    // evaluator). The frontend is unsigned-only, so signed order is emitted
    // with the bias trick: slt(a, b) == ult(a ^ MSB, b ^ MSB).
    auto cmp = [&](const char* op) {
      const int cw = std::max(a.size(), b.size());
      std::string ax = sized(a, cw, sa);
      std::string bx = sized(b, cw, sb);
      if (sa && sb) {
        const std::string bias =
            std::to_string(cw) + "'b1" + std::string(static_cast<size_t>(cw - 1), '0');
        ax = "(" + ax + " ^ " + bias + ")";
        bx = "(" + bx + " ^ " + bias + ")";
      }
      return "(" + ax + " " + op + " " + bx + ")";
    };
    // Equality is bit-precise after extension; no bias needed.
    auto eq = [&](const char* op) {
      const int cw = std::max(a.size(), b.size());
      return "(" + sized(a, cw, sa) + " " + op + " " + sized(b, cw, sb) + ")";
    };
    switch (c.type()) {
    case CellType::And: return bin("&");
    case CellType::Or: return bin("|");
    case CellType::Xor: return bin("^");
    case CellType::Xnor: return bin("~^");
    case CellType::Add: return bin("+");
    case CellType::Sub: return bin("-");
    case CellType::Mul: return bin("*");
    case CellType::Shl:
      return "(" + sized(a, std::max(a.size(), yw), sa) + " << " + sig_expr(b) + ")";
    case CellType::Shr:
      return "(" + sized(a, std::max(a.size(), yw), sa) + " >> " + sig_expr(b) + ")";
    case CellType::Sshr: {
      // Arithmetic shift: pre-extend by the worst-case shift so the sign
      // bits are materialized, then shift logically. Bounded because the
      // amount port is narrow in practice; refuse pathological widths.
      if (b.size() > 16)
        throw std::logic_error("write_verilog: sshr amount too wide to materialize");
      const int aw = std::max(a.size(), yw);
      const int ext = aw + (b.size() >= 12 ? 4096 : (1 << b.size())) - 1;
      return "(" + sized(a, ext, sa) + " >> " + sig_expr(b) + ")";
    }
    case CellType::Lt: return cmp("<");
    case CellType::Le: return cmp("<=");
    case CellType::Eq: return eq("==");
    case CellType::Ne: return eq("!=");
    case CellType::Ge: return cmp(">=");
    case CellType::Gt: return cmp(">");
    // 1-bit operands skip the (|...) wrap — same round-trip reasoning as Mux
    // selects: && / || re-elaborate to one LogicAnd/LogicOr cell over the
    // operands, so the wrap would add ReduceOr cells the original never had.
    case CellType::LogicAnd:
      return "(" + (a.size() == 1 ? sig_expr(a) : "(|" + sig_expr(a) + ")") + " && " +
             (b.size() == 1 ? sig_expr(b) : "(|" + sig_expr(b) + ")") + ")";
    case CellType::LogicOr:
      return "(" + (a.size() == 1 ? sig_expr(a) : "(|" + sig_expr(a) + ")") + " || " +
             (b.size() == 1 ? sig_expr(b) : "(|" + sig_expr(b) + ")") + ")";
    default: break;
    }
    throw std::logic_error("write_verilog: bad binary cell");
  }

  void emit_cells(std::ostringstream& out) {
    for (const auto& cptr : module_.cells()) {
      const Cell& c = *cptr;
      switch (c.type()) {
      case CellType::Mux: {
        // 1-bit selects (the RTLIL invariant) are emitted bare: a defensive
        // (|s) wrap would re-elaborate into an extra ReduceOr cell and break
        // the name-stable round-trip repro bundles depend on.
        const SigSpec& s = c.port(Port::S);
        const std::string sel = s.size() == 1 ? sig_expr(s) : "(|" + sig_expr(s) + ")";
        out << "  assign " << sig_expr(c.port(Port::Y)) << " = " << sel << " ? "
            << sig_expr(c.port(Port::B)) << " : " << sig_expr(c.port(Port::A)) << ";\n";
        continue;
      }
      case CellType::Pmux: {
        // Lowest set select bit wins: s[0] ? B0 : (s[1] ? B1 : ... : A).
        const SigSpec& s = c.port(Port::S);
        const SigSpec& b = c.port(Port::B);
        const int w = c.params().width;
        std::string expr = sig_expr(c.port(Port::A));
        for (int i = s.size() - 1; i >= 0; --i) {
          expr = "(" + sig_expr(SigSpec(s[i])) + " ? " + sig_expr(b.extract(i * w, w)) +
                 " : " + expr + ")";
        }
        out << "  assign " << sig_expr(c.port(Port::Y)) << " = " << expr << ";\n";
        continue;
      }
      case CellType::Dff: {
        // The parser only accepts @(posedge IDENT): materialize the clock as
        // a plain 1-bit wire when it is not one already.
        const SigSpec& clk = c.port(Port::Clk);
        std::string clk_name;
        if (clk.size() == 1 && clk[0].is_wire() && clk[0].offset == 0 &&
            clk[0].wire->width() == 1) {
          clk_name = name_of(clk[0].wire);
        } else {
          clk_name = fresh_wire(1, false);
          out << "  assign " << clk_name << " = " << sig_expr(clk) << ";\n";
        }
        out << "  always @(posedge " << clk_name << ") " << sig_expr(c.port(Port::Q))
            << " <= " << sized(c.port(Port::D), c.port(Port::Q).size()) << ";\n";
        continue;
      }
      default:
        break;
      }
      const std::string expr =
          rtlil::cell_is_unary(c.type()) ? unary_expr(c) : binary_expr(c);
      const SigSpec& y = c.port(Port::Y);
      // Wide expression truncated by assignment width is exactly the cell's
      // extend-compute-truncate semantics under our frontend's context rule.
      out << "  assign " << sig_expr(y) << " = " << expr << ";\n";
    }
  }

  const Module& module_;
  std::unordered_map<const Wire*, std::string> names_;
  std::unordered_set<const Wire*> reg_wires_;
  std::ostringstream decls_;
  uint64_t fresh_counter_ = 0;
};

} // namespace

std::string write_verilog(const Module& module) {
  const obs::Span span("backend", "backend.write_verilog");
  return Writer(module).run();
}

std::string write_verilog(const rtlil::Design& design) {
  std::string out;
  for (const auto& m : design.modules()) {
    out += write_verilog(*m);
    out += "\n";
  }
  return out;
}

} // namespace smartly::backend
