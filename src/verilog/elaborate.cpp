#include "verilog/elaborate.hpp"

#include "obs/trace.hpp"
#include "util/log.hpp"
#include "verilog/parse_error.hpp"
#include "verilog/parser.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace smartly::verilog {

namespace {

using rtlil::CellType;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;
using rtlil::Wire;

[[noreturn]] void elab_error(int line, const std::string& msg) {
  // The AST records lines but not columns; 0 means "whole line".
  throw ParseError("", line, 0, "verilog elaborate: " + msg);
}

/// Per-wire procedural values inside an always block.
using ProcEnv = std::unordered_map<Wire*, SigSpec>;

/// `s` zero-extended or truncated to `width` bits; no copy when it fits.
SigSpec fit(SigSpec s, int width) {
  if (s.size() != width)
    return s.extended(width, false);
  return s;
}

class Elaborator {
public:
  Elaborator(const ModuleAst& ast, Design& design) : ast_(ast), design_(design) {}

  Module* run() {
    module_ = design_.add_module(ast_.name);

    // Declarations (combine duplicate entries: `output reg [7:0] y` may be
    // declared once; ports listed in the header get their direction here).
    for (const Decl& d : ast_.decls) {
      Wire* w = module_->wire(d.name);
      if (!w) {
        w = module_->add_wire(d.name, decl_width(d));
        lsb_[w] = d.lsb;
      }
      if (d.dir == Dir::Input)
        module_->set_port_input(w);
      if (d.dir == Dir::Output)
        module_->set_port_output(w);
    }
    for (const std::string& p : ast_.port_order)
      if (!module_->has_wire(p))
        elab_error(0, "port '" + p + "' has no declaration");

    for (const auto& [lhs, rhs] : ast_.assigns) {
      const SigSpec target = eval_lvalue(*lhs);
      const SigSpec value =
          fit(eval_expr(*rhs, nullptr, target.size()), target.size());
      if (!direct_drive(target, value))
        module_->connect(target, value);
    }

    for (const AlwaysBlock& blk : ast_.always_blocks)
      elaborate_always(blk);

    module_->check();
    return module_;
  }

private:
  Wire* lookup(const std::string& name, int line) const {
    Wire* w = module_->wire(name);
    if (!w)
      elab_error(line, "unknown identifier '" + name + "'");
    return w;
  }

  int wire_lsb(Wire* w) const {
    auto it = lsb_.find(w);
    return it == lsb_.end() ? 0 : it->second;
  }

  // --- expressions ----------------------------------------------------------

  /// Read a wire's current value (procedural env first, then the net itself).
  SigSpec read_wire(Wire* w, const ProcEnv* env) const {
    if (env) {
      auto it = env->find(w);
      if (it != env->end())
        return it->second;
    }
    return SigSpec(w);
  }

  /// Drive `target` directly with the cell that produced `value`, when
  /// `value` is exactly the fresh $sig temp of the most recently added cell
  /// (i.e. the RHS was a single operator expression). Avoids the temp-wire +
  /// alias-connect pair a plain `connect(target, value)` would leave behind,
  /// which is what keeps write_verilog -> read_verilog round-trips
  /// name-stable: each `assign y = <op>` re-elaborates to the same cell
  /// driving the same named wire, so the recovery layer's name-hash unit ids
  /// (quarantine keys, fault units) survive repro-bundle replays.
  bool direct_drive(const SigSpec& target, const SigSpec& value) {
    if (value.size() != target.size() || value.empty() || !value[0].is_wire())
      return false;
    rtlil::Wire* w = value[0].wire;
    if (w->port_input || w->port_output || !value.is_wire())
      return false;
    if (w->name().rfind("$sig", 0) != 0)
      return false;
    if (module_->wires().empty() || module_->wires().back().get() != w)
      return false;
    if (module_->cells().empty())
      return false;
    rtlil::Cell* c = module_->cells().back().get();
    if (!c->has_port(rtlil::Port::Y) || !c->port(rtlil::Port::Y).is_wire() ||
        c->port(rtlil::Port::Y)[0].wire != w)
      return false;
    c->set_port(rtlil::Port::Y, target);
    module_->remove_wire(w);
    return true;
  }

  SigSpec to_bool(const SigSpec& s) {
    if (s.size() == 1)
      return s;
    return module_->add_unary(CellType::ReduceBool, s, 1);
  }

  /// Self-determined width of an expression (IEEE 1364 table 5-22 subset).
  /// Used to seed context-determined sizing: the width of `a + b` in an
  /// assignment is max(lhs width, self width of each operand), and that
  /// context width propagates down through width-transparent operators.
  int expr_self_width(const Expr& e) const {
    switch (e.kind) {
    case ExprKind::Number:
      return e.value.size();
    case ExprKind::Ident:
      return lookup(e.name, e.line)->width();
    case ExprKind::Unary:
      switch (e.uop) {
      case UnaryOp::Plus:
      case UnaryOp::Minus:
      case UnaryOp::BitNot:
        return expr_self_width(*e.args[0]);
      default:
        return 1; // reductions and logical not
      }
    case ExprKind::Binary:
      switch (e.bop) {
      case BinaryOp::Add: case BinaryOp::Sub: case BinaryOp::Mul:
      case BinaryOp::And: case BinaryOp::Or: case BinaryOp::Xor: case BinaryOp::Xnor:
        return std::max(expr_self_width(*e.args[0]), expr_self_width(*e.args[1]));
      case BinaryOp::Shl: case BinaryOp::Shr: case BinaryOp::Sshr:
        return expr_self_width(*e.args[0]);
      default:
        return 1; // comparisons and &&/||
      }
    case ExprKind::Ternary:
      return std::max(expr_self_width(*e.args[1]), expr_self_width(*e.args[2]));
    case ExprKind::Concat: {
      int w = 0;
      for (const ExprPtr& a : e.args)
        w += expr_self_width(*a);
      return w;
    }
    case ExprKind::Repeat:
      return e.repeat_count * expr_self_width(*e.args[0]);
    case ExprKind::Index:
      return 1;
    case ExprKind::Slice:
      return e.msb - e.lsb + 1;
    }
    elab_error(e.line, "bad expression kind");
  }

  /// Evaluate `e` in a `ctx`-bit context (0 = self-determined). The context
  /// width flows into width-transparent operators so e.g. an 8-bit + 8-bit
  /// addition assigned to a 9-bit net keeps its carry bit.
  SigSpec eval_expr(const Expr& e, const ProcEnv* env, int ctx = 0) {
    switch (e.kind) {
    case ExprKind::Number:
      return SigSpec(e.value);

    case ExprKind::Ident:
      return read_wire(lookup(e.name, e.line), env);

    case ExprKind::Unary: {
      switch (e.uop) {
      case UnaryOp::Plus:
        return eval_expr(*e.args[0], env, ctx);
      case UnaryOp::Minus: {
        const int w = std::max(ctx, expr_self_width(*e.args[0]));
        const SigSpec a = eval_expr(*e.args[0], env, w);
        return module_->add_unary(CellType::Neg, a, w);
      }
      case UnaryOp::BitNot: {
        const int w = std::max(ctx, expr_self_width(*e.args[0]));
        SigSpec a = eval_expr(*e.args[0], env, w);
        return module_->add_unary(CellType::Not, fit(std::move(a), w), w);
      }
      case UnaryOp::Not:
        return module_->add_unary(CellType::LogicNot, eval_expr(*e.args[0], env), 1);
      case UnaryOp::RedAnd:
        return module_->add_unary(CellType::ReduceAnd, eval_expr(*e.args[0], env), 1);
      case UnaryOp::RedOr:
        return module_->add_unary(CellType::ReduceOr, eval_expr(*e.args[0], env), 1);
      case UnaryOp::RedXor:
        return module_->add_unary(CellType::ReduceXor, eval_expr(*e.args[0], env), 1);
      case UnaryOp::RedXnor:
        return module_->add_unary(CellType::ReduceXnor, eval_expr(*e.args[0], env), 1);
      }
      elab_error(e.line, "bad unary op");
    }

    case ExprKind::Binary: {
      switch (e.bop) {
      case BinaryOp::Add: case BinaryOp::Sub: case BinaryOp::Mul:
      case BinaryOp::And: case BinaryOp::Or: case BinaryOp::Xor: case BinaryOp::Xnor: {
        const int w = std::max(ctx, expr_self_width(e));
        const SigSpec a = eval_expr(*e.args[0], env, w);
        const SigSpec b = eval_expr(*e.args[1], env, w);
        CellType t{};
        switch (e.bop) {
        case BinaryOp::Add: t = CellType::Add; break;
        case BinaryOp::Sub: t = CellType::Sub; break;
        case BinaryOp::Mul: t = CellType::Mul; break;
        case BinaryOp::And: t = CellType::And; break;
        case BinaryOp::Or: t = CellType::Or; break;
        case BinaryOp::Xor: t = CellType::Xor; break;
        default: t = CellType::Xnor; break;
        }
        return module_->add_binary(t, a, b, w);
      }
      case BinaryOp::Shl: case BinaryOp::Shr: case BinaryOp::Sshr: {
        // Left operand is context-sized; the shift amount is self-determined.
        const int w = std::max(ctx, expr_self_width(*e.args[0]));
        SigSpec a = eval_expr(*e.args[0], env, w);
        const SigSpec b = eval_expr(*e.args[1], env);
        const CellType t = e.bop == BinaryOp::Shl
                               ? CellType::Shl
                               : (e.bop == BinaryOp::Shr ? CellType::Shr : CellType::Sshr);
        return module_->add_binary(t, fit(std::move(a), w), b, w);
      }
      default: {
        // Comparisons and &&/||: operands sized among themselves only.
        const SigSpec a = eval_expr(*e.args[0], env);
        const SigSpec b = eval_expr(*e.args[1], env);
        CellType t{};
        switch (e.bop) {
        case BinaryOp::LogicAnd: t = CellType::LogicAnd; break;
        case BinaryOp::LogicOr: t = CellType::LogicOr; break;
        case BinaryOp::Eq: t = CellType::Eq; break;
        case BinaryOp::Ne: t = CellType::Ne; break;
        case BinaryOp::Lt: t = CellType::Lt; break;
        case BinaryOp::Le: t = CellType::Le; break;
        case BinaryOp::Gt: t = CellType::Gt; break;
        case BinaryOp::Ge: t = CellType::Ge; break;
        default: elab_error(e.line, "bad binary op");
        }
        return module_->add_binary(t, a, b, 1);
      }
      }
    }

    case ExprKind::Ternary: {
      const SigSpec cond = to_bool(eval_expr(*e.args[0], env));
      const int w = std::max({ctx, expr_self_width(*e.args[1]), expr_self_width(*e.args[2])});
      SigSpec t = eval_expr(*e.args[1], env, w);
      SigSpec f = eval_expr(*e.args[2], env, w);
      return module_->Mux(fit(std::move(f), w), fit(std::move(t), w), cond);
    }

    case ExprKind::Concat: {
      // Verilog {a, b}: `a` is the MSB part, so append from the last arg.
      SigSpec out;
      for (auto it = e.args.rbegin(); it != e.args.rend(); ++it)
        out.append(eval_expr(**it, env));
      return out;
    }

    case ExprKind::Repeat: {
      const SigSpec v = eval_expr(*e.args[0], env);
      SigSpec out;
      for (int i = 0; i < e.repeat_count; ++i)
        out.append(v);
      return out;
    }

    case ExprKind::Index: {
      Wire* w = lookup(e.name, e.line);
      const SigSpec base = read_wire(w, env);
      const Expr& idx = *e.args[0];
      if (idx.kind == ExprKind::Number) {
        const int i = static_cast<int>(idx.value.as_uint()) - wire_lsb(w);
        if (i < 0 || i >= base.size())
          elab_error(e.line, "bit index out of range on '" + e.name + "'");
        return SigSpec(base[i]);
      }
      // Variable index: (base >> idx)[0].
      const SigSpec shifted =
          module_->add_binary(CellType::Shr, base, eval_expr(idx, env), base.size());
      return shifted.extract(0, 1);
    }

    case ExprKind::Slice: {
      Wire* w = lookup(e.name, e.line);
      const SigSpec base = read_wire(w, env);
      const int lo = e.lsb - wire_lsb(w);
      const int hi = e.msb - wire_lsb(w);
      if (lo < 0 || hi >= base.size() || hi < lo)
        elab_error(e.line, "part-select out of range on '" + e.name + "'");
      return base.extract(lo, hi - lo + 1);
    }
    }
    elab_error(e.line, "bad expression kind");
  }

  /// Lvalue -> target bits (constant selects only).
  SigSpec eval_lvalue(const Expr& e) {
    switch (e.kind) {
    case ExprKind::Ident:
      return SigSpec(lookup(e.name, e.line));
    case ExprKind::Index: {
      Wire* w = lookup(e.name, e.line);
      if (e.args[0]->kind != ExprKind::Number)
        elab_error(e.line, "variable bit-select is not supported as an assignment target");
      const int i = static_cast<int>(e.args[0]->value.as_uint()) - wire_lsb(w);
      if (i < 0 || i >= w->width())
        elab_error(e.line, "bit index out of range on '" + e.name + "'");
      return SigSpec(w, i, 1);
    }
    case ExprKind::Slice: {
      Wire* w = lookup(e.name, e.line);
      const int lo = e.lsb - wire_lsb(w);
      const int hi = e.msb - wire_lsb(w);
      if (lo < 0 || hi >= w->width() || hi < lo)
        elab_error(e.line, "part-select out of range on '" + e.name + "'");
      return SigSpec(w, lo, hi - lo + 1);
    }
    case ExprKind::Concat: {
      SigSpec out;
      for (auto it = e.args.rbegin(); it != e.args.rend(); ++it)
        out.append(eval_lvalue(**it));
      return out;
    }
    default:
      elab_error(e.line, "unsupported assignment target");
    }
  }

  // --- procedural blocks -----------------------------------------------------

  /// Value of `w` at the current point: env entry, else x (comb) / Q (seq).
  SigSpec env_get(const ProcEnv& env, Wire* w, bool is_comb) const {
    auto it = env.find(w);
    if (it != env.end())
      return it->second;
    if (is_comb)
      return SigSpec(Const(std::vector<State>(static_cast<size_t>(w->width()), State::Sx)));
    return SigSpec(w);
  }

  void env_assign(ProcEnv& env, const SigSpec& target, const SigSpec& value, bool is_comb) {
    // Decompose the target into per-wire bit updates.
    int pos = 0;
    while (pos < target.size()) {
      const SigBit tb = target[pos];
      if (!tb.is_wire())
        elab_error(0, "assignment to constant bit");
      Wire* w = tb.wire;
      int run = 1;
      while (pos + run < target.size() && target[pos + run].is_wire() &&
             target[pos + run].wire == w)
        ++run;
      SigSpec cur = env_get(env, w, is_comb);
      for (int k = 0; k < run; ++k)
        cur[target[pos + k].offset] = value[pos + k];
      env[w] = cur;
      pos += run;
    }
  }

  void exec_stmt(const Stmt& s, ProcEnv& env, bool is_comb) {
    switch (s.kind) {
    case StmtKind::Block:
      for (const StmtPtr& sub : s.stmts)
        exec_stmt(*sub, env, is_comb);
      return;

    case StmtKind::Assign: {
      const SigSpec target = eval_lvalue(*s.lhs);
      const SigSpec value =
          fit(eval_expr(*s.rhs, &env, target.size()), target.size());
      env_assign(env, target, value, is_comb);
      return;
    }

    case StmtKind::If: {
      const SigSpec cond = to_bool(eval_expr(*s.cond, &env));
      ProcEnv then_env = env;
      exec_stmt(*s.then_stmt, then_env, is_comb);
      ProcEnv else_env = env;
      if (s.else_stmt)
        exec_stmt(*s.else_stmt, else_env, is_comb);
      merge_two(env, then_env, else_env, cond, is_comb);
      return;
    }

    case StmtKind::Case: {
      const SigSpec sel = eval_expr(*s.cond, &env);

      // Evaluate every item body against a copy of the current env and
      // compute its match condition.
      struct Arm {
        SigSpec match; ///< 1-bit; empty for default
        ProcEnv env;
        bool is_default = false;
      };
      std::vector<Arm> arms;
      bool saw_default = false;
      for (const CaseItem& item : s.items) {
        Arm arm;
        arm.is_default = item.is_default;
        if (!item.is_default)
          arm.match = case_match(sel, item.labels, s.is_casez, s.line);
        arm.env = env;
        exec_stmt(*item.body, arm.env, is_comb);
        arms.push_back(std::move(arm));
        if (item.is_default) {
          saw_default = true;
          break; // anything after default is unreachable
        }
      }

      // Collect the set of assigned wires across all arms.
      std::unordered_set<Wire*> targets;
      for (const Arm& arm : arms)
        for (const auto& [w, v] : arm.env)
          targets.insert(w);

      // Priority chain, first match wins: fold from the last arm inward.
      for (Wire* w : targets) {
        SigSpec acc = saw_default ? env_get(arms.back().env, w, is_comb)
                                  : env_get(env, w, is_comb);
        const size_t n = arms.size() - (saw_default ? 1 : 0);
        for (size_t i = n; i-- > 0;) {
          const SigSpec v = env_get(arms[i].env, w, is_comb);
          if (v == acc)
            continue;
          acc = module_->Mux(acc, v, arms[i].match);
        }
        env[w] = acc;
      }
      return;
    }
    }
  }

  /// match = OR over labels; casez labels compare only non-z positions.
  SigSpec case_match(const SigSpec& sel, const std::vector<ExprPtr>& labels, bool casez,
                     int line) {
    SigSpec result;
    for (const ExprPtr& label : labels) {
      SigSpec one;
      if (label->kind == ExprKind::Number &&
          (casez || !label->value.is_fully_def())) {
        // Compare only positions where the label bit is 0/1.
        const Const& lv = label->value;
        SigSpec sel_bits, const_bits;
        for (int i = 0; i < sel.size(); ++i) {
          const State st = i < lv.size() ? lv[i] : State::S0;
          if (st == State::Sz || st == State::Sx)
            continue; // wildcard position
          sel_bits.append(sel[i]);
          const_bits.append(SigBit(st));
        }
        if (sel_bits.empty())
          one = SigSpec(State::S1); // all-wildcard label always matches
        else
          one = module_->Eq(sel_bits, const_bits);
      } else {
        const SigSpec lv = fit(eval_expr(*label, nullptr), sel.size());
        one = module_->Eq(sel, lv);
      }
      if (result.empty())
        result = one;
      else
        result = module_->LogicOr(result, one);
    }
    if (result.empty())
      elab_error(line, "case item with no labels");
    return result;
  }

  void merge_two(ProcEnv& base, const ProcEnv& then_env, const ProcEnv& else_env,
                 const SigSpec& cond, bool is_comb) {
    std::unordered_set<Wire*> targets;
    for (const auto& [w, v] : then_env)
      targets.insert(w);
    for (const auto& [w, v] : else_env)
      targets.insert(w);
    for (Wire* w : targets) {
      const SigSpec tv = env_get(then_env, w, is_comb);
      const SigSpec ev = env_get(else_env, w, is_comb);
      if (tv == ev) {
        base[w] = tv;
        continue;
      }
      base[w] = module_->Mux(ev, tv, cond);
    }
  }

  void elaborate_always(const AlwaysBlock& blk) {
    ProcEnv env;
    exec_stmt(*blk.body, env, blk.is_comb);
    if (blk.is_comb) {
      for (const auto& [w, v] : env)
        module_->connect(SigSpec(w), v);
    } else {
      Wire* clk = lookup(blk.clock, blk.line);
      for (const auto& [w, v] : env)
        module_->add_dff(v, SigSpec(w), SigSpec(clk, 0, 1));
    }
  }

  const ModuleAst& ast_;
  Design& design_;
  Module* module_ = nullptr;
  std::unordered_map<const Wire*, int> lsb_;
};

} // namespace

rtlil::Module* elaborate(const ModuleAst& ast, Design& design) {
  return Elaborator(ast, design).run();
}

std::unique_ptr<Design> read_verilog(const std::string& source, const std::string& filename) {
  const obs::Span read_span("verilog", "verilog.read");
  try {
    auto design = std::make_unique<Design>();
    const std::vector<ModuleAst> asts = parse_verilog(source);
    const obs::Span elaborate_span("verilog", "verilog.elaborate");
    for (const ModuleAst& ast : asts)
      elaborate(ast, *design);
    return design;
  } catch (const ParseError& e) {
    if (!filename.empty() && e.file().empty())
      throw e.with_file(filename);
    throw;
  }
}

} // namespace smartly::verilog
