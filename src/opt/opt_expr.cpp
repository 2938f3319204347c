#include "opt/opt_expr.hpp"

#include "obs/trace.hpp"
#include "rtlil/sigmap.hpp"
#include "sim/eval.hpp"
#include "util/log.hpp"

#include <vector>

namespace smartly::opt {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Const;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

bool all_const_inputs(const Cell& cell, const rtlil::SigMap& sigmap) {
  for (Port p : cell.input_ports())
    for (const SigBit& bit : cell.port(p))
      if (sigmap(bit).is_wire())
        return false;
  return true;
}

/// Is the signal entirely constant zeros (x/z count as not-zero)?
bool is_all_zero(const SigSpec& s) {
  for (const SigBit& b : s)
    if (b.is_wire() || b.data != State::S0)
      return false;
  return true;
}

bool is_all_one(const SigSpec& s) {
  for (const SigBit& b : s)
    if (b.is_wire() || b.data != State::S1)
      return false;
  return true;
}

} // namespace

OptExprStats opt_expr(Module& module) {
  const obs::Span span("opt", "opt.opt_expr");
  OptExprStats stats;

  for (bool changed = true; changed;) {
    changed = false;
    // An iteration reads the map as it stood at its start: its connects are
    // buffered and applied in order when it ends. It visits the cells that
    // existed at its start, by index, since add_cell may move the cell list.
    const rtlil::SigMap& sigmap = module.sigmap();
    std::vector<std::pair<SigSpec, SigSpec>> connects;
    const auto connect_later = [&connects](const SigSpec& lhs, const SigSpec& rhs) {
      connects.emplace_back(lhs, rhs);
    };
    std::vector<Cell*> dead;

    const size_t cell_count = module.cells().size();
    for (size_t ci = 0; ci < cell_count; ++ci) {
      Cell* cell = module.cells()[ci].get();
      if (cell->type() == CellType::Dff)
        continue;

      // --- full constant fold ------------------------------------------
      if (all_const_inputs(*cell, sigmap)) {
        auto read = [&](Port p) { return sigmap(cell->port(p)).as_const(); };
        const Const y = sim::eval_cell(*cell, read);
        connect_later(cell->port(cell->output_port()),
                      SigSpec(y).extended(cell->port(cell->output_port()).size(), false));
        dead.push_back(cell);
        ++stats.folded_cells;
        changed = true;
        continue;
      }

      // --- mux simplifications ------------------------------------------
      if (cell->type() == CellType::Mux) {
        const SigSpec s = sigmap(cell->port(Port::S));
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        if (s.is_fully_const()) {
          const State sv = s.as_const()[0];
          const SigSpec& pick = (sv == State::S1) ? b : a; // x select -> A (x→0 policy)
          connect_later(cell->port(Port::Y), pick);
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
        if (a == b) {
          connect_later(cell->port(Port::Y), a);
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
        // 1-bit mux with constant data: Y = S / ~S.
        if (cell->params().width == 1 && a.is_fully_const() && b.is_fully_const() &&
            a.is_fully_def() && b.is_fully_def()) {
          const bool av = a.as_const().as_bool();
          const bool bv = b.as_const().as_bool();
          if (!av && bv) {
            connect_later(cell->port(Port::Y), s);
          } else {
            Cell* inv = module.add_cell(CellType::Not);
            inv->set_port(Port::A, s);
            inv->set_port(Port::Y, cell->port(Port::Y));
            inv->infer_widths();
          }
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
      }

      // --- pmux simplifications ------------------------------------------
      if (cell->type() == CellType::Pmux) {
        const SigSpec s = sigmap(cell->port(Port::S));
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        const int width = cell->params().width;

        // Drop branches with constant-0 select; stop at a constant-1 select.
        SigSpec new_s, new_b;
        bool mutated = false;
        bool terminated = false; // a const-1 select becomes the new default
        SigSpec new_a = a;
        for (int i = 0; i < s.size() && !terminated; ++i) {
          const SigBit sb = s[i];
          if (sb.is_const()) {
            if (sb.data == State::S1) {
              new_a = b.extract(i * width, width);
              terminated = true;
              mutated = true;
              continue;
            }
            mutated = true; // drop dead branch (0 or x select)
            continue;
          }
          new_s.append(sb);
          new_b.append(b.extract(i * width, width));
        }
        if (mutated) {
          if (new_s.empty()) {
            connect_later(cell->port(Port::Y), new_a);
            dead.push_back(cell);
          } else if (new_s.size() == 1) {
            Cell* mux = module.add_cell(CellType::Mux);
            mux->set_port(Port::A, new_a);
            mux->set_port(Port::B, new_b);
            mux->set_port(Port::S, new_s);
            mux->set_port(Port::Y, cell->port(Port::Y));
            mux->infer_widths();
            dead.push_back(cell);
          } else {
            cell->set_port(Port::A, new_a);
            cell->set_port(Port::B, new_b);
            cell->set_port(Port::S, new_s);
            cell->infer_widths();
          }
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
      }

      // --- and/or identities ---------------------------------------------
      if (cell->type() == CellType::And || cell->type() == CellType::Or) {
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        const int yw = cell->params().y_width;
        const SigSpec ax = a.extended(yw, cell->params().a_signed);
        const SigSpec bx = b.extended(yw, cell->params().b_signed);
        SigSpec repl;
        if (cell->type() == CellType::And) {
          if (is_all_zero(ax) || is_all_zero(bx))
            repl = SigSpec(Const(0, yw));
          else if (is_all_one(ax))
            repl = bx;
          else if (is_all_one(bx))
            repl = ax;
          else if (ax == bx)
            repl = ax;
        } else {
          if (is_all_one(ax) || is_all_one(bx))
            repl = rtlil::sig_repeat(SigBit(State::S1), yw);
          else if (is_all_zero(ax))
            repl = bx;
          else if (is_all_zero(bx))
            repl = ax;
          else if (ax == bx)
            repl = ax;
        }
        if (!repl.empty()) {
          connect_later(cell->port(Port::Y), repl);
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
      }

      // --- xor/xnor identities ---------------------------------------------
      if (cell->type() == CellType::Xor || cell->type() == CellType::Xnor) {
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        const int yw = cell->params().y_width;
        const SigSpec ax = a.extended(yw, cell->params().a_signed);
        const SigSpec bx = b.extended(yw, cell->params().b_signed);
        const bool is_xor = cell->type() == CellType::Xor;
        SigSpec repl;
        bool invert = false;
        if (ax == bx) {
          repl = is_xor ? SigSpec(Const(0, yw)) : rtlil::sig_repeat(SigBit(State::S1), yw);
        } else if (is_all_zero(ax)) {
          repl = bx;
          invert = !is_xor;
        } else if (is_all_zero(bx)) {
          repl = ax;
          invert = !is_xor;
        } else if (is_all_one(ax)) {
          repl = bx;
          invert = is_xor;
        } else if (is_all_one(bx)) {
          repl = ax;
          invert = is_xor;
        }
        if (!repl.empty()) {
          if (invert) {
            Cell* inv = module.add_cell(CellType::Not);
            inv->set_port(Port::A, repl);
            inv->set_port(Port::Y, cell->port(Port::Y));
            inv->infer_widths();
          } else {
            connect_later(cell->port(Port::Y), repl);
          }
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
      }

      // --- add/sub identities ------------------------------------------------
      if (cell->type() == CellType::Add || cell->type() == CellType::Sub) {
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        const int yw = cell->params().y_width;
        // Width-safe only when no extension is needed for the kept operand.
        SigSpec repl;
        if (cell->type() == CellType::Sub && a == b) {
          repl = SigSpec(Const(0, yw));
        } else if (is_all_zero(b.extended(yw, false)) && a.size() >= yw) {
          repl = a.extract(0, yw);
        } else if (cell->type() == CellType::Add && is_all_zero(a.extended(yw, false)) &&
                   b.size() >= yw) {
          repl = b.extract(0, yw);
        }
        if (!repl.empty()) {
          connect_later(cell->port(Port::Y), repl);
          dead.push_back(cell);
          ++stats.simplified_cells;
          changed = true;
          continue;
        }
      }

      // --- trivial comparisons ---------------------------------------------
      if (cell->type() == CellType::Eq || cell->type() == CellType::Ne) {
        const SigSpec a = sigmap(cell->port(Port::A));
        const SigSpec b = sigmap(cell->port(Port::B));
        if (a == b && a.size() == b.size() && !a.is_fully_const()) {
          bool has_const_x = false;
          for (const SigBit& bit : a)
            if (bit.is_const() && !rtlil::state_is_def(bit.data))
              has_const_x = true;
          if (!has_const_x) {
            const int yw = cell->params().y_width;
            connect_later(cell->port(Port::Y),
                          SigSpec(Const(cell->type() == CellType::Eq ? 1 : 0, yw)));
            dead.push_back(cell);
            ++stats.simplified_cells;
            changed = true;
            continue;
          }
        }
      }
    }

    for (const auto& [lhs, rhs] : connects)
      module.connect(lhs, rhs);
    module.remove_cells(dead);
  }
  return stats;
}

} // namespace smartly::opt
