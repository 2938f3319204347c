#include "backend/write_rtlil.hpp"

#include "obs/trace.hpp"

#include <sstream>

namespace smartly::backend {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::Module;
using rtlil::Port;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::State;

namespace {

void render_sig(std::ostringstream& out, const SigSpec& sig) {
  // Compact rendering: coalesced wire slices and constants, MSB first.
  struct Chunk {
    const rtlil::Wire* wire = nullptr;
    int lo = 0, len = 0;
    std::string const_bits; // MSB-first while building reversed below
  };
  std::vector<Chunk> chunks;
  for (const SigBit& b : sig) {
    if (b.is_wire()) {
      if (!chunks.empty() && chunks.back().wire == b.wire &&
          chunks.back().lo + chunks.back().len == b.offset)
        ++chunks.back().len;
      else
        chunks.push_back({b.wire, b.offset, 1, {}});
    } else {
      if (!chunks.empty() && !chunks.back().wire)
        chunks.back().const_bits.push_back(rtlil::state_to_char(b.data));
      else
        chunks.push_back({nullptr, 0, 0, std::string(1, rtlil::state_to_char(b.data))});
    }
  }
  if (chunks.size() > 1)
    out << "{ ";
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
    if (it != chunks.rbegin())
      out << " ";
    if (it->wire) {
      out << it->wire->name();
      if (!(it->lo == 0 && it->len == it->wire->width())) {
        if (it->len == 1)
          out << " [" << it->lo << "]";
        else
          out << " [" << (it->lo + it->len - 1) << ":" << it->lo << "]";
      }
    } else {
      std::string bits = it->const_bits;
      out << bits.size() << "'" << std::string(bits.rbegin(), bits.rend());
    }
  }
  if (chunks.size() > 1)
    out << " }";
}

} // namespace

std::string write_rtlil(const Module& module) {
  const obs::Span span("backend", "backend.write_rtlil");
  std::ostringstream out;
  out << "module " << module.name() << "\n";
  for (const auto& w : module.wires()) {
    out << "  wire ";
    if (w->width() != 1)
      out << "width " << w->width() << " ";
    if (w->port_input)
      out << "input " << w->port_id << " ";
    if (w->port_output)
      out << "output " << w->port_id << " ";
    out << w->name() << "\n";
  }
  for (const auto& c : module.cells()) {
    out << "  cell " << rtlil::cell_type_name(c->type()) << " " << c->name() << "\n";
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (!c->has_port(p))
        continue;
      out << "    connect \\" << rtlil::port_name(p) << " ";
      render_sig(out, c->port(p));
      out << "\n";
    }
  }
  for (const auto& [lhs, rhs] : module.connections()) {
    out << "  connect ";
    render_sig(out, lhs);
    out << " = ";
    render_sig(out, rhs);
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

std::string write_rtlil(const rtlil::Design& design) {
  std::string out;
  for (const auto& m : design.modules())
    out += write_rtlil(*m);
  return out;
}

} // namespace smartly::backend
