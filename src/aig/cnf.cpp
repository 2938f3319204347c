#include "aig/cnf.hpp"

#include <stdexcept>

namespace smartly::aig {

ConeCnfEncoder::~ConeCnfEncoder() {
  for (const uint32_t node : table_.touched)
    vars_[node] = kNoVar;
  table_.touched.clear();
  table_.encoded_inputs.clear();
}

sat::Var ConeCnfEncoder::var_of(uint32_t node) {
  if (!encoded(node)) {
    vars_[node] = solver_.new_var();
    table_.touched.push_back(node);
  }
  return vars_[node];
}

sat::Lit ConeCnfEncoder::lit(Lit aig_lit) const {
  const uint32_t node = lit_node(aig_lit);
  if (node >= vars_.size() || !encoded(node))
    throw std::out_of_range("ConeCnfEncoder::lit: AIG node not encoded");
  return sat::mk_lit(vars_[node], lit_compl(aig_lit));
}

sat::Lit ConeCnfEncoder::ensure(Lit aig_lit) {
  const uint32_t root = lit_node(aig_lit);
  if (vars_.size() < aig_.num_nodes())
    vars_.resize(aig_.num_nodes(), kNoVar);
  if (!encoded(root)) {
    // Iterative post-order: give every reachable unencoded node a variable,
    // then clause it once both fanins have theirs.
    std::vector<uint32_t>& stack = table_.stack;
    stack.clear();
    stack.push_back(root);
    while (!stack.empty()) {
      const uint32_t n = stack.back();
      if (encoded(n)) {
        stack.pop_back();
        continue;
      }
      if (n == 0) {
        solver_.add_clause(sat::mk_lit(var_of(0), true)); // constant false
        stack.pop_back();
        continue;
      }
      if (aig_.is_input(n)) {
        var_of(n);
        table_.encoded_inputs.push_back(n);
        stack.pop_back();
        continue;
      }
      const uint32_t f0 = lit_node(aig_.fanin0(n));
      const uint32_t f1 = lit_node(aig_.fanin1(n));
      const bool need0 = !encoded(f0);
      const bool need1 = !encoded(f1);
      if (need0 || need1) {
        if (need0)
          stack.push_back(f0);
        if (need1)
          stack.push_back(f1);
        continue;
      }
      const sat::Lit y = sat::mk_lit(var_of(n));
      const sat::Lit a = lit(aig_.fanin0(n));
      const sat::Lit b = lit(aig_.fanin1(n));
      solver_.add_clause(~y, a);
      solver_.add_clause(~y, b);
      solver_.add_clause(y, ~a, ~b);
      stack.pop_back();
    }
  }
  return lit(aig_lit);
}

} // namespace smartly::aig
