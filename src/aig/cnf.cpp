#include "aig/cnf.hpp"

namespace smartly::aig {

sat::Var ConeCnfEncoder::var_of(uint32_t node) {
  auto it = vars_.find(node);
  if (it != vars_.end())
    return it->second;
  const sat::Var v = solver_.new_var();
  vars_.emplace(node, v);
  return v;
}

sat::Lit ConeCnfEncoder::ensure(Lit aig_lit) {
  const uint32_t root = lit_node(aig_lit);
  if (!vars_.count(root)) {
    // Iterative post-order: give every reachable unencoded node a variable,
    // then clause it once both fanins have theirs.
    stack_.clear();
    stack_.push_back(root);
    while (!stack_.empty()) {
      const uint32_t n = stack_.back();
      if (vars_.count(n)) {
        stack_.pop_back();
        continue;
      }
      if (n == 0) {
        solver_.add_clause(sat::mk_lit(var_of(0), true)); // constant false
        stack_.pop_back();
        continue;
      }
      if (aig_.is_input(n)) {
        var_of(n);
        encoded_inputs_.push_back(n);
        stack_.pop_back();
        continue;
      }
      const uint32_t f0 = lit_node(aig_.fanin0(n));
      const uint32_t f1 = lit_node(aig_.fanin1(n));
      const bool need0 = !vars_.count(f0);
      const bool need1 = !vars_.count(f1);
      if (need0 || need1) {
        if (need0)
          stack_.push_back(f0);
        if (need1)
          stack_.push_back(f1);
        continue;
      }
      const sat::Lit y = sat::mk_lit(var_of(n));
      const sat::Lit a = lit(aig_.fanin0(n));
      const sat::Lit b = lit(aig_.fanin1(n));
      solver_.add_clause(~y, a);
      solver_.add_clause(~y, b);
      solver_.add_clause(y, ~a, ~b);
      stack_.pop_back();
    }
  }
  return lit(aig_lit);
}

} // namespace smartly::aig
