#include "aig/aig.hpp"

#include <algorithm>

namespace smartly::aig {

Aig::Aig() : strash_(16, 0) {
  nodes_.push_back(Node{0, 0}); // node 0: constant false (fanins unused)
}

Lit Aig::add_input() {
  const uint32_t node = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{}); // kInputMark fanins
  inputs_.push_back(node);
  return mk_lit(node);
}

Lit Aig::add_input(std::string name) {
  const Lit l = add_input();
  if (!name.empty()) {
    input_names_.resize(inputs_.size());
    input_names_.back() = std::move(name);
  }
  return l;
}

int Aig::add_output(Lit l) {
  outputs_.push_back(l);
  return static_cast<int>(outputs_.size()) - 1;
}

int Aig::add_output(Lit l, std::string name) {
  const int i = add_output(l);
  if (!name.empty()) {
    output_names_.resize(outputs_.size());
    output_names_.back() = std::move(name);
  }
  return i;
}

std::string Aig::input_name(int i) const {
  const size_t k = static_cast<size_t>(i);
  if (k < input_names_.size() && !input_names_[k].empty())
    return input_names_[k];
  return "i" + std::to_string(k);
}

std::string Aig::output_name(int i) const {
  const size_t k = static_cast<size_t>(i);
  if (k < output_names_.size() && !output_names_[k].empty())
    return output_names_[k];
  return "o" + std::to_string(k);
}

void Aig::reserve(size_t ands, size_t inputs) {
  nodes_.reserve(nodes_.size() + inputs + ands);
  inputs_.reserve(inputs_.size() + inputs);
  size_t size = strash_.size();
  while (size < 2 * (num_ands_ + ands))
    size *= 2;
  if (size != strash_.size())
    strash_rehash(size);
}

size_t Aig::strash_slot(Lit a, Lit b) const noexcept {
  const size_t mask = strash_.size() - 1;
  for (size_t i = hash_combine(a, b) & mask;; i = (i + 1) & mask) {
    const uint32_t node = strash_[i];
    if (node == 0 || (nodes_[node].fanin0 == a && nodes_[node].fanin1 == b))
      return i;
  }
}

void Aig::strash_rehash(size_t size) {
  strash_.assign(size, 0);
  for (uint32_t n = 1; n < nodes_.size(); ++n)
    if (is_and(n))
      strash_[strash_slot(nodes_[n].fanin0, nodes_[n].fanin1)] = n;
}

Lit Aig::and_(Lit a, Lit b) {
  // Constant folding and trivial cases.
  if (a > b)
    std::swap(a, b);
  if (a == kFalse)
    return kFalse;
  if (a == kTrue)
    return b;
  if (a == b)
    return a;
  if (a == lit_not(b))
    return kFalse;

  const size_t slot = strash_slot(a, b);
  if (strash_[slot] != 0)
    return mk_lit(strash_[slot]);
  const uint32_t node = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{a, b});
  ++num_ands_;
  if (num_ands_ * 2 > strash_.size()) {
    strash_rehash(strash_.size() * 2); // re-inserts the new node too
    return mk_lit(node);
  }
  strash_[slot] = node;
  return mk_lit(node);
}

Lit Aig::find_and(Lit a, Lit b) const {
  if (a == kNoLit || b == kNoLit)
    return kNoLit;
  if (a > b)
    std::swap(a, b);
  if (a == kFalse)
    return kFalse;
  if (a == kTrue)
    return b;
  if (a == b)
    return a;
  if (a == lit_not(b))
    return kFalse;

  const uint32_t node = strash_[strash_slot(a, b)];
  return node == 0 ? kNoLit : mk_lit(node);
}

namespace {

// One body per composite gate, shared by or_/xor_/mux_ (`And` = and_) and
// their probes (`And` = find_and). or_/xor_/mux_ never see kNoLit, so
// find_not acts as lit_not for them.

template <auto And, class G>
Lit or_gate(G& g, Lit a, Lit b) {
  return find_not((g.*And)(find_not(a), find_not(b)));
}

template <auto And, class G>
Lit xor_gate(G& g, Lit a, Lit b) {
  if (a == kNoLit || b == kNoLit)
    return kNoLit;
  if (a == kFalse)
    return b;
  if (a == kTrue)
    return lit_not(b);
  if (b == kFalse)
    return a;
  if (b == kTrue)
    return lit_not(a);
  if (a == b)
    return kFalse;
  if (a == lit_not(b))
    return kTrue;
  const Lit b_only = (g.*And)(lit_not(a), b); // created first
  const Lit a_only = (g.*And)(a, lit_not(b));
  return find_not((g.*And)(find_not(a_only), find_not(b_only)));
}

template <auto And, class G>
Lit mux_gate(G& g, Lit s, Lit t, Lit e) {
  if (s == kNoLit || t == kNoLit || e == kNoLit)
    return kNoLit;
  if (s == kTrue)
    return t;
  if (s == kFalse)
    return e;
  if (t == e)
    return t;
  if (t == kTrue && e == kFalse)
    return s;
  if (t == kFalse && e == kTrue)
    return lit_not(s);
  const Lit else_leg = (g.*And)(lit_not(s), e); // created first
  const Lit then_leg = (g.*And)(s, t);
  return find_not((g.*And)(find_not(then_leg), find_not(else_leg)));
}

} // namespace

Lit Aig::or_(Lit a, Lit b) { return or_gate<&Aig::and_>(*this, a, b); }
Lit Aig::xor_(Lit a, Lit b) { return xor_gate<&Aig::and_>(*this, a, b); }
Lit Aig::mux_(Lit s, Lit t, Lit e) { return mux_gate<&Aig::and_>(*this, s, t, e); }
Lit Aig::find_or(Lit a, Lit b) const { return or_gate<&Aig::find_and>(*this, a, b); }
Lit Aig::find_xor(Lit a, Lit b) const { return xor_gate<&Aig::find_and>(*this, a, b); }
Lit Aig::find_mux(Lit s, Lit t, Lit e) const { return mux_gate<&Aig::find_and>(*this, s, t, e); }

size_t Aig::num_ands_reachable() const {
  std::vector<uint8_t> mark(nodes_.size(), 0);
  std::vector<uint32_t> stack;
  for (const Lit o : outputs_) {
    const uint32_t n = lit_node(o);
    if (!mark[n]) {
      mark[n] = 1;
      stack.push_back(n);
    }
  }
  size_t count = 0;
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (!is_and(n))
      continue;
    ++count;
    for (Lit f : {nodes_[n].fanin0, nodes_[n].fanin1}) {
      const uint32_t m = lit_node(f);
      if (!mark[m]) {
        mark[m] = 1;
        stack.push_back(m);
      }
    }
  }
  return count;
}

std::vector<uint64_t> Aig::simulate(const std::vector<uint64_t>& input_words) const {
  std::vector<uint64_t> words;
  simulate_into(input_words, words);
  return words;
}

void Aig::simulate_into(const std::vector<uint64_t>& input_words,
                        std::vector<uint64_t>& node_words) const {
  node_words.assign(nodes_.size(), 0);
  for (size_t i = 0; i < inputs_.size(); ++i)
    node_words[inputs_[i]] = i < input_words.size() ? input_words[i] : 0;
  for (uint32_t n = 1; n < nodes_.size(); ++n) {
    if (is_input(n))
      continue;
    node_words[n] = sim_lit(node_words, nodes_[n].fanin0) & sim_lit(node_words, nodes_[n].fanin1);
  }
}

} // namespace smartly::aig
