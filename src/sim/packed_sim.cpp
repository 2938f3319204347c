#include "sim/packed_sim.hpp"

#include <algorithm>
#include <unordered_map>

namespace smartly::sim {

namespace {

// Lane masks for the first six enumerated inputs within one 64-pattern word.
constexpr uint64_t kLaneMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

} // namespace

SimResult exhaustive_forced_ex(const aig::Aig& aig,
                               const std::vector<std::pair<aig::Lit, bool>>& constraints,
                               aig::Lit target, const SimOptions& options) {
  SimResult res;
  const size_t n_inputs = aig.num_inputs();

  // Split constraints into direct input fixings vs. internal checks.
  std::unordered_map<uint32_t, size_t> input_index; // node -> input position
  for (size_t i = 0; i < n_inputs; ++i)
    input_index.emplace(aig.inputs()[i], i);

  std::vector<int> fixed(n_inputs, -1); // -1 free, 0/1 fixed
  std::vector<std::pair<aig::Lit, bool>> internal;
  for (const auto& [lit, val] : constraints) {
    auto it = input_index.find(aig::lit_node(lit));
    if (it != input_index.end()) {
      const int want = (val != aig::lit_compl(lit)) ? 1 : 0;
      if (fixed[it->second] >= 0 && fixed[it->second] != want) {
        res.forced = Forced::Contradiction;
        res.exhausted = true;
        return res;
      }
      fixed[it->second] = want;
    } else {
      internal.emplace_back(lit, val);
    }
  }

  std::vector<size_t> free_inputs;
  for (size_t i = 0; i < n_inputs; ++i)
    if (fixed[i] < 0)
      free_inputs.push_back(i);
  if (static_cast<int>(free_inputs.size()) > options.max_free_inputs) {
    res.forced = Forced::None; // give-up: not an exhaustive verdict
    return res;
  }

  const int k = static_cast<int>(free_inputs.size());
  const uint64_t n_patterns = uint64_t(1) << k;
  const uint64_t n_words = (n_patterns + 63) / 64;

  std::vector<uint64_t> input_words(n_inputs, 0);
  for (size_t i = 0; i < n_inputs; ++i)
    input_words[i] = fixed[i] == 1 ? ~uint64_t(0) : 0;
  std::vector<uint64_t> values;
  bool seen0 = false, seen1 = false, any = false;

  for (uint64_t w = 0; w < n_words; ++w) {
    const uint64_t base = w * 64;
    for (int j = 0; j < k; ++j) {
      uint64_t word;
      if (j < 6)
        word = kLaneMask[j];
      else
        word = ((base >> j) & 1) ? ~uint64_t(0) : 0;
      input_words[free_inputs[static_cast<size_t>(j)]] = word;
    }
    aig.simulate_into(input_words, values);

    uint64_t valid = ~uint64_t(0);
    if (n_patterns - base < 64)
      valid = (uint64_t(1) << (n_patterns - base)) - 1;
    for (const auto& [lit, val] : internal) {
      const uint64_t v = aig::Aig::sim_lit(values, lit);
      valid &= val ? v : ~v;
    }
    if (!valid)
      continue;
    any = true;
    const uint64_t t = aig::Aig::sim_lit(values, target);
    seen1 = seen1 || (t & valid) != 0;
    seen0 = seen0 || (~t & valid) != 0;
    if (seen0 && seen1) {
      // Both polarities witnessed: the remaining patterns cannot change the
      // verdict, so stop the sweep here instead of enumerating all 2^k.
      res.forced = Forced::None;
      res.early_exit = w + 1 < n_words;
      return res;
    }
  }

  res.exhausted = true;
  if (!any)
    res.forced = Forced::Contradiction;
  else if (seen1 && !seen0)
    res.forced = Forced::One;
  else if (seen0 && !seen1)
    res.forced = Forced::Zero;
  else
    res.forced = Forced::None;
  return res;
}

Forced exhaustive_forced(const aig::Aig& aig,
                         const std::vector<std::pair<aig::Lit, bool>>& constraints,
                         aig::Lit target, int max_free_inputs) {
  SimOptions options;
  options.max_free_inputs = max_free_inputs;
  return exhaustive_forced_ex(aig, constraints, target, options).forced;
}

SignatureTable simulate_signatures(const aig::Aig& aig,
                                   const std::vector<std::vector<uint64_t>>& batch_inputs) {
  SignatureTable table;
  table.words = batch_inputs.size();
  table.nodes = aig.num_nodes();
  table.node_words.resize(table.words * table.nodes);

  // One reusable node-sized scratch (whole-netlist AIGs make a per-batch
  // allocation megabytes of churn across refinement rounds).
  std::vector<uint64_t> values;
  for (size_t w = 0; w < table.words; ++w) {
    aig.simulate_into(batch_inputs[w], values);
    std::copy(values.begin(), values.end(),
              table.node_words.begin() + static_cast<ptrdiff_t>(w * table.nodes));
  }
  return table;
}

bool cut_truth_table(const aig::Aig& aig, aig::Lit root, const aig::Lit* leaves,
                     size_t num_leaves, uint16_t& tt) {
  // Seed the leaf *nodes* with projection words adjusted for the leaf
  // literal's polarity: the caller's leaf value is the literal, so a
  // complemented leaf literal contributes the complemented projection.
  uint32_t leaf_nodes[4];
  uint16_t leaf_words[4];
  for (size_t i = 0; i < num_leaves; ++i) {
    leaf_nodes[i] = aig::lit_node(leaves[i]);
    leaf_words[i] = aig::lit_compl(leaves[i]) ? static_cast<uint16_t>(~cut_projection(i))
                                              : cut_projection(i);
  }

  const uint32_t root_node = aig::lit_node(root);
  std::unordered_map<uint32_t, uint16_t> value;
  value.emplace(0, 0); // constant-false node
  for (size_t i = 0; i < num_leaves; ++i)
    value[leaf_nodes[i]] = leaf_words[i]; // a leaf may repeat; last word wins

  // Iterative post-order over the cone between the leaves and the root.
  std::vector<uint32_t> stack{root_node};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    if (value.count(n)) {
      stack.pop_back();
      continue;
    }
    if (!aig.is_and(n))
      return false; // escaped the cut: a primary input that is not a leaf
    const uint32_t c0 = aig::lit_node(aig.fanin0(n));
    const uint32_t c1 = aig::lit_node(aig.fanin1(n));
    const auto v0 = value.find(c0);
    const auto v1 = value.find(c1);
    if (v0 != value.end() && v1 != value.end()) {
      const uint16_t w0 = aig::lit_compl(aig.fanin0(n)) ? ~v0->second : v0->second;
      const uint16_t w1 = aig::lit_compl(aig.fanin1(n)) ? ~v1->second : v1->second;
      value.emplace(n, static_cast<uint16_t>(w0 & w1));
      stack.pop_back();
      continue;
    }
    if (v0 == value.end())
      stack.push_back(c0);
    if (v1 == value.end())
      stack.push_back(c1);
  }

  const uint16_t w = value.at(root_node);
  tt = aig::lit_compl(root) ? static_cast<uint16_t>(~w) : w;
  return true;
}

} // namespace smartly::sim
