#include "nok/logical_matcher.h"

#include <algorithm>
#include <limits>

namespace nok {

std::vector<bool> ComputeDesignated(const NokPartition& partition,
                                    int tree_index) {
  const NokTree& tree = partition.trees[static_cast<size_t>(tree_index)];
  std::vector<bool> designated(tree.nodes.size(), false);
  designated[0] = true;  // Joins relate trees through their roots.
  if (tree.returning_node >= 0) {
    designated[static_cast<size_t>(tree.returning_node)] = true;
  }
  for (const GlobalArc& arc : partition.arcs) {
    if (arc.from_tree == tree_index) {
      designated[static_cast<size_t>(arc.from_node)] = true;
    }
  }
  return designated;
}

std::vector<bool> ComputeRetained(const NokTree& tree,
                                  const std::vector<bool>& designated) {
  // retained[i] = subtree of i contains a designated node.  Children have
  // larger indexes than parents (pre-order), so one reverse sweep works.
  std::vector<bool> retained(tree.nodes.size(), false);
  for (size_t i = tree.nodes.size(); i-- > 0;) {
    retained[i] = designated[i];
    for (int child : tree.nodes[i].children) {
      if (retained[static_cast<size_t>(child)]) retained[i] = true;
    }
  }
  return retained;
}

SiblingConfirmation::SiblingConfirmation(const NokNode& node,
                                         const std::vector<char>& retained)
    : node_(node),
      rescan_(node.children.size(), 0),
      deferred_(node.children.size(), 0),
      matched_at_(node.children.size()),
      last_(node.children.size(), kUnknown) {
  std::vector<size_t> stack;
  for (auto [a, b] : node.sibling_order) {
    const size_t from = static_cast<size_t>(a);
    if (retained[from] && !deferred_[from]) {
      deferred_[from] = 1;
      stack.push_back(from);
    }
  }
  needed_ = !stack.empty();
  while (!stack.empty()) {
    const size_t from = stack.back();
    stack.pop_back();
    for (auto [a, b] : node.sibling_order) {
      const size_t to = static_cast<size_t>(b);
      if (static_cast<size_t>(a) != from || rescan_[to]) continue;
      rescan_[to] = 1;
      stack.push_back(to);
    }
  }
}

bool SiblingConfirmation::Confirmed(size_t i, uint64_t sibling) {
  return static_cast<int64_t>(sibling) < Bound(i);
}

int64_t SiblingConfirmation::Bound(size_t i) {
  int64_t bound = std::numeric_limits<int64_t>::max();
  for (auto [a, b] : node_.sibling_order) {
    if (static_cast<size_t>(a) != i) continue;
    const size_t s = static_cast<size_t>(b);
    if (last_[s] == kUnknown) {
      last_[s] = -1;  // Set first: a cyclic order confirms nothing.
      const int64_t limit = Bound(s);
      for (const uint64_t k : matched_at_[s]) {
        const int64_t at = static_cast<int64_t>(k);
        if (at < limit) last_[s] = at;
      }
    }
    bound = std::min(bound, last_[s]);
  }
  return bound;
}

}  // namespace nok
