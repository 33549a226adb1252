#include "nok/nok_partition.h"

#include "common/logging.h"

namespace nok {

int NokTree::DepthOf(int node_index) const {
  // Walk upward by scanning for the parent (trees are small: pattern-size).
  int depth = 1;
  int current = node_index;
  while (current != 0) {
    bool found = false;
    for (size_t i = 0; i < nodes.size() && !found; ++i) {
      for (int child : nodes[i].children) {
        if (child == current) {
          current = static_cast<int>(i);
          ++depth;
          found = true;
          break;
        }
      }
    }
    NOK_CHECK(found) << "NoK node " << node_index << " is disconnected";
  }
  return depth;
}

std::vector<const GlobalArc*> NokPartition::ArcsFrom(int tree) const {
  std::vector<const GlobalArc*> out;
  for (const GlobalArc& arc : arcs) {
    if (arc.from_tree == tree) out.push_back(&arc);
  }
  return out;
}

const GlobalArc* NokPartition::ArcInto(int tree) const {
  for (const GlobalArc& arc : arcs) {
    if (arc.to_tree == tree) return &arc;
  }
  return nullptr;
}

namespace {

// NOTE: trees are always addressed through partition->trees[tree_id]
// because recursion can grow (and reallocate) the trees vector.

/// Recursively copies the local subtree rooted at `pattern` into tree
/// `tree_id`, returning the local node index; global children spawn new
/// trees.
int BuildNokTree(const PatternNode* pattern, int tree_id,
                 NokPartition* partition);

/// Starts a new NoK tree rooted at `pattern`; returns its id.
int SpawnTree(const PatternNode* pattern, NokPartition* partition) {
  const size_t idx = partition->trees.size();
  const int id = static_cast<int>(idx);
  partition->trees.emplace_back();
  partition->trees[idx].id = id;
  partition->trees[idx].root_is_doc_root = pattern->is_doc_root;
  BuildNokTree(pattern, id, partition);
  return id;
}

int BuildNokTree(const PatternNode* pattern, int tree_id,
                 NokPartition* partition) {
  const size_t ti = static_cast<size_t>(tree_id);
  const size_t li = partition->trees[ti].nodes.size();
  const int local = static_cast<int>(li);
  partition->trees[ti].nodes.emplace_back();
  partition->trees[ti].nodes[li].pattern = pattern;
  if (pattern->is_returning) {
    partition->trees[ti].returning_node = local;
    partition->returning_tree = tree_id;
  }

  // Map pattern-child position -> local index (or -1 for global children),
  // so sibling-order constraints can be translated.
  std::vector<int> local_of_child(pattern->children.size(), -1);
  for (size_t i = 0; i < pattern->children.size(); ++i) {
    const PatternNode* child = pattern->children[i].get();
    switch (child->incoming) {
      case Axis::kChild:
      case Axis::kFollowingSibling: {
        const int child_local = BuildNokTree(child, tree_id, partition);
        partition->trees[ti].nodes[li].children.push_back(child_local);
        local_of_child[i] = child_local;
        break;
      }
      case Axis::kDescendant:
      case Axis::kFollowing:
      case Axis::kPreceding: {
        const int sub = SpawnTree(child, partition);
        partition->arcs.push_back(
            GlobalArc{tree_id, local, sub, child->incoming});
        break;
      }
    }
  }

  // Sibling order among the local children (positions within `children`).
  NokTree& t = partition->trees[ti];
  for (auto [a, b] : pattern->sibling_order) {
    const int la = local_of_child[static_cast<size_t>(a)];
    const int lb = local_of_child[static_cast<size_t>(b)];
    // The parser orders only children on child edges (a sibling step's
    // context must be a child of its pattern parent).
    NOK_CHECK(la >= 0 && lb >= 0) << "sibling order over a global child";
    // Translate local node indexes into positions in the children vector.
    int pa = -1, pb = -1;
    for (size_t i = 0; i < t.nodes[li].children.size(); ++i) {
      if (t.nodes[li].children[i] == la) pa = static_cast<int>(i);
      if (t.nodes[li].children[i] == lb) pb = static_cast<int>(i);
    }
    NOK_CHECK(pa >= 0 && pb >= 0);
    t.nodes[li].sibling_order.emplace_back(pa, pb);
  }
  return local;
}

}  // namespace

NokPartition PartitionPattern(const PatternTree& pattern) {
  NokPartition partition;
  SpawnTree(pattern.root(), &partition);
  return partition;
}

std::vector<int> NokParents(const NokTree& tree) {
  std::vector<int> parent(tree.nodes.size(), -1);
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    for (int child : tree.nodes[i].children) {
      parent[static_cast<size_t>(child)] = static_cast<int>(i);
    }
  }
  return parent;
}

namespace {

int CopySubtree(const NokTree& src, int old_index, NokTree* dst,
                std::vector<int>* mapping) {
  const int new_index = static_cast<int>(dst->nodes.size());
  dst->nodes.emplace_back();
  dst->nodes[static_cast<size_t>(new_index)].pattern =
      src.nodes[static_cast<size_t>(old_index)].pattern;
  dst->nodes[static_cast<size_t>(new_index)].sibling_order =
      src.nodes[static_cast<size_t>(old_index)].sibling_order;
  if (mapping != nullptr) mapping->push_back(old_index);
  if (src.returning_node == old_index) dst->returning_node = new_index;
  for (int child : src.nodes[static_cast<size_t>(old_index)].children) {
    const int new_child = CopySubtree(src, child, dst, mapping);
    dst->nodes[static_cast<size_t>(new_index)].children.push_back(
        new_child);
  }
  return new_index;
}

}  // namespace

NokTree ExtractNokSubtree(const NokTree& tree, int local,
                          std::vector<int>* mapping) {
  NokTree sub;
  sub.id = 0;
  CopySubtree(tree, local, &sub, mapping);
  return sub;
}

std::string NokPartition::ToString() const {
  std::string out;
  for (const NokTree& tree : trees) {
    out += "tree " + std::to_string(tree.id) +
           (tree.root_is_doc_root ? " (doc root)" : "") + ":";
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      out += " " + std::to_string(i) + "=" +
             (tree.nodes[i].pattern->is_doc_root
                  ? "(root)"
                  : (tree.nodes[i].pattern->wildcard
                         ? "*"
                         : tree.nodes[i].pattern->tag));
      if (static_cast<int>(i) == tree.returning_node) out += "(ret)";
    }
    out += "\n";
  }
  for (const GlobalArc& arc : arcs) {
    out += "arc " + std::to_string(arc.from_tree) + "." +
           std::to_string(arc.from_node) + " -" +
           std::string(AxisName(arc.axis)) + "-> tree " +
           std::to_string(arc.to_tree) + "\n";
  }
  return out;
}

}  // namespace nok
