#include "tests/oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "nok/xpath_parser.h"

namespace nok {

namespace {

/// One satisfiability check: is the pattern satisfiable over the document
/// with the returning node bound to `target`?
class SatChecker {
 public:
  SatChecker(const DomTree& tree, const DomNode* target)
      : tree_(tree), target_(target) {
    ForEachNode(tree.root(), [&](const DomNode* n) {
      doc_order_.push_back(n);
    });
  }

  bool Check() {
    // The virtual root: its single "child relation" target is the root.
    return CheckNode(nullptr, VirtualPattern(), true);
  }

  /// Entry: does `node` (nullptr = virtual root) satisfy `pattern`'s
  /// subtree, honouring the returning-node binding?  The answer depends
  /// only on (node, pattern) and the fixed target, so it is memoized.
  bool CheckNode(const DomNode* node, const PatternNode* pattern,
                 bool is_virtual) {
    const auto key = std::make_pair(node, pattern);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const bool ok = CheckNodeUncached(node, pattern, is_virtual);
    memo_.emplace(key, ok);
    return ok;
  }

 private:
  bool CheckNodeUncached(const DomNode* node, const PatternNode* pattern,
                         bool is_virtual) {
    if (pattern->is_returning && node != target_) return false;
    if (pattern->is_doc_root) {
      if (!is_virtual) return false;
    } else {
      if (is_virtual) return false;
      if (!pattern->wildcard && pattern->tag != node->name) return false;
      if (pattern->predicate.active() &&
          (node->value.empty() ||
           !EvalValuePredicate(pattern->predicate, node->value))) {
        return false;
      }
      // Positional predicate [n]: n-th among the parent's children that
      // pass this pattern node's name test (all children for '*'; the
      // root element is position 1).
      if (pattern->position > 0) {
        int position = 1;
        if (node->parent != nullptr) {
          for (const auto& sibling : node->parent->children) {
            if (sibling.get() == node) break;
            if (pattern->wildcard || sibling->name == pattern->tag) {
              ++position;
            }
          }
        }
        if (position != pattern->position) return false;
      }
    }
    return AssignChildren(node, pattern, is_virtual);
  }

  const PatternNode* VirtualPattern() { return pattern_root_; }

 public:
  void set_pattern_root(const PatternNode* root) { pattern_root_ = root; }

 private:
  /// Candidate witnesses for child `c` of `node` under the child's axis.
  std::vector<const DomNode*> Candidates(const DomNode* node,
                                         bool is_virtual,
                                         const PatternNode* child) {
    std::vector<const DomNode*> out;
    switch (child->incoming) {
      case Axis::kChild:
      case Axis::kFollowingSibling:  // Tree edge; ordering checked later.
        if (is_virtual) {
          out.push_back(tree_.root());
        } else {
          for (const auto& c : node->children) out.push_back(c.get());
        }
        break;
      case Axis::kDescendant:
        if (is_virtual) {
          out = doc_order_;
        } else {
          for (const DomNode* d : doc_order_) {
            if (node->start < d->start && d->end < node->end) {
              out.push_back(d);
            }
          }
        }
        break;
      case Axis::kFollowing:
        if (!is_virtual) {
          for (const DomNode* d : doc_order_) {
            if (d->start > node->end) out.push_back(d);
          }
        }
        break;
      case Axis::kPreceding:
        if (!is_virtual) {
          for (const DomNode* d : doc_order_) {
            if (d->end < node->start) out.push_back(d);
          }
        }
        break;
    }
    return out;
  }

  /// Can every child of `pattern` be given a witness at once?  Each
  /// child's passing witnesses are collected first; a child without one
  /// fails the node.  A child no sibling_order pair names is independent
  /// of the others, so any of its witnesses will do; only the named
  /// children are enumerated jointly.
  bool AssignChildren(const DomNode* node, const PatternNode* pattern,
                      bool is_virtual) {
    const size_t n = pattern->children.size();
    std::vector<std::vector<const DomNode*>> witnesses(n);
    for (size_t c = 0; c < n; ++c) {
      const PatternNode* child = pattern->children[c].get();
      for (const DomNode* w : Candidates(node, is_virtual, child)) {
        if (CheckNode(w, child, false)) witnesses[c].push_back(w);
      }
      if (witnesses[c].empty()) return false;
    }
    std::vector<size_t> ordered;
    for (auto [a, b] : pattern->sibling_order) {
      ordered.push_back(static_cast<size_t>(a));
      ordered.push_back(static_cast<size_t>(b));
    }
    std::sort(ordered.begin(), ordered.end());
    ordered.erase(std::unique(ordered.begin(), ordered.end()),
                  ordered.end());
    std::vector<const DomNode*> chosen(n, nullptr);
    return ChooseOrdered(pattern, witnesses, ordered, 0, &chosen);
  }

  /// Backtracking over the witnesses of ordered[k..]; a partial choice is
  /// dropped as soon as two chosen witnesses break a sibling_order pair.
  bool ChooseOrdered(const PatternNode* pattern,
                     const std::vector<std::vector<const DomNode*>>& witnesses,
                     const std::vector<size_t>& ordered, size_t k,
                     std::vector<const DomNode*>* chosen) {
    if (k == ordered.size()) return true;
    const size_t c = ordered[k];
    for (const DomNode* w : witnesses[c]) {
      (*chosen)[c] = w;
      if (OrderHolds(pattern, *chosen) &&
          ChooseOrdered(pattern, witnesses, ordered, k + 1, chosen)) {
        return true;
      }
    }
    (*chosen)[c] = nullptr;
    return false;
  }

  /// Whether every sibling_order pair with both witnesses chosen relates
  /// two siblings in document order.
  static bool OrderHolds(const PatternNode* pattern,
                         const std::vector<const DomNode*>& chosen) {
    for (auto [a, b] : pattern->sibling_order) {
      const DomNode* wa = chosen[static_cast<size_t>(a)];
      const DomNode* wb = chosen[static_cast<size_t>(b)];
      if (wa == nullptr || wb == nullptr) continue;
      if (wa->parent != wb->parent || wa->start >= wb->start) return false;
    }
    return true;
  }

  const DomTree& tree_;
  const DomNode* target_;
  std::vector<const DomNode*> doc_order_;
  const PatternNode* pattern_root_ = nullptr;
  std::map<std::pair<const DomNode*, const PatternNode*>, bool> memo_;
};

}  // namespace

std::vector<const DomNode*> OracleEvaluate(const PatternTree& pattern,
                                           const DomTree& tree) {
  std::vector<const DomNode*> out;
  ForEachNode(tree.root(), [&](const DomNode* candidate) {
    SatChecker checker(tree, candidate);
    checker.set_pattern_root(pattern.root());
    if (checker.Check()) out.push_back(candidate);
  });
  std::sort(out.begin(), out.end(),
            [](const DomNode* a, const DomNode* b) {
              return a->start < b->start;
            });
  return out;
}

DeweyId DomDewey(const DomNode* node) {
  std::vector<uint32_t> components;
  for (const DomNode* n = node; n != nullptr; n = n->parent) {
    components.push_back(n->parent == nullptr ? 0 : n->child_index);
  }
  std::reverse(components.begin(), components.end());
  return DeweyId(std::move(components));
}

Result<std::vector<DeweyId>> OracleEvaluateDewey(const std::string& xpath,
                                                 const DomTree& tree) {
  NOK_ASSIGN_OR_RETURN(auto pattern, ParseXPath(xpath));
  std::vector<DeweyId> out;
  for (const DomNode* node : OracleEvaluate(pattern, tree)) {
    out.push_back(DomDewey(node));
  }
  return out;
}

}  // namespace nok
