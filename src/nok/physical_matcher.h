// Physical-level NoK pattern matching (Section 5 of the paper).
//
// StoreCursor drives the logical matcher (Algorithm 1) directly over the
// succinct string representation using the FIRST-CHILD and
// FOLLOWING-SIBLING primitives of Algorithm 2 — the subject tree is never
// reconstructed.  Dewey IDs are derived for free during the traversal
// (root 0; FirstChild appends .0; FollowingSibling increments the last
// component), which is how value constraints reach the B+i/data-file pair
// without any ids being stored in the tree string.

#ifndef NOKXML_NOK_PHYSICAL_MATCHER_H_
#define NOKXML_NOK_PHYSICAL_MATCHER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/document_store.h"
#include "nok/logical_matcher.h"
#include "nok/pattern_tree.h"
#include "nok/tree_cursor.h"

namespace nok {

/// Resolves every pattern node's tag name against a document's dictionary
/// once, producing a table indexed by PatternNode::id (the dense pre-order
/// ids assigned by PatternTree::Renumber).  Wildcards, the virtual root
/// and names absent from the document resolve to kInvalidTag.  Built once
/// per query at plan time and shared by every cursor, replacing per-cursor
/// name lookups during matching.
inline std::vector<TagId> ResolvePatternTags(const PatternTree& pattern,
                                             const TagDictionary& tags) {
  std::vector<TagId> table(static_cast<size_t>(pattern.size()),
                           kInvalidTag);
  std::vector<const PatternNode*> stack = {pattern.root()};
  while (!stack.empty()) {
    const PatternNode* node = stack.back();
    stack.pop_back();
    if (!node->is_doc_root && !node->wildcard &&
        static_cast<size_t>(node->id) < table.size()) {
      auto id = tags.Lookup(node->tag);
      if (id.has_value()) table[static_cast<size_t>(node->id)] = *id;
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return table;
}

/// Cursor over a DocumentStore's string representation.
class StoreCursor {
 public:
  /// A subject-tree position: physical symbol position + derived Dewey ID.
  struct NodeT {
    StorePos pos;
    DeweyId dewey = DeweyId::Root();
    bool virtual_root = false;
  };

  explicit StoreCursor(DocumentStore* store) : store_(store) {}

  /// The virtual super-root (parent of the document root).
  NodeT VirtualRoot() const {
    NodeT node;
    node.virtual_root = true;
    return node;
  }

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    if (node.virtual_root) {
      return std::optional<NodeT>(
          NodeT{store_->tree()->RootPos(), DeweyId::Root(), false});
    }
    NOK_ASSIGN_OR_RETURN(auto child, store_->tree()->FirstChild(node.pos));
    if (!child.has_value()) return std::optional<NodeT>();
    return std::optional<NodeT>(NodeT{*child, node.dewey.Child(0), false});
  }

  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    if (node.virtual_root || node.dewey.depth() == 1) {
      return std::optional<NodeT>();  // The root has no siblings.
    }
    NOK_ASSIGN_OR_RETURN(auto sibling,
                         store_->tree()->FollowingSibling(node.pos));
    if (!sibling.has_value()) return std::optional<NodeT>();
    NodeT next{*sibling, node.dewey, false};
    next.dewey.NextSibling();  // In place: no component-vector rebuild.
    return std::optional<NodeT>(std::move(next));
  }

  Result<bool> Matches(const NodeT& node, const PatternNode& pattern) {
    if (pattern.is_doc_root) return node.virtual_root;
    if (node.virtual_root) return false;
    if (!pattern.wildcard) {
      const TagId want = ResolveTag(pattern);
      if (want == kInvalidTag) return false;
      NOK_ASSIGN_OR_RETURN(TagId got, store_->tree()->TagAt(node.pos));
      if (got != want) return false;
    }
    if (pattern.predicate.active()) {
      NOK_ASSIGN_OR_RETURN(auto value, store_->ValueOf(node.dewey));
      if (!value.has_value()) return false;
      return EvalValuePredicate(pattern.predicate, *value);
    }
    return true;
  }

  /// Installs the plan-time tag table (see ResolvePatternTags).  The
  /// table must outlive every Matches call; without one the cursor falls
  /// back to dictionary lookups per call.
  void set_tag_table(const std::vector<TagId>* table) {
    tag_table_ = table;
  }

  DocumentStore* store() { return store_; }

 private:
  /// Resolved tag of a pattern node: from the plan-time table when
  /// installed (kInvalidTag: the name does not occur in the document).
  TagId ResolveTag(const PatternNode& pattern) {
    if (tag_table_ != nullptr &&
        static_cast<size_t>(pattern.id) < tag_table_->size()) {
      return (*tag_table_)[static_cast<size_t>(pattern.id)];
    }
    auto id = store_->tags()->Lookup(pattern.tag);
    return id.has_value() ? *id : kInvalidTag;
  }

  DocumentStore* store_;
  const std::vector<TagId>* tag_table_ = nullptr;
};

/// Convenience alias: the physical matcher is the logical matcher over a
/// StoreCursor (the point of Section 5: same algorithm, physical
/// primitives).
using PhysicalNokMatcher = NokMatcher<StoreCursor>;

}  // namespace nok

#endif  // NOKXML_NOK_PHYSICAL_MATCHER_H_
