// BpCursor: the TreeCursor over the in-memory balanced-parentheses index
// (encoding/bp_index.h) — the second navigation tier beside the paged
// StoreCursor (physical_matcher.h).
//
// Tree steps are O(1)-ish bit operations on the BP bitvector: FIRST-CHILD
// is a bit probe and FOLLOWING-SIBLING a findclose.  No BufferPool
// traffic at all; a value predicate reads the node's value by its
// preorder rank (Rank1 of its open bit) through the store's rank ->
// value-offset column, the same column paged mode reads, so answers are
// identical across navigation modes and a value read probes no B+ tree.
// Steps are counted into NavStats::bp_steps on the owning store so one
// snapshot covers all tiers.

#ifndef NOKXML_NOK_BP_CURSOR_H_
#define NOKXML_NOK_BP_CURSOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "encoding/bp_index.h"
#include "encoding/document_store.h"
#include "nok/logical_matcher.h"
#include "nok/pattern_tree.h"
#include "nok/tree_cursor.h"

namespace nok {

/// Cursor over a DocumentStore's balanced-parentheses index.
class BpCursor {
 public:
  /// A subject-tree position: BP open-bit position + derived Dewey ID.
  struct NodeT {
    uint64_t pos = 0;
    DeweyId dewey = DeweyId::Root();
    bool virtual_root = false;
  };

  /// `bp` must describe `store`'s current structure (take it from
  /// DocumentStore::bp_index()) and outlive the cursor.
  BpCursor(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp) {}

  /// The virtual super-root (parent of the document root).
  NodeT VirtualRoot() const {
    NodeT node;
    node.virtual_root = true;
    return node;
  }

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    if (node.virtual_root) {
      if (bp_->node_count() == 0) return std::optional<NodeT>();
      return std::optional<NodeT>(NodeT{0, DeweyId::Root(), false});
    }
    store_->tree()->BumpBpSteps(1);
    const auto child = bp_->FirstChild(node.pos);
    if (!child.has_value()) return std::optional<NodeT>();
    return std::optional<NodeT>(NodeT{*child, node.dewey.Child(0), false});
  }

  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    if (node.virtual_root || node.dewey.depth() == 1) {
      return std::optional<NodeT>();  // The root has no siblings.
    }
    store_->tree()->BumpBpSteps(1);
    const auto sibling = bp_->FollowingSibling(node.pos);
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
      if (bp_->TagAt(node.pos) != want) return false;
    }
    if (pattern.predicate.active()) {
      NOK_ASSIGN_OR_RETURN(auto value,
                           store_->ValueAtRank(bp_->Rank1(node.pos)));
      if (!value.has_value()) return false;
      return EvalValuePredicate(pattern.predicate, *value);
    }
    return true;
  }

  /// Installs the plan-time tag table (see ResolvePatternTags).
  void set_tag_table(const std::vector<TagId>* table) {
    tag_table_ = table;
  }

  DocumentStore* store() { return store_; }
  const BpIndex* bp() const { return bp_; }

 private:
  TagId ResolveTag(const PatternNode& pattern) {
    if (tag_table_ != nullptr &&
        static_cast<size_t>(pattern.id) < tag_table_->size()) {
      return (*tag_table_)[static_cast<size_t>(pattern.id)];
    }
    auto id = store_->tags()->Lookup(pattern.tag);
    return id.has_value() ? *id : kInvalidTag;
  }

  DocumentStore* store_;
  const BpIndex* bp_;
  const std::vector<TagId>* tag_table_ = nullptr;
};

/// The BP-backed physical matcher: same Algorithm 1, O(1) primitives.
using BpNokMatcher = NokMatcher<BpCursor>;

}  // namespace nok

#endif  // NOKXML_NOK_BP_CURSOR_H_
