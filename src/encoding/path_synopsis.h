// DataGuide-style path synopsis — every distinct rooted tag path in the
// document with its node count (ROADMAP item 3; Arion et al., "Path
// Summaries and Path Partitioning in Modern XML Databases").
//
// The synopsis is an immutable trie: one node per distinct rooted path
// /a/b/c, holding the number of document nodes whose rooted path is
// exactly that, plus the path length (the level every such node sits at
// — for a rooted-path trie the two are the same thing).  It is built by
// the one VisitSymbols scan of the page chain that builds the BP index
// (never persisted, like that index) and is tiny: its size is the
// number of distinct paths, not the number of nodes.
//
// The Planner evaluates pattern arcs against the trie: a child arc maps
// a set of trie nodes to their matching children, a descendant arc to
// their matching subtrees.  Summing counts over the resulting match set
// yields a per-pattern-node cardinality estimate; an empty match set
// proves the whole query is schema-impossible and the Executor can
// return without touching a single page.
//
// Thread safety: immutable after construction; every method is const,
// so any number of threads may query one instance concurrently.
// Versioning against the store is the owner's job: DocumentStore drops
// the instance at each structural update, with the BP index.
//
// Storage is a preorder-flattened array with subtree spans: node i's
// descendants are exactly the indexes in (i, subtree_end(i)), and its
// children are found by hopping j -> subtree_end(j) — no child pointers
// needed at query time.

#ifndef NOKXML_ENCODING_PATH_SYNOPSIS_H_
#define NOKXML_ENCODING_PATH_SYNOPSIS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/tag_dictionary.h"

namespace nok {

/// Immutable trie of distinct rooted tag paths with per-path counts.
class PathSynopsis {
 public:
  /// Sentinel trie index for the document root (the virtual node above
  /// the top-level elements): its children are the level-1 paths and its
  /// descendants are every path.
  static constexpr uint32_t kVirtualRoot = ~uint32_t{0};

  /// One distinct rooted path, stored in preorder.
  struct PathNode {
    TagId tag = kInvalidTag;   ///< Last tag on the path.
    uint64_t count = 0;        ///< Document nodes with exactly this path.
    uint32_t level = 1;        ///< Path length == document level (root = 1).
    int32_t parent = -1;       ///< Trie index of the prefix path, -1 at top.
    uint32_t subtree_end = 0;  ///< One past this path's subtree in preorder.
  };

  /// Incremental builder fed open/close events in document order — the
  /// BP index's VisitSymbols scan drives one, so the synopsis never costs
  /// an extra pass.
  class Builder {
   public:
    Builder() = default;

    /// Descends into a child with `tag`, creating the trie path lazily.
    void Open(TagId tag);

    /// Ascends one level.
    void Close();

    /// Checks balance and flattens the trie to preorder.  The builder is
    /// spent afterwards.
    Result<std::unique_ptr<PathSynopsis>> Finish();

   private:
    struct TrieNode {
      TagId tag = kInvalidTag;
      uint64_t count = 0;
      uint32_t level = 1;
      std::vector<uint32_t> children;
    };

    std::vector<TrieNode> trie_;
    std::vector<uint32_t> roots_;  ///< Top-level (level-1) trie indexes.
    std::vector<uint32_t> stack_;  ///< Trie indexes of the open path.
    uint64_t opens_ = 0;
    bool unbalanced_ = false;  ///< A Close arrived with nothing open.
  };

  // -------------------------------------------------------------------
  // Shape.

  /// Number of distinct rooted paths.
  size_t path_count() const { return nodes_.size(); }
  /// Document nodes the synopsis was built from.
  uint64_t node_count() const { return node_count_; }
  /// Shallowest / deepest path length present (0 when empty).
  uint32_t min_level() const { return min_level_; }
  uint32_t max_level() const { return max_level_; }
  const PathNode& node(size_t i) const { return nodes_[i]; }
  uint64_t MemoryBytes() const {
    return nodes_.size() * sizeof(PathNode);
  }

  // -------------------------------------------------------------------
  // Match-set queries.  A match set is a list of trie indexes (possibly
  // containing kVirtualRoot for the document root); the Planner threads
  // them through pattern arcs and sums counts for cardinality estimates.

  /// Appends the children of `parent` (the level-1 paths when `parent`
  /// is kVirtualRoot) whose tag equals `tag`; `wildcard` keeps them all.
  void CollectChildren(uint32_t parent, TagId tag, bool wildcard,
                       std::vector<uint32_t>* out) const;

  /// Appends the strict descendants of `parent` (every path when
  /// `parent` is kVirtualRoot) whose tag equals `tag`; `wildcard` keeps
  /// them all.
  void CollectDescendants(uint32_t parent, TagId tag, bool wildcard,
                          std::vector<uint32_t>* out) const;

  /// True if `node` lies strictly inside `ancestor`'s subtree (every
  /// real index lies inside kVirtualRoot's).
  bool IsDescendantOf(uint32_t ancestor, uint32_t node) const {
    if (ancestor == kVirtualRoot) return node != kVirtualRoot;
    if (node == kVirtualRoot) return false;
    return ancestor < node && node < nodes_[ancestor].subtree_end;
  }

  /// Trie index of `node`'s parent (kVirtualRoot for level-1 paths).
  uint32_t ParentOf(uint32_t node) const {
    const int32_t p = nodes_[node].parent;
    return p < 0 ? kVirtualRoot : static_cast<uint32_t>(p);
  }

  /// Sum of counts over a match set (kVirtualRoot counts as one node).
  uint64_t TotalCount(const std::vector<uint32_t>& set) const;

  /// Document nodes strictly below the nodes whose rooted path is
  /// `node`: the counts summed over (node, subtree_end).  Every node
  /// for kVirtualRoot.
  uint64_t DescendantCount(uint32_t node) const;

 private:
  PathSynopsis() = default;

  std::vector<PathNode> nodes_;  ///< Preorder.
  uint64_t node_count_ = 0;
  uint32_t min_level_ = 0;
  uint32_t max_level_ = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_PATH_SYNOPSIS_H_
