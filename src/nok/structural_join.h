// Structural joins over NoK partial-match results (Sections 2 and 5).
//
// After NoK pattern matching, the per-tree results are combined along the
// global arcs (descendant '//', following, preceding) of the partition.
// This module is the only code that decides how two matches relate.  The
// paper's join condition compares <start,end> intervals; here the same
// question is answered by Dewey-prefix containment, which needs no
// subtree-end scan: an ancestor is a proper prefix, and document order is
// the Dewey order.
//
// Joins are semi-joins (the query returns a single node set, so arcs act
// as existential filters): each search below answers, for one match,
// whether a sorted list holds a related partner, in O(depth · log n) or
// better — never a scan of a long list.

#ifndef NOKXML_NOK_STRUCTURAL_JOIN_H_
#define NOKXML_NOK_STRUCTURAL_JOIN_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "encoding/dewey.h"
#include "nok/pattern_tree.h"

namespace nok {

/// One matched subject node as seen by the join layer: its Dewey ID, or
/// the virtual super-root (ancestor of everything, followed and preceded
/// by nothing).
struct NodeMatch {
  DeweyId dewey = DeweyId::Root();
  bool virtual_root = false;
};

// The three helpers below take NodeMatch or any other node type with the
// same two fields, `dewey` and `virtual_root` (the executor's navigation
// tier nodes, which also carry a position).

/// Document-order comparison; the virtual root sorts first.
template <typename Node>
bool DocOrderLess(const Node& a, const Node& b) {
  if (a.virtual_root != b.virtual_root) return a.virtual_root;
  if (a.virtual_root) return false;
  return a.dewey.Compare(b.dewey) < 0;
}

/// Sorts matches into document order and drops duplicates.
template <typename Node>
void SortUnique(std::vector<Node>* matches) {
  std::sort(matches->begin(), matches->end(), DocOrderLess<Node>);
  matches->erase(std::unique(matches->begin(), matches->end(),
                             [](const Node& a, const Node& b) {
                               return a.virtual_root == b.virtual_root &&
                                      (a.virtual_root || a.dewey == b.dewey);
                             }),
                 matches->end());
}

/// Drops from sorted matches every match inside another's subtree, so the
/// rest are disjoint subtrees in document order.
template <typename Node>
void KeepOutermost(std::vector<Node>* matches) {
  // Everything between a match and its descendants in document order is
  // inside the match, so the last kept match is the only one that can
  // contain the next.
  size_t kept = 0;
  for (size_t i = 0; i < matches->size(); ++i) {
    const Node& match = (*matches)[i];
    if (kept > 0 && !match.virtual_root) {
      const Node& last = (*matches)[kept - 1];
      if (last.virtual_root || last.dewey.IsAncestorOf(match.dewey)) continue;
    }
    if (kept != i) (*matches)[kept] = std::move((*matches)[i]);
    ++kept;
  }
  matches->resize(kept);
}

/// True iff inner stands in `axis` relation to outer (kDescendant: inner
/// is a proper descendant of outer; kFollowing: inner starts after
/// outer's subtree ends; kPreceding: inner's subtree ends before outer
/// starts).  A virtual-root inner is related to nothing.
bool IsRelated(const NodeMatch& outer, const NodeMatch& inner, Axis axis);

/// True iff some member of the sorted `inners` stands in `axis` relation
/// to `outer`.
bool HasRelatedInner(const NodeMatch& outer,
                     const std::vector<NodeMatch>& inners, Axis axis);

/// True iff `inner` stands in `axis` relation to some member of the
/// sorted `outers`.  For kDescendant the outers must be outermost
/// (KeepOutermost): then only the nearest outer before `inner` can
/// contain it.
bool HasRelatedOuter(const std::vector<NodeMatch>& outers,
                     const NodeMatch& inner, Axis axis);

}  // namespace nok

#endif  // NOKXML_NOK_STRUCTURAL_JOIN_H_
