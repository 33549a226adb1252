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

/// Document-order comparison; the virtual root sorts first.
bool DocOrderLess(const NodeMatch& a, const NodeMatch& b);

/// Sorts matches into document order and drops duplicates.
void SortUnique(std::vector<NodeMatch>* matches);

/// Drops from sorted matches every match inside another's subtree, so the
/// rest are disjoint subtrees in document order.
void KeepOutermost(std::vector<NodeMatch>* matches);

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
