// Logical-level NoK pattern matching: Algorithm 1 of the paper.
//
// The matcher walks a subject tree through a Cursor and matches one NoK
// pattern tree against the subtree rooted at a starting node.  The Cursor
// abstracts the subject tree:
//
//   struct Cursor {
//     using NodeT = ...;                       // copyable node handle
//     Result<std::optional<NodeT>> FirstChild(const NodeT&);
//     Result<std::optional<NodeT>> FollowingSibling(const NodeT&);
//     Result<bool> Matches(const NodeT&, const PatternNode&);  // tag+value
//   };
//
// Cursors exist for the physical string store (physical_matcher.h), for
// an in-memory DOM (the test oracle and the navigational baseline) and
// for buffered SAX windows (streaming).  Because the only subject-tree
// operations are FIRST-CHILD and FOLLOWING-SIBLING, the matcher visits
// nodes in document order — the property Proposition 1's single-pass I/O
// bound rests on.
//
// Differences from the paper's pseudocode, both sanctioned by its text:
//  * matched frontier nodes are *retained* when their pattern subtree
//    contains a node whose matches must be collected (the returning node
//    or a global-arc source), so all matches are found — the paper keeps
//    the returning node in the frontier for the same reason.  A retained
//    node that must precede a sibling pattern node keeps only the matches
//    that a later match of that sibling confirms (preceding-sibling::);
//    its successors stay scanned to supply the confirmations;
//  * when a match fails midway the partial result list is rolled back to
//    a checkpoint instead of clearing R wholesale (equivalent behaviour,
//    but correct when several starting points share one result list).

#ifndef NOKXML_NOK_LOGICAL_MATCHER_H_
#define NOKXML_NOK_LOGICAL_MATCHER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "nok/nok_partition.h"

namespace nok {

/// Marks the local nodes whose matches must be reported: the returning
/// node, every global-arc source in this tree, and the root (joins need
/// it).
std::vector<bool> ComputeDesignated(const NokPartition& partition,
                                    int tree_index);

/// For each local node: does its pattern subtree contain a designated
/// node?  (Such frontier entries are retained after a match.)
std::vector<bool> ComputeRetained(const NokTree& tree,
                                  const std::vector<bool>& designated);

/// Sibling-order confirmation for one frontier (the children of one
/// pattern node), shared by Algorithm 1 and the streaming frontier.  A
/// retained child that must precede a sibling (preceding-sibling::)
/// keeps only the matches that a later confirmed match of each of its
/// successors follows; a match of a child without successors is always
/// confirmed.  The successors, transitively, stay scanned after their
/// first match so every confirmation is seen.
class SiblingConfirmation {
 public:
  /// `retained[i]`: child i of `node` collects matches.
  SiblingConfirmation(const NokNode& node, const std::vector<char>& retained);

  /// Whether some retained child has a successor; nothing to confirm
  /// otherwise.
  bool needed() const { return needed_; }
  /// Child i must stay scanned after its first match.
  bool rescan(size_t i) const { return rescan_[i] != 0; }
  /// Child i's matches wait for confirmation (retained, with successors).
  bool deferred(size_t i) const { return deferred_[i] != 0; }

  /// Records a match of child i at subject sibling index `sibling`, in
  /// scan order.
  void Matched(size_t i, uint64_t sibling) {
    matched_at_[i].push_back(sibling);
  }

  /// After the scan: whether child i's match at `sibling` is confirmed.
  bool Confirmed(size_t i, uint64_t sibling);

 private:
  /// Child i's matches are confirmed below this sibling index: the
  /// earliest last confirmed match among its successors.
  int64_t Bound(size_t i);

  /// last_ entry not computed yet.
  static constexpr int64_t kUnknown = -2;

  const NokNode& node_;
  bool needed_ = false;
  std::vector<char> rescan_;
  std::vector<char> deferred_;
  std::vector<std::vector<uint64_t>> matched_at_;
  /// Each child's last confirmed sibling index (-1: none), once known.
  std::vector<int64_t> last_;
};

/// Removes the elements of *list whose `drop` entry is set, keeping the
/// others in order; `drop` is empty (nothing to remove) or as long as
/// *list.
template <typename T>
void EraseMarked(const std::vector<char>& drop, std::vector<T>* list) {
  if (drop.empty()) return;
  size_t kept = 0;
  for (size_t k = 0; k < list->size(); ++k) {
    if (drop[k]) continue;
    if (kept != k) (*list)[kept] = std::move((*list)[k]);
    ++kept;
  }
  list->erase(list->begin() + static_cast<std::ptrdiff_t>(kept), list->end());
}

/// Matches one NoK tree against subject subtrees via a Cursor.
template <typename Cursor>
class NokMatcher {
 public:
  using NodeT = typename Cursor::NodeT;
  /// matches[i] = subject nodes matched by local pattern node i (filled
  /// only for designated nodes).
  using MatchLists = std::vector<std::vector<NodeT>>;

  NokMatcher(const NokTree* tree, Cursor* cursor,
             std::vector<bool> designated)
      : tree_(tree),
        cursor_(cursor),
        designated_(std::move(designated)),
        retained_(ComputeRetained(*tree, designated_)) {}

  /// Matches the NoK tree against the subject subtree rooted at start.
  /// Returns whether the whole pattern matched; on success *out holds the
  /// collected matches (out must arrive sized tree->nodes.size()).
  /// The starting node's own constraints are checked here.
  Result<bool> Match(const NodeT& start, MatchLists* out) {
    NOK_ASSIGN_OR_RETURN(bool root_ok,
                         cursor_->Matches(start, *tree_->nodes[0].pattern));
    if (!root_ok) return false;
    NOK_ASSIGN_OR_RETURN(bool ok, Npm(0, start, out));
    if (!ok) {
      for (auto& list : *out) list.clear();
    }
    return ok;
  }

 private:
  /// Algorithm 1 (NPM): matches pattern node pnode (already verified
  /// against snode) and recursively its frontier children against snode's
  /// children, left to right.
  Result<bool> Npm(int pnode, const NodeT& snode, MatchLists* R) {
    if (designated_[static_cast<size_t>(pnode)]) {
      (*R)[static_cast<size_t>(pnode)].push_back(snode);
    }
    const NokNode& pn = tree_->nodes[static_cast<size_t>(pnode)];
    const size_t n = pn.children.size();
    if (n == 0) return true;

    // Frontier state: a child is active when all its sibling-order
    // predecessors have matched; it leaves the frontier after its first
    // match unless retained.
    std::vector<int> indegree(n, 0);
    for (auto [a, b] : pn.sibling_order) {
      ++indegree[static_cast<size_t>(b)];
    }
    std::vector<char> active(n, 0), satisfied(n, 0);
    size_t active_retained = 0;
    auto is_retained = [&](size_t i) {
      return retained_[static_cast<size_t>(pn.children[i])];
    };
    for (size_t i = 0; i < n; ++i) {
      active[i] = indegree[i] == 0;
      if (active[i] && is_retained(i)) ++active_retained;
    }
    size_t remaining = n;
    std::optional<SiblingConfirmation> order;
    if (!pn.sibling_order.empty()) {
      std::vector<char> retained(n);
      for (size_t i = 0; i < n; ++i) retained[i] = is_retained(i);
      order.emplace(pn, retained);
      if (!order->needed()) order.reset();
    }
    std::vector<Span> spans;  // Deferred matches' entries in R.
    uint64_t sibling = 0;

    NOK_ASSIGN_OR_RETURN(auto u, cursor_->FirstChild(snode));
    // Keep scanning while unmatched children remain, or while a retained
    // child (one whose subtree collects matches) is still active — all of
    // its matches among the siblings must be found, not just the first.
    while (u.has_value() && (remaining > 0 || active_retained > 0)) {
      // Children activated during this u are eligible only from the next
      // sibling on (following-sibling is strict).
      std::vector<size_t> newly_active;
      for (size_t i = 0; i < n; ++i) {
        if (!active[i]) continue;
        const int child = pn.children[i];
        const bool retain = retained_[static_cast<size_t>(child)] ||
                            (order.has_value() && order->rescan(i));
        if (satisfied[i] && !retain) continue;
        NOK_ASSIGN_OR_RETURN(
            bool node_ok,
            cursor_->Matches(*u, *tree_->nodes[static_cast<size_t>(child)]
                                      .pattern));
        if (!node_ok) continue;
        const std::vector<size_t> checkpoint = Sizes(*R);
        NOK_ASSIGN_OR_RETURN(bool sub_ok, Npm(child, *u, R));
        if (!sub_ok) {
          Rollback(R, checkpoint);
          continue;
        }
        if (order.has_value()) {
          order->Matched(i, sibling);
          if (order->deferred(i)) {
            spans.push_back(Span{i, sibling, checkpoint, Sizes(*R)});
          }
        }
        if (!satisfied[i]) {
          satisfied[i] = 1;
          --remaining;
          for (auto [a, b] : pn.sibling_order) {
            if (static_cast<size_t>(a) == i) {
              if (--indegree[static_cast<size_t>(b)] == 0) {
                newly_active.push_back(static_cast<size_t>(b));
              }
            }
          }
        }
        if (!retain) active[i] = 0;
      }
      for (size_t b : newly_active) {
        active[b] = 1;
        if (is_retained(b)) ++active_retained;
      }
      NOK_ASSIGN_OR_RETURN(auto next, cursor_->FollowingSibling(*u));
      u = next;
      ++sibling;
    }
    if (remaining != 0) return false;
    if (!spans.empty()) DropUnconfirmed(&*order, spans, R);
    return true;
  }

  /// The entries one match of a retained child added to R: list j grew
  /// from begin[j] to end[j].
  struct Span {
    size_t child;
    uint64_t sibling;  ///< Index of the matched subject sibling.
    std::vector<size_t> begin, end;
  };

  /// Removes from R the entries of every span whose match `order` does
  /// not confirm, in one pass over each list.
  static void DropUnconfirmed(SiblingConfirmation* order,
                              const std::vector<Span>& spans, MatchLists* R) {
    std::vector<std::vector<char>> drop(R->size());
    for (const Span& span : spans) {
      if (order->Confirmed(span.child, span.sibling)) continue;
      for (size_t j = 0; j < R->size(); ++j) {
        if (span.begin[j] == span.end[j]) continue;
        drop[j].resize((*R)[j].size(), 0);
        std::fill(drop[j].begin() + static_cast<std::ptrdiff_t>(span.begin[j]),
                  drop[j].begin() + static_cast<std::ptrdiff_t>(span.end[j]),
                  1);
      }
    }
    for (size_t j = 0; j < R->size(); ++j) EraseMarked(drop[j], &(*R)[j]);
  }

  static std::vector<size_t> Sizes(const MatchLists& R) {
    std::vector<size_t> sizes(R.size());
    for (size_t i = 0; i < R.size(); ++i) sizes[i] = R[i].size();
    return sizes;
  }

  static void Rollback(MatchLists* R, const std::vector<size_t>& sizes) {
    for (size_t i = 0; i < R->size(); ++i) {
      (*R)[i].resize(sizes[i]);
    }
  }

  const NokTree* tree_;
  Cursor* cursor_;
  std::vector<bool> designated_;
  std::vector<bool> retained_;
};

}  // namespace nok

#endif  // NOKXML_NOK_LOGICAL_MATCHER_H_
