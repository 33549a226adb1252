#include "nok/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "nok/bp_cursor.h"
#include "nok/logical_matcher.h"
#include "nok/physical_matcher.h"

namespace nok {

namespace {

/// Cursor wrapper that additionally enforces global-arc constraints: a
/// pattern node with an outgoing arc only matches subject nodes that
/// have a qualified child-tree root in the arc's relation.  Injecting the
/// arcs into the NoK match keeps witness selection sound (Algorithm 1
/// picks per-node witnesses; a binding-level post-filter could not).
/// Templated over the base cursor so both navigation tiers (paged
/// StoreCursor and balanced-parentheses BpCursor) share it.
template <typename BaseCursor>
class ConstrainedCursorT {
 public:
  using NodeT = typename BaseCursor::NodeT;

  struct ArcConstraint {
    Axis axis;
    const std::vector<NodeMatch>* qualified_roots;  // Sorted.
  };

  explicit ConstrainedCursorT(BaseCursor* base) : base_(base) {}

  NodeT VirtualRoot() const { return base_->VirtualRoot(); }

  void AddConstraint(const PatternNode* pattern, ArcConstraint constraint) {
    constraints_[pattern].push_back(constraint);
  }

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    return base_->FirstChild(node);
  }
  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    return base_->FollowingSibling(node);
  }

  Result<bool> Matches(const NodeT& node, const PatternNode& pattern) {
    NOK_ASSIGN_OR_RETURN(bool ok, base_->Matches(node, pattern));
    if (!ok) return false;
    auto it = constraints_.find(&pattern);
    if (it == constraints_.end()) return true;
    const NodeMatch as_match{node.dewey, node.virtual_root};
    for (const ArcConstraint& constraint : it->second) {
      if (!HasRelatedInner(as_match, *constraint.qualified_roots,
                           constraint.axis)) {
        return false;
      }
    }
    return true;
  }

 private:
  BaseCursor* base_;
  std::unordered_map<const PatternNode*, std::vector<ArcConstraint>>
      constraints_;
};

/// One successful NoK match: the matched subject nodes, as the tier's
/// nodes (Dewey ID and position), per designated local pattern node
/// (indexed by local node id).  Keeping the positions lets a scout's
/// source matches scope a ScopedScan without locating them again.
template <typename NodeT>
struct Binding {
  std::vector<std::vector<NodeT>> matches;
};

/// A standalone sub-NoK-tree (a branch hanging off the trunk, or the
/// anchor's own subtree) with its index mapping and its matcher, built
/// once per tree and reused for every candidate.  The matcher points at
/// `*sub`, which stays put when a SubMatcher moves.
template <typename Cursor>
struct SubMatcher {
  SubMatcher(const NokTree& tree, int local,
             const std::vector<bool>& designated, Cursor* cursor)
      : sub(std::make_unique<NokTree>(ExtractNokSubtree(tree, local, &map))),
        matcher(sub.get(), cursor, SubDesignated(map, designated)),
        lists(sub->nodes.size()) {
    for (const int i : map) {
      collects = collects || designated[static_cast<size_t>(i)];
    }
  }

  static std::vector<bool> SubDesignated(const std::vector<int>& map,
                                         const std::vector<bool>& designated) {
    std::vector<bool> out(map.size());
    for (size_t i = 0; i < map.size(); ++i) {
      out[i] = designated[static_cast<size_t>(map[i])];
    }
    return out;
  }

  std::vector<int> map;   ///< Sub index -> original local index.
  std::unique_ptr<NokTree> sub;
  bool collects = false;  ///< Any designated node inside?
  NokMatcher<Cursor> matcher;
  /// Match lists of the last Match, empty between calls.
  typename NokMatcher<Cursor>::MatchLists lists;
};

/// Whether the tree uses sibling-order constraints anywhere (the anchored
/// evaluator bails out to whole-tree matching for those).
bool HasSiblingOrder(const NokTree& tree) {
  for (const NokNode& node : tree.nodes) {
    if (!node.sibling_order.empty()) return true;
  }
  return false;
}

/// Plan-time resolved tag of a pattern node (see ResolvePatternTags).
TagId ResolvedTag(const std::vector<TagId>& tag_table,
                  const PatternNode* p) {
  const size_t id = static_cast<size_t>(p->id);
  return id < tag_table.size() ? tag_table[id] : kInvalidTag;
}

/// Wall-clock + subject-tree-page + bp-step accounting for one operator.
class OpTimer {
 public:
  explicit OpTimer(DocumentStore* store)
      : store_(store),
        before_(store->tree()->nav_stats()),
        start_(std::chrono::steady_clock::now()) {}

  void Finish(OperatorStats* op) const {
    const StringStore::NavStats after = store_->tree()->nav_stats();
    op->pages = after.pages_scanned - before_.pages_scanned;
    op->bp_steps = after.bp_steps - before_.bp_steps;
    op->seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  }

 private:
  DocumentStore* store_;
  StringStore::NavStats before_;
  std::chrono::steady_clock::time_point start_;
};

/// One global-arc predicate whose source node lies on the anchored
/// trunk: the source's subject Dewey ID is a fixed prefix of the anchor
/// candidate's, so the arc can be checked per candidate with a sorted
/// merge before any page is fetched — the SemiJoinFilter operator.  The
/// same HasRelatedInner test runs again inside ConstrainedCursorT::Matches
/// during NokMatch, so pruning here never changes results, only cost.
struct TrunkArcCheck {
  size_t trunk_index = 0;  ///< Position of the source node on the trunk.
  bool source_is_doc_root = false;
  Axis axis = Axis::kDescendant;
  const std::vector<NodeMatch>* inners = nullptr;  ///< Sorted.
};

/// The trunk (root..anchor chain) arc checks for one tree; empty when no
/// outgoing arc's source sits on the trunk.
std::vector<TrunkArcCheck> TrunkArcChecks(
    const NokPartition& partition, const NokTree& tree, int tree_id,
    int anchor, size_t* trunk_len, const std::vector<char>& evaluated,
    const std::vector<std::vector<NodeMatch>>& qualified_roots) {
  std::vector<int> trunk;
  const std::vector<int> parents = NokParents(tree);
  for (int n = anchor; n >= 0; n = parents[static_cast<size_t>(n)]) {
    trunk.push_back(n);
  }
  std::reverse(trunk.begin(), trunk.end());
  *trunk_len = trunk.size();
  std::vector<TrunkArcCheck> checks;
  for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
    if (!evaluated[static_cast<size_t>(arc->to_tree)]) continue;
    for (size_t j = 0; j < trunk.size(); ++j) {
      if (trunk[j] != arc->from_node) continue;
      TrunkArcCheck check;
      check.trunk_index = j;
      check.source_is_doc_root =
          tree.nodes[static_cast<size_t>(trunk[j])].pattern->is_doc_root;
      check.axis = arc->axis;
      check.inners =
          &qualified_roots[static_cast<size_t>(arc->to_tree)];
      checks.push_back(check);
      break;
    }
  }
  return checks;
}

/// Whether an anchor hit passes depth feasibility and every trunk arc
/// check (see TrunkArcCheck; both conditions are re-verified during
/// matching, so filtering on this is a pure pre-filter).
bool PassesTrunkChecks(const NokTree& tree, size_t trunk_len,
                       const std::vector<TrunkArcCheck>& checks,
                       const DeweyId& hit) {
  const bool doc_root = tree.root_is_doc_root;
  const size_t depth = hit.depth();
  if (doc_root) {
    if (depth != trunk_len - 1) return false;
  } else if (depth < trunk_len) {
    return false;
  }
  for (const TrunkArcCheck& check : checks) {
    NodeMatch as_match;
    if (check.source_is_doc_root) {
      as_match.virtual_root = true;
    } else {
      const size_t subject_depth =
          doc_root ? check.trunk_index
                   : depth - (trunk_len - 1) + check.trunk_index;
      auto dewey = hit.Ancestor(depth - subject_depth);
      NOK_CHECK(dewey.has_value());
      as_match.dewey = std::move(*dewey);
    }
    if (!HasRelatedInner(as_match, *check.inners, check.axis)) return false;
  }
  return true;
}

/// Arc checks for whole-tree evaluation: only arcs whose source is the
/// NoK root itself apply (the candidates are exactly the root's subject
/// nodes); the root of a floating tree is never the virtual doc root.
struct RootArcCheck {
  Axis axis = Axis::kDescendant;
  const std::vector<NodeMatch>* inners = nullptr;  ///< Sorted.
};

std::vector<RootArcCheck> RootArcChecks(
    const NokPartition& partition, int tree_id,
    const std::vector<char>& evaluated,
    const std::vector<std::vector<NodeMatch>>& qualified_roots) {
  std::vector<RootArcCheck> checks;
  for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
    if (arc->from_node != 0) continue;
    if (!evaluated[static_cast<size_t>(arc->to_tree)]) continue;
    checks.push_back(RootArcCheck{
        arc->axis, &qualified_roots[static_cast<size_t>(arc->to_tree)]});
  }
  return checks;
}

bool PassesRootChecks(const DeweyId& dewey,
                      const std::vector<RootArcCheck>& checks) {
  const NodeMatch as_match{dewey, false};
  for (const RootArcCheck& check : checks) {
    if (!HasRelatedInner(as_match, *check.inners, check.axis)) return false;
  }
  return true;
}

/// Index hits for one access path, located in the run's generation (the
/// probe operators' body; shared by both navigation backends — index
/// probes never touch tree pages).  Value hits are B+v's range
/// unverified: the matcher re-checks the anchor's equality predicate on
/// every candidate it is given, so a hash collision never reaches an
/// answer.
Result<std::vector<LocatedNode>> FetchHits(
    DocumentStore* store, const DocumentStore::Derived& derived,
    const AccessPath& access) {
  switch (access.strategy) {
    case StartStrategy::kValueIndex:
      return store->NodesWithValue(derived, Slice(access.value_operand));
    case StartStrategy::kTagIndex:
      // An absent tag (kInvalidTag) has an empty rank list.
      return store->NodesWithTag(derived, access.tag);
    case StartStrategy::kAuto:
    case StartStrategy::kScan:
      break;
  }
  return Status::Internal("access path has no index probe");
}

// ---------------------------------------------------------------------
// Candidate production, written once over the navigation tier.  A tier
// bundles one physical cursor (for the NoK matcher) with the primitives
// the algorithms below are written against, all in terms of its own
// position type Pos:
//
//   Root, FirstChild, FollowingSibling   tree steps;
//   Order, SubtreeEnd                    a node's interval in one
//                                        document-order numbering;
//   NextOpenWithTag                      tag-filtered scan step;
//   SubtreeBound, NextInSubtree          the same step bounded by one
//                                        subtree's close (ScopedScan);
//   VisitNodes                           (pos, level, tag) of every node
//                                        in document order;
//   At                                   the node whose open bit in the
//                                        run's BP index is at a position;
//   CountSteps                           commits the tree steps (and tag
//                                        blocks skipped) an algorithm
//                                        counted locally, once per call.
//
// PagedNav navigates the paged string store through one
// StringStore::Navigator (page accesses, counted in
// NavStats::pages_scanned); BpNav navigates the in-memory
// balanced-parentheses index (no page access at all, counted in
// bp_steps).  Index hits arrive located on the run's BP index (LocatedNode)
// and their ancestors are reached by Enclose on it (AncestorPos): BpNav
// takes those positions as they are, and PagedNav maps them to the page
// chain (DocumentStore::StorePosOf), reading no page.  No Dewey ID is
// ever turned back into a position.

/// The open-bit position of the ancestor `up` levels above the node at
/// `pos`, whose depth is `depth` (root = 1; up < depth), on the run's BP
/// index: one Enclose per level, each added to *steps, and none for the
/// document root, which opens at 0.
uint64_t AncestorPos(const BpIndex& bp, uint64_t pos, size_t depth,
                     size_t up, uint64_t* steps) {
  NOK_CHECK(up < depth);
  if (up + 1 == depth) return 0;
  for (; up > 0; --up) {
    const std::optional<uint64_t> parent = bp.Enclose(pos);
    NOK_CHECK(parent.has_value());
    pos = *parent;
    ++*steps;
  }
  return pos;
}


/// Dewey IDs for tag-scan hit positions (ascending, all inside `root`'s
/// subtree — the document root, or a ScopedScan source): an
/// interval-guided descent.  The stack holds the path from `root` to the
/// node most recently visited: (child index, position, subtree end).
/// For each hit, entries whose subtree ends before the hit are popped,
/// and the walk resumes from the shallowest popped sibling — so each
/// level's sibling chain is traversed at most once across all hits.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> DeweysForHits(
    Nav* nav, const std::vector<typename Nav::Pos>& hits,
    const typename Nav::NodeT& root) {
  using Pos = typename Nav::Pos;
  struct Entry {
    uint32_t component;
    Pos pos;
    uint64_t end;
  };
  std::vector<typename Nav::NodeT> out;
  out.reserve(hits.size());
  std::vector<Entry> stack;
  const std::vector<uint32_t>& root_path = root.dewey.components();
  std::vector<uint32_t> components;
  uint64_t steps = 0;

  for (const Pos& hit : hits) {
    const uint64_t g = nav->Order(hit);
    std::optional<Entry> resume;
    while (!stack.empty() && stack.back().end < g) {
      resume = stack.back();
      stack.pop_back();
    }
    if (stack.empty()) {
      NOK_ASSIGN_OR_RETURN(uint64_t root_end, nav->SubtreeEnd(root.pos));
      stack.push_back(Entry{root_path.back(), root.pos, root_end});
      resume.reset();  // The root has no siblings to resume from.
    }
    while (nav->Order(stack.back().pos) != g) {
      // Step down one level to the child whose interval contains g.
      Entry child{0, Pos{}, 0};
      ++steps;
      if (resume.has_value()) {
        NOK_ASSIGN_OR_RETURN(auto sib, nav->FollowingSibling(resume->pos));
        if (!sib.has_value()) {
          return Status::Corruption("scan hit outside every sibling");
        }
        child.component = resume->component + 1;
        child.pos = *sib;
        resume.reset();
      } else {
        NOK_ASSIGN_OR_RETURN(auto first, nav->FirstChild(stack.back().pos));
        if (!first.has_value()) {
          return Status::Corruption("scan hit below a leaf");
        }
        child.pos = *first;
      }
      for (;;) {
        if (nav->Order(child.pos) > g) {
          return Status::Corruption("scan hit between sibling subtrees");
        }
        NOK_ASSIGN_OR_RETURN(child.end, nav->SubtreeEnd(child.pos));
        if (g <= child.end) break;
        ++steps;
        NOK_ASSIGN_OR_RETURN(auto sib, nav->FollowingSibling(child.pos));
        if (!sib.has_value()) {
          return Status::Corruption("scan hit outside every sibling");
        }
        child.pos = *sib;
        ++child.component;
      }
      stack.push_back(child);
    }
    components.assign(root_path.begin(), root_path.end() - 1);
    for (const Entry& entry : stack) components.push_back(entry.component);
    out.push_back({hit, DeweyId(std::vector<uint32_t>(components)), false});
  }
  nav->CountSteps(steps);
  return out;
}

/// The AnchorScan operator's body: every node whose tag satisfies the
/// NoK root's name test.  `want` is the root pattern's resolved tag
/// (kInvalidTag for a name absent from the document).  A selective tag
/// takes the fused path: the tier's tag-filtered scan enumerates the
/// hits and Dewey IDs are derived for those alone.  A frequent tag would
/// gain nothing from the filter while the descent re-navigates per hit,
/// so it keeps the counter scan, as do wildcards: one pass over every
/// node, deriving Dewey IDs from the level sequence.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> ScanCandidates(
    Nav* nav, DocumentStore* store, const PatternNode& root_pattern,
    TagId want) {
  using Pos = typename Nav::Pos;
  std::vector<typename Nav::NodeT> out;
  if (!root_pattern.wildcard && want == kInvalidTag) {
    return out;  // Tag absent: no matches anywhere.
  }
  if (!root_pattern.wildcard &&
      store->CountTag(want) * 2 <= store->stats().node_count) {
    std::vector<Pos> hits;
    uint64_t blocks_skipped = 0;
    std::optional<Pos> pos;
    for (;;) {
      NOK_ASSIGN_OR_RETURN(pos,
                           nav->NextOpenWithTag(pos, want, &blocks_skipped));
      if (!pos.has_value()) break;
      hits.push_back(*pos);
    }
    nav->CountSteps(hits.size(), blocks_skipped);
    return DeweysForHits(nav, hits,
                         typename Nav::NodeT{nav->Root(), DeweyId::Root(),
                                             false});
  }

  DeweyCounter deweys;
  NOK_RETURN_IF_ERROR(
      nav->VisitNodes([&](const Pos& pos, int level, TagId tag) {
        const std::vector<uint32_t>& path =
            deweys.Next(static_cast<size_t>(level));
        if (root_pattern.wildcard || tag == want) {
          out.push_back({pos, DeweyId(path), false});
        }
      }));
  return out;
}

/// The ScopedScan operator's body: the nodes satisfying the NoK root's
/// name test strictly inside the subtrees of `scope` (KeepOutermost).
/// Each source, a scout match that carries its position, is scanned with
/// the tier's tag-filtered step up to its own close; the hits' Dewey IDs
/// come from a descent rooted at the source.  A wildcard root takes
/// every node.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> ScopedScan(
    Nav* nav, const std::vector<typename Nav::NodeT>& scope,
    const PatternNode& root_pattern, TagId want) {
  using NodeT = typename Nav::NodeT;
  using Pos = typename Nav::Pos;
  std::vector<NodeT> out;
  if (!root_pattern.wildcard && want == kInvalidTag) {
    return out;  // Tag absent: no matches anywhere.
  }
  const TagId tag = root_pattern.wildcard ? kInvalidTag : want;
  std::vector<Pos> hits;
  for (const NodeT& source : scope) {
    NOK_ASSIGN_OR_RETURN(auto bound, nav->SubtreeBound(source.pos));
    hits.clear();
    uint64_t blocks_skipped = 0;
    std::optional<Pos> pos = source.pos;
    for (;;) {
      NOK_ASSIGN_OR_RETURN(
          pos, nav->NextInSubtree(*pos, bound, tag, &blocks_skipped));
      if (!pos.has_value()) break;
      hits.push_back(*pos);
    }
    nav->CountSteps(hits.size() + 1, blocks_skipped);  // +1: the bound.
    NOK_ASSIGN_OR_RETURN(std::vector<NodeT> nodes,
                         DeweysForHits(nav, hits, source));
    for (NodeT& node : nodes) out.push_back(std::move(node));
  }
  return out;
}

/// Tier node -> NodeMatch: its Dewey ID, or the virtual root.
template <typename NodeT>
NodeMatch ToMatch(const NodeT& node) {
  return NodeMatch{node.dewey, node.virtual_root};
}

/// Balanced-parentheses tier: every primitive runs on the in-memory
/// BpIndex — tag scans over the SWAR tag array, tree steps over the
/// bitvector — so candidate production touches zero subject-tree pages.
class BpNav {
 public:
  using Cursor = BpCursor;
  using NodeT = BpCursor::NodeT;
  using Pos = uint64_t;

  /// `bp` is the run's BP index (its Derived's).
  BpNav(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp), cursor_(store, bp) {}

  Cursor* cursor() { return &cursor_; }
  const BpIndex& bp() const { return *bp_; }

  /// A BP position is this tier's position.
  NodeT At(uint64_t bp_pos, DeweyId dewey) const {
    return NodeT{bp_pos, std::move(dewey), false};
  }

  Pos Root() const { return 0; }
  Result<std::optional<Pos>> FirstChild(Pos pos) {
    return bp_->FirstChild(pos);
  }
  Result<std::optional<Pos>> FollowingSibling(Pos pos) {
    return bp_->FollowingSibling(pos);
  }
  /// BP bit positions number the opens in document order.
  uint64_t Order(Pos pos) const { return pos; }
  Result<uint64_t> SubtreeEnd(Pos pos) { return bp_->FindClose(pos); }

  /// SWAR tag scan: 64-node blocks without the tag are dismissed in 16
  /// word compares and added to *blocks_skipped.
  Result<std::optional<Pos>> NextOpenWithTag(std::optional<Pos> after,
                                             TagId tag,
                                             uint64_t* blocks_skipped) {
    if (!after.has_value()) {
      if (bp_->TagAt(0) == tag) return std::optional<Pos>(0);
      after = 0;
    }
    return bp_->NextOpenWithTag(*after, tag, blocks_skipped);
  }

  /// A subtree is bounded by its root's close bit (one FindClose).
  using Bound = uint64_t;
  Result<Bound> SubtreeBound(Pos pos) { return bp_->FindClose(pos); }
  Result<std::optional<Pos>> NextInSubtree(Pos after, Bound close, TagId tag,
                                           uint64_t* blocks_skipped) {
    if (tag != kInvalidTag) {
      return bp_->NextOpenWithTag(after, tag, blocks_skipped, close);
    }
    std::optional<Pos> next = bp_->NextOpen(after);
    if (next.has_value() && *next >= close) next.reset();
    return next;
  }

  /// One pass over the raw bits: the running depth gives every open's
  /// level with no rank/select calls.
  template <typename Visit>
  Status VisitNodes(Visit&& visit) {
    uint64_t rank = 0;
    int level = 0;
    const uint64_t n_bits = bp_->bit_count();
    for (Pos pos = 0; pos < n_bits; ++pos) {
      if (!bp_->IsOpen(pos)) {
        --level;
        continue;
      }
      ++level;
      visit(pos, level, bp_->TagAtRank(rank++));
    }
    CountSteps(bp_->node_count());
    return Status::OK();
  }

  void CountSteps(uint64_t steps, uint64_t tag_blocks_skipped = 0) {
    store_->tree()->BumpBpSteps(steps);
    if (tag_blocks_skipped != 0) {
      store_->tree()->BumpBpTagBlocksSkipped(tag_blocks_skipped);
    }
  }

 private:
  DocumentStore* store_;
  const BpIndex* bp_;
  BpCursor cursor_;
};

/// Paged-string tier: the paper's navigation over the page chain.  One
/// StringStore::Navigator serves every page read of the run, the
/// cursor's included, so consecutive steps on one page decode it once.
class PagedNav {
 public:
  using Cursor = StoreCursor;
  using NodeT = StoreCursor::NodeT;
  using Pos = StorePos;

  /// `bp` is the run's BP index (its Derived's), on which index hits
  /// and their ancestors are located.
  PagedNav(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp), tree_(store->tree()), nav_(store->tree()),
        cursor_(store, bp, &nav_) {}

  Cursor* cursor() { return &cursor_; }
  const BpIndex& bp() const { return *bp_; }

  /// The page-chain node of a BP position: a binary search over the
  /// chain pages' first symbols (DocumentStore::StorePosOf), no page read.
  NodeT At(uint64_t bp_pos, DeweyId dewey) const {
    return NodeT{store_->StorePosOf(bp_pos), std::move(dewey), false};
  }

  /// Page accesses of this run (its share of NavStats::pages_scanned).
  uint64_t pages_scanned() const { return nav_.pages_scanned(); }

  Pos Root() const { return tree_->RootPos(); }
  Result<std::optional<Pos>> FirstChild(Pos pos) {
    return nav_.FirstChild(pos);
  }
  Result<std::optional<Pos>> FollowingSibling(Pos pos) {
    return nav_.FollowingSibling(pos);
  }
  uint64_t Order(Pos pos) const { return tree_->GlobalPos(pos); }
  Result<uint64_t> SubtreeEnd(Pos pos) { return nav_.SubtreeEndGlobal(pos); }

  /// Next open symbol with `tag` after `after`, or from the document
  /// start (root included) when `after` is empty.
  Result<std::optional<Pos>> NextOpenWithTag(std::optional<Pos> after,
                                             TagId tag, uint64_t*) {
    if (after.has_value()) return nav_.NextOpenWithTag(*after, tag);
    const Pos root = tree_->RootPos();
    NOK_ASSIGN_OR_RETURN(TagId root_tag, nav_.TagAt(root));
    if (root_tag == tag) return std::optional<Pos>(root);
    return nav_.NextOpenWithTag(root, tag);
  }

  /// A subtree is bounded by its root's level: the scan stops at the
  /// first symbol above it, the root's own close.
  using Bound = int;
  Result<Bound> SubtreeBound(Pos pos) { return nav_.LevelAt(pos); }
  Result<std::optional<Pos>> NextInSubtree(Pos after, Bound root_level,
                                           TagId tag, uint64_t*) {
    return nav_.NextOpenInSubtree(after, tag, root_level);
  }

  template <typename Visit>
  Status VisitNodes(Visit&& visit) {
    std::optional<Pos> pos = tree_->RootPos();
    while (pos.has_value()) {
      NOK_ASSIGN_OR_RETURN(int level, nav_.LevelAt(*pos));
      NOK_ASSIGN_OR_RETURN(TagId tag, nav_.TagAt(*pos));
      visit(*pos, level, tag);
      NOK_ASSIGN_OR_RETURN(pos, nav_.NextOpen(*pos));
    }
    return Status::OK();
  }

  /// Paged work is counted as page accesses by the navigator itself.
  void CountSteps(uint64_t, uint64_t = 0) {}

 private:
  DocumentStore* store_;
  const BpIndex* bp_;
  StringStore* tree_;
  StringStore::Navigator nav_;
  StoreCursor cursor_;
};

/// Anchored evaluation of one NoK tree (Section 6.2 realized): the index
/// supplies located candidate matches of the anchor node; the trunk
/// (anchor -> tree root) is verified by climbing from the anchor's BP
/// position with Enclose, one bp step per level; branch subtrees hang off
/// trunk nodes and are matched one level down; the anchor's own subtree
/// is matched in full.  Every trunk edge is a child axis, so the subject
/// ancestors are exactly the anchor's ancestors at the trunk's depths --
/// no search needed.  The anchor and branch matchers are built once, in
/// the constructor.  Templated over the navigation backend, which maps
/// each BP position to its own node (Nav::At).
template <typename Nav>
class AnchoredMatcherT {
 public:
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;
  using Sub = SubMatcher<CCursor>;

  AnchoredMatcherT(DocumentStore* store, Nav* nav, CCursor* cursor,
                   const NokTree& tree, const std::vector<bool>& designated,
                   int anchor)
      : store_(store), nav_(nav), cursor_(cursor), tree_(tree),
        designated_(designated) {
    // Trunk chain root..anchor.
    const std::vector<int> parents = NokParents(tree);
    for (int n = anchor; n >= 0; n = parents[static_cast<size_t>(n)]) {
      trunk_.push_back(n);
    }
    std::reverse(trunk_.begin(), trunk_.end());
    trunk_pos_.resize(trunk_.size());
    // Branch matchers per trunk node (children except the trunk successor).
    branches_.resize(trunk_.size());
    for (size_t j = 0; j + 1 < trunk_.size(); ++j) {
      for (int child : tree.nodes[static_cast<size_t>(trunk_[j])].children) {
        if (child == trunk_[j + 1]) continue;
        branches_[j].emplace_back(tree, child, designated, cursor);
      }
    }
    anchor_sub_.emplace(tree, anchor, designated, cursor);
  }

  /// Matches one candidate anchor node; returns the binding when the
  /// whole tree matches around it.
  Result<std::optional<Binding<NodeT>>> MatchCandidate(
      const LocatedNode& hit) {
    const bool doc_root = tree_.root_is_doc_root;
    const size_t trunk_len = trunk_.size();
    const size_t depth = hit.dewey.depth();
    // Depth feasibility: for rooted trees the anchor's document depth is
    // fixed; for floating trees it only has a minimum.
    if (doc_root) {
      if (depth != trunk_len - 1) {
        return std::optional<Binding<NodeT>>();
      }
    } else if (depth < trunk_len) {
      return std::optional<Binding<NodeT>>();
    }
    // Subject depth of trunk node j; a rooted tree's trunk node 0 is the
    // virtual document root.
    auto subject_depth = [&](size_t j) {
      return doc_root ? j : depth - (trunk_len - 1) + j;
    };

    // The trunk's positions, bottom-up from the hit.
    uint64_t steps = 0;
    const size_t top = doc_root ? 1 : 0;
    trunk_pos_[trunk_len - 1] = hit.pos;
    for (size_t j = trunk_len - 1; j > top; --j) {
      trunk_pos_[j - 1] = AncestorPos(nav_->bp(), trunk_pos_[j],
                                      subject_depth(j), 1, &steps);
    }
    store_->tree()->BumpBpSteps(steps);

    Binding<NodeT> binding;
    binding.matches.resize(tree_.nodes.size());

    for (size_t j = 0; j < trunk_len; ++j) {
      const int local = trunk_[j];
      const PatternNode* pattern =
          tree_.nodes[static_cast<size_t>(local)].pattern;
      if (pattern->is_doc_root) {
        binding.matches[static_cast<size_t>(local)].push_back(
            cursor_->VirtualRoot());
        continue;
      }
      auto dewey = hit.dewey.Ancestor(depth - subject_depth(j));
      NOK_CHECK(dewey.has_value());
      const NodeT node = nav_->At(trunk_pos_[j], std::move(*dewey));

      if (j + 1 == trunk_len) {
        // The anchor: match its whole pattern subtree.
        NOK_ASSIGN_OR_RETURN(bool ok, MatchSub(*anchor_sub_, node, &binding));
        if (!ok) return std::optional<Binding<NodeT>>();
        continue;
      }

      // Inner trunk node: own constraints + branch subtrees.
      NOK_ASSIGN_OR_RETURN(bool ok, cursor_->Matches(node, *pattern));
      if (!ok) return std::optional<Binding<NodeT>>();
      if (designated_[static_cast<size_t>(local)]) {
        binding.matches[static_cast<size_t>(local)].push_back(node);
      }
      if (!branches_[j].empty()) {
        NOK_ASSIGN_OR_RETURN(bool branch_ok,
                             MatchBranches(node, &branches_[j], &binding));
        if (!branch_ok) return std::optional<Binding<NodeT>>();
      }
    }
    for (auto& list : binding.matches) SortUnique(&list);
    return std::optional<Binding<NodeT>>(std::move(binding));
  }

 private:
  /// Matches one sub-tree at `node`; on success moves its matches into
  /// the binding via the index map.
  Result<bool> MatchSub(Sub& sub, const NodeT& node, Binding<NodeT>* binding) {
    NOK_ASSIGN_OR_RETURN(bool ok, sub.matcher.Match(node, &sub.lists));
    if (!ok) return false;  // Match leaves the lists empty.
    for (size_t i = 0; i < sub.lists.size(); ++i) {
      std::vector<NodeT>& into =
          binding->matches[static_cast<size_t>(sub.map[i])];
      into.insert(into.end(), std::make_move_iterator(sub.lists[i].begin()),
                  std::make_move_iterator(sub.lists[i].end()));
      sub.lists[i].clear();
    }
    return true;
  }

  /// One level of Algorithm 1: every branch must match some child of
  /// `parent`; branches that collect designated matches keep matching all
  /// children.
  Result<bool> MatchBranches(const NodeT& parent, std::vector<Sub>* branches,
                             Binding<NodeT>* binding) {
    const size_t n = branches->size();
    std::vector<char> satisfied(n, 0);
    size_t remaining = n;
    size_t collecting = 0;
    for (const Sub& b : *branches) collecting += b.collects;

    NOK_ASSIGN_OR_RETURN(auto u, cursor_->FirstChild(parent));
    while (u.has_value() && (remaining > 0 || collecting > 0)) {
      for (size_t i = 0; i < n; ++i) {
        Sub& branch = (*branches)[i];
        if (satisfied[i] && !branch.collects) continue;
        NOK_ASSIGN_OR_RETURN(bool ok, MatchSub(branch, *u, binding));
        if (!ok) continue;
        if (!satisfied[i]) {
          satisfied[i] = 1;
          --remaining;
        }
      }
      NOK_ASSIGN_OR_RETURN(auto next, cursor_->FollowingSibling(*u));
      u = next;
    }
    return remaining == 0;
  }

  DocumentStore* store_;
  Nav* nav_;
  CCursor* cursor_;
  const NokTree& tree_;
  const std::vector<bool>& designated_;
  std::vector<int> trunk_;
  /// Trunk node j's BP position for the current candidate.
  std::vector<uint64_t> trunk_pos_;
  std::vector<std::vector<Sub>> branches_;
  std::optional<Sub> anchor_sub_;
};

const char* ProbeOpName(StartStrategy strategy) {
  switch (strategy) {
    case StartStrategy::kTagIndex:
      return "TagIndexProbe";
    case StartStrategy::kValueIndex:
      return "ValueIndexProbe";
    case StartStrategy::kAuto:
    case StartStrategy::kScan:
      break;
  }
  return "AnchorScan";
}

/// One tree's candidates in the form its evaluation consumes: located
/// anchor index hits (anchored evaluation, which climbs from their BP
/// positions) or candidate root nodes (whole-tree matching).
template <typename NodeT>
struct Candidates {
  std::vector<LocatedNode> hits;
  std::vector<NodeT> nodes;
};

/// Sorts located nodes into document order (their BP positions) and
/// drops duplicates.
void SortUniqueByPos(std::vector<LocatedNode>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const LocatedNode& a, const LocatedNode& b) {
              return a.pos < b.pos;
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end(),
                           [](const LocatedNode& a, const LocatedNode& b) {
                             return a.pos == b.pos;
                           }),
               nodes->end());
}

/// Tier nodes -> NodeMatches, in the same order.
template <typename NodeT>
std::vector<NodeMatch> ToMatches(const std::vector<NodeT>& nodes) {
  std::vector<NodeMatch> out;
  out.reserve(nodes.size());
  for (const NodeT& node : nodes) out.push_back(ToMatch(node));
  return out;
}

/// The plan-execution body, templated over the navigation backend; the
/// control flow is identical across backends, so results are too.  The
/// run's BP index (in the Nav) and its probes' positions come from one
/// Derived, so every position belongs to the index the run navigates.
///
/// Trees are matched in plan.schedule order, children first, each
/// evaluated arc injected into the parent's matching as a node
/// predicate.  A top-down arc P -> C adds a scout pass over P before C
/// is matched (Match with scout=true): P's access path and matching
/// without C's constraint, whose source matches become C's scope.  C's
/// candidates are then produced inside that scope only, and P's final
/// match runs over the scout's surviving candidates, not a new probe.
template <typename Nav>
class PlanRun {
 public:
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;

  PlanRun(DocumentStore* store, const DocumentStore::Derived& derived,
          Nav* nav, const QueryPlan& plan, const NokPartition& partition,
          const std::vector<TagId>& tag_table, QueryStats* stats,
          ExecutionTrace* trace)
      : store_(store),
        derived_(derived),
        nav_(nav),
        plan_(plan),
        partition_(partition),
        tag_table_(tag_table),
        stats_(stats),
        trace_(trace),
        cursor_(nav->cursor()) {}

  Result<std::vector<DeweyId>> Run() {
    const size_t n_trees = partition_.trees.size();
    NOK_CHECK(plan_.trees.size() == n_trees &&
              plan_.schedule.size() == n_trees)
        << "plan does not fit the partition";
    *stats_ = QueryStats{};
    stats_->trees.resize(n_trees);
    trace_->operators.clear();
    nav_->cursor()->set_tag_table(&tag_table_);

    bindings_.assign(n_trees, {});
    qualified_roots_.assign(n_trees, {});
    evaluated_.assign(n_trees, 0);
    scouted_.assign(n_trees, 0);
    survivors_.assign(n_trees, {});
    scope_.assign(n_trees, {});
    for (size_t a = 0; a < partition_.arcs.size(); ++a) {
      if (plan_.DirectionOf(a) != ArcDirection::kTopDown) continue;
      if (!TopDownEligible(partition_, partition_.arcs[a])) {
        return Status::InvalidArgument(
            "plan marks an ineligible arc top-down");
      }
    }

    for (const int tree_id : plan_.schedule) {
      NOK_RETURN_IF_ERROR(Match(tree_id, /*scout=*/false));
    }
    return LivenessAndOutput();
  }

 private:
  /// Whether the arc into `tree_id` (if any) runs top-down.
  bool TopDownInto(int tree_id) const {
    const GlobalArc* arc = partition_.ArcInto(tree_id);
    if (arc == nullptr) return false;
    const size_t index = static_cast<size_t>(arc - partition_.arcs.data());
    return plan_.DirectionOf(index) == ArcDirection::kTopDown;
  }

  /// What one NokMatch pass produced.
  struct Matched {
    std::vector<Binding<NodeT>> bindings;
    std::vector<size_t> bound;   ///< Candidate indexes that bound.
    size_t candidates = 0;       ///< Candidates after the pre-filters.
  };

  /// Matches one tree.  scout=false is the tree's real evaluation: its
  /// bindings and qualified roots are kept and its roots become a
  /// constraint on the parent arc's source.  scout=true (top-down arcs
  /// only) keeps just the surviving candidates and, per top-down arc
  /// leaving the tree, the sources that scope the child tree.
  Status Match(int tree_id, bool scout) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition_.trees[t];
    const AccessPath& access = plan_.trees[t].access;
    if (TopDownInto(tree_id)) {
      // The parent's scout scopes this tree (and is reused afterwards).
      const int parent = partition_.ArcInto(tree_id)->from_tree;
      if (!scouted_[static_cast<size_t>(parent)]) {
        NOK_RETURN_IF_ERROR(Match(parent, /*scout=*/true));
      }
    }
    if (!scout) {
      for (const GlobalArc* arc : partition_.ArcsFrom(tree_id)) {
        NOK_CHECK(evaluated_[static_cast<size_t>(arc->to_tree)])
            << "plan schedule is not children-first";
      }
    }
    const bool reuse = !scout && scouted_[t];
    const bool anchored = access.strategy != StartStrategy::kScan &&
                          access.anchor != 0 && !HasSiblingOrder(tree);
    Candidates<NodeT> cands;
    if (reuse) cands = std::move(survivors_[t]);
    Matched matched;
    if (anchored) {
      NOK_RETURN_IF_ERROR(
          MatchAnchored(tree_id, scout, reuse, &cands.hits, &matched));
    } else {
      NOK_RETURN_IF_ERROR(
          MatchWholeTree(tree_id, scout, reuse, &cands.nodes, &matched));
    }

    if (scout) {
      KeepSurvivors(tree_id, anchored, matched.bound, &cands);
      ScopeChildren(tree_id, matched.bindings);
      return Status::OK();
    }
    QueryStats::TreeStats& tree_stats = stats_->trees[t];
    tree_stats.strategy = access.strategy;
    tree_stats.candidates = matched.candidates;
    tree_stats.bindings = matched.bindings.size();
    for (const Binding<NodeT>& binding : matched.bindings) {
      qualified_roots_[t].push_back(ToMatch(binding.matches[0].front()));
    }
    bindings_[t] = std::move(matched.bindings);
    SortUnique(&qualified_roots_[t]);
    evaluated_[t] = 1;

    // Make this tree's qualified roots a predicate on its parent arc's
    // source node.
    const GlobalArc* arc = partition_.ArcInto(tree_id);
    if (arc != nullptr) {
      const NokTree& parent_tree =
          partition_.trees[static_cast<size_t>(arc->from_tree)];
      const PatternNode* source =
          parent_tree.nodes[static_cast<size_t>(arc->from_node)].pattern;
      cursor_.AddConstraint(
          source, typename CCursor::ArcConstraint{arc->axis,
                                                  &qualified_roots_[t]});
    }
    return Status::OK();
  }

  /// Index-anchored evaluation: probe (unless reusing a scout's
  /// survivors), scope, pre-filter, then the anchored NokMatch.
  Status MatchAnchored(int tree_id, bool scout, bool reuse,
                       std::vector<LocatedNode>* hits, Matched* out) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition_.trees[t];
    const AccessPath& access = plan_.trees[t].access;
    if (!reuse) {
      NOK_ASSIGN_OR_RETURN(*hits, Probe(tree_id, access));
      if (TopDownInto(tree_id)) {
        // The anchor's NoK root must lie inside the scope.
        const size_t trunk_len =
            static_cast<size_t>(tree.DepthOf(access.anchor));
        const std::vector<NodeMatch> scope = ToMatches(scope_[t]);
        Filter(tree_id, ScopeDetail(tree_id), hits,
               [&](const LocatedNode& hit) {
                 if (hit.dewey.depth() < trunk_len) return false;
                 auto root = hit.dewey.Ancestor(trunk_len - 1);
                 return root.has_value() &&
                        HasRelatedOuter(scope,
                                        NodeMatch{std::move(*root), false},
                                        Axis::kDescendant);
               });
      }
    }
    size_t trunk_len = 0;
    const std::vector<TrunkArcCheck> checks =
        TrunkArcChecks(partition_, tree, tree_id, access.anchor, &trunk_len,
                       evaluated_, qualified_roots_);
    if (!checks.empty()) {
      Filter(tree_id, "arcs=" + std::to_string(checks.size()), hits,
             [&](const LocatedNode& hit) {
               return PassesTrunkChecks(tree, trunk_len, checks, hit.dewey);
             });
    }
    out->candidates = hits->size();
    SortUniqueByPos(hits);

    OperatorStats match =
        Op("NokMatch", tree_id, scout ? "scout anchored" : "anchored");
    match.has_estimate = true;
    match.estimated = access.cardinality.matches;
    match.rows_in = hits->size();
    OpTimer match_timer(store_);
    const std::vector<bool> designated =
        ComputeDesignated(partition_, tree_id);  // The matcher keeps a ref.
    AnchoredMatcherT<Nav> matcher(store_, nav_, &cursor_, tree, designated,
                                  access.anchor);
    for (size_t i = 0; i < hits->size(); ++i) {
      NOK_ASSIGN_OR_RETURN(auto binding, matcher.MatchCandidate((*hits)[i]));
      if (!binding.has_value()) continue;
      out->bound.push_back(i);
      out->bindings.push_back(std::move(*binding));
    }
    match.rows_out = out->bindings.size();
    match_timer.Finish(&match);
    trace_->operators.push_back(std::move(match));
    return Status::OK();
  }

  /// Whole-tree matching from candidate roots (produced per the access
  /// path, or a scout's survivors re-filtered), one NokMatch each.
  Status MatchWholeTree(int tree_id, bool scout, bool reuse,
                        std::vector<NodeT>* candidates, Matched* out) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition_.trees[t];
    const AccessPath& access = plan_.trees[t].access;
    if (!reuse) {
      NOK_RETURN_IF_ERROR(RootCandidates(tree_id, access, candidates));
    } else {
      FilterRoots(tree_id, candidates);
    }
    out->candidates = candidates->size();

    OperatorStats match =
        Op("NokMatch", tree_id, scout ? "scout whole-tree" : "whole-tree");
    match.has_estimate = true;
    match.estimated = access.cardinality.matches;
    match.rows_in = candidates->size();
    OpTimer match_timer(store_);
    NokMatcher<CCursor> matcher(&tree, &cursor_,
                                ComputeDesignated(partition_, tree_id));
    for (size_t c = 0; c < candidates->size(); ++c) {
      Binding<NodeT> binding;
      binding.matches.resize(tree.nodes.size());
      NOK_ASSIGN_OR_RETURN(bool ok,
                           matcher.Match((*candidates)[c], &binding.matches));
      if (!ok) continue;
      for (auto& list : binding.matches) SortUnique(&list);
      out->bound.push_back(c);
      out->bindings.push_back(std::move(binding));
    }
    match.rows_out = out->bindings.size();
    match_timer.Finish(&match);
    trace_->operators.push_back(std::move(match));
    return Status::OK();
  }

  OperatorStats Op(const char* name, int tree_id, std::string detail) const {
    OperatorStats op;
    op.op = name;
    op.tree = tree_id;
    op.detail = std::move(detail);
    return op;
  }

  /// The probe operator of an index access path.
  Result<std::vector<LocatedNode>> Probe(int tree_id,
                                         const AccessPath& access) {
    OperatorStats probe = Op(ProbeOpName(access.strategy), tree_id,
                             access.display);
    probe.has_estimate = true;
    probe.estimated = access.cardinality.candidates;
    OpTimer probe_timer(store_);
    NOK_ASSIGN_OR_RETURN(auto hits, FetchHits(store_, derived_, access));
    probe.rows_out = hits.size();
    probe_timer.Finish(&probe);
    trace_->operators.push_back(std::move(probe));
    return hits;
  }

  /// A SemiJoinFilter operator: keeps the items `keep` accepts (sorted
  /// Dewey merges, no I/O).
  template <typename T, typename Keep>
  void Filter(int tree_id, std::string detail, std::vector<T>* items,
              Keep keep) {
    OperatorStats filter = Op("SemiJoinFilter", tree_id, std::move(detail));
    filter.rows_in = items->size();
    OpTimer filter_timer(store_);
    items->erase(std::remove_if(items->begin(), items->end(),
                                [&](const T& item) { return !keep(item); }),
                 items->end());
    filter.rows_out = items->size();
    filter_timer.Finish(&filter);
    trace_->operators.push_back(std::move(filter));
  }

  /// Detail of the filter that bounds an index-probed tree of a top-down
  /// arc to its scope.
  std::string ScopeDetail(int tree_id) const {
    const GlobalArc* arc = partition_.ArcInto(tree_id);
    return "scope=tree " + std::to_string(arc->from_tree) + " node " +
           std::to_string(arc->from_node);
  }

  /// Whole-tree pre-filter: candidate roots against the evaluated child
  /// trees of arcs leaving the root.
  template <typename T, typename DeweyOf>
  void FilterRootsBy(int tree_id, std::vector<T>* items, DeweyOf dewey_of) {
    const std::vector<RootArcCheck> checks =
        RootArcChecks(partition_, tree_id, evaluated_, qualified_roots_);
    if (checks.empty()) return;
    Filter(tree_id, "arcs=" + std::to_string(checks.size()), items,
           [&](const T& item) {
             return PassesRootChecks(dewey_of(item), checks);
           });
  }

  void FilterRoots(int tree_id, std::vector<NodeT>* nodes) {
    if (partition_.trees[static_cast<size_t>(tree_id)].root_is_doc_root) {
      return;
    }
    FilterRootsBy(tree_id, nodes,
                  [](const NodeT& node) -> const DeweyId& {
                    return node.dewey;
                  });
  }

  /// Candidate roots for whole-tree matching, per the access path (and
  /// inside the scope when the tree's incoming arc is top-down).
  Status RootCandidates(int tree_id, const AccessPath& access,
                        std::vector<NodeT>* candidates) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition_.trees[t];
    const bool scoped = TopDownInto(tree_id);
    if (tree.root_is_doc_root) {
      OperatorStats scan = Op("AnchorScan", tree_id, "root=(doc-root)");
      scan.has_estimate = true;
      scan.estimated = 1;
      scan.rows_out = 1;
      candidates->push_back(nav_->cursor()->VirtualRoot());
      trace_->operators.push_back(std::move(scan));
      return Status::OK();
    }
    const PatternNode& root = *tree.nodes[0].pattern;
    if (access.strategy == StartStrategy::kScan) {
      OperatorStats scan =
          Op(scoped ? "ScopedScan" : "AnchorScan", tree_id, access.display);
      scan.has_estimate = true;
      scan.estimated = access.cardinality.candidates;
      OpTimer scan_timer(store_);
      if (scoped) {
        scan.rows_in = scope_[t].size();
        NOK_ASSIGN_OR_RETURN(
            *candidates, ScopedScan(nav_, scope_[t], root,
                                    ResolvedTag(tag_table_, &root)));
      } else {
        NOK_ASSIGN_OR_RETURN(
            *candidates, ScanCandidates(nav_, store_, root,
                                        ResolvedTag(tag_table_, &root)));
      }
      scan.rows_out = candidates->size();
      scan_timer.Finish(&scan);
      trace_->operators.push_back(std::move(scan));
      FilterRoots(tree_id, candidates);
      return Status::OK();
    }
    NOK_ASSIGN_OR_RETURN(std::vector<LocatedNode> hits,
                         Probe(tree_id, access));
    if (access.anchor == 0) {
      if (scoped) {
        const std::vector<NodeMatch> scope = ToMatches(scope_[t]);
        Filter(tree_id, ScopeDetail(tree_id), &hits,
               [&](const LocatedNode& hit) {
                 return HasRelatedOuter(scope, NodeMatch{hit.dewey, false},
                                        Axis::kDescendant);
               });
      }
      FilterRootsBy(tree_id, &hits,
                    [](const LocatedNode& hit) -> const DeweyId& {
                      return hit.dewey;
                    });
    } else {
      // Index hits below the root but ordering constraints force a
      // whole-tree match: each hit's candidate root lies `up` levels
      // above it.  Roots keep their hit's position until the scope
      // filter has run, so only the kept ones are climbed to.
      const size_t up = static_cast<size_t>(tree.DepthOf(access.anchor) - 1);
      std::vector<LocatedNode> roots;
      for (const LocatedNode& hit : hits) {
        auto root = hit.dewey.Ancestor(up);
        if (root.has_value()) roots.push_back({std::move(*root), hit.pos});
      }
      if (scoped) {
        const std::vector<NodeMatch> scope = ToMatches(scope_[t]);
        Filter(tree_id, ScopeDetail(tree_id), &roots,
               [&](const LocatedNode& root) {
                 return HasRelatedOuter(scope, NodeMatch{root.dewey, false},
                                        Axis::kDescendant);
               });
      }
      uint64_t steps = 0;
      for (LocatedNode& root : roots) {
        root.pos = AncestorPos(nav_->bp(), root.pos, root.dewey.depth() + up,
                               up, &steps);
      }
      store_->tree()->BumpBpSteps(steps);
      hits = std::move(roots);
    }
    SortUniqueByPos(&hits);
    candidates->reserve(hits.size());
    for (LocatedNode& hit : hits) {
      candidates->push_back(nav_->At(hit.pos, std::move(hit.dewey)));
    }
    return Status::OK();
  }

  /// Keeps the scout's candidates that produced a binding: the parent's
  /// final match runs over these alone.
  void KeepSurvivors(int tree_id, bool anchored,
                     const std::vector<size_t>& matched,
                     Candidates<NodeT>* cands) {
    Candidates<NodeT>& kept = survivors_[static_cast<size_t>(tree_id)];
    for (const size_t i : matched) {
      if (anchored) {
        kept.hits.push_back(std::move(cands->hits[i]));
      } else {
        kept.nodes.push_back(std::move(cands->nodes[i]));
      }
    }
    scouted_[static_cast<size_t>(tree_id)] = 1;
  }

  /// The scope of every top-down arc leaving a scouted tree: the scout
  /// bindings' matches of the arc's source node.
  void ScopeChildren(int tree_id,
                     const std::vector<Binding<NodeT>>& bindings) {
    for (const GlobalArc* arc : partition_.ArcsFrom(tree_id)) {
      if (!TopDownInto(arc->to_tree)) continue;
      std::vector<NodeT> sources;
      for (const Binding<NodeT>& binding : bindings) {
        const auto& matches =
            binding.matches[static_cast<size_t>(arc->from_node)];
        sources.insert(sources.end(), matches.begin(), matches.end());
      }
      SortUnique(&sources);
      KeepOutermost(&sources);
      scope_[static_cast<size_t>(arc->to_tree)] = std::move(sources);
    }
  }

  /// Top-down: a binding is alive when its root is related to an alive
  /// parent binding's source match (bindings' injected constraints are
  /// already satisfied bottom-up) — one HasRelatedOuter search over the
  /// sorted (for `//`, outermost) sources per binding.  Increasing id
  /// order visits parents first.  Then the returning node's matches over
  /// alive bindings.
  Result<std::vector<DeweyId>> LivenessAndOutput() {
    const size_t n_trees = partition_.trees.size();
    std::vector<std::vector<char>> alive(n_trees);
    alive[0].assign(bindings_[0].size(), 1);
    for (size_t t = 1; t < n_trees; ++t) {
      const GlobalArc* arc = partition_.ArcInto(static_cast<int>(t));
      NOK_CHECK(arc != nullptr);

      OperatorStats join =
          Op("StructuralSemiJoin", static_cast<int>(t),
             "tree " + std::to_string(arc->from_tree) + " node " +
                 std::to_string(arc->from_node) + " -" +
                 std::string(AxisName(arc->axis)) + "-> tree " +
                 std::to_string(t));
      join.has_estimate = true;
      join.estimated = plan_.trees[t].access.cardinality.matches;
      join.rows_in = bindings_[t].size();
      OpTimer join_timer(store_);

      const size_t parent = static_cast<size_t>(arc->from_tree);
      std::vector<NodeMatch> parent_sources;
      for (size_t b = 0; b < bindings_[parent].size(); ++b) {
        if (!alive[parent][b]) continue;
        const auto& sources =
            bindings_[parent][b].matches[static_cast<size_t>(arc->from_node)];
        for (const NodeT& source : sources) {
          parent_sources.push_back(ToMatch(source));
        }
      }
      SortUnique(&parent_sources);
      if (arc->axis == Axis::kDescendant) KeepOutermost(&parent_sources);
      alive[t].assign(bindings_[t].size(), 0);
      size_t alive_count = 0;
      for (size_t b = 0; b < bindings_[t].size(); ++b) {
        const NodeMatch root = ToMatch(bindings_[t][b].matches[0].front());
        if (HasRelatedOuter(parent_sources, root, arc->axis)) {
          alive[t][b] = 1;
          ++alive_count;
        }
      }
      join.rows_out = alive_count;
      join_timer.Finish(&join);
      trace_->operators.push_back(std::move(join));
    }

    const size_t rt = static_cast<size_t>(partition_.returning_tree);
    const int rn = partition_.trees[rt].returning_node;
    NOK_CHECK(rn >= 0) << "partition lost the returning node";
    OperatorStats output =
        Op("Output", partition_.returning_tree, "node " + std::to_string(rn));
    std::vector<NodeT> results;
    size_t alive_in = 0;
    for (size_t b = 0; b < bindings_[rt].size(); ++b) {
      if (!alive[rt][b]) continue;
      ++alive_in;
      auto& matches = bindings_[rt][b].matches[static_cast<size_t>(rn)];
      results.insert(results.end(), std::make_move_iterator(matches.begin()),
                     std::make_move_iterator(matches.end()));
    }
    SortUnique(&results);

    std::vector<DeweyId> out;
    out.reserve(results.size());
    for (NodeT& match : results) {
      NOK_CHECK(!match.virtual_root);
      out.push_back(std::move(match.dewey));
    }
    stats_->results = out.size();
    output.rows_in = alive_in;
    output.rows_out = out.size();
    trace_->operators.push_back(std::move(output));
    return out;
  }

  DocumentStore* store_;
  const DocumentStore::Derived& derived_;
  Nav* nav_;
  const QueryPlan& plan_;
  const NokPartition& partition_;
  const std::vector<TagId>& tag_table_;
  QueryStats* stats_;
  ExecutionTrace* trace_;
  CCursor cursor_;

  std::vector<std::vector<Binding<NodeT>>> bindings_;
  std::vector<std::vector<NodeMatch>> qualified_roots_;
  std::vector<char> evaluated_;
  /// Scout state, per tree: whether it ran, its surviving candidates, and
  /// (indexed by child tree) the scope of each top-down arc.
  std::vector<char> scouted_;
  std::vector<Candidates<NodeT>> survivors_;
  std::vector<std::vector<NodeT>> scope_;
};

}  // namespace

Result<std::vector<DeweyId>> Executor::Run(
    const QueryPlan& plan, const NokPartition& partition,
    const std::vector<TagId>& tag_table, const QueryOptions& /*options*/,
    QueryStats* stats, ExecutionTrace* trace) {
  NOK_CHECK(stats != nullptr && trace != nullptr);
  trace->empty_result = plan.empty_result;
  trace->empty_reason = plan.empty_reason;
  if (plan.empty_result) {
    // Schema-impossible plan: answer before any navigation backend is
    // even constructed — zero subject-tree pages, zero index probes.
    *stats = QueryStats{};
    stats->trees.resize(partition.trees.size());
    trace->operators.clear();
    trace->nav_mode = store_->nav_mode();
    trace->bp_steps = 0;
    trace->bp_tag_blocks_skipped = 0;
    trace->pages_scanned = 0;
    OperatorStats op;
    op.op = "EmptyResult";
    op.detail = plan.empty_reason;
    op.has_estimate = true;
    trace->operators.push_back(std::move(op));
    return std::vector<DeweyId>();
  }
  // One generation for the whole run: the BP index it navigates and the
  // positions its probes return.
  NOK_ASSIGN_OR_RETURN(const std::shared_ptr<const DocumentStore::Derived>
                           derived,
                       store_->derived());
  const BpIndex* bp = derived->bp.get();
  if (store_->nav_mode() == NavMode::kBp) {
    const StringStore::NavStats before = store_->tree()->nav_stats();
    BpNav nav(store_, bp);
    NOK_ASSIGN_OR_RETURN(
        auto out, PlanRun<BpNav>(store_, *derived, &nav, plan, partition,
                                 tag_table, stats, trace)
                      .Run());
    const StringStore::NavStats after = store_->tree()->nav_stats();
    trace->nav_mode = NavMode::kBp;
    trace->pages_scanned = 0;
    trace->bp_steps = after.bp_steps - before.bp_steps;
    trace->bp_tag_blocks_skipped =
        after.bp_tag_blocks_skipped - before.bp_tag_blocks_skipped;
    return out;
  }
  PagedNav nav(store_, bp);
  NOK_ASSIGN_OR_RETURN(auto out, PlanRun<PagedNav>(store_, *derived, &nav,
                                                   plan, partition, tag_table,
                                                   stats, trace)
                                     .Run());
  trace->pages_scanned = nav.pages_scanned();
  return out;
}

}  // namespace nok
