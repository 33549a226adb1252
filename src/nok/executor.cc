#include "nok/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "nok/bp_cursor.h"
#include "nok/logical_matcher.h"
#include "nok/physical_matcher.h"

namespace nok {

namespace {

/// True iff `outer` has a related member of the sorted `inners` set
/// (Dewey containment; equivalent to the interval condition and always
/// available, so arc predicates use it in both join modes).
bool AnyRelated(const NodeMatch& outer, const std::vector<NodeMatch>& inners,
                Axis axis) {
  if (inners.empty()) return false;
  if (axis == Axis::kDescendant) {
    if (outer.virtual_root) return true;
    auto it = std::upper_bound(inners.begin(), inners.end(), outer,
                               DocOrderLess);
    return it != inners.end() &&
           IsRelated(outer, *it, Axis::kDescendant, JoinMode::kDewey);
  }
  if (outer.virtual_root) return false;
  if (axis == Axis::kFollowing) {
    // The document-order-last inner is the canonical witness.
    return IsRelated(outer, inners.back(), Axis::kFollowing,
                     JoinMode::kDewey);
  }
  // Preceding: scan inners from the front past the outer's ancestors.
  for (const NodeMatch& inner : inners) {
    if (!DocOrderLess(inner, outer)) break;
    if (IsRelated(outer, inner, Axis::kPreceding, JoinMode::kDewey)) {
      return true;
    }
  }
  return false;
}

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
    NodeMatch as_match;
    as_match.virtual_root = node.virtual_root;
    if (!node.virtual_root) as_match.dewey = node.dewey;
    for (const ArcConstraint& constraint : it->second) {
      if (!AnyRelated(as_match, *constraint.qualified_roots,
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

/// A standalone sub-NoK-tree with its index mapping and designations.
struct SubMatcherData {
  NokTree sub;
  std::vector<int> map;            // Sub index -> original local index.
  std::vector<bool> designated;    // Over sub indexes.
  bool collects = false;           // Any designated node inside?
};

SubMatcherData MakeSub(const NokTree& tree, int local,
                       const std::vector<bool>& designated) {
  SubMatcherData data;
  data.sub = ExtractNokSubtree(tree, local, &data.map);
  data.designated.resize(data.sub.nodes.size());
  for (size_t i = 0; i < data.map.size(); ++i) {
    data.designated[i] = designated[static_cast<size_t>(data.map[i])];
    data.collects = data.collects || data.designated[i];
  }
  return data;
}

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

/// Wall-clock + subject-tree-page accounting for one operator.
class OpTimer {
 public:
  explicit OpTimer(DocumentStore* store)
      : store_(store),
        pages_before_(store->tree()->nav_stats().pages_scanned),
        start_(std::chrono::steady_clock::now()) {}

  void Finish(OperatorStats* op) const {
    op->pages =
        store_->tree()->nav_stats().pages_scanned - pages_before_;
    op->seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  }

 private:
  DocumentStore* store_;
  uint64_t pages_before_;
  std::chrono::steady_clock::time_point start_;
};

/// One global-arc predicate whose source node lies on the anchored
/// trunk: the source's subject Dewey ID is a fixed prefix of the anchor
/// candidate's, so the arc can be checked per candidate with a sorted
/// merge before any page is fetched — the SemiJoinFilter operator.  The
/// same AnyRelated test runs again inside ConstrainedCursorT::Matches
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
    int anchor, size_t* trunk_len,
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

/// Keeps only anchor hits that pass depth feasibility and every trunk
/// arc check (see TrunkArcCheck; both conditions are re-verified during
/// matching, so this is a pure pre-filter).
void PrefilterAnchorHits(const NokTree& tree, size_t trunk_len,
                         const std::vector<TrunkArcCheck>& checks,
                         std::vector<DocumentStore::IndexedNode>* hits) {
  const bool doc_root = tree.root_is_doc_root;
  auto rejected = [&](const DocumentStore::IndexedNode& hit) {
    const size_t depth = hit.dewey.depth();
    if (doc_root) {
      if (depth != trunk_len - 1) return true;
    } else if (depth < trunk_len) {
      return true;
    }
    for (const TrunkArcCheck& check : checks) {
      NodeMatch as_match;
      if (check.source_is_doc_root) {
        as_match.virtual_root = true;
      } else {
        const size_t subject_depth =
            doc_root ? check.trunk_index
                     : depth - (trunk_len - 1) + check.trunk_index;
        auto dewey = hit.dewey.Ancestor(depth - subject_depth);
        NOK_CHECK(dewey.has_value());
        as_match.dewey = std::move(*dewey);
      }
      if (!AnyRelated(as_match, *check.inners, check.axis)) return true;
    }
    return false;
  };
  hits->erase(std::remove_if(hits->begin(), hits->end(), rejected),
              hits->end());
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
    const std::vector<std::vector<NodeMatch>>& qualified_roots) {
  std::vector<RootArcCheck> checks;
  for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
    if (arc->from_node != 0) continue;
    checks.push_back(RootArcCheck{
        arc->axis, &qualified_roots[static_cast<size_t>(arc->to_tree)]});
  }
  return checks;
}

bool PassesRootChecks(const DeweyId& dewey,
                      const std::vector<RootArcCheck>& checks) {
  NodeMatch as_match;
  as_match.dewey = dewey;
  for (const RootArcCheck& check : checks) {
    if (!AnyRelated(as_match, *check.inners, check.axis)) return false;
  }
  return true;
}

/// Index hits for one access path (the probe operators' body; shared by
/// both navigation backends — index probes never touch tree pages).
Result<std::vector<DocumentStore::IndexedNode>> FetchHits(
    DocumentStore* store, const AccessPath& access) {
  std::vector<DocumentStore::IndexedNode> hits;
  switch (access.strategy) {
    case StartStrategy::kValueIndex:
      return store->NodesWithValue(Slice(access.value_operand));
    case StartStrategy::kTagIndex:
      if (access.tag == kInvalidTag) return hits;  // Absent tag: empty.
      return store->NodesWithTag(access.tag);
    case StartStrategy::kPathIndex:
      if (access.tag_path.empty()) return hits;  // Unknown path: empty.
      return store->NodesWithPath(access.tag_path);
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
//   VisitNodes                           (pos, level, tag) of every node
//                                        in document order;
//   NodeAt, ResolveHits                  Dewey IDs / index hits -> nodes;
//   CountSteps                           commits the tree steps (and tag
//                                        blocks skipped) an algorithm
//                                        counted locally, once per call.
//
// PagedNav navigates the paged string store (BufferPool traffic, counted
// in NavStats::pages_scanned by the store itself); BpNav navigates the
// in-memory balanced-parentheses index (no page access at all, counted
// in bp_steps).

/// One level of a cached root..node path.
template <typename Pos>
struct PathStep {
  uint32_t component;  ///< Child index: the Dewey component.
  Pos pos;
};

/// The prefix-cached Dewey walk: the position of `dewey`'s node.  The
/// tier's dewey_path() holds the root..node path of the previous walk,
/// so sorted IDs sharing a prefix resume from it: equal components are
/// reused, and at the first divergence the walk continues rightward
/// from the cached sibling when the target lies to its right.  Tree
/// steps are added to *steps.
template <typename Nav>
Result<typename Nav::Pos> WalkTo(Nav* nav, const DeweyId& dewey,
                                 uint64_t* steps) {
  using Pos = typename Nav::Pos;
  const auto& comp = dewey.components();
  if (comp.empty() || comp[0] != 0) {
    return Status::InvalidArgument("bad Dewey ID " + dewey.ToString());
  }
  std::vector<PathStep<Pos>>& cached = *nav->dewey_path();
  size_t keep = 0;
  while (keep < cached.size() && keep < comp.size() &&
         cached[keep].component == comp[keep]) {
    ++keep;
  }
  const bool resume_sideways = keep < cached.size() && keep < comp.size() &&
                               keep > 0 && cached[keep].component < comp[keep];
  cached.resize(keep + (resume_sideways ? 1 : 0));
  if (cached.empty()) {
    cached.push_back(PathStep<Pos>{0, nav->Root()});
    ++*steps;
  }
  for (;;) {
    PathStep<Pos>& last = cached.back();
    const size_t level = cached.size();  // 1-based depth reached.
    std::optional<Pos> next;
    if (last.component < comp[level - 1]) {
      // Walk right to the desired sibling.
      ++*steps;
      NOK_ASSIGN_OR_RETURN(next, nav->FollowingSibling(last.pos));
      if (next.has_value()) {
        last.pos = *next;
        ++last.component;
        continue;
      }
    } else if (level == comp.size()) {
      return last.pos;  // Arrived.
    } else {
      ++*steps;
      NOK_ASSIGN_OR_RETURN(next, nav->FirstChild(last.pos));
      if (next.has_value()) {
        cached.push_back(PathStep<Pos>{0, *next});
        continue;
      }
    }
    return Status::Corruption("index references missing node " +
                              dewey.ToString());
  }
}

/// Candidate Dewey IDs -> nodes (sorted, deduplicated), each found by
/// the cached walk, so consecutive IDs share the navigation path.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> LocateAll(
    Nav* nav, std::vector<DeweyId> deweys) {
  std::sort(deweys.begin(), deweys.end(),
            [](const DeweyId& a, const DeweyId& b) {
              return a.Compare(b) < 0;
            });
  deweys.erase(std::unique(deweys.begin(), deweys.end()), deweys.end());
  std::vector<typename Nav::NodeT> out;
  out.reserve(deweys.size());
  uint64_t steps = 0;
  for (DeweyId& dewey : deweys) {
    NOK_ASSIGN_OR_RETURN(auto pos, WalkTo(nav, dewey, &steps));
    out.push_back({pos, std::move(dewey), false});
  }
  nav->CountSteps(steps);
  return out;
}

std::vector<DeweyId> DeweysOf(
    const std::vector<DocumentStore::IndexedNode>& hits) {
  std::vector<DeweyId> deweys;
  deweys.reserve(hits.size());
  for (const auto& hit : hits) deweys.push_back(hit.dewey);
  return deweys;
}

/// Dewey IDs for tag-scan hit positions (ascending): an interval-guided
/// descent.  The stack holds the path from the root to the node most
/// recently visited: (child index, position, subtree end).  For each
/// hit, entries whose subtree ends before the hit are popped, and the
/// walk resumes from the shallowest popped sibling — so each level's
/// sibling chain is traversed at most once across all hits.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> DeweysForHits(
    Nav* nav, const std::vector<typename Nav::Pos>& hits) {
  using Pos = typename Nav::Pos;
  struct Entry {
    uint32_t component;
    Pos pos;
    uint64_t end;
  };
  std::vector<typename Nav::NodeT> out;
  out.reserve(hits.size());
  std::vector<Entry> stack;
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
      const Pos root = nav->Root();
      NOK_ASSIGN_OR_RETURN(uint64_t root_end, nav->SubtreeEnd(root));
      stack.push_back(Entry{0, root, root_end});
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
    components.clear();
    components.reserve(stack.size());
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
    return DeweysForHits(nav, hits);
  }

  std::vector<uint32_t> child_counter(
      static_cast<size_t>(store->tree()->max_level()) + 2, 0);
  std::vector<uint32_t> path;
  NOK_RETURN_IF_ERROR(
      nav->VisitNodes([&](const Pos& pos, int level, TagId tag) {
        const size_t l = static_cast<size_t>(level);
        path.resize(l);
        path[l - 1] = child_counter[l]++;
        child_counter[l + 1] = 0;
        if (root_pattern.wildcard || tag == want) {
          out.push_back({pos, DeweyId(std::vector<uint32_t>(path)), false});
        }
      }));
  return out;
}

/// Tier node -> NodeMatch.  In kInterval mode the endpoints come from
/// the tier's own document-order numbering (global byte positions paged,
/// BP bit positions bp), which is all the containment test needs.
template <typename Nav>
Result<NodeMatch> ToMatch(Nav* nav, const typename Nav::NodeT& node,
                          JoinMode mode) {
  NodeMatch match;
  if (node.virtual_root) {
    match.virtual_root = true;
    return match;
  }
  match.dewey = node.dewey;
  if (mode == JoinMode::kInterval) {
    match.start = nav->Order(node.pos);
    NOK_ASSIGN_OR_RETURN(match.end, nav->SubtreeEnd(node.pos));
  }
  return match;
}

/// Paged-string tier: the paper's navigation over the page chain.
class PagedNav {
 public:
  using Cursor = StoreCursor;
  using NodeT = StoreCursor::NodeT;
  using Pos = StorePos;

  explicit PagedNav(DocumentStore* store)
      : store_(store), tree_(store->tree()), cursor_(store) {}

  Cursor* cursor() { return &cursor_; }
  std::vector<PathStep<Pos>>* dewey_path() { return &dewey_path_; }

  Pos Root() const { return tree_->RootPos(); }
  Result<std::optional<Pos>> FirstChild(Pos pos) {
    return tree_->FirstChild(pos);
  }
  Result<std::optional<Pos>> FollowingSibling(Pos pos) {
    return tree_->FollowingSibling(pos);
  }
  uint64_t Order(Pos pos) const { return tree_->GlobalPos(pos); }
  Result<uint64_t> SubtreeEnd(Pos pos) {
    return tree_->SubtreeEndGlobal(pos);
  }

  /// Next open symbol with `tag` after `after`, or from the document
  /// start (root included) when `after` is empty.
  Result<std::optional<Pos>> NextOpenWithTag(std::optional<Pos> after,
                                             TagId tag, uint64_t*) {
    if (after.has_value()) return tree_->NextOpenWithTag(*after, tag);
    const Pos root = tree_->RootPos();
    NOK_ASSIGN_OR_RETURN(TagId root_tag, tree_->TagAt(root));
    if (root_tag == tag) return std::optional<Pos>(root);
    return tree_->NextOpenWithTag(root, tag);
  }

  template <typename Visit>
  Status VisitNodes(Visit&& visit) {
    std::optional<Pos> pos = tree_->RootPos();
    while (pos.has_value()) {
      NOK_ASSIGN_OR_RETURN(int level, tree_->LevelAt(*pos));
      NOK_ASSIGN_OR_RETURN(TagId tag, tree_->TagAt(*pos));
      visit(*pos, level, tag);
      NOK_ASSIGN_OR_RETURN(pos, tree_->NextOpen(*pos));
    }
    return Status::OK();
  }

  /// Paged work is counted as page fetches by the store itself.
  void CountSteps(uint64_t, uint64_t = 0) {}

  /// Physical node for one Dewey ID via the B+i index.
  Result<NodeT> NodeAt(const DeweyId& dewey) {
    NOK_ASSIGN_OR_RETURN(Pos pos, store_->Locate(dewey));
    return NodeT{pos, dewey, false};
  }

  /// Index hits -> physical nodes: their stored positions when fresh,
  /// else the cached Dewey walk.
  Result<std::vector<NodeT>> ResolveHits(
      const std::vector<DocumentStore::IndexedNode>& hits) {
    if (!store_->positions_fresh()) return LocateAll(this, DeweysOf(hits));
    std::vector<NodeT> out;
    out.reserve(hits.size());
    for (const auto& hit : hits) {
      NOK_ASSIGN_OR_RETURN(Pos pos, tree_->PosForGlobal(hit.pos));
      out.push_back(NodeT{pos, hit.dewey, false});
    }
    std::sort(out.begin(), out.end(),
              [](const NodeT& a, const NodeT& b) {
                return a.dewey.Compare(b.dewey) < 0;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const NodeT& a, const NodeT& b) {
                            return a.dewey == b.dewey;
                          }),
              out.end());
    return out;
  }

 private:
  DocumentStore* store_;
  StringStore* tree_;
  StoreCursor cursor_;
  std::vector<PathStep<Pos>> dewey_path_;
};

/// Balanced-parentheses tier: every primitive runs on the in-memory
/// BpIndex — tag scans over the SWAR tag array, tree steps over the
/// bitvector — so candidate production touches zero subject-tree pages.
class BpNav {
 public:
  using Cursor = BpCursor;
  using NodeT = BpCursor::NodeT;
  using Pos = uint64_t;

  BpNav(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp), cursor_(store, bp) {}

  Cursor* cursor() { return &cursor_; }
  std::vector<PathStep<Pos>>* dewey_path() { return &dewey_path_; }

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

  /// Node for one Dewey ID via the cached walk: candidates arrive
  /// sorted, so consecutive trunk ancestors share the path.
  Result<NodeT> NodeAt(const DeweyId& dewey) {
    uint64_t steps = 0;
    NOK_ASSIGN_OR_RETURN(Pos pos, WalkTo(this, dewey, &steps));
    CountSteps(steps);
    return NodeT{pos, dewey, false};
  }

  /// Index hits -> BP nodes.  Hit positions are byte offsets into the
  /// paged string, meaningless to the BP numbering, so resolution always
  /// goes through the Dewey IDs — still zero page access.
  Result<std::vector<NodeT>> ResolveHits(
      const std::vector<DocumentStore::IndexedNode>& hits) {
    return LocateAll(this, DeweysOf(hits));
  }

 private:
  DocumentStore* store_;
  const BpIndex* bp_;
  BpCursor cursor_;
  std::vector<PathStep<Pos>> dewey_path_;
};

/// Anchored evaluation of one NoK tree (Section 6.2 realized): the index
/// supplies candidate matches of the anchor node; the trunk (anchor ->
/// tree root) is verified upward via Dewey prefixes; branch subtrees hang
/// off trunk nodes and are matched one level down; the anchor's own
/// subtree is matched in full.  Every trunk edge is a child axis, so the
/// subject ancestors are exactly the Dewey prefixes -- no search needed.
/// Templated over the navigation backend: trunk nodes come from
/// Nav::NodeAt (B+i lookups in paged mode, BP walks in bp mode).
template <typename Nav>
class AnchoredMatcherT {
 public:
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;

  AnchoredMatcherT(Nav* nav, CCursor* cursor, const NokTree& tree,
                   const std::vector<bool>& designated, int anchor,
                   JoinMode join_mode)
      : nav_(nav),
        cursor_(cursor),
        tree_(tree),
        designated_(designated),
        join_mode_(join_mode) {
    // Trunk chain root..anchor.
    const std::vector<int> parents = NokParents(tree);
    for (int n = anchor; n >= 0; n = parents[static_cast<size_t>(n)]) {
      trunk_.push_back(n);
    }
    std::reverse(trunk_.begin(), trunk_.end());
    // Branch data per trunk node (children except the trunk successor).
    branches_.resize(trunk_.size());
    for (size_t j = 0; j + 1 < trunk_.size(); ++j) {
      for (int child : tree.nodes[static_cast<size_t>(trunk_[j])].children) {
        if (child == trunk_[j + 1]) continue;
        branches_[j].push_back(MakeSub(tree, child, designated));
      }
    }
    anchor_sub_ = MakeSub(tree, anchor, designated);
  }

  /// Matches one candidate anchor node; returns the binding when the
  /// whole tree matches around it.
  Result<std::optional<NokBinding>> MatchCandidate(
      const DocumentStore::IndexedNode& hit) {
    const bool doc_root = tree_.root_is_doc_root;
    const size_t trunk_len = trunk_.size();
    // Depth feasibility: for rooted trees the anchor's document depth is
    // fixed; for floating trees it only has a minimum.
    if (doc_root) {
      if (hit.dewey.depth() != trunk_len - 1) {
        return std::optional<NokBinding>();
      }
    } else if (hit.dewey.depth() < trunk_len) {
      return std::optional<NokBinding>();
    }

    NokBinding binding;
    binding.matches.resize(tree_.nodes.size());

    for (size_t j = 0; j < trunk_len; ++j) {
      const int local = trunk_[j];
      const PatternNode* pattern =
          tree_.nodes[static_cast<size_t>(local)].pattern;
      if (pattern->is_doc_root) {
        NodeMatch virtual_match;
        virtual_match.virtual_root = true;
        binding.matches[static_cast<size_t>(local)].push_back(
            virtual_match);
        continue;
      }
      const size_t subject_depth =
          doc_root ? j : hit.dewey.depth() - (trunk_len - 1) + j;
      auto dewey = hit.dewey.Ancestor(hit.dewey.depth() - subject_depth);
      NOK_CHECK(dewey.has_value());
      NOK_ASSIGN_OR_RETURN(NodeT node, nav_->NodeAt(*dewey));

      if (j + 1 == trunk_len) {
        // The anchor: match its whole pattern subtree.
        NokMatcher<CCursor> matcher(&anchor_sub_.sub, cursor_,
                                    anchor_sub_.designated);
        typename NokMatcher<CCursor>::MatchLists lists(
            anchor_sub_.sub.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(node, &lists));
        if (!ok) return std::optional<NokBinding>();
        NOK_RETURN_IF_ERROR(Merge(anchor_sub_, lists, &binding));
        continue;
      }

      // Inner trunk node: own constraints + branch subtrees.
      NOK_ASSIGN_OR_RETURN(bool ok, cursor_->Matches(node, *pattern));
      if (!ok) return std::optional<NokBinding>();
      if (designated_[static_cast<size_t>(local)]) {
        NOK_ASSIGN_OR_RETURN(NodeMatch match,
                             ToMatch(nav_, node, join_mode_));
        binding.matches[static_cast<size_t>(local)].push_back(
            std::move(match));
      }
      if (!branches_[j].empty()) {
        NOK_ASSIGN_OR_RETURN(bool branch_ok,
                             MatchBranches(node, branches_[j], &binding));
        if (!branch_ok) return std::optional<NokBinding>();
      }
    }
    for (auto& list : binding.matches) SortUnique(&list);
    return std::optional<NokBinding>(std::move(binding));
  }

 private:
  /// Merges a sub-matcher's lists into the binding via the index map.
  Status Merge(const SubMatcherData& sub,
               const typename NokMatcher<CCursor>::MatchLists& lists,
               NokBinding* binding) {
    for (size_t i = 0; i < lists.size(); ++i) {
      for (const NodeT& node : lists[i]) {
        NOK_ASSIGN_OR_RETURN(NodeMatch match,
                             ToMatch(nav_, node, join_mode_));
        binding->matches[static_cast<size_t>(sub.map[i])].push_back(
            std::move(match));
      }
    }
    return Status::OK();
  }

  /// One level of Algorithm 1: every branch must match some child of
  /// `parent`; branches that collect designated matches keep matching all
  /// children.
  Result<bool> MatchBranches(const NodeT& parent,
                             std::vector<SubMatcherData>& branches,
                             NokBinding* binding) {
    const size_t n = branches.size();
    std::vector<char> satisfied(n, 0);
    size_t remaining = n;
    size_t collecting = 0;
    for (const SubMatcherData& b : branches) collecting += b.collects;

    NOK_ASSIGN_OR_RETURN(auto u, cursor_->FirstChild(parent));
    while (u.has_value() && (remaining > 0 || collecting > 0)) {
      for (size_t i = 0; i < n; ++i) {
        if (satisfied[i] && !branches[i].collects) continue;
        NokMatcher<CCursor> matcher(&branches[i].sub, cursor_,
                                    branches[i].designated);
        typename NokMatcher<CCursor>::MatchLists lists(
            branches[i].sub.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(*u, &lists));
        if (!ok) continue;
        NOK_RETURN_IF_ERROR(Merge(branches[i], lists, binding));
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

  Nav* nav_;
  CCursor* cursor_;
  const NokTree& tree_;
  const std::vector<bool>& designated_;
  JoinMode join_mode_;
  std::vector<int> trunk_;
  std::vector<std::vector<SubMatcherData>> branches_;
  SubMatcherData anchor_sub_;
};

const char* ProbeOpName(StartStrategy strategy) {
  switch (strategy) {
    case StartStrategy::kTagIndex:
      return "TagIndexProbe";
    case StartStrategy::kValueIndex:
      return "ValueIndexProbe";
    case StartStrategy::kPathIndex:
      return "PathIndexProbe";
    case StartStrategy::kAuto:
    case StartStrategy::kScan:
      break;
  }
  return "AnchorScan";
}

/// The plan-execution body, templated over the navigation backend; the
/// control flow is identical across backends, so results are too.
template <typename Nav>
Result<std::vector<DeweyId>> RunImpl(DocumentStore* store, Nav* nav,
                                     const QueryPlan& plan,
                                     const NokPartition& partition,
                                     const std::vector<TagId>& tag_table,
                                     const QueryOptions& options,
                                     QueryStats* stats,
                                     ExecutionTrace* trace) {
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;

  NOK_CHECK(stats != nullptr && trace != nullptr);
  const size_t n_trees = partition.trees.size();
  NOK_CHECK(plan.trees.size() == n_trees &&
            plan.schedule.size() == n_trees)
      << "plan does not fit the partition";
  *stats = QueryStats{};
  stats->trees.resize(n_trees);
  trace->operators.clear();

  nav->cursor()->set_tag_table(&tag_table);
  CCursor cursor(nav->cursor());

  // NoK matching per tree in plan order — always children before parents
  // (checked below), with each evaluated arc injected into the parent's
  // matching as a node predicate.
  std::vector<std::vector<NokBinding>> bindings(n_trees);
  std::vector<std::vector<NodeMatch>> qualified_roots(n_trees);
  std::vector<char> evaluated(n_trees, 0);
  for (const int tree_id : plan.schedule) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition.trees[t];
    const AccessPath& access = plan.trees[t].access;
    QueryStats::TreeStats& tree_stats = stats->trees[t];
    const std::vector<bool> designated =
        ComputeDesignated(partition, tree_id);
    tree_stats.strategy = access.strategy;
    for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
      NOK_CHECK(evaluated[static_cast<size_t>(arc->to_tree)])
          << "plan schedule is not children-first";
    }

    const bool anchored = access.strategy != StartStrategy::kScan &&
                          access.anchor != 0 && !HasSiblingOrder(tree);

    if (anchored) {
      // Index-anchored evaluation.
      OperatorStats probe;
      probe.op = ProbeOpName(access.strategy);
      probe.tree = tree_id;
      probe.detail = access.display;
      probe.has_estimate = true;
      probe.estimated = access.cardinality.candidates;
      OpTimer probe_timer(store);
      NOK_ASSIGN_OR_RETURN(auto anchor_hits, FetchHits(store, access));
      probe.rows_out = anchor_hits.size();
      probe_timer.Finish(&probe);
      trace->operators.push_back(std::move(probe));

      if (plan.cost_based) {
        size_t trunk_len = 0;
        const std::vector<TrunkArcCheck> checks = TrunkArcChecks(
            partition, tree, tree_id, access.anchor, &trunk_len,
            qualified_roots);
        if (!checks.empty()) {
          OperatorStats filter;
          filter.op = "SemiJoinFilter";
          filter.tree = tree_id;
          filter.detail = "arcs=" + std::to_string(checks.size());
          filter.rows_in = anchor_hits.size();
          OpTimer filter_timer(store);
          PrefilterAnchorHits(tree, trunk_len, checks, &anchor_hits);
          filter.rows_out = anchor_hits.size();
          filter_timer.Finish(&filter);
          trace->operators.push_back(std::move(filter));
        }
      }

      tree_stats.candidates = anchor_hits.size();
      std::sort(anchor_hits.begin(), anchor_hits.end(),
                [](const DocumentStore::IndexedNode& a,
                   const DocumentStore::IndexedNode& b) {
                  return a.dewey.Compare(b.dewey) < 0;
                });
      anchor_hits.erase(
          std::unique(anchor_hits.begin(), anchor_hits.end(),
                      [](const DocumentStore::IndexedNode& a,
                         const DocumentStore::IndexedNode& b) {
                        return a.dewey == b.dewey;
                      }),
          anchor_hits.end());

      OperatorStats match;
      match.op = "NokMatch";
      match.tree = tree_id;
      match.detail = "anchored";
      match.has_estimate = true;
      match.estimated = access.cardinality.matches;
      match.rows_in = anchor_hits.size();
      OpTimer match_timer(store);
      AnchoredMatcherT<Nav> matcher(nav, &cursor, tree, designated,
                                    access.anchor, options.join_mode);
      for (const auto& hit : anchor_hits) {
        NOK_ASSIGN_OR_RETURN(auto binding, matcher.MatchCandidate(hit));
        if (!binding.has_value()) continue;
        qualified_roots[t].push_back(binding->matches[0].front());
        bindings[t].push_back(std::move(*binding));
      }
      match.rows_out = bindings[t].size();
      match_timer.Finish(&match);
      trace->operators.push_back(std::move(match));
    } else {
      // Whole-tree matching from root candidates.
      std::vector<NodeT> candidates;
      const std::vector<RootArcCheck> root_checks =
          plan.cost_based && !tree.root_is_doc_root
              ? RootArcChecks(partition, tree_id, qualified_roots)
              : std::vector<RootArcCheck>();
      if (tree.root_is_doc_root) {
        OperatorStats scan;
        scan.op = "AnchorScan";
        scan.tree = tree_id;
        scan.detail = "root=(doc-root)";
        scan.has_estimate = true;
        scan.estimated = 1;
        scan.rows_out = 1;
        candidates.push_back(nav->cursor()->VirtualRoot());
        trace->operators.push_back(std::move(scan));
      } else if (access.strategy == StartStrategy::kScan) {
        OperatorStats scan;
        scan.op = "AnchorScan";
        scan.tree = tree_id;
        scan.detail = access.display;
        scan.has_estimate = true;
        scan.estimated = access.cardinality.candidates;
        OpTimer scan_timer(store);
        NOK_ASSIGN_OR_RETURN(
            candidates,
            ScanCandidates(
                nav, store, *tree.nodes[0].pattern,
                ResolvedTag(tag_table, tree.nodes[0].pattern)));
        scan.rows_out = candidates.size();
        scan_timer.Finish(&scan);
        trace->operators.push_back(std::move(scan));
        if (!root_checks.empty()) {
          OperatorStats filter;
          filter.op = "SemiJoinFilter";
          filter.tree = tree_id;
          filter.detail = "arcs=" + std::to_string(root_checks.size());
          filter.rows_in = candidates.size();
          OpTimer filter_timer(store);
          candidates.erase(
              std::remove_if(candidates.begin(), candidates.end(),
                             [&](const NodeT& node) {
                               return !PassesRootChecks(node.dewey,
                                                        root_checks);
                             }),
              candidates.end());
          filter.rows_out = candidates.size();
          filter_timer.Finish(&filter);
          trace->operators.push_back(std::move(filter));
        }
      } else {
        OperatorStats probe;
        probe.op = ProbeOpName(access.strategy);
        probe.tree = tree_id;
        probe.detail = access.display;
        probe.has_estimate = true;
        probe.estimated = access.cardinality.candidates;
        OpTimer probe_timer(store);
        NOK_ASSIGN_OR_RETURN(auto anchor_hits, FetchHits(store, access));
        probe.rows_out = anchor_hits.size();
        probe_timer.Finish(&probe);
        trace->operators.push_back(std::move(probe));

        if (access.anchor == 0) {
          if (!root_checks.empty()) {
            OperatorStats filter;
            filter.op = "SemiJoinFilter";
            filter.tree = tree_id;
            filter.detail = "arcs=" + std::to_string(root_checks.size());
            filter.rows_in = anchor_hits.size();
            OpTimer filter_timer(store);
            anchor_hits.erase(
                std::remove_if(
                    anchor_hits.begin(), anchor_hits.end(),
                    [&](const DocumentStore::IndexedNode& hit) {
                      return !PassesRootChecks(hit.dewey, root_checks);
                    }),
                anchor_hits.end());
            filter.rows_out = anchor_hits.size();
            filter_timer.Finish(&filter);
            trace->operators.push_back(std::move(filter));
          }
          NOK_ASSIGN_OR_RETURN(candidates, nav->ResolveHits(anchor_hits));
        } else {
          // Index hits below the root but ordering constraints force a
          // whole-tree match: map the hits up to candidate roots.
          const int depth = tree.DepthOf(access.anchor);
          std::vector<DeweyId> roots;
          for (const auto& hit : anchor_hits) {
            auto up = hit.dewey.Ancestor(static_cast<size_t>(depth - 1));
            if (up.has_value()) roots.push_back(std::move(*up));
          }
          NOK_ASSIGN_OR_RETURN(candidates,
                               LocateAll(nav, std::move(roots)));
        }
      }
      tree_stats.candidates = candidates.size();

      OperatorStats match;
      match.op = "NokMatch";
      match.tree = tree_id;
      match.detail = "whole-tree";
      match.has_estimate = true;
      match.estimated = access.cardinality.matches;
      match.rows_in = candidates.size();
      OpTimer match_timer(store);
      NokMatcher<CCursor> matcher(&tree, &cursor, designated);
      for (const NodeT& start : candidates) {
        typename NokMatcher<CCursor>::MatchLists lists(tree.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(start, &lists));
        if (!ok) continue;
        NokBinding binding;
        binding.matches.resize(tree.nodes.size());
        for (size_t i = 0; i < lists.size(); ++i) {
          for (const NodeT& node : lists[i]) {
            NOK_ASSIGN_OR_RETURN(NodeMatch node_match,
                                 ToMatch(nav, node, options.join_mode));
            binding.matches[i].push_back(std::move(node_match));
          }
          SortUnique(&binding.matches[i]);
        }
        qualified_roots[t].push_back(binding.matches[0].front());
        bindings[t].push_back(std::move(binding));
      }
      match.rows_out = bindings[t].size();
      match_timer.Finish(&match);
      trace->operators.push_back(std::move(match));
    }
    tree_stats.bindings = bindings[t].size();
    SortUnique(&qualified_roots[t]);
    evaluated[t] = 1;

    // Make this tree's qualified roots a predicate on its parent arc's
    // source node.
    const GlobalArc* arc = partition.ArcInto(tree_id);
    if (arc != nullptr) {
      const NokTree& parent_tree =
          partition.trees[static_cast<size_t>(arc->from_tree)];
      const PatternNode* source =
          parent_tree.nodes[static_cast<size_t>(arc->from_node)].pattern;
      cursor.AddConstraint(
          source, typename CCursor::ArcConstraint{arc->axis,
                                                  &qualified_roots[t]});
    }
  }

  // Top-down: a binding is alive when its root is related to an alive
  // parent binding's source match (bindings' injected constraints are
  // already satisfied bottom-up).  Increasing id order visits parents
  // first.
  std::vector<std::vector<char>> alive(n_trees);
  alive[0].assign(bindings[0].size(), 1);
  for (size_t t = 1; t < n_trees; ++t) {
    const GlobalArc* arc = partition.ArcInto(static_cast<int>(t));
    NOK_CHECK(arc != nullptr);

    OperatorStats join;
    join.op = "StructuralSemiJoin";
    join.tree = static_cast<int>(t);
    join.detail = "tree " + std::to_string(arc->from_tree) + " node " +
                  std::to_string(arc->from_node) + " -" +
                  std::string(AxisName(arc->axis)) + "-> tree " +
                  std::to_string(t);
    join.has_estimate = true;
    join.estimated = plan.trees[t].access.cardinality.matches;
    join.rows_in = bindings[t].size();
    OpTimer join_timer(store);

    const size_t parent = static_cast<size_t>(arc->from_tree);
    std::vector<NodeMatch> parent_sources;
    for (size_t b = 0; b < bindings[parent].size(); ++b) {
      if (!alive[parent][b]) continue;
      const auto& sources =
          bindings[parent][b].matches[static_cast<size_t>(arc->from_node)];
      parent_sources.insert(parent_sources.end(), sources.begin(),
                            sources.end());
    }
    SortUnique(&parent_sources);
    alive[t].assign(bindings[t].size(), 0);
    size_t alive_count = 0;
    for (size_t b = 0; b < bindings[t].size(); ++b) {
      const NodeMatch& root = bindings[t][b].matches[0].front();
      for (const NodeMatch& src : parent_sources) {
        if (IsRelated(src, root, arc->axis, options.join_mode)) {
          alive[t][b] = 1;
          ++alive_count;
          break;
        }
      }
    }
    join.rows_out = alive_count;
    join_timer.Finish(&join);
    trace->operators.push_back(std::move(join));
  }

  // Collect the returning node's matches over alive bindings.
  const size_t rt = static_cast<size_t>(partition.returning_tree);
  const int rn = partition.trees[rt].returning_node;
  NOK_CHECK(rn >= 0) << "partition lost the returning node";
  OperatorStats output;
  output.op = "Output";
  output.tree = partition.returning_tree;
  output.detail = "node " + std::to_string(rn);
  std::vector<NodeMatch> results;
  size_t alive_in = 0;
  for (size_t b = 0; b < bindings[rt].size(); ++b) {
    if (!alive[rt][b]) continue;
    ++alive_in;
    const auto& matches = bindings[rt][b].matches[static_cast<size_t>(rn)];
    results.insert(results.end(), matches.begin(), matches.end());
  }
  SortUnique(&results);

  std::vector<DeweyId> out;
  out.reserve(results.size());
  for (NodeMatch& match : results) {
    NOK_CHECK(!match.virtual_root);
    out.push_back(std::move(match.dewey));
  }
  stats->results = out.size();
  output.rows_in = alive_in;
  output.rows_out = out.size();
  trace->operators.push_back(std::move(output));
  return out;
}

}  // namespace

Result<std::vector<DeweyId>> Executor::Run(
    const QueryPlan& plan, const NokPartition& partition,
    const std::vector<TagId>& tag_table, const QueryOptions& options,
    QueryStats* stats, ExecutionTrace* trace) {
  NOK_CHECK(stats != nullptr && trace != nullptr);
  trace->synopsis_used = plan.synopsis_used;
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
    OperatorStats op;
    op.op = "EmptyResult";
    op.detail = plan.empty_reason;
    op.has_estimate = true;
    trace->operators.push_back(std::move(op));
    return std::vector<DeweyId>();
  }
  if (store_->nav_mode() == NavMode::kBp) {
    NOK_ASSIGN_OR_RETURN(const BpIndex* bp, store_->bp_index());
    const StringStore::NavStats before = store_->tree()->nav_stats();
    BpNav nav(store_, bp);
    NOK_ASSIGN_OR_RETURN(
        auto out, RunImpl(store_, &nav, plan, partition, tag_table,
                          options, stats, trace));
    const StringStore::NavStats after = store_->tree()->nav_stats();
    trace->nav_mode = NavMode::kBp;
    trace->bp_steps = after.bp_steps - before.bp_steps;
    trace->bp_tag_blocks_skipped =
        after.bp_tag_blocks_skipped - before.bp_tag_blocks_skipped;
    return out;
  }
  PagedNav nav(store_);
  return RunImpl(store_, &nav, plan, partition, tag_table, options, stats,
                 trace);
}

}  // namespace nok
