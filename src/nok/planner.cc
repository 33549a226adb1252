#include "nok/planner.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "encoding/path_synopsis.h"
#include "nok/physical_matcher.h"

namespace nok {

namespace {

constexpr uint64_t kMaxScore = std::numeric_limits<uint64_t>::max();
/// kAuto: a tag index is used when the best tag score is at most this
/// fraction of the document's node count; otherwise scan.
constexpr double kIndexFraction = 1.0 / 16;
/// Value-selectivity estimation stops counting here.
constexpr size_t kValueEstimateCap = 512;

/// Plan-time resolved tag of a pattern node (see ResolvePatternTags).
TagId ResolvedTag(const std::vector<TagId>& tag_table,
                  const PatternNode* p) {
  const size_t id = static_cast<size_t>(p->id);
  return id < tag_table.size() ? tag_table[id] : kInvalidTag;
}

std::string DisplayName(const PatternNode* p) {
  if (p->is_doc_root) return "(doc-root)";
  if (p->wildcard) return "*";
  return p->tag;
}

/// Round a fractional cardinality to a usable row estimate: a pattern
/// node that survived the match-set passes can always match at least
/// once, so estimates never round to zero.
uint64_t RoundEstimate(double value) {
  if (value < 1.0) return 1;
  return static_cast<uint64_t>(value + 0.5);
}

/// Per-pattern-node cardinalities derived from the path synopsis.
struct SynopsisEstimates {
  SynopsisCardinalities cards;
  /// First pattern node whose match set came up empty — the schema
  /// proves the whole query returns nothing.
  const PatternNode* impossible = nullptr;
};

/// Evaluates every pattern arc against the trie of distinct rooted
/// paths.  Forward pass (ids ascend parent-before-child): thread match
/// sets of trie nodes down child/descendant arcs; order axes
/// (following/preceding) degrade to "any path with the tag".  Backward
/// pass: prune parents that cannot reach any surviving child match — an
/// empty set anywhere proves the query empty, since every pattern node
/// needs a subject-tree match and value predicates only shrink match
/// sets further.  A final pass turns the surviving path counts into the
/// independence estimates documented on SynopsisCardinalities.
SynopsisEstimates ComputeSynopsisEstimates(
    const PathSynopsis& synopsis, const NokPartition& partition,
    const std::vector<TagId>& tag_table) {
  SynopsisEstimates out;
  // Collect every pattern node by dense pre-order id (each appears in
  // exactly one NoK tree; parents always have smaller ids).
  std::vector<const PatternNode*> nodes;
  for (const NokTree& tree : partition.trees) {
    for (const NokNode& node : tree.nodes) {
      const PatternNode* p = node.pattern;
      if (static_cast<size_t>(p->id) >= nodes.size()) {
        nodes.resize(static_cast<size_t>(p->id) + 1, nullptr);
      }
      nodes[static_cast<size_t>(p->id)] = p;
    }
  }
  const size_t n = nodes.size();
  std::vector<std::vector<uint32_t>> match(n);
  for (size_t i = 0; i < n; ++i) {
    const PatternNode* p = nodes[i];
    if (p == nullptr) continue;
    std::vector<uint32_t>& set = match[i];
    if (p->is_doc_root) {
      set.push_back(PathSynopsis::kVirtualRoot);
      continue;
    }
    const TagId tag = p->wildcard ? kInvalidTag : ResolvedTag(tag_table, p);
    if (!p->wildcard && tag == kInvalidTag) {
      out.impossible = p;  // The name never occurs in the document.
      return out;
    }
    if (p->parent == nullptr) {
      // A pattern root without an explicit doc root anchors anywhere.
      synopsis.CollectDescendants(PathSynopsis::kVirtualRoot, tag,
                                  p->wildcard, &set);
    } else {
      const std::vector<uint32_t>& from =
          match[static_cast<size_t>(p->parent->id)];
      switch (p->incoming) {
        case Axis::kChild:
        case Axis::kFollowingSibling:
          // Distinct trie nodes have disjoint child sets — no dedup.
          for (const uint32_t m : from) {
            synopsis.CollectChildren(m, tag, p->wildcard, &set);
          }
          break;
        case Axis::kDescendant:
          for (const uint32_t m : from) {
            synopsis.CollectDescendants(m, tag, p->wildcard, &set);
          }
          // Nested sources produce overlapping subtrees.
          std::sort(set.begin(), set.end());
          set.erase(std::unique(set.begin(), set.end()), set.end());
          break;
        case Axis::kFollowing:
        case Axis::kPreceding:
          // Document-order constraints are invisible to the trie; any
          // path with the tag qualifies while the source can match.
          if (!from.empty()) {
            synopsis.CollectDescendants(PathSynopsis::kVirtualRoot, tag,
                                        p->wildcard, &set);
          }
          break;
      }
    }
    if (set.empty()) {
      out.impossible = p;
      return out;
    }
  }
  // Backward pruning pass (children first: their ids are larger).
  for (size_t i = n; i-- > 0;) {
    const PatternNode* p = nodes[i];
    if (p == nullptr || p->parent == nullptr) continue;
    const bool structural = p->incoming == Axis::kChild ||
                            p->incoming == Axis::kFollowingSibling ||
                            p->incoming == Axis::kDescendant;
    if (!structural) continue;  // Order axes do not constrain the parent.
    const std::vector<uint32_t>& set = match[i];
    const size_t q = static_cast<size_t>(p->parent->id);
    std::vector<uint32_t>& parent_set = match[q];
    std::vector<uint32_t> kept;
    kept.reserve(parent_set.size());
    for (const uint32_t m : parent_set) {
      bool reachable = false;
      for (const uint32_t c : set) {
        if (p->incoming == Axis::kDescendant
                ? synopsis.IsDescendantOf(m, c)
                : synopsis.ParentOf(c) == m) {
          reachable = true;
          break;
        }
      }
      if (reachable) kept.push_back(m);
    }
    parent_set = std::move(kept);
    if (parent_set.empty()) {
      out.impossible = p->parent;
      return out;
    }
  }
  // Independence estimates over the pruned path counts.  kids[] records
  // structural pattern children (in-tree children AND cross-tree arcs:
  // child trees are always scheduled first, so their constraints are in
  // force whenever the parent's matching runs).
  SynopsisCardinalities& cards = out.cards;
  cards.total.assign(n, 0.0);
  cards.expected.assign(n, 0.0);
  cards.kids.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    const PatternNode* p = nodes[i];
    if (p == nullptr) continue;
    cards.total[i] = static_cast<double>(synopsis.TotalCount(match[i]));
    if (p->parent == nullptr) continue;
    if (p->incoming == Axis::kFollowing || p->incoming == Axis::kPreceding) {
      continue;  // Order axes carry no witness-fraction factor.
    }
    cards.kids[static_cast<size_t>(p->parent->id)].push_back(
        static_cast<int>(i));
  }
  for (size_t i = n; i-- > 0;) {  // Children first.
    const PatternNode* p = nodes[i];
    if (p == nullptr) continue;
    double expect = cards.total[i];
    for (const int c : cards.kids[i]) {
      expect *= std::min(
          1.0, cards.expected[static_cast<size_t>(c)] / cards.total[i]);
    }
    cards.expected[i] = expect;
  }
  // Average subtree size of every arc source (the top-down cost rule).
  cards.below.assign(n, 0.0);
  for (const GlobalArc& arc : partition.arcs) {
    const size_t i = static_cast<size_t>(
        partition.trees[static_cast<size_t>(arc.from_tree)]
            .nodes[static_cast<size_t>(arc.from_node)]
            .pattern->id);
    uint64_t inside = 0;
    for (const uint32_t m : match[i]) inside += synopsis.DescendantCount(m);
    cards.below[i] = static_cast<double>(inside) / cards.total[i];
  }
  return out;
}

/// Mirrors the executor's anchored-evaluation condition: sibling-order
/// constraints force whole-tree matching regardless of the anchor.
bool TreeHasSiblingOrder(const NokTree& tree) {
  for (const NokNode& node : tree.nodes) {
    if (!node.sibling_order.empty()) return true;
  }
  return false;
}

/// Whether the executor evaluates the tree anchored on its access path's
/// index hits (else it matches whole trees from candidate roots).
bool IsAnchored(const NokTree& tree, const AccessPath& access) {
  return access.strategy != StartStrategy::kScan && access.anchor != 0 &&
         !TreeHasSiblingOrder(tree);
}

/// Expected bindings of an anchored tree: the anchor's subtree estimate
/// scaled by every off-trunk witness fraction on the root..anchor chain
/// (the anchored matcher verifies the trunk plus each trunk node's other
/// constraints, so qualifying anchors are the anchors whose ancestors
/// all find their witnesses).
double AnchoredBindings(const SynopsisCardinalities& cards,
                        const NokTree& tree, int anchor) {
  const PatternNode* root = tree.nodes[0].pattern;
  const PatternNode* prev = tree.nodes[static_cast<size_t>(anchor)].pattern;
  double est = cards.expected[static_cast<size_t>(prev->id)];
  for (const PatternNode* anc = prev->parent; anc != nullptr;
       anc = anc->parent) {
    const size_t a = static_cast<size_t>(anc->id);
    for (const int c : cards.kids[a]) {
      if (c == prev->id) continue;  // The trunk child itself.
      est *= std::min(
          1.0, cards.expected[static_cast<size_t>(c)] / cards.total[a]);
    }
    if (anc == root) break;  // The trunk ends at the tree root.
    prev = anc;
  }
  return est;
}

/// Expected source matches of `arc` that one scout pass over its source
/// tree yields: the tree's expected bindings, times the matches per
/// binding.  A source on the chain from the tree root to the node the
/// bindings are counted for (the anchor, or the root when the whole tree
/// is matched) has one match per binding; any other source fans out
/// below the nearest chain node by the ratio of their occurrences.
double ScoutSources(const SynopsisCardinalities& cards, const NokTree& tree,
                    const AccessPath& access, int source) {
  const std::vector<int> parents = NokParents(tree);
  std::vector<char> on_chain(tree.nodes.size(), 0);
  for (int a = IsAnchored(tree, access) ? access.anchor : 0; a >= 0;
       a = parents[static_cast<size_t>(a)]) {
    on_chain[static_cast<size_t>(a)] = 1;
  }
  int a = source;
  while (!on_chain[static_cast<size_t>(a)]) {
    a = parents[static_cast<size_t>(a)];
  }
  double per_binding = 1.0;
  if (a != source) {
    const auto total = [&](int local) {
      return cards.total[static_cast<size_t>(
          tree.nodes[static_cast<size_t>(local)].pattern->id)];
    };
    per_binding = total(source) / total(a);
  }
  return static_cast<double>(access.cardinality.matches) * per_binding;
}

/// The top-down cost rule (see Planner::Plan): a scout bounds the child
/// tree's candidates to the nodes inside its source matches, so the arc
/// runs top-down when those are fewer than the child's own candidates.
std::vector<ArcDirection> ArcDirections(const NokPartition& partition,
                                        const QueryPlan& plan,
                                        const SynopsisCardinalities& cards) {
  std::vector<ArcDirection> out(partition.arcs.size(),
                                ArcDirection::kBottomUp);
  for (size_t i = 0; i < partition.arcs.size(); ++i) {
    const GlobalArc& arc = partition.arcs[i];
    if (!TopDownEligible(partition, arc)) continue;
    const NokTree& tree = partition.trees[static_cast<size_t>(arc.from_tree)];
    const AccessPath& access =
        plan.trees[static_cast<size_t>(arc.from_tree)].access;
    const int source_id =
        tree.nodes[static_cast<size_t>(arc.from_node)].pattern->id;
    const double scoped =
        ScoutSources(cards, tree, access, arc.from_node) *
        cards.below[static_cast<size_t>(source_id)];
    const uint64_t child_candidates =
        plan.trees[static_cast<size_t>(arc.to_tree)]
            .access.cardinality.candidates;
    if (scoped < static_cast<double>(child_candidates)) {
      out[i] = ArcDirection::kTopDown;
    }
  }
  return out;
}

}  // namespace

bool TopDownEligible(const NokPartition& partition, const GlobalArc& arc) {
  return arc.axis == Axis::kDescendant &&
         !partition.trees[static_cast<size_t>(arc.from_tree)]
              .nodes[static_cast<size_t>(arc.from_node)]
              .pattern->is_doc_root;
}

const char* StrategyName(StartStrategy strategy) {
  switch (strategy) {
    case StartStrategy::kAuto:
      return "auto";
    case StartStrategy::kScan:
      return "scan";
    case StartStrategy::kTagIndex:
      return "tag-index";
    case StartStrategy::kValueIndex:
      return "value-index";
  }
  return "?";
}

Result<AccessPath> Planner::PlanTree(
    const NokTree& tree, const std::vector<TagId>& tag_table,
    const QueryOptions& options, const SynopsisCardinalities& cards) {
  // Anchor scoring: the cost of anchored evaluation is roughly the number
  // of candidate matches of the anchor PLUS the matching work inside its
  // pattern subtree, approximated by the total tag occurrences below it.
  // (A root-element anchor has a count of 1 but drags the whole document
  // into the subtree match; a deep selective anchor prunes everything.)
  // The subtree work uses the synopsis's per-pattern-node cardinalities;
  // the probe costs stay flat tag counts (an index probe fetches every
  // occurrence of its operand no matter how rare the composition is).
  const size_t n = tree.nodes.size();
  std::vector<uint64_t> weight(n, 0);
  std::vector<uint64_t> workload(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const PatternNode* p = tree.nodes[i].pattern;
    if (p->is_doc_root) continue;
    if (p->wildcard) {
      weight[i] = store_->stats().node_count;
    } else {
      const TagId id = ResolvedTag(tag_table, p);
      weight[i] = id != kInvalidTag ? store_->CountTag(id) : 0;
    }
    workload[i] = RoundEstimate(cards.expected[static_cast<size_t>(p->id)]);
  }
  std::vector<uint64_t> below(n, 0);  // Matching work below node i.
  for (size_t i = n; i-- > 0;) {      // Children have larger indexes.
    for (int child : tree.nodes[i].children) {
      below[i] += workload[static_cast<size_t>(child)] +
                  below[static_cast<size_t>(child)];
    }
  }

  struct ValueChoice {
    uint64_t score = kMaxScore;
    uint64_t count = 0;
    std::string operand;
    int node = 0;
  };
  ValueChoice best_value;
  struct TagChoice {
    uint64_t score = kMaxScore;
    TagId tag = kInvalidTag;
    int node = 0;
  };
  TagChoice best_tag;

  for (size_t i = 0; i < n; ++i) {
    const PatternNode* p = tree.nodes[i].pattern;
    if (p->is_doc_root) continue;  // The virtual root carries no test.
    if (p->predicate.op == ValueOp::kEq &&
        (options.strategy == StartStrategy::kAuto ||
         options.strategy == StartStrategy::kValueIndex)) {
      NOK_ASSIGN_OR_RETURN(
          size_t count,
          store_->EstimateValueCount(Slice(p->predicate.operand),
                                     kValueEstimateCap));
      const uint64_t score = count + below[i];
      if (score < best_value.score) {
        best_value = ValueChoice{score, count, p->predicate.operand,
                                 static_cast<int>(i)};
      }
    }
    if (!p->wildcard) {
      const uint64_t score = weight[i] + below[i];
      if (score < best_tag.score) {
        best_tag = TagChoice{score, ResolvedTag(tag_table, p),
                             static_cast<int>(i)};
      }
    }
  }

  // Paper heuristic: value index whenever a value constraint exists; else
  // tag index when selective enough; else sequential scan.  Forced
  // strategies that cannot apply to this tree (no equality constraint, no
  // named node to anchor a tag probe on) degrade to a scan rather than
  // silently returning nothing.
  AccessPath access;
  access.strategy = [&] {
    switch (options.strategy) {
      case StartStrategy::kScan:
        return StartStrategy::kScan;
      case StartStrategy::kTagIndex:
        if (best_tag.score != kMaxScore) {
          return StartStrategy::kTagIndex;
        }
        return StartStrategy::kScan;  // All-wildcard tree: nothing to probe.
      case StartStrategy::kValueIndex:
        if (best_value.score != kMaxScore) {
          return StartStrategy::kValueIndex;
        }
        return StartStrategy::kScan;  // No usable equality constraint.
      case StartStrategy::kAuto:
        break;
    }
    if (best_value.score != kMaxScore) {
      return StartStrategy::kValueIndex;
    }
    const double cutoff =
        kIndexFraction * static_cast<double>(store_->stats().node_count);
    if (best_tag.tag != kInvalidTag &&
        static_cast<double>(best_tag.score) <= cutoff) {
      return StartStrategy::kTagIndex;
    }
    return StartStrategy::kScan;
  }();

  switch (access.strategy) {
    case StartStrategy::kScan: {
      const PatternNode* root = tree.nodes[0].pattern;
      if (root->is_doc_root) {
        access.cardinality.candidates = 1;
      } else if (root->wildcard) {
        access.cardinality.candidates = store_->stats().node_count;
      } else {
        const TagId id = ResolvedTag(tag_table, root);
        access.tag = id;
        access.cardinality.candidates =
            id != kInvalidTag ? store_->CountTag(id) : 0;
      }
      access.display = "root=" + DisplayName(root);
      break;
    }
    case StartStrategy::kValueIndex: {
      access.anchor = best_value.node;
      access.value_operand = best_value.operand;
      access.cardinality.candidates = best_value.count;
      access.display = "value=\"" + best_value.operand + "\"";
      break;
    }
    case StartStrategy::kTagIndex: {
      access.anchor = best_tag.node;
      access.tag = best_tag.tag;
      access.cardinality.candidates =
          best_tag.tag != kInvalidTag ? store_->CountTag(best_tag.tag) : 0;
      access.display =
          "tag=" +
          DisplayName(
              tree.nodes[static_cast<size_t>(best_tag.node)].pattern);
      break;
    }
    case StartStrategy::kAuto:
      return Status::Internal("unreachable strategy");
  }
  // Estimate what the tree's NokMatch emits.  Anchored evaluation binds
  // per qualifying anchor hit (never more than the probe produced);
  // whole-tree evaluation binds per qualifying root.
  const double est =
      IsAnchored(tree, access)
          ? std::min(AnchoredBindings(cards, tree, access.anchor),
                     static_cast<double>(access.cardinality.candidates))
          : cards.expected[static_cast<size_t>(tree.nodes[0].pattern->id)];
  access.cardinality.matches = RoundEstimate(est);
  return access;
}

std::vector<int> SelectivitySchedule(
    const NokPartition& partition,
    const std::vector<TreeAccessPlan>& trees) {
  // Greedy most-selective-ready-first.  "Ready" = every child tree (arc
  // target) already scheduled, so arc constraints are always installed
  // before the parent's matching runs.
  const size_t n = partition.trees.size();
  std::vector<char> done(n, 0);
  std::vector<int> order;
  order.reserve(n);
  while (order.size() < n) {
    int best = -1;
    for (size_t t = 0; t < n; ++t) {
      if (done[t]) continue;
      bool ready = true;
      for (const GlobalArc* arc : partition.ArcsFrom(static_cast<int>(t))) {
        if (!done[static_cast<size_t>(arc->to_tree)]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      if (best < 0 ||
          trees[t].access.cardinality.matches <
              trees[static_cast<size_t>(best)].access.cardinality.matches ||
          (trees[t].access.cardinality.matches ==
               trees[static_cast<size_t>(best)].access.cardinality.matches &&
           static_cast<int>(t) > best)) {
        best = static_cast<int>(t);
      }
    }
    NOK_CHECK(best >= 0) << "partition arcs are cyclic";
    done[static_cast<size_t>(best)] = 1;
    order.push_back(best);
  }
  return order;
}

Result<QueryPlan> Planner::Plan(const NokPartition& partition,
                                const std::vector<TagId>& tag_table,
                                const QueryOptions& options) {
  QueryPlan plan;
  plan.nav_mode = store_->nav_mode();
  NOK_ASSIGN_OR_RETURN(const PathSynopsis* synopsis, store_->path_synopsis());
  const SynopsisEstimates syn =
      ComputeSynopsisEstimates(*synopsis, partition, tag_table);
  plan.trees.resize(partition.trees.size());
  if (syn.impossible != nullptr) {
    // Schema-impossible path: skip the estimate probes entirely and hand
    // the executor a plan it answers without any I/O.
    plan.empty_result = true;
    plan.empty_reason = "pattern node " + DisplayName(syn.impossible) +
                        " matches no rooted path";
    for (size_t t = 0; t < partition.trees.size(); ++t) {
      plan.trees[t].tree = static_cast<int>(t);
      AccessPath& access = plan.trees[t].access;
      access.strategy = StartStrategy::kScan;
      access.display = "(schema-impossible)";
    }
    return plan;  // The schedule stays empty: nothing to evaluate.
  }
  for (size_t t = 0; t < partition.trees.size(); ++t) {
    plan.trees[t].tree = static_cast<int>(t);
    NOK_ASSIGN_OR_RETURN(
        plan.trees[t].access,
        PlanTree(partition.trees[t], tag_table, options, syn.cards));
  }
  plan.schedule = SelectivitySchedule(partition, plan.trees);
  plan.arc_directions = ArcDirections(partition, plan, syn.cards);
  return plan;
}

std::string QueryPlan::ToString(const NokPartition& partition) const {
  std::string out = "plan: nav=";
  out += NavModeName(nav_mode);
  out += "\n  schedule:";
  for (int t : schedule) {
    out += " " + std::to_string(t);
  }
  out += "\n";
  if (empty_result) {
    out += "  empty-result: " + empty_reason + "\n";
  }
  for (const TreeAccessPlan& tree : trees) {
    out += "  tree " + std::to_string(tree.tree) + ": ";
    out += StrategyName(tree.access.strategy);
    out += " " + tree.access.display;
    if (tree.access.anchor != 0) {
      out += " anchor=node" + std::to_string(tree.access.anchor);
    }
    out += " est=" + std::to_string(tree.access.cardinality.matches);
    if (tree.access.cardinality.matches != tree.access.cardinality.candidates) {
      out += " cand=" + std::to_string(tree.access.cardinality.candidates);
    }
    out += "\n";
  }
  for (size_t i = 0; i < partition.arcs.size(); ++i) {
    const GlobalArc& arc = partition.arcs[i];
    out += "  arc: tree " + std::to_string(arc.from_tree) + " node " +
           std::to_string(arc.from_node) + " -" +
           std::string(AxisName(arc.axis)) + "-> tree " +
           std::to_string(arc.to_tree);
    // Bottom-up is the default and stays unmarked.
    if (DirectionOf(i) == ArcDirection::kTopDown) out += " top-down";
    out += "\n";
  }
  return out;
}

}  // namespace nok
