// Query planner: cost-based access-path and semi-join-order selection.
//
// The planner consumes a NokPartition plus cheap cardinality estimates
// (exact B+t tag counts from the dictionary, capped B+v value counts,
// the document node count, and the store's path synopsis) and emits a
// QueryPlan — a serializable IR describing, per NoK tree, which access
// path feeds the matcher (the paper's Section 6.2 heuristic: value
// index > selective tag index > scan), in which order the trees are
// evaluated (the semi-join schedule), and which global arcs run
// top-down.
//
// Every child/descendant arc of the pattern is evaluated against the
// path synopsis (path_synopsis.h), the trie of distinct rooted paths,
// so `//a//b` and `//a//c` do not cost the same when one composition
// never occurs.  A pattern node whose arc matches no rooted path proves
// the whole query empty — the plan is marked empty_result and the
// Executor returns without any I/O.  The store brings the synopsis
// current on demand, so the same query on the same store always plans
// the same way.
//
// Planning is pure: no index hits are fetched and no subject-tree pages
// are touched beyond the estimate probes, so plans are inspectable
// (`nokq explain`).  The executor (executor.h) is the only layer that
// materializes candidates.

#ifndef NOKXML_NOK_PLANNER_H_
#define NOKXML_NOK_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/document_store.h"
#include "nok/nok_partition.h"

namespace nok {

/// Starting-point strategy.
enum class StartStrategy { kAuto, kScan, kTagIndex, kValueIndex };

/// Per-query knobs.
struct QueryOptions {
  StartStrategy strategy = StartStrategy::kAuto;
};

/// Cardinality estimate for one NoK tree.  Flows from access-path
/// selection through semi-join scheduling into executor operator traces
/// (est-vs-actual rows) and explain formatting.
struct Cardinality {
  /// Expected candidates produced by the access-path probe (tag counts
  /// exact; value counts capped at kValueEstimateCap in planner.cc).
  uint64_t candidates = 0;
  /// Expected bindings produced by this tree's structural match: the
  /// path synopsis's independence estimate of the node the evaluator
  /// emits bindings for (the anchor under its trunk constraints, or the
  /// tree root for whole-tree matching).
  uint64_t matches = 0;
};

/// Per-pattern-node cardinalities derived from the path synopsis.  All
/// vectors are indexed by PatternNode::id (gaps stay zero/empty when an
/// id is unused).  `expected[i]` is the classic independence estimate of
/// how many document nodes match pattern node i *and* its whole pattern
/// subtree: the path-constrained occurrence count `total[i]` scaled by
/// min(1, expected[child]/total[i]) per structural child — existence
/// predicates shrink a node's count by the fraction of its occurrences
/// that can supply a witness.  Order axes (following/preceding) are
/// invisible to paths and contribute no factor.
struct SynopsisCardinalities {
  std::vector<double> expected;       ///< Subtree-pattern match estimate.
  std::vector<double> total;          ///< Occurrences on surviving paths.
  std::vector<std::vector<int>> kids; ///< Structural pattern children.
  /// Average document nodes strictly inside one occurrence of node i
  /// (synopsis counts summed over the subtrees of its match set, divided
  /// by total[i]).  Filled for global-arc source nodes only; 0 elsewhere.
  std::vector<double> below;
};

/// How one NoK tree's candidates are produced.  The operands (tag,
/// value) are recorded here so the executor can fetch hits without
/// re-deriving the planner's choice.
struct AccessPath {
  StartStrategy strategy = StartStrategy::kScan;
  /// Local node index the index hits refer to; 0 with kScan means a
  /// whole-tree match from scanned/virtual roots.
  int anchor = 0;
  /// kTagIndex: the anchor's resolved tag (kInvalidTag when the name is
  /// absent from the document — the probe then yields no hits, which is
  /// the correct empty result).
  TagId tag = kInvalidTag;
  /// kValueIndex: the equality operand.
  std::string value_operand;
  /// Estimated probe candidates and refined tree matches (see
  /// Cardinality).
  Cardinality cardinality;
  /// Display label for plans ("tag=author", "value=\"x\"", ...).
  std::string display;
};

/// Evaluation direction of one global arc P -> C (P the arc's source
/// tree, C its target tree).
enum class ArcDirection {
  /// C is matched over the whole document first; its qualified roots
  /// then constrain P's matching.
  kBottomUp,
  /// A scout pass matches P without the arc's constraint, C is matched
  /// only inside the subtrees of the scout's source matches, and P is
  /// then matched over the scout's surviving candidates alone.
  kTopDown,
};

/// Whether an arc may run top-down: a descendant arc whose source is not
/// the document root (the root's subtree is the whole document, and
/// order axes relate nodes outside the source's subtree).
bool TopDownEligible(const NokPartition& partition, const GlobalArc& arc);

/// Plan for one NoK tree.
struct TreeAccessPlan {
  int tree = 0;
  AccessPath access;
};

/// A complete plan for one partitioned pattern.
///
/// `schedule` lists tree ids in the order their bindings are matched.
/// It is always a valid children-before-parents order: a tree's arc
/// constraints must be installed before its parent tree is matched
/// (witness selection during matching is what keeps the semi-joins
/// sound; a binding-level post-filter could not be), picking the most
/// selective ready tree first.  A top-down arc P -> C adds one step the
/// schedule does not list: before C is matched, P runs a scout pass (its
/// access path and matching, without C's constraint) whose source
/// matches bound C's candidates.  Constraints only shrink match sets, so
/// the scout's sources are a superset of P's final ones and no C binding
/// P needs is lost; P's final match still runs after C, over the scout's
/// surviving candidates.
struct QueryPlan {
  std::vector<TreeAccessPlan> trees;  ///< Indexed by tree id.
  std::vector<int> schedule;          ///< Tree ids, evaluation order.
  /// Direction per global arc, indexed like NokPartition::arcs (see
  /// Planner::Plan for the rule); an empty vector means every arc runs
  /// bottom-up.
  std::vector<ArcDirection> arc_directions;
  /// Navigation tier the plan was built for (the store's nav_mode at
  /// plan time).  In kBp mode scans and Dewey resolution run on the
  /// in-memory balanced-parentheses index — a zero-page access path —
  /// instead of the paged string.
  NavMode nav_mode = NavMode::kPaged;
  /// Set when the synopsis proved some pattern arc matches no rooted
  /// path in the document: the schedule is empty and the Executor emits
  /// a single EmptyResult operator — zero pages read.
  bool empty_result = false;
  /// Names the pattern node with the empty match set.
  std::string empty_reason;

  /// Direction of arc `arc_index` (bottom-up when unset).
  ArcDirection DirectionOf(size_t arc_index) const {
    return arc_index < arc_directions.size() ? arc_directions[arc_index]
                                             : ArcDirection::kBottomUp;
  }

  /// Serialized human-readable form (stable; `nokq explain` prints it).
  std::string ToString(const NokPartition& partition) const;
};

/// Stateless plan builder over one DocumentStore.
class Planner {
 public:
  explicit Planner(DocumentStore* store) : store_(store) {}

  /// Plans every tree of the partition and computes the semi-join
  /// schedule.  tag_table maps PatternNode::id -> resolved TagId (see
  /// ResolvePatternTags); estimates come from the dictionary, the path
  /// synopsis and capped index probes only — no hits are fetched.  An
  /// eligible arc P -> C runs top-down when the nodes a scout would scan
  /// are fewer than C's candidates: P's expected bindings x source
  /// matches per binding x the source's average subtree size < C's
  /// candidate count.  Everything else stays bottom-up.
  Result<QueryPlan> Plan(const NokPartition& partition,
                         const std::vector<TagId>& tag_table,
                         const QueryOptions& options);

 private:
  /// `cards` carries the synopsis-refined per-pattern-node
  /// cardinalities.
  Result<AccessPath> PlanTree(const NokTree& tree,
                              const std::vector<TagId>& tag_table,
                              const QueryOptions& options,
                              const SynopsisCardinalities& cards);

  DocumentStore* store_;
};

/// The evaluation order used by the plan.  Exposed for tests: it must
/// be children-before-parents over the partition's arcs.
std::vector<int> SelectivitySchedule(const NokPartition& partition,
                                     const std::vector<TreeAccessPlan>& trees);

/// Human-readable strategy name ("scan", "tag-index", ...).
const char* StrategyName(StartStrategy strategy);

}  // namespace nok

#endif  // NOKXML_NOK_PLANNER_H_
