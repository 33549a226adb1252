// Query executor: runs a QueryPlan over one DocumentStore.
//
// The executor is the only layer that materializes candidates.  It is a
// small set of pull-style operators wired per the plan:
//
//   AnchorScan / TagIndexProbe / ValueIndexProbe
//       produce candidate subject nodes per the tree's access path;
//   ScopedScan
//       the AnchorScan of a tree whose incoming arc runs top-down: the
//       root's tag-filtered scan inside each outermost source match of
//       the parent's scout pass, bounded by that source's close, with
//       Dewey IDs derived from the source's own;
//   SemiJoinFilter
//       (cost-based plans only) prunes anchor candidates against the
//       already-evaluated child trees' qualified roots before any page
//       is fetched for them — a sorted Dewey merge, no I/O.  With a
//       "scope=" detail it bounds an index-probed tree of a top-down arc
//       to the scout's source subtrees instead (any plan);
//   NokMatch
//       Algorithm 1 over Algorithm 2 per candidate (anchored trunk
//       verification or whole-tree matching), with global-arc
//       constraints injected into witness selection.  A "scout" detail
//       marks a top-down arc's first pass over the parent tree, which
//       runs without that arc's constraint and keeps only the matched
//       candidates for the parent's final NokMatch;
//   StructuralSemiJoin
//       the top-down liveness pass along each global arc;
//   Output
//       collects the returning node's matches in document order.
//
// Each operator records runtime stats — estimated vs. actual
// cardinality, rows in/out, subject-tree pages touched and BP-index
// steps taken (NavStats deltas) and wall time — into an ExecutionTrace,
// which is what QueryEngine::ExplainLast() and `nokq explain` render.

#ifndef NOKXML_NOK_EXECUTOR_H_
#define NOKXML_NOK_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/document_store.h"
#include "nok/nok_partition.h"
#include "nok/planner.h"
#include "nok/structural_join.h"

namespace nok {

/// Diagnostics from the last Evaluate call.
struct QueryStats {
  /// Per NoK tree: which strategy ran and how many candidates/matches.
  struct TreeStats {
    StartStrategy strategy = StartStrategy::kScan;
    size_t candidates = 0;
    size_t bindings = 0;
  };
  std::vector<TreeStats> trees;
  size_t results = 0;
};

/// One successful NoK match: the matched subject nodes per designated
/// local pattern node (indexed by local node id).
struct NokBinding {
  std::vector<std::vector<NodeMatch>> matches;
};

/// Runtime record of one plan operator.
struct OperatorStats {
  std::string op;      ///< "TagIndexProbe", "NokMatch", ...
  int tree = -1;       ///< NoK tree id; -1 for cross-tree operators.
  std::string detail;  ///< Operand / axis / mode, plan-dependent only.
  bool has_estimate = false;
  uint64_t estimated = 0;  ///< Planner's cardinality estimate.
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t pages = 0;      ///< Subject-tree pages materialized (NavStats).
  uint64_t bp_steps = 0;   ///< BP-index steps taken (NavStats).
  double seconds = 0;      ///< Wall time inside the operator.
};

/// Everything ExplainLast needs about the last execution.
struct ExecutionTrace {
  std::vector<OperatorStats> operators;
  bool plan_cache_hit = false;  ///< Filled by QueryEngine.
  double plan_seconds = 0;      ///< Planning wall time (0 on cache hit).
  /// Whether the plan's estimates came from the path synopsis, and
  /// whether the synopsis proved the query empty (EmptyResult plan —
  /// the run then touches zero pages and runs zero probes).
  bool synopsis_used = false;
  bool empty_result = false;
  std::string empty_reason;
  /// Navigation tier the run used, plus the BP-index work it did
  /// (NavStats deltas; both zero in paged mode).
  NavMode nav_mode = NavMode::kPaged;
  uint64_t bp_steps = 0;
  uint64_t bp_tag_blocks_skipped = 0;
};

/// Executes query plans.  Like QueryEngine, an executor is a cheap
/// per-thread object holding only the store pointer.
class Executor {
 public:
  explicit Executor(DocumentStore* store) : store_(store) {}

  /// Runs the plan; returns the returning node's matches as Dewey IDs in
  /// document order.  `stats` and `trace` must be non-null; both are
  /// overwritten.  The plan must have been built for this partition (and
  /// for the store's current structural state).
  /// Runs the plan against the store's selected navigation tier: paged
  /// (StoreCursor) or balanced-parentheses (BpCursor), per
  /// DocumentStoreOptions::nav_mode.  Candidate production, Dewey
  /// resolution and interval derivation all go through the chosen
  /// backend, so a BP run touches no subject-tree pages; results are
  /// identical across modes.
  Result<std::vector<DeweyId>> Run(const QueryPlan& plan,
                                   const NokPartition& partition,
                                   const std::vector<TagId>& tag_table,
                                   const QueryOptions& options,
                                   QueryStats* stats,
                                   ExecutionTrace* trace);

 private:
  DocumentStore* store_;
};

}  // namespace nok

#endif  // NOKXML_NOK_EXECUTOR_H_
