// The NoK query engine (Sections 3, 5 and 6.2 of the paper).
//
// Evaluation pipeline for one path expression:
//
//   parse -> pattern tree -> NoK partition
//   plan  -> QueryPlan IR (planner.h): per-NoK-tree access path chosen
//            by the paper's Section 6.2 heuristic from cheap cardinality
//            estimates and the path synopsis, plus the semi-join
//            schedule; planned afresh for every query
//   run   -> executor operators (executor.h): probes/scans feed NoK
//            matching per tree, global arcs combine per-tree bindings
//            with structural semi-joins
//   return the returning node's matches (Dewey IDs in document order)
//
// The engine itself only wires the layers together and keeps the last
// query's diagnostics (stats, plan, operator trace for ExplainLast).

#ifndef NOKXML_NOK_QUERY_ENGINE_H_
#define NOKXML_NOK_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/document_store.h"
#include "nok/executor.h"
#include "nok/planner.h"

namespace nok {

/// Evaluates path expressions against one DocumentStore.
///
/// An engine is a cheap per-thread object: it holds only the store
/// pointer and the diagnostics of its own last query.  For
/// concurrent evaluation, open the store read-only, share the one
/// DocumentStore handle, and give each thread its own QueryEngine —
/// last_stats() then never races across threads.
class QueryEngine {
 public:
  explicit QueryEngine(DocumentStore* store) : store_(store) {}

  /// Runs a path expression; returns the returning node's matches as
  /// Dewey IDs in document order.
  Result<std::vector<DeweyId>> Evaluate(const std::string& xpath,
                                        const QueryOptions& options = {});

  /// Same, over an already-parsed pattern (repeated executions).
  Result<std::vector<DeweyId>> EvaluatePattern(const PatternTree& pattern,
                                               const QueryOptions& options);

  const QueryStats& last_stats() const { return stats_; }

  /// Raw operator trace of the last query (what ExplainLast renders).
  /// Benchmarks read the per-operator est-vs-actual rows from here.
  const ExecutionTrace& last_trace() const { return last_trace_; }

  /// Renders the last successful query's plan plus the per-operator
  /// runtime trace (estimated vs. actual cardinalities, pages touched,
  /// wall time).  `nokq explain` prints exactly this.
  std::string ExplainLast() const;

 private:
  DocumentStore* store_;
  QueryStats stats_;
  /// The last successful query's QueryPlan::ToString (empty before one).
  std::string last_plan_text_;
  ExecutionTrace last_trace_;
};

}  // namespace nok

#endif  // NOKXML_NOK_QUERY_ENGINE_H_
