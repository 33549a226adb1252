#include "nok/query_engine.h"

#include <chrono>
#include <cstdio>

#include "nok/physical_matcher.h"
#include "nok/xpath_parser.h"

namespace nok {

Result<std::vector<DeweyId>> QueryEngine::Evaluate(
    const std::string& xpath, const QueryOptions& options) {
  // Reset diagnostics before parsing, so a malformed query can never
  // leave the previous query's stats/trace in place.
  stats_ = QueryStats{};
  last_trace_ = ExecutionTrace{};
  last_plan_text_.clear();
  NOK_ASSIGN_OR_RETURN(auto pattern, ParseXPath(xpath));
  return EvaluatePattern(pattern, options);
}

Result<std::vector<DeweyId>> QueryEngine::EvaluatePattern(
    const PatternTree& pattern, const QueryOptions& options) {
  stats_ = QueryStats{};
  last_trace_ = ExecutionTrace{};
  last_plan_text_.clear();

  if (HasPositionalPredicate(pattern)) {
    return Status::NotSupported(
        "positional predicates [n] are not evaluated by the NoK engine; "
        "use the region baseline");
  }

  const NokPartition partition = PartitionPattern(pattern);

  // Resolve every pattern tag against the dictionary once; the table is
  // shared by planning and by every Matches call during matching.
  const std::vector<TagId> tag_table =
      ResolvePatternTags(pattern, *store_->tags());

  const auto start = std::chrono::steady_clock::now();
  Planner planner(store_);
  NOK_ASSIGN_OR_RETURN(const QueryPlan plan,
                       planner.Plan(partition, tag_table, options));
  const double plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Executor executor(store_);
  NOK_ASSIGN_OR_RETURN(
      std::vector<DeweyId> out,
      executor.Run(plan, partition, tag_table, options, &stats_,
                   &last_trace_));
  last_trace_.plan_seconds = plan_seconds;
  last_plan_text_ = plan.ToString(partition);
  return out;
}

std::string QueryEngine::ExplainLast() const {
  if (last_plan_text_.empty()) return "no query evaluated yet\n";
  std::string out = last_plan_text_;
  char line[256];
  std::snprintf(line, sizeof(line), "  planning: time=%.3fms\n",
                last_trace_.plan_seconds * 1e3);
  out += line;
  if (last_trace_.empty_result) {
    out += "  synopsis: proved empty (" + last_trace_.empty_reason + ")\n";
  }
  if (last_trace_.nav_mode == NavMode::kBp) {
    std::snprintf(line, sizeof(line),
                  "  nav: bp bp_steps=%llu blocks_skipped=%llu\n",
                  static_cast<unsigned long long>(last_trace_.bp_steps),
                  static_cast<unsigned long long>(
                      last_trace_.bp_tag_blocks_skipped));
    out += line;
  }
  out += "  operators:\n";
  for (const OperatorStats& op : last_trace_.operators) {
    std::string row = "    [";
    row += op.tree >= 0 ? "tree " + std::to_string(op.tree) : "query";
    row += "] " + op.op;
    if (!op.detail.empty()) row += " " + op.detail;
    if (op.has_estimate) row += " est=" + std::to_string(op.estimated);
    row += " in=" + std::to_string(op.rows_in);
    row += " out=" + std::to_string(op.rows_out);
    std::snprintf(line, sizeof(line), " pages=%llu",
                  static_cast<unsigned long long>(op.pages));
    row += line;
    if (last_trace_.nav_mode == NavMode::kBp) {
      row += " bp_steps=" + std::to_string(op.bp_steps);
    }
    std::snprintf(line, sizeof(line), " time=%.3fms\n", op.seconds * 1e3);
    row += line;
    out += row;
  }
  std::snprintf(line, sizeof(line), "  results: %zu\n", stats_.results);
  out += line;
  return out;
}

}  // namespace nok
