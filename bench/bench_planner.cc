// Planner checks on generated data, counters only (no timing in them).
//
// The schema-impossible check: a composition of tags that all exist in
// the --dataset document but never nest that way must plan as
// EmptyResult and execute with zero subject-tree pages read.
//
// The work gate, on with --work-gate: dblp's 24 Table-2 queries (the 12
// categories plus their descendant variants, variant seed 42 as `nokq
// gen` draws them), at --scale and --seed, run on a paged and a bp
// store, under the auto plan and under each forced start strategy
// (scan, tag, value).  A query's work is its execution's deterministic
// counters, taken as deltas around Executor::Run: subject-tree pages +
// bp steps + B+ tree fetches (all indexes).  The B+ fetches taken around
// Planner::Plan are the planner's estimate probes, recorded apart:
// forced strategies skip the probes they cannot use, so counting those
// would gate the estimator, not the choice.  planner_work_never_worse
// requires the auto plan's work to stay within kWorkBound (1.1x) of the
// cheapest forced strategy's on every query in both nav modes, and every
// strategy to return the auto plan's answer.
//
// Usage: bench_planner [--dataset catalog] [--scale 0.05] [--seed 42]
//                      [--page-size 512] [--work-gate]
//                      [--json BENCH_planner.json]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "nok/physical_matcher.h"
#include "nok/xpath_parser.h"
#include "storage/file.h"

namespace nok {
namespace {

/// The work gate's bound: auto plan work / cheapest forced strategy's.
constexpr double kWorkBound = 1.1;

/// Deterministic work of one query plan's execution (see the file
/// comment), plus the B+ fetches its planning cost.
struct Work {
  uint64_t pages = 0;
  uint64_t bp_steps = 0;
  uint64_t btree_fetches = 0;
  uint64_t plan_btree_fetches = 0;
  uint64_t total() const { return pages + bp_steps + btree_fetches; }
};

uint64_t BTreeFetches(DocumentStore* store) {
  uint64_t total = 0;
  for (BTree* index : {store->value_index(), store->id_index()}) {
    total += index->buffer_pool()->stats().fetches;
  }
  return total;
}

/// The counter phase: one row per (query, nav mode, strategy).
struct WorkRow {
  std::string query;
  const char* nav_mode;
  StartStrategy strategy;
  Work work;
};

/// Runs the work phase on dblp; fills *rows and returns false on a
/// failed query or a result that differs between strategies.
bool RunWorkPhase(const GenOptions& gen, uint32_t page_size,
                  std::vector<WorkRow>* rows) {
  const GeneratedDataset ds = GenerateDataset(Dataset::kDblp, gen);
  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants = DescendantVariants(queries, 42);
  queries.insert(queries.end(), variants.begin(), variants.end());

  constexpr StartStrategy kStrategies[] = {
      StartStrategy::kAuto, StartStrategy::kScan, StartStrategy::kTagIndex,
      StartStrategy::kValueIndex};
  bool ok = true;
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStore::Options options;
    options.page_size = page_size;
    options.nav_mode = mode;
    auto store = DocumentStore::Build(ds.xml, options);
    if (!store.ok()) {
      fprintf(stderr, "build failed: %s\n",
              store.status().ToString().c_str());
      return false;
    }
    DocumentStore* s = store->get();
    for (const CategoryQuery& q : queries) {
      auto pattern = ParseXPath(q.xpath);
      if (!pattern.ok()) {
        fprintf(stderr, "%s: %s\n", q.xpath.c_str(),
                pattern.status().ToString().c_str());
        return false;
      }
      const NokPartition partition = PartitionPattern(*pattern);
      const std::vector<TagId> tag_table =
          ResolvePatternTags(*pattern, *s->tags());
      std::vector<DeweyId> want;
      for (const StartStrategy strategy : kStrategies) {
        QueryOptions qo;
        qo.strategy = strategy;
        WorkRow row{q.id, NavModeName(mode), strategy, {}};
        uint64_t fetches_before = BTreeFetches(s);
        Planner planner(s);
        Result<QueryPlan> plan = planner.Plan(partition, tag_table, qo);
        row.work.plan_btree_fetches = BTreeFetches(s) - fetches_before;
        const StringStore::NavStats nav_before = s->tree()->nav_stats();
        fetches_before = BTreeFetches(s);
        Result<std::vector<DeweyId>> result = plan.status();
        if (plan.ok()) {
          QueryStats stats;
          ExecutionTrace trace;
          result = Executor(s).Run(*plan, partition, tag_table, qo, &stats,
                                   &trace);
        }
        if (!result.ok()) {
          fprintf(stderr, "%s [%s] failed: %s\n", q.xpath.c_str(),
                  StrategyName(strategy), result.status().ToString().c_str());
          return false;
        }
        const StringStore::NavStats nav_after = s->tree()->nav_stats();
        row.work.pages = nav_after.pages_scanned - nav_before.pages_scanned;
        row.work.bp_steps = nav_after.bp_steps - nav_before.bp_steps;
        row.work.btree_fetches = BTreeFetches(s) - fetches_before;
        rows->push_back(row);
        if (strategy == StartStrategy::kAuto) {
          want = *result;
        } else if (*result != want) {
          ok = false;
          fprintf(stderr, "RESULT MISMATCH: %s %s on %s\n",
                  StrategyName(strategy), NavModeName(mode),
                  q.xpath.c_str());
        }
      }
    }
  }
  return ok;
}

/// The --dataset document's entry element name (the last step of its
/// entry path).
std::string EntryTag(const GeneratedDataset& ds) {
  const size_t slash = ds.entry_path.rfind('/');
  return slash == std::string::npos ? ds.entry_path
                                    : ds.entry_path.substr(slash + 1);
}

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.05);
  gen.seed = static_cast<uint64_t>(bench::FlagInt(argc, argv, "seed", 42));
  const std::string dataset_name =
      bench::FlagValue(argc, argv, "dataset", "catalog");
  const uint32_t page_size = static_cast<uint32_t>(
      bench::FlagInt(argc, argv, "page-size", 512));
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_planner.json");
  const bool work_gate = bench::FlagBool(argc, argv, "work-gate");

  Dataset dataset = Dataset::kCatalog;
  bool found = false;
  for (Dataset d : AllDatasets()) {
    if (DatasetName(d) == dataset_name) {
      dataset = d;
      found = true;
    }
  }
  if (!found) {
    fprintf(stderr, "unknown dataset: %s\n", dataset_name.c_str());
    return 2;
  }

  const GeneratedDataset ds = GenerateDataset(dataset, gen);
  DocumentStore::Options options;
  options.page_size = page_size;
  auto store = DocumentStore::Build(ds.xml, options);
  if (!store.ok()) {
    fprintf(stderr, "build failed: %s\n", store.status().ToString().c_str());
    return 1;
  }
  printf("planner checks: %s (scale %.3f, page size %u)\n", ds.name.c_str(),
         gen.scale, page_size);

  // Impossible-path short circuit: a composition of tags that all exist
  // but never nest this way (markers are leaves, so nothing lives below
  // one).  The plan is EmptyResult and the run must touch zero pages.
  const std::string impossible_query =
      "//" + ds.marker_gem + "//" + EntryTag(ds);
  uint64_t impossible_pages = 0;
  bool impossible_proved = false;
  {
    QueryEngine engine(store->get());
    (*store)->tree()->ResetNavStats();
    auto result = engine.Evaluate(impossible_query);
    if (!result.ok()) {
      fprintf(stderr, "impossible query failed: %s\n",
              result.status().ToString().c_str());
      return 1;
    }
    impossible_pages = (*store)->tree()->nav_stats().pages_scanned;
    impossible_proved = engine.last_trace().empty_result && result->empty();
  }
  const bool impossible_zero_pages =
      impossible_proved && impossible_pages == 0;
  printf("impossible path %s: %s, %llu pages\n", impossible_query.c_str(),
         impossible_proved ? "proved empty" : "NOT PROVED",
         static_cast<unsigned long long>(impossible_pages));
  if (!impossible_zero_pages) {
    fprintf(stderr, "IMPOSSIBLE-PATH CHECK FAILED\n");
  }

  // ------------------------------------------------------------------
  // Work phase: the auto plan against the cheapest forced strategy.
  std::vector<WorkRow> work_rows;
  bool work_never_worse = true;
  double work_max_ratio = 0;
  if (work_gate) {
    work_never_worse = RunWorkPhase(gen, page_size, &work_rows);
    printf("\nplanner work gate: dblp, auto vs cheapest forced strategy\n");
    printf("%-5s %-6s %10s %10s %10s %7s\n", "id", "nav", "auto",
           "cheapest", "forced", "ratio");
    constexpr size_t kPerQuery = 4;  // auto, scan, tag, value.
    for (size_t i = 0; i + kPerQuery <= work_rows.size(); i += kPerQuery) {
      const WorkRow& auto_row = work_rows[i];
      const WorkRow* cheapest = &work_rows[i + 1];
      for (size_t j = i + 2; j < i + kPerQuery; ++j) {
        if (work_rows[j].work.total() < cheapest->work.total()) {
          cheapest = &work_rows[j];
        }
      }
      const double ratio =
          static_cast<double>(auto_row.work.total()) /
          static_cast<double>(std::max<uint64_t>(cheapest->work.total(), 1));
      work_max_ratio = std::max(work_max_ratio, ratio);
      if (ratio > kWorkBound) {
        work_never_worse = false;
        fprintf(stderr,
                "PLANNER WORK REGRESSION: %s (%s) auto %llu > %.2fx "
                "%s %llu\n",
                auto_row.query.c_str(), auto_row.nav_mode,
                static_cast<unsigned long long>(auto_row.work.total()),
                kWorkBound, StrategyName(cheapest->strategy),
                static_cast<unsigned long long>(cheapest->work.total()));
      }
      printf("%-5s %-6s %10llu %10llu %10s %7.3f\n", auto_row.query.c_str(),
             auto_row.nav_mode,
             static_cast<unsigned long long>(auto_row.work.total()),
             static_cast<unsigned long long>(cheapest->work.total()),
             StrategyName(cheapest->strategy), ratio);
    }
  }

  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"dataset\": \"%s\",\n  \"scale\": %.4f,\n"
           "  \"seed\": %llu,\n  \"page_size\": %u,\n"
           "  \"impossible_query\": \"%s\",\n"
           "  \"impossible_pages\": %llu,\n",
           ds.name.c_str(), gen.scale,
           static_cast<unsigned long long>(gen.seed), page_size,
           impossible_query.c_str(),
           static_cast<unsigned long long>(impossible_pages));
  json += buf;
  if (work_gate) {
    snprintf(buf, sizeof(buf),
             "  \"work\": {\n    \"dataset\": \"dblp\",\n"
             "    \"bound\": %.3f,\n    \"max_ratio\": %.4f,\n"
             "    \"runs\": [\n",
             kWorkBound, work_max_ratio);
    json += buf;
    for (size_t i = 0; i < work_rows.size(); ++i) {
      const WorkRow& row = work_rows[i];
      snprintf(buf, sizeof(buf),
               "      {\"query\": \"%s\", \"nav_mode\": \"%s\", "
               "\"strategy\": \"%s\", \"pages\": %llu, "
               "\"bp_steps\": %llu, \"btree_fetches\": %llu, "
               "\"plan_btree_fetches\": %llu, \"work\": %llu}%s\n",
               row.query.c_str(), row.nav_mode, StrategyName(row.strategy),
               static_cast<unsigned long long>(row.work.pages),
               static_cast<unsigned long long>(row.work.bp_steps),
               static_cast<unsigned long long>(row.work.btree_fetches),
               static_cast<unsigned long long>(row.work.plan_btree_fetches),
               static_cast<unsigned long long>(row.work.total()),
               i + 1 == work_rows.size() ? "" : ",");
      json += buf;
    }
    json += "    ]\n  },\n";
  }
  snprintf(buf, sizeof(buf),
           "  \"checks\": {\"impossible_zero_pages\": %s, "
           "\"planner_work_never_worse\": %s}\n}\n",
           impossible_zero_pages ? "true" : "false",
           work_never_worse ? "true" : "false");
  json += buf;

  Status s = WriteStringToFile(json_path, Slice(json));
  if (!s.ok()) {
    fprintf(stderr, "write %s failed: %s\n", json_path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  const bool ok = impossible_zero_pages && work_never_worse;
  printf("\nreport: %s (%s)\n", json_path.c_str(),
         ok ? "checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
