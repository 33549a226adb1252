// Planner ablation: measures what cost-based semi-join ordering (most
// selective ready tree first + semi-join pre-filtering of anchor
// candidates) and the plan cache buy on branchy Table-2 style queries.
//
// Three modes per query:
//   fixed       legacy partition order (n-1..0), no pre-filter, no cache
//   cost        cost-based schedule + pre-filter (the default)
//   cost+cache  cost plus the bounded plan cache (repeat runs hit it)
//
// The knobs only change evaluation order and which candidate pages are
// touched, never the answer, so the run fails unless all modes return
// identical result sets.  It also fails if cost-based ordering is slower
// than the fixed order (beyond a small timing tolerance) on any query,
// or fails to reach the target speedup on at least one branchy query.
//
// A second phase ablates the path synopsis (per-pattern-node estimates
// vs flat tag counts): it compares per-NokMatch est-vs-actual error,
// requires the synopsis to at least halve the median error on the bushy
// workload, and requires a schema-impossible composition of present
// tags to execute with zero pages read via the EmptyResult fast path.
//
// A third phase, on with --work-gate, is a counter gate with no timing
// in it: dblp's 24 Table-2 queries (the 12 categories plus their
// descendant variants, variant seed 42 as `nokq gen` draws them), at
// --scale and --seed, run on a paged and a bp store, under the auto plan
// and under each forced start strategy (scan, tag, value).  Each query
// runs twice through the plan cache; the second run's deterministic work
// is the plan's: subject-tree pages + bp steps + B+ tree fetches (all
// four indexes).  The first run's extra B+ fetches are the planner's
// estimate probes, recorded apart: forced strategies skip the probes
// they cannot use, so counting those would gate the estimator, not the
// choice.  planner_work_never_worse requires the auto plan's work to
// stay within kWorkBound (1.1x) of the cheapest forced strategy's on
// every query in both nav modes.
//
// Usage: bench_planner [--dataset catalog] [--scale 0.05] [--seed 42]
//                      [--page-size 512] [--runs 5]
//                      [--target-speedup 1.2] [--tolerance 0.10]
//                      [--work-gate]
//                      [--json BENCH_planner.json]

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

struct Mode {
  bool cost_based;
  bool cache;
  const char* name;
};

constexpr Mode kModes[] = {
    {false, false, "fixed"},
    {true, false, "cost"},
    {true, true, "cost+cache"},
};

/// One (query, mode) measurement.
struct Cell {
  size_t results = 0;
  double best_seconds = 0;   ///< Min over runs (noise-robust).
  double mean_seconds = 0;
  uint64_t pages_scanned = 0;
  uint64_t cache_hits = 0;
  std::vector<std::string> deweys;  ///< For the cross-mode identity check.
};

/// One query under one planner mode (synopsis on/off): per-NokMatch
/// est-vs-actual errors plus the page count the schedule cost.
struct SynopsisCell {
  std::vector<double> errors;  ///< |est/max(actual,1) - 1| per NokMatch.
  uint64_t pages_scanned = 0;
  std::vector<std::string> deweys;
};

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
  for (BTree* index :
       {store->tag_index(), store->value_index(), store->id_index()}) {
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
      std::vector<DeweyId> want;
      for (const StartStrategy strategy : kStrategies) {
        QueryEngine engine(s);
        QueryOptions qo;
        qo.strategy = strategy;
        qo.use_plan_cache = true;
        uint64_t fetches_before = BTreeFetches(s);
        auto result = engine.Evaluate(q.xpath, qo);  // Plans and caches.
        const uint64_t first_fetches = BTreeFetches(s) - fetches_before;
        const StringStore::NavStats nav_before = s->tree()->nav_stats();
        fetches_before = BTreeFetches(s);
        if (result.ok()) result = engine.Evaluate(q.xpath, qo);
        if (!result.ok()) {
          fprintf(stderr, "%s [%s] failed: %s\n", q.xpath.c_str(),
                  StrategyName(strategy), result.status().ToString().c_str());
          return false;
        }
        if (strategy == StartStrategy::kAuto) {
          want = *result;
        } else if (*result != want) {
          ok = false;
          fprintf(stderr, "RESULT MISMATCH: %s %s on %s\n",
                  StrategyName(strategy), NavModeName(mode),
                  q.xpath.c_str());
        }
        const StringStore::NavStats nav_after = s->tree()->nav_stats();
        WorkRow row{q.id, NavModeName(mode), strategy, {}};
        row.work.pages = nav_after.pages_scanned - nav_before.pages_scanned;
        row.work.bp_steps = nav_after.bp_steps - nav_before.bp_steps;
        row.work.btree_fetches = BTreeFetches(s) - fetches_before;
        row.work.plan_btree_fetches = first_fetches - row.work.btree_fetches;
        rows->push_back(row);
      }
    }
  }
  return ok;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The branchy workload: the bushy half of the Table 2 categories plus
/// two hand-built queries whose anchors are frequent but whose predicate
/// subtrees are rare — the shape where evaluating the rare tree first
/// and pre-filtering the anchor candidates pays the most.
std::vector<CategoryQuery> Workload(const GeneratedDataset& ds) {
  std::vector<CategoryQuery> out;
  for (const CategoryQuery& q : QueriesForDataset(ds)) {
    if (q.category.size() == 3 && q.category[1] == 'b') out.push_back(q);
  }
  std::string entry = ds.entry_path;
  const size_t slash = entry.rfind('/');
  if (slash != std::string::npos) entry = entry.substr(slash + 1);
  out.push_back({"X1", "xb n",
                 ds.entry_path + "[" + ds.detail_a + "][.//" +
                     ds.marker_gem + "]"});
  out.push_back({"X2", "xb y",
                 "//" + entry + "[" + ds.needle_tag_a + "=\"" +
                     ds.needle_low_a + "\"][.//" + ds.marker_rare + "]"});
  return out;
}

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.05);
  gen.seed = static_cast<uint64_t>(bench::FlagInt(argc, argv, "seed", 42));
  const std::string dataset_name =
      bench::FlagValue(argc, argv, "dataset", "catalog");
  const uint32_t page_size = static_cast<uint32_t>(
      bench::FlagInt(argc, argv, "page-size", 512));
  const int runs = bench::FlagInt(argc, argv, "runs", 5);
  const double target =
      bench::FlagDouble(argc, argv, "target-speedup", 1.2);
  const double tolerance = bench::FlagDouble(argc, argv, "tolerance", 0.10);
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

  GeneratedDataset ds = GenerateDataset(dataset, gen);
  const std::vector<CategoryQuery> queries = Workload(ds);

  DocumentStore::Options options;
  options.page_size = page_size;
  auto store = DocumentStore::Build(ds.xml, options);
  if (!store.ok()) {
    fprintf(stderr, "build failed: %s\n", store.status().ToString().c_str());
    return 1;
  }

  printf("planner ablation: %s (scale %.3f, page size %u, %d runs)\n\n",
         ds.name.c_str(), gen.scale, page_size, runs);
  printf("%-4s %-10s %8s %9s %9s %8s %8s\n", "id", "mode", "results",
         "best ms", "mean ms", "pages", "hits");

  std::vector<std::vector<Cell>> grid;  // [query][mode].
  for (const CategoryQuery& q : queries) {
    std::vector<Cell> row;
    for (const Mode& mode : kModes) {
      Cell cell;
      QueryEngine engine(store->get());
      QueryOptions qo;
      qo.cost_based_join_order = mode.cost_based;
      qo.use_plan_cache = mode.cache;
      double total_seconds = 0;
      double best_seconds = 0;
      for (int r = 0; r < runs; ++r) {
        Status s = (*store)->DropCaches();
        if (!s.ok()) {
          fprintf(stderr, "drop caches failed: %s\n", s.ToString().c_str());
          return 1;
        }
        (*store)->tree()->ResetNavStats();
        Timer timer;
        auto result = engine.Evaluate(q.xpath, qo);
        const double seconds = timer.ElapsedSeconds();
        total_seconds += seconds;
        if (r == 0 || seconds < best_seconds) best_seconds = seconds;
        if (!result.ok()) {
          fprintf(stderr, "%s [%s] failed: %s\n", q.xpath.c_str(),
                  mode.name, result.status().ToString().c_str());
          return 1;
        }
        if (r + 1 == runs) {
          cell.results = result->size();
          cell.pages_scanned =
              (*store)->tree()->nav_stats().pages_scanned;
          cell.deweys.reserve(result->size());
          for (const DeweyId& id : *result) {
            cell.deweys.push_back(id.ToString());
          }
        }
      }
      cell.best_seconds = best_seconds;
      cell.mean_seconds = total_seconds / runs;
      cell.cache_hits = engine.plan_cache().stats().hits;
      printf("%-4s %-10s %8zu %9.3f %9.3f %8llu %8llu\n", q.id.c_str(),
             mode.name, cell.results, cell.best_seconds * 1e3,
             cell.mean_seconds * 1e3,
             static_cast<unsigned long long>(cell.pages_scanned),
             static_cast<unsigned long long>(cell.cache_hits));
      row.push_back(std::move(cell));
    }
    grid.push_back(std::move(row));
  }

  // Check 1: ordering, pre-filtering and caching must not change answers.
  bool identical = true;
  for (size_t q = 0; q < grid.size(); ++q) {
    for (size_t m = 1; m < grid[q].size(); ++m) {
      if (grid[q][m].deweys != grid[q][0].deweys) {
        identical = false;
        fprintf(stderr,
                "RESULT MISMATCH: mode %s disagrees with mode %s on %s\n",
                kModes[m].name, kModes[0].name, queries[q].xpath.c_str());
      }
    }
  }
  // Check 2: cost-based ordering is never slower than the fixed order
  // (within a timing-noise tolerance on best-of-runs).
  bool never_slower = true;
  double max_speedup = 0;
  for (size_t q = 0; q < grid.size(); ++q) {
    const double fixed = grid[q][0].best_seconds;
    const double cost = grid[q][1].best_seconds;
    const double speedup = cost > 0 ? fixed / cost : 1.0;
    max_speedup = std::max(max_speedup, speedup);
    if (cost > fixed * (1.0 + tolerance)) {
      never_slower = false;
      fprintf(stderr,
              "REGRESSION: %s cost-based %.3fms vs fixed %.3fms\n",
              queries[q].id.c_str(), cost * 1e3, fixed * 1e3);
    }
  }
  // Check 3: at least one branchy query reaches the target speedup.
  const bool target_met = max_speedup >= target;
  if (!target_met) {
    fprintf(stderr,
            "SPEEDUP TARGET MISSED: best %.2fx < target %.2fx\n",
            max_speedup, target);
  }

  // ------------------------------------------------------------------
  // Synopsis phase: estimation quality on the bushy workload, synopsis
  // on vs off.  Per query and mode, collect the per-NokMatch estimation
  // error |est / max(actual, 1) - 1| from the operator trace, the pages
  // the chosen schedule cost, and the result set (the planner mode must
  // never change answers).  The skewed compositions are exactly where
  // flat tag counts are off by orders of magnitude.
  printf("\nsynopsis ablation (est-vs-actual per NokMatch)\n");
  printf("%-4s %12s %12s %10s %10s\n", "id", "err syn", "err flat",
         "pages syn", "pages flat");
  std::vector<double> errors_syn, errors_flat;
  bool synopsis_identical = true;
  bool schedule_never_worse = true;
  std::vector<std::array<SynopsisCell, 2>> syn_grid;  // [query][on, off].
  for (const CategoryQuery& q : queries) {
    std::array<SynopsisCell, 2> cells;
    for (int mode = 0; mode < 2; ++mode) {
      SynopsisCell& cell = cells[static_cast<size_t>(mode)];
      QueryEngine engine(store->get());
      QueryOptions qo;
      qo.use_synopsis = mode == 0;
      Status s = (*store)->DropCaches();
      if (!s.ok()) {
        fprintf(stderr, "drop caches failed: %s\n", s.ToString().c_str());
        return 1;
      }
      (*store)->tree()->ResetNavStats();
      auto result = engine.Evaluate(q.xpath, qo);
      if (!result.ok()) {
        fprintf(stderr, "%s [synopsis=%d] failed: %s\n", q.xpath.c_str(),
                mode == 0 ? 1 : 0, result.status().ToString().c_str());
        return 1;
      }
      cell.pages_scanned = (*store)->tree()->nav_stats().pages_scanned;
      for (const DeweyId& id : *result) {
        cell.deweys.push_back(id.ToString());
      }
      for (const OperatorStats& op : engine.last_trace().operators) {
        if (op.op != "NokMatch" || !op.has_estimate) continue;
        const double actual =
            static_cast<double>(op.rows_out > 0 ? op.rows_out : 1);
        cell.errors.push_back(
            std::fabs(static_cast<double>(op.estimated) / actual - 1.0));
      }
      auto* pool = mode == 0 ? &errors_syn : &errors_flat;
      pool->insert(pool->end(), cell.errors.begin(), cell.errors.end());
    }
    if (cells[0].deweys != cells[1].deweys) {
      synopsis_identical = false;
      fprintf(stderr, "RESULT MISMATCH: synopsis on/off disagree on %s\n",
              q.xpath.c_str());
    }
    // Schedule-choice self-check: better estimates must not steer the
    // selectivity schedule into touching more pages (small absolute
    // slack for tie-break churn on tiny plans).
    if (cells[0].pages_scanned > cells[1].pages_scanned + 2) {
      schedule_never_worse = false;
      fprintf(stderr,
              "SCHEDULE REGRESSION: %s scans %llu pages with the synopsis "
              "vs %llu without\n",
              q.id.c_str(),
              static_cast<unsigned long long>(cells[0].pages_scanned),
              static_cast<unsigned long long>(cells[1].pages_scanned));
    }
    printf("%-4s %12.3f %12.3f %10llu %10llu\n", q.id.c_str(),
           Median(cells[0].errors), Median(cells[1].errors),
           static_cast<unsigned long long>(cells[0].pages_scanned),
           static_cast<unsigned long long>(cells[1].pages_scanned));
    syn_grid.push_back(std::move(cells));
  }
  const double median_err_syn = Median(errors_syn);
  const double median_err_flat = Median(errors_flat);
  // The acceptance bar: the synopsis halves the median estimation error
  // on the bushy workload (in practice it collapses it to ~0).
  const bool error_collapses = median_err_syn <= 0.5 * median_err_flat;
  if (!error_collapses) {
    fprintf(stderr,
            "ESTIMATION ERROR NOT COLLAPSED: median %.3f with synopsis vs "
            "%.3f without\n",
            median_err_syn, median_err_flat);
  }

  // Impossible-path short circuit: a composition of tags that all exist
  // but never nest this way (markers are leaves, so nothing lives below
  // one).  With the synopsis the plan is EmptyResult and the run must
  // touch zero pages; without it the engine still answers [] the hard
  // way — and both must agree.
  std::string entry_tag = ds.entry_path;
  const size_t entry_slash = entry_tag.rfind('/');
  if (entry_slash != std::string::npos) {
    entry_tag = entry_tag.substr(entry_slash + 1);
  }
  const std::string impossible_query =
      "//" + ds.marker_gem + "//" + entry_tag;
  uint64_t impossible_pages = 0;
  bool impossible_proved = false;
  bool impossible_agrees = false;
  {
    QueryEngine engine(store->get());
    Status s = (*store)->DropCaches();
    if (!s.ok()) {
      fprintf(stderr, "drop caches failed: %s\n", s.ToString().c_str());
      return 1;
    }
    (*store)->tree()->ResetNavStats();
    QueryOptions qo;
    auto on = engine.Evaluate(impossible_query, qo);
    if (!on.ok()) {
      fprintf(stderr, "impossible query failed: %s\n",
              on.status().ToString().c_str());
      return 1;
    }
    impossible_pages = (*store)->tree()->nav_stats().pages_scanned;
    impossible_proved = engine.last_trace().empty_result;
    QueryOptions off;
    off.use_synopsis = false;
    auto flat = engine.Evaluate(impossible_query, off);
    impossible_agrees =
        flat.ok() && flat->empty() && on->empty();
  }
  const bool impossible_zero_pages =
      impossible_proved && impossible_pages == 0 && impossible_agrees;
  printf("impossible path %s: %s, %llu pages\n", impossible_query.c_str(),
         impossible_proved ? "proved empty" : "NOT PROVED",
         static_cast<unsigned long long>(impossible_pages));
  if (!impossible_zero_pages) {
    fprintf(stderr, "IMPOSSIBLE-PATH CHECK FAILED\n");
  }

  // ------------------------------------------------------------------
  // Work phase: the auto plan against the cheapest forced strategy.
  std::vector<WorkRow> work_rows;
  bool work_ok = true;
  bool work_never_worse = true;
  double work_max_ratio = 0;
  if (work_gate) {
    work_ok = RunWorkPhase(gen, page_size, &work_rows);
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
    work_never_worse = work_never_worse && work_ok;
  }

  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"dataset\": \"%s\",\n  \"scale\": %.4f,\n"
           "  \"seed\": %llu,\n  \"page_size\": %u,\n  \"runs\": %d,\n"
           "  \"target_speedup\": %.2f,\n  \"tolerance\": %.2f,\n"
           "  \"measurements\": [\n",
           ds.name.c_str(), gen.scale,
           static_cast<unsigned long long>(gen.seed), page_size, runs,
           target, tolerance);
  json += buf;
  for (size_t q = 0; q < grid.size(); ++q) {
    for (size_t m = 0; m < grid[q].size(); ++m) {
      const Cell& c = grid[q][m];
      const double speedup =
          c.best_seconds > 0 ? grid[q][0].best_seconds / c.best_seconds
                             : 1.0;
      snprintf(
          buf, sizeof(buf),
          "    {\"query\": \"%s\", \"category\": \"%s\", "
          "\"mode\": \"%s\", \"cost_based\": %s, \"plan_cache\": %s, "
          "\"results\": %zu, \"best_seconds\": %.6f, "
          "\"mean_seconds\": %.6f, \"pages_scanned\": %llu, "
          "\"plan_cache_hits\": %llu, \"speedup_vs_fixed\": %.3f}%s\n",
          queries[q].id.c_str(), queries[q].category.c_str(),
          kModes[m].name, kModes[m].cost_based ? "true" : "false",
          kModes[m].cache ? "true" : "false", c.results, c.best_seconds,
          c.mean_seconds, static_cast<unsigned long long>(c.pages_scanned),
          static_cast<unsigned long long>(c.cache_hits), speedup,
          q + 1 == grid.size() && m + 1 == grid[q].size() ? "" : ",");
      json += buf;
    }
  }
  json += "  ],\n  \"synopsis\": {\n    \"queries\": [\n";
  for (size_t q = 0; q < syn_grid.size(); ++q) {
    snprintf(buf, sizeof(buf),
             "      {\"query\": \"%s\", \"median_abs_error_syn\": %.4f, "
             "\"median_abs_error_flat\": %.4f, \"pages_syn\": %llu, "
             "\"pages_flat\": %llu}%s\n",
             queries[q].id.c_str(), Median(syn_grid[q][0].errors),
             Median(syn_grid[q][1].errors),
             static_cast<unsigned long long>(syn_grid[q][0].pages_scanned),
             static_cast<unsigned long long>(syn_grid[q][1].pages_scanned),
             q + 1 == syn_grid.size() ? "" : ",");
    json += buf;
  }
  snprintf(buf, sizeof(buf),
           "    ],\n    \"median_abs_error_syn\": %.4f,\n"
           "    \"median_abs_error_flat\": %.4f,\n"
           "    \"impossible_query\": \"%s\",\n"
           "    \"impossible_pages\": %llu\n  },\n",
           median_err_syn, median_err_flat, impossible_query.c_str(),
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
           "  \"checks\": {\"results_identical\": %s, "
           "\"never_slower\": %s, \"speedup_target_met\": %s, "
           "\"max_speedup\": %.3f, \"synopsis_identical\": %s, "
           "\"synopsis_error_collapses\": %s, "
           "\"synopsis_schedule_never_worse\": %s, "
           "\"impossible_zero_pages\": %s, "
           "\"planner_work_never_worse\": %s}\n}\n",
           identical ? "true" : "false", never_slower ? "true" : "false",
           target_met ? "true" : "false", max_speedup,
           synopsis_identical ? "true" : "false",
           error_collapses ? "true" : "false",
           schedule_never_worse ? "true" : "false",
           impossible_zero_pages ? "true" : "false",
           work_never_worse ? "true" : "false");
  json += buf;

  Status s = WriteStringToFile(json_path, Slice(json));
  if (!s.ok()) {
    fprintf(stderr, "write %s failed: %s\n", json_path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  const bool ok = identical && never_slower && target_met &&
                  synopsis_identical && error_collapses &&
                  schedule_never_worse && impossible_zero_pages &&
                  work_never_worse;
  printf("\nbest speedup %.2fx; report: %s (%s)\n", max_speedup,
         json_path.c_str(), ok ? "checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
