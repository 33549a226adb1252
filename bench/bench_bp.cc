// Navigation-tier ablation: the paged cursor vs the in-memory balanced-
// parentheses index, on navigation-bound queries (StartStrategy::kScan
// forces the scan path, so the access tier — not index probing —
// dominates).
//
// Two query classes per dataset: low selectivity (the always-present
// detail tag; the scan visits everything) and high selectivity (the
// rarest planted marker; the fused tag scans visit only its hits).
// Self-checks:
//
//   * every mode returns byte-identical Dewey results;
//   * bp mode touches zero subject-tree pages on every measured query;
//   * bp beats the paged scan by --target-speedup on at least one
//     (dataset, query) cell — the wall-time claim of ROADMAP item 4.
//
// Usage: bench_bp [--datasets author,catalog] [--scale 0.05] [--seed 42]
//                 [--page-size 512] [--runs 3] [--target-speedup 5.0]
//                 [--json BENCH_bp.json]

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

struct Mode {
  NavMode nav_mode;
  const char* name;
};

constexpr Mode kModes[] = {
    {NavMode::kPaged, "paged"},
    {NavMode::kBp, "bp"},
};

/// One (dataset, mode, query) measurement.
struct Cell {
  std::string dataset;
  std::string tag;
  uint64_t tag_count = 0;
  size_t results = 0;
  double best_seconds = 0;
  double mean_seconds = 0;
  StringStore::NavStats nav;
  std::vector<std::string> deweys;  ///< For the cross-mode identity check.
};

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.05);
  gen.seed = static_cast<uint64_t>(bench::FlagInt(argc, argv, "seed", 42));
  const std::string datasets_flag =
      bench::FlagValue(argc, argv, "datasets", "author,catalog");
  const uint32_t page_size = static_cast<uint32_t>(
      bench::FlagInt(argc, argv, "page-size", 512));
  const int runs = bench::FlagInt(argc, argv, "runs", 3);
  const double target_speedup =
      bench::FlagDouble(argc, argv, "target-speedup", 5.0);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_bp.json");

  std::vector<Dataset> datasets;
  size_t start = 0;
  while (start <= datasets_flag.size()) {
    size_t comma = datasets_flag.find(',', start);
    if (comma == std::string::npos) comma = datasets_flag.size();
    const std::string name = datasets_flag.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    bool found = false;
    for (Dataset d : AllDatasets()) {
      if (DatasetName(d) == name) {
        datasets.push_back(d);
        found = true;
      }
    }
    if (!found) {
      fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      return 2;
    }
  }
  if (datasets.empty()) {
    fprintf(stderr, "no datasets\n");
    return 2;
  }

  printf("bp navigation ablation (scale %.3f, page size %u, %d runs, "
         "target %.1fx)\n\n",
         gen.scale, page_size, runs, target_speedup);
  printf("%-9s %-6s %-10s %9s %8s %8s %10s %9s %9s\n", "dataset", "mode",
         "tag", "count", "results", "pages", "bp-steps", "blk-skip",
         "best ms");

  // grid[mode] holds one Cell per (dataset, query) in sweep order.
  std::vector<std::vector<Cell>> grid(std::size(kModes));
  for (const Dataset dataset : datasets) {
    GeneratedDataset ds = GenerateDataset(dataset, gen);
    // Low selectivity (scan-everything) first, then the rarest marker.
    const std::vector<std::string> sweep = {ds.detail_a, ds.marker_gem};

    for (size_t m = 0; m < std::size(kModes); ++m) {
      const Mode& mode = kModes[m];
      DocumentStore::Options options;
      options.page_size = page_size;
      options.nav_mode = mode.nav_mode;
      auto store = DocumentStore::Build(ds.xml, options);
      if (!store.ok()) {
        fprintf(stderr, "build failed: %s\n",
                store.status().ToString().c_str());
        return 1;
      }

      for (const std::string& tag : sweep) {
        Cell cell;
        cell.dataset = ds.name;
        cell.tag = tag;
        auto tag_id = (*store)->tags()->Lookup(tag);
        cell.tag_count =
            tag_id.has_value() ? (*store)->CountTag(*tag_id) : 0;

        QueryEngine engine(store->get());
        QueryOptions qo;
        qo.strategy = StartStrategy::kScan;
        const std::string xpath = "//" + tag;
        double total_seconds = 0, best_seconds = 0;
        for (int r = 0; r < runs; ++r) {
          Status s = (*store)->DropCaches();
          if (!s.ok()) {
            fprintf(stderr, "drop caches failed: %s\n",
                    s.ToString().c_str());
            return 1;
          }
          Timer timer;
          auto result = engine.Evaluate(xpath, qo);
          const double seconds = timer.ElapsedSeconds();
          total_seconds += seconds;
          if (!result.ok()) {
            fprintf(stderr, "%s failed: %s\n", xpath.c_str(),
                    result.status().ToString().c_str());
            return 1;
          }
          if (r == 0 || seconds < best_seconds) best_seconds = seconds;
          if (r + 1 == runs) {  // Counters are identical run to run.
            cell.results = result->size();
            cell.nav = (*store)->tree()->nav_stats();
            cell.deweys.reserve(result->size());
            for (const DeweyId& id : *result) {
              cell.deweys.push_back(id.ToString());
            }
          }
        }
        cell.best_seconds = best_seconds;
        cell.mean_seconds = total_seconds / runs;
        printf("%-9s %-6s %-10s %9llu %8zu %8llu %10llu %9llu %9.3f\n",
               cell.dataset.c_str(), mode.name, tag.c_str(),
               static_cast<unsigned long long>(cell.tag_count),
               cell.results,
               static_cast<unsigned long long>(cell.nav.pages_scanned),
               static_cast<unsigned long long>(cell.nav.bp_steps),
               static_cast<unsigned long long>(
                   cell.nav.bp_tag_blocks_skipped),
               cell.best_seconds * 1e3);
        grid[m].push_back(std::move(cell));
      }
    }
  }

  // Check 1: the navigation tier must not change answers.
  bool identical = true;
  for (size_t m = 1; m < grid.size(); ++m) {
    for (size_t q = 0; q < grid[m].size(); ++q) {
      if (grid[m][q].deweys != grid[0][q].deweys) {
        identical = false;
        fprintf(stderr,
                "RESULT MISMATCH: mode %s disagrees with mode %s on "
                "%s //%s\n",
                kModes[m].name, kModes[0].name,
                grid[m][q].dataset.c_str(), grid[m][q].tag.c_str());
      }
    }
  }
  // Check 2: bp navigation is page-free on every measured query.
  const size_t bp = std::size(kModes) - 1;
  bool zero_pages = true;
  for (const Cell& cell : grid[bp]) {
    if (cell.nav.pages_scanned != 0) {
      zero_pages = false;
      fprintf(stderr, "BP TOUCHED PAGES: %s //%s scanned %llu pages\n",
              cell.dataset.c_str(), cell.tag.c_str(),
              static_cast<unsigned long long>(cell.nav.pages_scanned));
    }
  }
  // Check 3: at least one navigation-bound cell reaches the target
  // speedup over the paged scan (best-of-runs, so cold-start noise in a
  // single run cannot veto).
  bool speedup_achieved = false;
  double best_speedup = 0;
  for (size_t q = 0; q < grid[bp].size(); ++q) {
    const double paged_s = grid[0][q].best_seconds;
    const double bp_s = grid[bp][q].best_seconds;
    const double speedup = bp_s > 0 ? paged_s / bp_s : 0;
    if (speedup > best_speedup) best_speedup = speedup;
    if (speedup >= target_speedup) speedup_achieved = true;
  }
  if (!speedup_achieved) {
    fprintf(stderr,
            "BP SPEEDUP BELOW TARGET: best %.2fx < %.2fx target\n",
            best_speedup, target_speedup);
  }

  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"datasets\": \"%s\",\n  \"scale\": %.4f,\n"
           "  \"seed\": %llu,\n  \"page_size\": %u,\n  \"runs\": %d,\n"
           "  \"target_speedup\": %.2f,\n  \"best_speedup\": %.4f,\n"
           "  \"measurements\": [\n",
           datasets_flag.c_str(), gen.scale,
           static_cast<unsigned long long>(gen.seed), page_size, runs,
           target_speedup, best_speedup);
  json += buf;
  for (size_t m = 0; m < grid.size(); ++m) {
    for (size_t q = 0; q < grid[m].size(); ++q) {
      const Cell& c = grid[m][q];
      const double paged_s = grid[0][q].best_seconds;
      const double vs_paged =
          c.best_seconds > 0 ? paged_s / c.best_seconds : 0;
      snprintf(
          buf, sizeof(buf),
          "    {\"dataset\": \"%s\", \"mode\": \"%s\", "
          "\"nav_mode\": \"%s\", \"tag\": \"%s\", \"tag_count\": %llu, "
          "\"results\": %zu, \"best_seconds\": %.6f, "
          "\"mean_seconds\": %.6f, \"pages_scanned\": %llu, "
          "\"bp_steps\": %llu, "
          "\"bp_tag_blocks_skipped\": %llu, "
          "\"speedup_vs_paged\": %.4f}%s\n",
          c.dataset.c_str(), kModes[m].name,
          NavModeName(kModes[m].nav_mode), c.tag.c_str(),
          static_cast<unsigned long long>(c.tag_count), c.results,
          c.best_seconds, c.mean_seconds,
          static_cast<unsigned long long>(c.nav.pages_scanned),
          static_cast<unsigned long long>(c.nav.bp_steps),
          static_cast<unsigned long long>(c.nav.bp_tag_blocks_skipped),
          vs_paged,
          m + 1 == grid.size() && q + 1 == grid[m].size() ? "" : ",");
      json += buf;
    }
  }
  snprintf(buf, sizeof(buf),
           "  ],\n  \"checks\": {\"results_identical\": %s, "
           "\"bp_zero_pages\": %s, \"bp_speedup_achieved\": %s}\n}\n",
           identical ? "true" : "false", zero_pages ? "true" : "false",
           speedup_achieved ? "true" : "false");
  json += buf;

  Status s = WriteStringToFile(json_path, Slice(json));
  if (!s.ok()) {
    fprintf(stderr, "write %s failed: %s\n", json_path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  const bool passed = identical && zero_pages && speedup_achieved;
  printf("\nbest bp speedup vs paged scan: %.2fx\n", best_speedup);
  printf("report: %s (%s)\n", json_path.c_str(),
         passed ? "checks passed" : "CHECKS FAILED");
  return passed ? 0 : 1;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
