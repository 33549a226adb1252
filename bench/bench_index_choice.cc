// Starting-point strategy comparison (Section 6.2): sequential scan vs
// tag index vs value index for locating NoK starting points, across
// selectivity classes.  Reproduces the discussion that the value index
// wins for selective values, the tag index wins when tags are rare, and
// the scan wins when nothing is selective.
//
// Usage: bench_index_choice [--scale 0.2] [--runs 3]

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"

namespace nok {
namespace {

int Run(int argc, char** argv) {
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.2);
  const int runs = bench::FlagInt(argc, argv, "runs", 3);

  GeneratedDataset ds = GenerateDataset(Dataset::kDblp, gen);
  auto store = DocumentStore::Build(ds.xml, DocumentStore::Options());
  if (!store.ok()) {
    fprintf(stderr, "build failed: %s\n", store.status().ToString().c_str());
    return 1;
  }
  QueryEngine engine(store->get());

  printf("Starting-point strategies (dblp-like, %llu nodes, %d-run avg)\n\n",
         static_cast<unsigned long long>((*store)->stats().node_count),
         runs);
  printf("%-34s %-10s %10s %12s %10s\n", "query", "strategy", "time (s)",
         "candidates", "results");

  const auto queries = QueriesForDataset(ds);
  // One value query per selectivity class + one structural query.
  for (const auto& q : queries) {
    if (q.id != "Q1" && q.id != "Q5" && q.id != "Q9" && q.id != "Q10") {
      continue;
    }
    for (StartStrategy strategy :
         {StartStrategy::kScan, StartStrategy::kTagIndex,
          StartStrategy::kValueIndex, StartStrategy::kAuto}) {
      QueryOptions options;
      options.strategy = strategy;
      double seconds = 0;
      size_t candidates = 0, results = 0;
      StartStrategy used = strategy;
      for (int r = 0; r < runs; ++r) {
        if (!(*store)->DropCaches().ok()) return 1;
        Timer timer;
        auto result = engine.Evaluate(q.xpath, options);
        seconds += timer.ElapsedSeconds();
        if (!result.ok()) {
          fprintf(stderr, "%s failed: %s\n", q.xpath.c_str(),
                  result.status().ToString().c_str());
          return 1;
        }
        results = result->size();
        for (const auto& t : engine.last_stats().trees) {
          if (!t.candidates && engine.last_stats().trees.size() > 1) {
            continue;
          }
          candidates = t.candidates;
          used = t.strategy;
        }
      }
      auto strategy_name = [](StartStrategy s) {
        switch (s) {
          case StartStrategy::kScan: return "scan";
          case StartStrategy::kTagIndex: return "tag-idx";
          case StartStrategy::kValueIndex: return "value-idx";
          case StartStrategy::kAuto: return "auto";
        }
        return "?";
      };
      const char* name = strategy_name(strategy);
      const std::string used_name =
          std::string("(") + strategy_name(used) + ")";
      printf("%-34s %-10s %10.4f %12zu %10zu %s\n",
             (q.id + " " + q.category).c_str(), name, seconds / runs,
             candidates, results,
             strategy == StartStrategy::kAuto ? used_name.c_str() : "");
    }
    printf("\n");
  }
  printf("expected shape: value-idx ~ constant in selectivity; scan ~\n"
         "constant in document size; auto picks the value index whenever\n"
         "a value constraint exists (the paper's heuristic).\n");
  return 0;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
