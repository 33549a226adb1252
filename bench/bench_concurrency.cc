// Concurrent read-path scaling: aggregate throughput of the Table 2
// workload when 1, 2, 4, ... reader threads share one read-only
// DocumentStore through the sharded buffer pool.
//
// Each thread owns its own QueryEngine (cheap per-thread object); the
// store handle, buffer pools and pager are shared.  Per-thread and
// aggregate numbers mirror what `nokq bench --threads` reports.
//
// A second, mixed phase opens the same data through the single-writer /
// multi-reader store: N readers run the workload against pinned
// snapshots while one updater commits subtree insert/delete batches
// through the WAL.  Reader per-query p50/p99 are compared against a
// readers-only baseline; the `readers_never_blocked` self-check fails
// the report if commits stall the read path.
//
// Usage: bench_concurrency [--scale 0.05] [--max-threads 8] [--repeat 2]
//                          [--mixed-readers 4] [--commits 30]
//                          [--json BENCH_concurrency.json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

struct WorkerResult {
  uint64_t queries = 0;
  uint64_t results = 0;
  Status status;
};

void Worker(DocumentStore* store, const std::vector<std::string>* xpaths,
            int repeat, WorkerResult* out) {
  QueryEngine engine(store);
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& xpath : *xpaths) {
      auto result = engine.Evaluate(xpath);
      if (!result.ok()) {
        out->status = result.status();
        return;
      }
      ++out->queries;
      out->results += result->size();
    }
  }
}

/// Per-thread log of the mixed phase: one latency sample per query.
struct MixedReaderResult {
  std::vector<double> latencies;
  std::set<uint64_t> epochs;
  uint64_t passes = 0;
  Status status;
};

/// Runs workload passes over freshly pinned snapshots until `stop` (or,
/// when max_passes > 0, until that many passes are done — the baseline).
void MixedReader(SwmrStore* swmr, const std::vector<std::string>* xpaths,
                 std::atomic<bool>* stop, uint64_t max_passes,
                 MixedReaderResult* out) {
  while (!stop->load(std::memory_order_acquire) &&
         (max_passes == 0 || out->passes < max_passes)) {
    auto snap = swmr->snapshot();
    out->epochs.insert(snap->epoch());
    QueryEngine engine(snap->store());
    for (const std::string& xpath : *xpaths) {
      Timer timer;
      auto result = engine.Evaluate(xpath);
      const double seconds = timer.ElapsedSeconds();
      if (!result.ok()) {
        out->status = result.status();
        return;
      }
      out->latencies.push_back(seconds);
    }
    ++out->passes;
  }
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t idx = static_cast<size_t>(p * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return (*samples)[idx];
}

/// The updater's commit batch: three subtree inserts into the root's
/// first entry plus one delete of the latest insert.  Targeting a nested
/// node keeps the sibling shift local to that entry — inserting at the
/// root itself would renumber thousands of top-level siblings per update
/// on a dblp-shaped document.
Status UpdateBatch(SwmrStore* swmr, int c) {
  for (int j = 0; j < 3; ++j) {
    NOK_RETURN_IF_ERROR(swmr->InsertSubtree(
        DeweyId({0, 0}), 0,
        "<bench><v>c" + std::to_string(c) + "n" + std::to_string(j) +
            "</v></bench>"));
  }
  NOK_RETURN_IF_ERROR(swmr->DeleteSubtree(DeweyId({0, 0, 0})));
  return swmr->Commit();
}

int Run(int argc, char** argv) {
  setbuf(stdout, nullptr);
  GenOptions gen;
  gen.scale = bench::FlagDouble(argc, argv, "scale", 0.05);
  const int max_threads = bench::FlagInt(argc, argv, "max-threads", 8);
  const int repeat = bench::FlagInt(argc, argv, "repeat", 2);
  const int mixed_readers = bench::FlagInt(argc, argv, "mixed-readers", 4);
  const int commits = bench::FlagInt(argc, argv, "commits", 30);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_concurrency.json");

  GeneratedDataset ds = GenerateDataset(Dataset::kDblp, gen);
  std::vector<std::string> xpaths;
  auto queries = QueriesForDataset(ds);
  auto variants = DescendantVariants(queries, gen.seed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  for (const CategoryQuery& q : queries) xpaths.push_back(q.xpath);

  // Concurrency needs a directory-backed store (read-only reopen).
  const std::string dir = "/tmp/nok_bench_concurrency";
  {
    DocumentStore::Options options;
    options.dir = dir;
    for (const char* f :
         {store_files::kTree, store_files::kValues, store_files::kDict,
          store_files::kValIdx, store_files::kIdIdx}) {
      Status s = RemoveFile(dir + "/" + f);
      if (!s.ok()) {
        fprintf(stderr, "cleanup failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    auto built = DocumentStore::Build(ds.xml, options);
    if (!built.ok()) {
      fprintf(stderr, "build failed: %s\n",
              built.status().ToString().c_str());
      return 1;
    }
    Status s = (*built)->Flush();
    if (!s.ok()) {
      fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  DocumentStore::Options options;
  options.dir = dir;
  options.read_only = true;
  options.pool_shards = 16;
  options.index_pool_shards = 8;
  auto store = DocumentStore::OpenDir(options);
  if (!store.ok()) {
    fprintf(stderr, "open failed: %s\n",
            store.status().ToString().c_str());
    return 1;
  }

  printf("concurrent read path (dblp-like, scale %.3f, %zu queries, "
         "repeat %d; hardware threads: %u)\n\n",
         gen.scale, xpaths.size(), repeat,
         std::thread::hardware_concurrency());
  printf("%8s %12s %14s %10s\n", "threads", "queries", "throughput",
         "speedup");

  struct ScalingRow {
    int threads;
    uint64_t queries;
    double qps;
    double speedup;
  };
  std::vector<ScalingRow> scaling;

  double base_qps = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    Status s = (*store)->DropCaches();
    if (!s.ok()) {
      fprintf(stderr, "drop caches failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<WorkerResult> results(static_cast<size_t>(threads));
    Timer wall;
    {
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back(Worker, store->get(), &xpaths, repeat,
                             &results[static_cast<size_t>(t)]);
      }
      for (std::thread& w : workers) w.join();
    }
    const double seconds = wall.ElapsedSeconds();
    uint64_t total = 0;
    for (const WorkerResult& r : results) {
      if (!r.status.ok()) {
        fprintf(stderr, "query failed: %s\n",
                r.status.ToString().c_str());
        return 1;
      }
      if (r.results != results[0].results) {
        fprintf(stderr, "threads disagree on results\n");
        return 1;
      }
      total += r.queries;
    }
    const double qps =
        seconds == 0 ? 0 : static_cast<double>(total) / seconds;
    if (threads == 1) base_qps = qps;
    const double speedup = base_qps == 0 ? 0 : qps / base_qps;
    printf("%8d %12llu %11.1f qps %9.2fx\n", threads,
           static_cast<unsigned long long>(total), qps, speedup);
    scaling.push_back({threads, total, qps, speedup});
  }
  store->reset();  // Release the read-only handle before the SWMR open.

  // -- mixed phase: N snapshot readers + 1 WAL updater -------------------
  const std::string mixed_dir = dir + "_swmr";
  std::filesystem::remove_all(mixed_dir);
  std::filesystem::copy(dir, mixed_dir,
                        std::filesystem::copy_options::recursive);
  SwmrStore::Options swmr_options;
  swmr_options.store.pool_shards = 16;
  swmr_options.store.index_pool_shards = 8;
  auto swmr = SwmrStore::Open(mixed_dir, swmr_options);
  if (!swmr.ok()) {
    fprintf(stderr, "swmr open failed: %s\n",
            swmr.status().ToString().c_str());
    return 1;
  }

  printf("\nmixed phase: %d snapshot readers + 1 updater (%d commits of "
         "4 updates each)\n\n",
         mixed_readers, commits);

  auto run_phase = [&](bool with_writer, uint64_t baseline_passes,
                       std::vector<MixedReaderResult>* results,
                       uint64_t* commits_done, double* wall_seconds,
                       Status* writer_status) {
    std::atomic<bool> stop{false};
    Timer wall;
    std::vector<std::thread> threads;
    for (int t = 0; t < mixed_readers; ++t) {
      threads.emplace_back(MixedReader, swmr->get(), &xpaths, &stop,
                           with_writer ? 0 : baseline_passes,
                           &(*results)[static_cast<size_t>(t)]);
    }
    if (with_writer) {
      threads.emplace_back([&]() {
        for (int c = 0; c < commits; ++c) {
          Status s = UpdateBatch(swmr->get(), c);
          if (!s.ok()) {
            *writer_status = s;
            break;
          }
          ++*commits_done;
        }
        stop.store(true, std::memory_order_release);
      });
    }
    for (std::thread& t : threads) t.join();
    *wall_seconds = wall.ElapsedSeconds();
  };

  // Mixed: readers loop until the updater has committed everything.
  std::vector<MixedReaderResult> mixed_results(
      static_cast<size_t>(mixed_readers));
  uint64_t commits_done = 0;
  double mixed_seconds = 0;
  Status writer_status;
  run_phase(true, 0, &mixed_results, &commits_done, &mixed_seconds,
            &writer_status);
  if (!writer_status.ok()) {
    fprintf(stderr, "updater failed: %s\n",
            writer_status.ToString().c_str());
    return 1;
  }

  // Baseline: readers only, a fixed number of passes each, over the
  // final snapshot.  Measured AFTER the mixed phase so both phases query
  // the updated document; the baseline isolates writer interference.
  const uint64_t baseline_passes = 3;
  std::vector<MixedReaderResult> base_results(
      static_cast<size_t>(mixed_readers));
  uint64_t ignored_commits = 0;
  double base_seconds = 0;
  run_phase(false, baseline_passes, &base_results, &ignored_commits,
            &base_seconds, &writer_status);

  auto collect = [](std::vector<MixedReaderResult>* results,
                    std::vector<double>* all, std::set<uint64_t>* epochs,
                    uint64_t* passes) -> bool {
    for (MixedReaderResult& r : *results) {
      if (!r.status.ok()) {
        fprintf(stderr, "reader failed: %s\n", r.status.ToString().c_str());
        return false;
      }
      all->insert(all->end(), r.latencies.begin(), r.latencies.end());
      epochs->insert(r.epochs.begin(), r.epochs.end());
      *passes += r.passes;
    }
    return true;
  };
  std::vector<double> base_lat, mixed_lat;
  std::set<uint64_t> base_epochs, mixed_epochs;
  uint64_t base_pass_total = 0, mixed_pass_total = 0;
  if (!collect(&base_results, &base_lat, &base_epochs, &base_pass_total) ||
      !collect(&mixed_results, &mixed_lat, &mixed_epochs,
               &mixed_pass_total)) {
    return 1;
  }

  const double base_p50 = Percentile(&base_lat, 0.50);
  const double base_p99 = Percentile(&base_lat, 0.99);
  const double mixed_p50 = Percentile(&mixed_lat, 0.50);
  const double mixed_p99 = Percentile(&mixed_lat, 0.99);

  printf("%-14s %10s %10s %10s %8s %8s\n", "phase", "queries", "p50 ms",
         "p99 ms", "passes", "epochs");
  printf("%-14s %10zu %10.3f %10.3f %8llu %8zu\n", "readers-only",
         base_lat.size(), base_p50 * 1e3, base_p99 * 1e3,
         static_cast<unsigned long long>(base_pass_total),
         base_epochs.size());
  printf("%-14s %10zu %10.3f %10.3f %8llu %8zu\n", "mixed",
         mixed_lat.size(), mixed_p50 * 1e3, mixed_p99 * 1e3,
         static_cast<unsigned long long>(mixed_pass_total),
         mixed_epochs.size());

  // Self-check: commits must not stall the read path.  Readers never
  // block on the writer (snapshot() is a shared_ptr copy under a brief
  // mutex), so mixed p99 stays within a generous CI-noise factor of the
  // readers-only baseline, every reader keeps completing passes, and the
  // pinned snapshots span several epochs (reads really did overlap
  // commits).
  const double slack = std::max(10 * base_p99, base_p99 + 0.005);
  bool every_reader_progressed = true;
  for (const MixedReaderResult& r : mixed_results) {
    if (r.passes == 0) every_reader_progressed = false;
  }
  const bool readers_never_blocked = commits_done ==
                                         static_cast<uint64_t>(commits) &&
                                     every_reader_progressed &&
                                     mixed_epochs.size() >= 2 &&
                                     mixed_p99 <= slack;
  if (!readers_never_blocked) {
    fprintf(stderr,
            "READERS BLOCKED: commits %llu/%d, progressed %d, epochs %zu, "
            "mixed p99 %.3f ms vs slack %.3f ms\n",
            static_cast<unsigned long long>(commits_done), commits,
            every_reader_progressed ? 1 : 0, mixed_epochs.size(),
            mixed_p99 * 1e3, slack * 1e3);
  }
  const SwmrStore::Stats swmr_stats = (*swmr)->stats();

  std::string json = "{\n";
  char buf[512];
  snprintf(buf, sizeof(buf),
           "  \"dataset\": \"%s\",\n  \"scale\": %.4f,\n"
           "  \"repeat\": %d,\n  \"queries\": %zu,\n"
           "  \"read_only_scaling\": [\n",
           ds.name.c_str(), gen.scale, repeat, xpaths.size());
  json += buf;
  for (size_t i = 0; i < scaling.size(); ++i) {
    snprintf(buf, sizeof(buf),
             "    {\"threads\": %d, \"queries\": %llu, \"qps\": %.1f, "
             "\"speedup\": %.3f}%s\n",
             scaling[i].threads,
             static_cast<unsigned long long>(scaling[i].queries),
             scaling[i].qps, scaling[i].speedup,
             i + 1 == scaling.size() ? "" : ",");
    json += buf;
  }
  snprintf(buf, sizeof(buf),
           "  ],\n  \"mixed\": {\n"
           "    \"readers\": %d,\n    \"commits\": %llu,\n"
           "    \"updates\": %llu,\n"
           "    \"baseline_p50_ms\": %.4f,\n"
           "    \"baseline_p99_ms\": %.4f,\n"
           "    \"mixed_p50_ms\": %.4f,\n    \"mixed_p99_ms\": %.4f,\n"
           "    \"reader_queries\": %zu,\n    \"epochs_observed\": %zu,\n"
           "    \"retained_entries_end\": %llu,\n"
           "    \"wall_seconds\": %.3f\n  },\n",
           mixed_readers, static_cast<unsigned long long>(commits_done),
           static_cast<unsigned long long>(commits_done * 4), base_p50 * 1e3,
           base_p99 * 1e3, mixed_p50 * 1e3, mixed_p99 * 1e3,
           mixed_lat.size(), mixed_epochs.size(),
           static_cast<unsigned long long>(swmr_stats.retained_entries),
           mixed_seconds);
  json += buf;
  snprintf(buf, sizeof(buf),
           "  \"checks\": {\"readers_never_blocked\": %s}\n}\n",
           readers_never_blocked ? "true" : "false");
  json += buf;
  Status s = WriteStringToFile(json_path, Slice(json));
  if (!s.ok()) {
    fprintf(stderr, "write %s failed: %s\n", json_path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  printf("\nreport: %s (readers_never_blocked: %s)\n", json_path.c_str(),
         readers_never_blocked ? "true" : "FALSE");
  return readers_never_blocked ? 0 : 1;
}

}  // namespace
}  // namespace nok

int main(int argc, char** argv) { return nok::Run(argc, argv); }
