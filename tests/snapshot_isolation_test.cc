// Snapshot-isolation stress: 8 reader threads run the Table-2 query
// workload against pinned snapshots while the writer applies 200
// structural updates through the WAL-backed single-writer / multi-reader
// store.  Every reader transcript must byte-match the oracle transcript
// for the epoch its snapshot was pinned to — computed by replaying the
// identical update sequence serially on a copy — never a mix of epochs.
// Runs under the sanitizer builds; with -DNOK_SANITIZE=thread this is the
// data-race gate for the snapshot read path (SnapshotFile over a mutating
// base, SnapshotTracker reclamation).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

constexpr int kReaders = 8;
constexpr int kCommits = 50;        // 4 updates each: 200 updates total.
constexpr int kInsertsPerCommit = 3;

std::string TempDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_snap_" + name + "_" + std::to_string(::getpid())))
      .string();
}

/// One query set evaluated against one snapshot: canonical result strings
/// per query, in workload order.
using Transcript = std::vector<std::string>;

Result<Transcript> RunQueries(DocumentStore* store,
                              const std::vector<std::string>& xpaths) {
  QueryEngine engine(store);
  Transcript out;
  out.reserve(xpaths.size());
  for (const std::string& xpath : xpaths) {
    NOK_ASSIGN_OR_RETURN(auto rows, engine.Evaluate(xpath));
    std::string canon;
    for (const DeweyId& id : rows) {
      canon += id.ToString();
      canon += ';';
    }
    out.push_back(std::move(canon));
  }
  return out;
}

/// The deterministic update batch for commit `c` (0-based).
Status ApplyBatch(SwmrStore* store, int c) {
  for (int j = 0; j < kInsertsPerCommit; ++j) {
    NOK_RETURN_IF_ERROR(store->InsertSubtree(
        DeweyId({0}), 0,
        "<zzz><t>c" + std::to_string(c) + "n" + std::to_string(j) +
            "</t></zzz>"));
  }
  // The fourth update deletes the most recent insert: exercises the
  // shrink/truncate retention path, not just overwrites and appends.
  NOK_RETURN_IF_ERROR(store->DeleteSubtree(DeweyId({0, 0})));
  return store->Commit();
}

TEST(SnapshotIsolationTest, ReadersNeverSeeAMixOfEpochs) {
  const std::string dir = TempDir("live");
  const std::string oracle_dir = TempDir("oracle");
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(oracle_dir);

  GenOptions gen;
  gen.scale = 0.01;
  gen.seed = 77;
  const GeneratedDataset ds = GenerateDataset(Dataset::kAuthor, gen);
  {
    DocumentStore::Options options;
    options.dir = dir;
    options.page_size = 512;
    auto built = DocumentStore::Build(ds.xml, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Flush().ok());
  }
  std::filesystem::copy(dir, oracle_dir,
                        std::filesystem::copy_options::recursive);

  std::vector<std::string> xpaths;
  for (const CategoryQuery& q : QueriesForDataset(ds)) {
    xpaths.push_back(q.xpath);
  }
  ASSERT_FALSE(xpaths.empty());

  SwmrStore::Options swmr_options;
  swmr_options.store.page_size = 512;
  swmr_options.store.pool_shards = 8;
  swmr_options.store.index_pool_shards = 4;

  // Oracle pass: replay the identical update sequence serially and record
  // the expected transcript of every epoch the live run can publish.
  std::map<uint64_t, Transcript> oracle;
  {
    auto store = SwmrStore::Open(oracle_dir, swmr_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto snap = (*store)->snapshot();
    auto t = RunQueries(snap->store(), xpaths);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    oracle[snap->epoch()] = *t;
    for (int c = 0; c < kCommits; ++c) {
      ASSERT_TRUE(ApplyBatch(store->get(), c).ok()) << "commit " << c;
      snap = (*store)->snapshot();
      t = RunQueries(snap->store(), xpaths);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      oracle[snap->epoch()] = *t;
    }
  }

  // Live pass: 8 readers over pinned snapshots, one concurrent writer.
  auto store = SwmrStore::Open(dir, swmr_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SwmrStore* swmr = store->get();

  struct ReaderLog {
    std::vector<std::pair<uint64_t, Transcript>> observed;
    Status status;
  };
  std::vector<ReaderLog> logs(kReaders);
  std::atomic<bool> writer_done{false};

  auto reader = [&](ReaderLog* log) {
    do {
      auto snap = swmr->snapshot();
      auto t = RunQueries(snap->store(), xpaths);
      if (!t.ok()) {
        log->status = t.status();
        return;
      }
      log->observed.emplace_back(snap->epoch(), std::move(*t));
    } while (!writer_done.load(std::memory_order_acquire));
  };

  Status writer_status;
  auto writer = [&]() {
    for (int c = 0; c < kCommits; ++c) {
      Status s = ApplyBatch(swmr, c);
      if (!s.ok()) {
        writer_status = s;
        break;
      }
      // Stretch the window so readers observe many distinct epochs.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer_done.store(true, std::memory_order_release);
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(kReaders + 1);
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back(reader, &logs[static_cast<size_t>(t)]);
    }
    threads.emplace_back(writer);
    for (std::thread& t : threads) t.join();
  }
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();

  // Every observed transcript matches the oracle for its pinned epoch.
  std::set<uint64_t> epochs_seen;
  for (int t = 0; t < kReaders; ++t) {
    SCOPED_TRACE("reader " + std::to_string(t));
    const ReaderLog& log = logs[static_cast<size_t>(t)];
    ASSERT_TRUE(log.status.ok()) << log.status.ToString();
    ASSERT_FALSE(log.observed.empty());
    for (const auto& [epoch, transcript] : log.observed) {
      auto it = oracle.find(epoch);
      ASSERT_NE(it, oracle.end()) << "unknown epoch " << epoch;
      EXPECT_EQ(transcript, it->second)
          << "epoch " << epoch
          << ": transcript diverged from the serial oracle";
      epochs_seen.insert(epoch);
    }
  }
  // The run exercised real concurrency: readers pinned snapshots from
  // several generations, not just the final one.
  EXPECT_GE(epochs_seen.size(), 2u);

  // Once every snapshot but the current drains, retained pre-images are
  // bounded by what the live snapshot can still read.
  SwmrStore::Stats stats = swmr->stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(stats.min_active_epoch, stats.current_epoch);

  store->reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(oracle_dir);
}

}  // namespace
}  // namespace nok
