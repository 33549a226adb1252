// Concurrent read-path correctness: 8 threads evaluate 200 mixed queries
// each against one read-only DocumentStore handle, and every thread must
// produce exactly the results of a single-threaded run.  Runs under the
// sanitizer builds; with -DNOK_SANITIZE=thread this is the data-race
// gate for the sharded buffer pool and the read-only open mode.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

namespace nok {
namespace {

constexpr int kThreads = 8;
constexpr size_t kQueriesPerThread = 200;

/// 200 mixed queries: the 12 Table 2 categories plus their descendant
/// variants, cycled.
std::vector<std::string> BuildWorkload(const GeneratedDataset& ds,
                                       uint64_t seed) {
  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants =
      DescendantVariants(queries, seed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  std::vector<std::string> xpaths;
  xpaths.reserve(kQueriesPerThread);
  for (size_t i = 0; i < kQueriesPerThread; ++i) {
    xpaths.push_back(queries[i % queries.size()].xpath);
  }
  return xpaths;
}

/// One thread's transcript: canonical result strings per query, or the
/// first failure.
struct Transcript {
  std::vector<std::string> results;
  Status status;
};

void RunWorkload(DocumentStore* store,
                 const std::vector<std::string>* xpaths, Transcript* out) {
  QueryEngine engine(store);
  for (const std::string& xpath : *xpaths) {
    auto result = engine.Evaluate(xpath);
    if (!result.ok()) {
      out->status = result.status();
      return;
    }
    std::string canon;
    for (const DeweyId& id : *result) {
      canon += id.ToString();
      canon += ';';
    }
    out->results.push_back(std::move(canon));
  }
}

void ExpectPoolStatsConsistent(const char* name, BufferPool* pool) {
  const BufferPool::Stats s = pool->stats();
  SCOPED_TRACE(name);
  EXPECT_EQ(s.hits + s.misses, s.fetches);
  // Every miss that succeeded did exactly one pager read, and no query
  // failed in this test.
  EXPECT_EQ(s.disk_reads, s.misses);
  EXPECT_EQ(s.disk_writes, 0u);  // Read-only store: nothing dirty, ever.
}

TEST(ConcurrencyTest, EightThreadsMatchSingleThreadedRun) {
  const std::string dir = testing::TempDir() + "/nok_concurrency_store";
  for (const char* f :
       {store_files::kTree, store_files::kValues, store_files::kDict,
        store_files::kValIdx, store_files::kIdIdx}) {
    ASSERT_TRUE(RemoveFile(dir + "/" + std::string(f)).ok());
  }

  GenOptions gen;
  gen.scale = 0.02;
  gen.seed = 99;
  const GeneratedDataset ds = GenerateDataset(Dataset::kAuthor, gen);
  {
    DocumentStore::Options options;
    options.dir = dir;
    options.page_size = 512;
    auto built = DocumentStore::Build(ds.xml, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Flush().ok());
  }

  DocumentStore::Options options;
  options.dir = dir;
  options.page_size = 512;
  options.read_only = true;
  options.pool_shards = 16;
  options.index_pool_shards = 4;
  options.pool_frames = 64;  // Small pool: concurrent evictions happen.
  auto store = DocumentStore::OpenDir(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const std::vector<std::string> xpaths = BuildWorkload(ds, gen.seed);

  // Reference: the same workload, single-threaded.
  Transcript reference;
  RunWorkload(store->get(), &xpaths, &reference);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_EQ(reference.results.size(), kQueriesPerThread);

  std::vector<Transcript> transcripts(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back(RunWorkload, store->get(), &xpaths,
                           &transcripts[static_cast<size_t>(t)]);
    }
    for (std::thread& w : workers) w.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const Transcript& got = transcripts[static_cast<size_t>(t)];
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.results, reference.results);
  }

  // Aggregated shard stats stay consistent under concurrency.
  ExpectPoolStatsConsistent("tree", (*store)->tree()->buffer_pool());
  ExpectPoolStatsConsistent("value_index",
                            (*store)->value_index()->buffer_pool());
  ExpectPoolStatsConsistent("id_index",
                            (*store)->id_index()->buffer_pool());
  EXPECT_GT((*store)->tree()->buffer_pool()->stats().fetches, 0u);
  EXPECT_EQ((*store)->tree()->buffer_pool()->shard_count(), 16u);

  // The read-only mode rejects every mutation.
  EXPECT_FALSE(
      (*store)->InsertSubtree(DeweyId::Root(), 0, "<x/>").ok());
  EXPECT_FALSE((*store)->Flush().ok());
}

}  // namespace
}  // namespace nok
