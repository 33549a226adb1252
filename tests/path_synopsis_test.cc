#include "encoding/path_synopsis.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "encoding/document_store.h"
#include "nok/query_engine.h"

namespace nok {
namespace {

// ---------------------------------------------------------------------
// Trie construction.  The golden document (tags as TagIds):
//
//   <1>            a
//     <2><3/></2>    b / b/c
//     <2/>           b   (second occurrence of path /a/b)
//     <4/>           d
//   </1>
//
// Distinct rooted paths: /a (1 node), /a/b (2), /a/b/c (1), /a/d (1).

std::unique_ptr<PathSynopsis> Golden() {
  PathSynopsis::Builder builder;
  builder.Open(1);
  builder.Open(2);
  builder.Open(3);
  builder.Close();
  builder.Close();
  builder.Open(2);
  builder.Close();
  builder.Open(4);
  builder.Close();
  builder.Close();
  auto synopsis = builder.Finish();
  EXPECT_TRUE(synopsis.ok()) << synopsis.status().ToString();
  return std::move(synopsis).ValueOrDie();
}

TEST(PathSynopsisTest, BuilderGoldenTrie) {
  auto syn = Golden();
  ASSERT_EQ(syn->path_count(), 4u);
  EXPECT_EQ(syn->node_count(), 5u);
  EXPECT_EQ(syn->min_level(), 1u);
  EXPECT_EQ(syn->max_level(), 3u);

  // Preorder: /a, /a/b, /a/b/c, /a/d.
  const struct {
    TagId tag;
    uint64_t count;
    uint32_t level;
    int32_t parent;
    uint32_t subtree_end;
  } want[] = {
      {1, 1, 1, -1, 4},
      {2, 2, 2, 0, 3},
      {3, 1, 3, 1, 3},
      {4, 1, 2, 0, 4},
  };
  for (size_t i = 0; i < 4; ++i) {
    const PathSynopsis::PathNode& node = syn->node(i);
    EXPECT_EQ(node.tag, want[i].tag) << i;
    EXPECT_EQ(node.count, want[i].count) << i;
    EXPECT_EQ(node.level, want[i].level) << i;
    EXPECT_EQ(node.parent, want[i].parent) << i;
    EXPECT_EQ(node.subtree_end, want[i].subtree_end) << i;
  }
}

TEST(PathSynopsisTest, BuilderRejectsUnbalancedEvents) {
  {
    PathSynopsis::Builder builder;
    builder.Open(1);
    EXPECT_FALSE(builder.Finish().ok());  // Never closed.
  }
  {
    PathSynopsis::Builder builder;
    builder.Open(1);
    builder.Close();
    builder.Close();  // Underflow.
    EXPECT_FALSE(builder.Finish().ok());
  }
}

TEST(PathSynopsisTest, MatchSetQueries) {
  auto syn = Golden();
  const uint32_t kRoot = PathSynopsis::kVirtualRoot;

  std::vector<uint32_t> set;
  syn->CollectChildren(kRoot, 1, false, &set);
  EXPECT_EQ(set, (std::vector<uint32_t>{0}));  // /a is the only level-1.
  set.clear();
  syn->CollectChildren(kRoot, 2, false, &set);
  EXPECT_TRUE(set.empty());  // No top-level b.
  set.clear();
  syn->CollectChildren(0, 2, false, &set);
  EXPECT_EQ(set, (std::vector<uint32_t>{1}));  // /a/b.
  set.clear();
  syn->CollectChildren(0, kInvalidTag, true, &set);  // Wildcard.
  EXPECT_EQ(set, (std::vector<uint32_t>{1, 3}));

  set.clear();
  syn->CollectDescendants(kRoot, 3, false, &set);
  EXPECT_EQ(set, (std::vector<uint32_t>{2}));  // /a/b/c anywhere.
  set.clear();
  syn->CollectDescendants(0, kInvalidTag, true, &set);
  EXPECT_EQ(set, (std::vector<uint32_t>{1, 2, 3}));  // Strict descendants.

  EXPECT_TRUE(syn->IsDescendantOf(kRoot, 2));
  EXPECT_TRUE(syn->IsDescendantOf(0, 2));
  EXPECT_TRUE(syn->IsDescendantOf(1, 2));
  EXPECT_FALSE(syn->IsDescendantOf(1, 3));
  EXPECT_FALSE(syn->IsDescendantOf(2, 1));
  EXPECT_EQ(syn->ParentOf(0), kRoot);
  EXPECT_EQ(syn->ParentOf(2), 1u);

  EXPECT_EQ(syn->TotalCount({0, 1, 2, 3}), 5u);
  EXPECT_EQ(syn->TotalCount({1}), 2u);
  EXPECT_EQ(syn->TotalCount({kRoot, 1}), 3u);  // Virtual root counts 1.
}

// ---------------------------------------------------------------------
// Planner integration: schema-impossible queries are answered with no
// I/O, fresh or after an unflushed update.

TEST(PathSynopsisTest, EmptyResultPlanReadsZeroPages) {
  DocumentStore::Options options;
  options.page_size = 512;
  auto store = DocumentStore::Build(
      "<a><b><c>x</c></b><b/><d>y</d></a>", options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());

  (*store)->tree()->ResetNavStats();
  auto result = engine.Evaluate("//zzabsent");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(engine.last_trace().empty_result);
  EXPECT_EQ((*store)->tree()->nav_stats().pages_scanned, 0u);
  ASSERT_EQ(engine.last_trace().operators.size(), 1u);
  EXPECT_EQ(engine.last_trace().operators[0].op, "EmptyResult");
  EXPECT_NE(engine.ExplainLast().find("proved empty"), std::string::npos);

  // An impossible composition of present tags: c never nests under d.
  (*store)->tree()->ResetNavStats();
  result = engine.Evaluate("//d//c");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(engine.last_trace().empty_result);
  EXPECT_EQ((*store)->tree()->nav_stats().pages_scanned, 0u);

  // A possible query is unaffected.
  result = engine.Evaluate("//b/c");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_FALSE(engine.last_trace().empty_result);
}

/// One operator row of an ExecutionTrace, wall time left out.
std::string OperatorRows(const ExecutionTrace& trace) {
  std::string out;
  for (const OperatorStats& op : trace.operators) {
    out += op.op + " " + op.detail + " est=" + std::to_string(op.estimated) +
           " in=" + std::to_string(op.rows_in) +
           " out=" + std::to_string(op.rows_out) +
           " pages=" + std::to_string(op.pages) +
           " bp_steps=" + std::to_string(op.bp_steps) + "\n";
  }
  return out;
}

TEST(PathSynopsisTest, PlansDoNotDependOnWhetherTheSynopsisWasRebuilt) {
  // An unflushed structural update leaves the synopsis stale.  The first
  // query after it must plan on the rebuilt synopsis, exactly as the
  // second does: the same plan, the same operators, the same zero pages.
  DocumentStore::Options options;
  auto store =
      DocumentStore::Build("<a><b><c>x</c></b><b/><d>y</d></a>", options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<e>z</e>").ok());
  QueryEngine engine(store->get());

  std::vector<std::string> rows;
  std::vector<std::string> plans;
  std::vector<uint64_t> pages;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run + 1));
    const uint64_t before = (*store)->tree()->nav_stats().pages_scanned;
    auto result = engine.Evaluate("//d//c");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->empty());
    EXPECT_TRUE(engine.last_trace().empty_result);
    ASSERT_EQ(engine.last_trace().operators.size(), 1u);
    EXPECT_EQ(engine.last_trace().operators[0].op, "EmptyResult");
    EXPECT_EQ(engine.last_trace().operators[0].pages, 0u);
    pages.push_back((*store)->tree()->nav_stats().pages_scanned - before);
    rows.push_back(OperatorRows(engine.last_trace()));
    const std::string explain = engine.ExplainLast();
    plans.push_back(explain.substr(0, explain.find("  planning:")));
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(plans[0], plans[1]);
  // The only subject-tree read is the first planning's one pass over the
  // page chain that rebuilds the BP index and the synopsis together.
  EXPECT_EQ(pages[0], (*store)->tree()->chain_length());
  EXPECT_EQ(pages[1], 0u);
}

// ---------------------------------------------------------------------
// WAL: a commit rebuilds the BP index and the synopsis in memory, so the
// queries after it plan and navigate on the new structure.

std::string TestDir() {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_pds_" + std::to_string(::getpid())))
      .string();
}

TEST(PathSynopsisTest, WalCommitRebuildsDerivedStructures) {
  const std::string dir = TestDir() + "_wal";
  std::filesystem::remove_all(dir);
  {
    DocumentStore::Options build;
    build.dir = dir;
    auto store = DocumentStore::Build(
        "<a><b><c>x</c></b><b/><d>y</d></a>", build);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    DocumentStore::Options wal;
    wal.dir = dir;
    wal.wal.enabled = true;
    auto store = DocumentStore::OpenDir(wal);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<e>z</e>").ok());
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<f>w</f>").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->wal_stats().commits, 1u);
    QueryEngine engine(store->get());
    auto e = engine.Evaluate("/a/e");
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_EQ(e->size(), 1u);
    EXPECT_EQ((*e)[0].ToString(), "0.1");
  }
  {
    // A plain reopen sees both inserted subtrees.
    DocumentStore::Options plain;
    plain.dir = dir;
    auto store = DocumentStore::OpenDir(plain);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    auto e = engine.Evaluate("/a/e");
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(e->size(), 1u);
    auto f = engine.Evaluate("/a/f");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_EQ(f->size(), 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
