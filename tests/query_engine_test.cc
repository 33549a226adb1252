#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP Illustrated</title>"
    "<author><last>Stevens</last><first>W.</first></author>"
    "<publisher>Addison-Wesley</publisher><price>65.95</price></book>"
    "<book year=\"1992\"><title>Advanced Unix</title>"
    "<author><last>Stevens</last><first>W.</first></author>"
    "<publisher>Addison-Wesley</publisher><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title>"
    "<author><last>Abiteboul</last><first>Serge</first></author>"
    "<author><last>Buneman</last><first>Peter</first></author>"
    "<author><last>Suciu</last><first>Dan</first></author>"
    "<publisher>Morgan Kaufmann</publisher><price>39.95</price></book>"
    "<book year=\"1999\"><title>Economics of Tech</title>"
    "<editor><last>Gerbarg</last><first>Darcy</first>"
    "<affiliation>CITI</affiliation></editor>"
    "<publisher>Kluwer</publisher><price>129.95</price></book>"
    "</bib>";

struct EngineFixture {
  std::unique_ptr<DocumentStore> store;
  DomTree dom;
  std::unique_ptr<QueryEngine> engine;
};

EngineFixture MakeFixture(const std::string& xml,
                          uint32_t page_size = kDefaultPageSize) {
  EngineFixture f;
  DocumentStore::Options options;
  options.page_size = page_size;
  auto store = DocumentStore::Build(xml, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  f.store = std::move(store).ValueOrDie();
  auto dom = DomTree::Parse(xml);
  EXPECT_TRUE(dom.ok());
  f.dom = std::move(dom).ValueOrDie();
  f.engine = std::make_unique<QueryEngine>(f.store.get());
  return f;
}

void ExpectMatchesOracle(EngineFixture* f, const std::string& query,
                         const QueryOptions& options = {}) {
  auto got = f->engine->Evaluate(query, options);
  ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
  auto want = OracleEvaluateDewey(query, f->dom);
  ASSERT_TRUE(want.ok()) << query;
  std::vector<std::string> got_s, want_s;
  for (const auto& d : *got) got_s.push_back(d.ToString());
  for (const auto& d : *want) want_s.push_back(d.ToString());
  EXPECT_EQ(got_s, want_s) << query;
}

TEST(QueryEngineTest, PaperExampleQuery) {
  auto f = MakeFixture(kBibXml);
  // The paper's Example 1.
  auto result = f.engine->Evaluate(
      "//book[author/last=\"Stevens\"][price<100]");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].ToString(), "0.0");
  EXPECT_EQ((*result)[1].ToString(), "0.1");
}

class BibQueries : public ::testing::TestWithParam<const char*> {};

TEST_P(BibQueries, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Paperish, BibQueries,
    ::testing::Values(
        "/bib/book", "//book", "//last", "/bib/book/author/last",
        "/bib/book[author/last=\"Stevens\"]",
        "//book[author/last=\"Stevens\"][price<100]",
        "//book[price<50]", "/bib/book[price>100]",
        "//book[@year=\"2000\"]/author", "/bib/book[editor]/publisher",
        "//author[last=\"Suciu\"]", "//book[title]/price",
        "/bib/book[author][editor]", "//book//last",
        "/bib//affiliation", "//editor/following::book",
        "/bib/book/title/following::author",
        "//book[author/following-sibling::author]",
        "/bib/*[price>60]/title", "//*[@year]",
        "//book[publisher=\"Kluwer\"]//first",
        "/bib/book[price!=\"65.95\"]"));

TEST(QueryEngineTest, ScanAgreesAcrossAblationModes) {
  // Header skip off and on must both match the oracle for every
  // forced-scan query; off never skips, and on never scans more pages.
  const char* queries[] = {"//book",      "//last",        "//affiliation",
                           "//book//last", "/bib/book/title", "//*[@year]"};
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  std::vector<std::vector<StringStore::NavStats>> nav(std::size(queries));
  for (bool header_skip : {false, true}) {
    DocumentStore::Options store_options;
    store_options.page_size = 64;
    store_options.use_header_skip = header_skip;
    auto store = DocumentStore::Build(kBibXml, store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    QueryOptions options;
    options.strategy = StartStrategy::kScan;
    for (size_t q = 0; q < std::size(queries); ++q) {
      (*store)->tree()->ResetNavStats();
      auto r = engine.Evaluate(queries[q], options);
      ASSERT_TRUE(r.ok()) << queries[q];
      auto want = OracleEvaluateDewey(queries[q], *dom);
      ASSERT_TRUE(want.ok()) << queries[q];
      std::vector<std::string> got_s, want_s;
      for (const auto& d : *r) got_s.push_back(d.ToString());
      for (const auto& d : *want) want_s.push_back(d.ToString());
      EXPECT_EQ(got_s, want_s)
          << queries[q] << " header_skip=" << header_skip;
      nav[q].push_back((*store)->tree()->nav_stats());
    }
  }
  for (size_t q = 0; q < std::size(queries); ++q) {
    EXPECT_EQ(nav[q][0].pages_skipped, 0u) << queries[q];
    EXPECT_LE(nav[q][1].pages_scanned, nav[q][0].pages_scanned)
        << queries[q];
  }
}

TEST(QueryEngineTest, AllStrategiesAgree) {
  auto f = MakeFixture(kBibXml);
  const char* queries[] = {
      "/bib/book[author/last=\"Stevens\"]",
      "//book[price<100]/title",
      "/bib/book/author",
  };
  for (const char* query : queries) {
    std::vector<std::vector<std::string>> results;
    for (StartStrategy strategy :
         {StartStrategy::kAuto, StartStrategy::kScan,
          StartStrategy::kTagIndex, StartStrategy::kValueIndex}) {
      QueryOptions options;
      options.strategy = strategy;
      auto r = f.engine->Evaluate(query, options);
      ASSERT_TRUE(r.ok()) << query;
      std::vector<std::string> s;
      for (const auto& d : *r) s.push_back(d.ToString());
      results.push_back(std::move(s));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0], results[i]) << query << " strategy " << i;
    }
  }
}

TEST(QueryEngineTest, JoinModesAgree) {
  auto f = MakeFixture(kBibXml, /*page_size=*/128);
  for (const char* query :
       {"//book//last", "/bib//author[last=\"Stevens\"]",
        "//editor/following::book", "//book[.//first]"}) {
    QueryOptions dewey, interval;
    dewey.join_mode = JoinMode::kDewey;
    interval.join_mode = JoinMode::kInterval;
    auto a = f.engine->Evaluate(query, dewey);
    auto b = f.engine->Evaluate(query, interval);
    ASSERT_TRUE(a.ok() && b.ok()) << query;
    EXPECT_EQ(a->size(), b->size()) << query;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].ToString(), (*b)[i].ToString());
    }
  }
}

TEST(QueryEngineTest, StatsReportStrategy) {
  auto f = MakeFixture(kBibXml);
  QueryOptions options;
  ASSERT_TRUE(
      f.engine->Evaluate("//book[author/last=\"Stevens\"]", options).ok());
  const QueryStats& stats = f.engine->last_stats();
  ASSERT_EQ(stats.trees.size(), 2u);  // Virtual-root tree + book tree.
  EXPECT_EQ(stats.trees[1].strategy, StartStrategy::kValueIndex);
  EXPECT_EQ(stats.results, 2u);
}

TEST(QueryEngineTest, LastStatsCountsAreNonzeroForMatchingQueries) {
  auto f = MakeFixture(kBibXml);
  for (const char* query :
       {"//book[author/last=\"Stevens\"]", "/bib/book/title",
        "//author[last=\"Abiteboul\"]"}) {
    auto result = f.engine->Evaluate(query);
    ASSERT_TRUE(result.ok()) << query;
    ASSERT_FALSE(result->empty()) << query;
    const QueryStats& stats = f.engine->last_stats();
    EXPECT_EQ(stats.results, result->size()) << query;
    ASSERT_FALSE(stats.trees.empty()) << query;
    for (size_t t = 0; t < stats.trees.size(); ++t) {
      // A query with results matched in every NoK tree: each tree saw at
      // least one candidate and produced at least one binding.
      EXPECT_GT(stats.trees[t].candidates, 0u)
          << query << " tree " << t;
      EXPECT_GT(stats.trees[t].bindings, 0u) << query << " tree " << t;
      EXPECT_GE(stats.trees[t].candidates, stats.trees[t].bindings)
          << query << " tree " << t;
    }
  }
}

TEST(QueryEngineTest, HitRatioReproducibleAcrossIdenticalRuns) {
  // Small pages so one query touches several tree pages.
  auto f = MakeFixture(kBibXml, /*page_size=*/128);
  const std::string query = "//book[author/last=\"Stevens\"][price<100]";
  BufferPool* pool = f.store->tree()->buffer_pool();

  ASSERT_TRUE(f.store->DropCaches().ok());  // Calls ResetStats() too.
  ASSERT_TRUE(f.engine->Evaluate(query).ok());
  const BufferPool::Stats first = pool->stats();
  EXPECT_GT(first.fetches, 0u);
  EXPECT_EQ(first.hits + first.misses, first.fetches);

  ASSERT_TRUE(f.store->DropCaches().ok());
  ASSERT_TRUE(f.engine->Evaluate(query).ok());
  const BufferPool::Stats second = pool->stats();

  // Cold-start evaluation is deterministic, so the I/O profile — and with
  // it the hit ratio — must reproduce exactly.
  EXPECT_EQ(first.fetches, second.fetches);
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.misses, second.misses);
  EXPECT_EQ(first.disk_reads, second.disk_reads);
}

TEST(QueryEngineTest, AbsentTagsReturnEmpty) {
  auto f = MakeFixture(kBibXml);
  for (const char* query : {"//nonexistent", "/bib/nothing/at/all",
                            "//book[zzz=\"1\"]"}) {
    auto r = f.engine->Evaluate(query);
    ASSERT_TRUE(r.ok()) << query;
    EXPECT_TRUE(r->empty()) << query;
  }
}

TEST(QueryEngineTest, SmallPagesSameResults) {
  auto big = MakeFixture(kBibXml, kDefaultPageSize);
  auto small = MakeFixture(kBibXml, 64);
  for (const char* query :
       {"//book[price<100]", "/bib/book/author/last", "//first"}) {
    auto a = big.engine->Evaluate(query);
    auto b = small.engine->Evaluate(query);
    ASSERT_TRUE(a.ok() && b.ok()) << query;
    ASSERT_EQ(a->size(), b->size()) << query;
  }
}

TEST(QueryEngineTest, PathIndexAnchorsUnselectiveTags) {
  // Section 8 extension: the tag 'x' is everywhere, but the rooted path
  // /a/b/x is rare.  The path index must anchor the query on the path.
  std::string xml = "<a><b><x>hit</x></b>";
  for (int i = 0; i < 200; ++i) xml += "<c><x>miss</x></c>";
  xml += "</a>";
  auto f = MakeFixture(xml);

  QueryOptions options;
  options.index_fraction = 0.5;  // Generous cutoff for the small doc.
  auto r = f.engine->Evaluate("/a/b/x", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].ToString(), "0.0.0");
  const auto& stats = f.engine->last_stats();
  EXPECT_EQ(stats.trees[0].strategy, StartStrategy::kPathIndex);
  EXPECT_EQ(stats.trees[0].candidates, 1u);  // One /a/b/x node.

  // Forcing the path strategy and disabling it both stay correct.
  QueryOptions forced;
  forced.strategy = StartStrategy::kPathIndex;
  auto r2 = f.engine->Evaluate("/a/b/x", forced);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
  QueryOptions disabled;
  disabled.use_path_index = false;
  auto r3 = f.engine->Evaluate("/a/b/x", disabled);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 1u);
  EXPECT_NE(f.engine->last_stats().trees[0].strategy,
            StartStrategy::kPathIndex);
}

TEST(QueryEngineTest, PathIndexSkippedWhenPositionsStale) {
  std::string xml = "<a><b><x>hit</x></b><c><x>miss</x></c></a>";
  auto f = MakeFixture(xml);
  ASSERT_TRUE(f.store->InsertSubtree(DeweyId({0}), 0, "<d/>").ok());
  EXPECT_FALSE(f.store->positions_fresh());
  QueryOptions options;
  options.index_fraction = 0.5;
  auto r = f.engine->Evaluate("/a/b/x", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_NE(f.engine->last_stats().trees[0].strategy,
            StartStrategy::kPathIndex);
  // After a refresh the path index is consistent again.
  ASSERT_TRUE(f.store->RefreshPositions().ok());
  auto r2 = f.engine->Evaluate("/a/b/x", options);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
  EXPECT_EQ(f.engine->last_stats().trees[0].strategy,
            StartStrategy::kPathIndex);
}

// The main differential property test: random documents x random queries
// x all strategies, against the brute-force oracle.
class EngineVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineVsOracle, RandomQueriesOnRandomDocuments) {
  Random rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const std::string xml = testutil::RandomXml(&rng);
    auto f = MakeFixture(xml, /*page_size=*/128);
    for (int q = 0; q < 12; ++q) {
      const std::string query = testutil::RandomQuery(&rng);
      auto pattern = ParseXPath(query);
      if (!pattern.ok()) continue;  // Generator occasionally overshoots.

      auto want = OracleEvaluateDewey(query, f.dom);
      ASSERT_TRUE(want.ok()) << query;
      std::vector<std::string> want_s;
      for (const auto& d : *want) want_s.push_back(d.ToString());

      for (StartStrategy strategy : {StartStrategy::kAuto,
                                     StartStrategy::kScan}) {
        QueryOptions options;
        options.strategy = strategy;
        options.join_mode = rng.Bernoulli(0.5) ? JoinMode::kDewey
                                               : JoinMode::kInterval;
        auto got = f.engine->Evaluate(query, options);
        ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
        std::vector<std::string> got_s;
        for (const auto& d : *got) got_s.push_back(d.ToString());
        EXPECT_EQ(got_s, want_s)
            << "query " << query << " strategy "
            << static_cast<int>(strategy) << "\nxml " << xml;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsOracle,
                         ::testing::Values(1000, 2000, 3000, 4000));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Rewritten axes end to end (engine vs oracle).

namespace nok {
namespace {

class RewrittenAxes : public ::testing::TestWithParam<const char*> {};

TEST_P(RewrittenAxes, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    ParentAndPrecedingSibling, RewrittenAxes,
    ::testing::Values("/bib/book/author/parent::book/title",
                      "//last/parent::author",
                      "/bib/book/price/preceding-sibling::title",
                      "//first/preceding-sibling::last",
                      "/bib/book/author/parent::*/price",
                      "//affiliation/parent::editor/last"));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// The preceding:: axis (global mirror of following).

namespace nok {
namespace {

class PrecedingAxis : public ::testing::TestWithParam<const char*> {};

TEST_P(PrecedingAxis, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
  // Both join modes must agree for the new relation too.
  QueryOptions interval;
  interval.join_mode = JoinMode::kInterval;
  ExpectMatchesOracle(&f, GetParam(), interval);
}

INSTANTIATE_TEST_SUITE_P(
    Paperish, PrecedingAxis,
    ::testing::Values("//editor/preceding::book",
                      "/bib/book/editor/preceding::author",
                      "//book[preceding::editor]",
                      "//author[last=\"Suciu\"]/preceding::title",
                      "//price/preceding::price"));

}  // namespace
}  // namespace nok
