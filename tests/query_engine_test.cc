#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <tuple>

#include "common/random.h"
#include "encoding/document_store.h"
#include "encoding/swmr_store.h"
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

void ExpectMatchesOracle(EngineFixture* f, const std::string& query) {
  auto got = f->engine->Evaluate(query);
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

// `//a//b` over n sibling <a><b/></a> pairs: the answer is every b.
std::string PairsXml(int n) {
  std::string xml = "<r>";
  for (int i = 0; i < n; ++i) xml += "<a><b/></a>";
  return xml + "</r>";
}

std::vector<std::string> PairsAnswer(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("0." + std::to_string(i) + ".0");
  return out;
}

std::vector<std::string> DeweyStrings(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  return out;
}

// The liveness join checks each of the 30,000 b bindings with one sorted
// search over the 30,000 a sources.  A loop over the sources per binding
// made ~4.5e8 relation tests here and took ~35x as long as the scans and
// matches that produce the join's inputs; now it takes a fraction of
// them.  Comparing within one run keeps the check stable on a loaded or
// sanitized build, where every operator slows down alike.
TEST(QueryEngineTest, StructuralSemiJoinIsNotQuadratic) {
  {
    // The closed-form answer is the oracle's (which is too slow to run
    // on the large document).
    auto small = MakeFixture(PairsXml(200));
    auto want = OracleEvaluateDewey("//a//b", small.dom);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(DeweyStrings(*want), PairsAnswer(200));
  }
  constexpr int kPairs = 30000;
  auto f = MakeFixture(PairsXml(kPairs));
  auto got = f.engine->Evaluate("//a//b");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(DeweyStrings(*got), PairsAnswer(kPairs));
  int joins = 0;
  double join_seconds = 0, input_seconds = 0;
  for (const OperatorStats& op : f.engine->last_trace().operators) {
    if (op.op != "StructuralSemiJoin") {
      input_seconds += op.seconds;
      continue;
    }
    ++joins;
    join_seconds += op.seconds;
    EXPECT_EQ(op.rows_out, static_cast<uint64_t>(kPairs)) << op.detail;
  }
  EXPECT_EQ(joins, 2);
  EXPECT_LT(join_seconds, input_seconds);
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

// Sibling steps after `//`, answered by hand (the oracle shares the
// parser's pattern tree, so it cannot vouch for the rewrite).
TEST(QueryEngineTest, SiblingStepAfterDescendant) {
  // a 0; y 0.0; p 0.1; x 0.1.0; y 0.1.1.
  auto f = MakeFixture("<a><y/><p><x/><y/></p></a>");
  const std::pair<const char*, std::vector<std::string>> cases[] = {
      {"//x/following-sibling::y", {"0.1.1"}},
      {"//y/preceding-sibling::x", {"0.1.0"}},
      {"//x[following-sibling::y]", {"0.1.0"}},
      {"//y[preceding-sibling::*]", {"0.1.1"}},
      {"//y/following-sibling::*", {"0.1"}},
  };
  for (const auto& [query, want] : cases) {
    auto got = f.engine->Evaluate(query);
    ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
    EXPECT_EQ(DeweyStrings(*got), want) << query;
  }
  // Below an element the sibling's parent is a's child or a deeper
  // descendant, which no single pattern node expresses.
  for (const char* query : {"/a[.//x/following-sibling::y]",
                            "/bib[.//editor/preceding-sibling::book]"}) {
    auto got = f.engine->Evaluate(query);
    ASSERT_FALSE(got.ok()) << query;
    EXPECT_TRUE(got.status().IsNotSupported()) << query;
  }
}

// The value-index probe takes B+v's range under the value's hash
// unverified; the matcher's predicate re-check must keep a colliding
// entry out of every answer.  Forge one: the title 0.0.1 ("TCP/IP
// Illustrated") filed under "Stevens".
TEST(QueryEngineTest, ForgedValueIndexCollisionNeverReachesAnAnswer) {
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  const char* const queries[] = {
      "//title[.=\"Stevens\"]",
      "//book[title=\"Stevens\"]",
      "//*[.=\"Stevens\"]",
      "//book[author/last=\"Stevens\"]/title",
      "//book[title=\"Stevens\"]/following-sibling::book",
      "//book[author/last=\"Stevens\"]/preceding-sibling::book",
  };
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    SCOPED_TRACE(NavModeName(mode));
    DocumentStore::Options options;
    options.nav_mode = mode;
    auto store = DocumentStore::Build(kBibXml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The title's value record, filed under "Stevens" too.
    uint64_t title_offset = 0;
    {
      const std::string prefix =
          index_keys::ValueKey(Slice("TCP/IP Illustrated"));
      BTreeIterator it = (*store)->value_index()->NewIterator();
      ASSERT_TRUE(it.Seek(Slice(prefix)).ok());
      ASSERT_TRUE(it.Valid() && it.key().starts_with(Slice(prefix)));
      ASSERT_TRUE(
          index_keys::ParseValueEntry(it.key(), it.value(), &title_offset)
              .ok());
    }
    ASSERT_TRUE((*store)
                    ->value_index()
                    ->Insert(Slice(index_keys::ValueKey(Slice("Stevens"),
                                                        title_offset)),
                             Slice())
                    .ok());
    auto forged = testutil::ValueHits(store->get(), Slice("Stevens"));
    ASSERT_TRUE(forged.ok());
    ASSERT_EQ(forged->size(), 3u);  // Two real last names and the title.
    QueryEngine engine(store->get());
    for (const char* query : queries) {
      auto want = OracleEvaluateDewey(query, *dom);
      ASSERT_TRUE(want.ok()) << query;
      for (const StartStrategy strategy :
           {StartStrategy::kAuto, StartStrategy::kValueIndex}) {
        QueryOptions qo;
        qo.strategy = strategy;
        auto got = engine.Evaluate(query, qo);
        ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
        EXPECT_EQ(DeweyStrings(*got), DeweyStrings(*want))
            << query << " [" << StrategyName(strategy) << "]";
        if (strategy != StartStrategy::kValueIndex) continue;
        // The forged entry did reach the probe.
        bool probed = false;
        for (const OperatorStats& op : engine.last_trace().operators) {
          if (op.op != "ValueIndexProbe") continue;
          probed = true;
          EXPECT_EQ(op.rows_out, 3u) << query;
        }
        EXPECT_TRUE(probed) << query;
      }
    }
  }
}

// A node with a preceding-sibling:: step after it must have a later
// sibling that matches it: the last book below has none.  The mirrored
// following-sibling:: query and a chained one too.  Answered by hand, in
// both nav modes.
TEST(QueryEngineTest, PrecedingSiblingNeedsALaterSibling) {
  // bib 0; book 0.0; book 0.1; x 0.2; book 0.3; book 0.4.
  const std::string bib = "<bib><book/><book/><x/><book/><book/></bib>";
  // r 0; a 0.0; b 0.1; a 0.2; c 0.3; b 0.4.
  const std::string r = "<r><a/><b/><a/><c/><b/></r>";
  const std::tuple<const std::string*, const char*, std::vector<std::string>>
      cases[] = {
          {&bib, "/bib/book/preceding-sibling::book", {"0.0", "0.1", "0.3"}},
          {&bib, "/bib/book/following-sibling::book", {"0.1", "0.3", "0.4"}},
          {&bib, "/bib/x/preceding-sibling::book", {"0.0", "0.1"}},
          {&bib, "/bib/book[following-sibling::book]", {"0.0", "0.1", "0.3"}},
          {&r, "/r/c/preceding-sibling::b/preceding-sibling::a", {"0.0"}},
      };
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    SCOPED_TRACE(NavModeName(mode));
    for (const auto& [xml, query, want] : cases) {
      DocumentStore::Options options;
      options.nav_mode = mode;
      auto store = DocumentStore::Build(*xml, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      QueryEngine engine(store->get());
      auto got = engine.Evaluate(query);
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      EXPECT_EQ(DeweyStrings(*got), want) << query;
    }
  }
}

// `//` directly before a sibling axis starts the sibling step from every
// descendant-or-self node, which no pattern edge expresses: NotSupported,
// never the answer of the query without the `//`.  Answered by hand.
TEST(QueryEngineTest, SiblingAxisDirectlyAfterDoubleSlashIsNotSupported) {
  // bib 0; book 0.0; title 0.0.0; author 0.0.1; book 0.1.
  auto f = MakeFixture("<bib><book><title/><author/></book><book/></bib>");
  // XPath answers 0.0.1, 0.0.0 and 0.0.1 here; the engine used to drop
  // the `//` and answer the /-query instead.
  for (const char* query : {"/bib/book//following-sibling::author",
                            "/bib/book//preceding-sibling::title",
                            "/bib[book//following-sibling::*]"}) {
    auto got = f.engine->Evaluate(query);
    ASSERT_FALSE(got.ok()) << query;
    EXPECT_TRUE(got.status().IsNotSupported())
        << query << ": " << got.status().ToString();
  }
  const std::pair<const char*, std::vector<std::string>> cases[] = {
      {"/bib/book/following-sibling::*", {"0.1"}},
      {"/bib//child::author", {"0.0.1"}},
      {"/bib//descendant::title", {"0.0.0"}},
  };
  for (const auto& [query, want] : cases) {
    auto got = f.engine->Evaluate(query);
    ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
    EXPECT_EQ(DeweyStrings(*got), want) << query;
  }
}

// p//x/parent::n is rewritten to p//n/x, which misses x's parent being p.
// The rewrite stays where that cannot happen (p is the document root, or
// p's name test cannot match n) and is NotSupported elsewhere.  Answered
// by hand.
TEST(QueryEngineTest, ParentAfterDescendantIsExactOrNotSupported) {
  // bib 0; book 0.0; title 0.0.0; author 0.0.1; last 0.0.1.0; book 0.1.
  auto f = MakeFixture(
      "<bib><book><title/><author><last/></author></book><book/></bib>");
  // XPath answers 0 (bib is the parent of both books).
  for (const char* query : {"/bib//book/parent::bib", "/bib//book/parent::*",
                            "/*//title/parent::book"}) {
    auto got = f.engine->Evaluate(query);
    ASSERT_FALSE(got.ok()) << query;
    EXPECT_TRUE(got.status().IsNotSupported())
        << query << ": " << got.status().ToString();
  }
  const std::pair<const char*, std::vector<std::string>> cases[] = {
      {"//last/parent::author", {"0.0.1"}},
      {"//book/parent::bib", {"0"}},
      {"/bib//last/parent::author", {"0.0.1"}},
      {"/bib//title/parent::book/author", {"0.0.1"}},
  };
  for (const auto& [query, want] : cases) {
    auto got = f.engine->Evaluate(query);
    ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
    EXPECT_EQ(DeweyStrings(*got), want) << query;
  }
  // a 0; c 0.0; b 0.0.0; d 0.0.1; b 0.1; c 0.2; d 0.2.0.
  auto g = MakeFixture("<a><c><b/><d/></c><b/><c><d/></c></a>");
  auto got = g.engine->Evaluate("/a//b/parent::c/d");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(DeweyStrings(*got), (std::vector<std::string>{"0.0.1"}));
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

// ---------------------------------------------------------------------------
// Dewey ID resolution under a wide root: cost follows depth, not fanout.

namespace nok {
namespace {

constexpr int kWideFanout = 2400;

/// <r> holding `first` (an extra leading element, or nothing) and then
/// kWideFanout <a> children; each <a> holds a <b>, and every 300th one a
/// <c>, valued "needle" in every 900th <a>.  The anchors lie hundreds of
/// siblings apart, so a sweep that steps over every sibling between
/// them costs more than the per-candidate bound below.
std::string WideXml(const std::string& first = "") {
  std::string xml = "<r>" + first;
  for (int i = 0; i < kWideFanout; ++i) {
    xml += "<a><b>" + std::to_string(i) + "</b>";
    if (i % 300 == 107) {
      xml += std::string("<c>") + (i % 900 == 107 ? "needle" : "hay") +
             "</c>";
    }
    xml += "</a>";
  }
  return xml + "</r>";
}

struct WideCase {
  const char* query;
  StartStrategy strategy;
  const char* probe;  ///< The operator that must anchor the query.
};

const WideCase kWideCases[] = {
    {"/r/a/c", StartStrategy::kTagIndex, "TagIndexProbe"},
    {"/r/a/c[.=\"needle\"]", StartStrategy::kValueIndex, "ValueIndexProbe"},
};

/// Evaluates one wide case and checks it against the oracle and the
/// expected anchoring operator; returns the candidate count.
size_t EvaluateWideCase(QueryEngine* engine, const DomTree& dom,
                        const WideCase& c) {
  QueryOptions options;
  options.strategy = c.strategy;
  auto got = engine->Evaluate(c.query, options);
  EXPECT_TRUE(got.ok()) << c.query << ": " << got.status().ToString();
  if (!got.ok()) return 0;
  auto want = OracleEvaluateDewey(c.query, dom);
  EXPECT_TRUE(want.ok()) << c.query;
  if (!want.ok()) return 0;
  EXPECT_FALSE(want->empty()) << c.query;
  EXPECT_EQ(DeweyStrings(*got), DeweyStrings(*want)) << c.query;
  bool probed = false;
  for (const OperatorStats& op : engine->last_trace().operators) {
    probed = probed || op.op == c.probe;
  }
  EXPECT_TRUE(probed) << c.query << " was not anchored by " << c.probe;
  size_t candidates = 0;
  for (const auto& tree : engine->last_stats().trees) {
    candidates += tree.candidates;
  }
  return candidates;
}

TEST(WideRootTest, BpStepsBoundedByDepthPerCandidate) {
  const std::string xml = WideXml();
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok());
  DocumentStore::Options store_options;
  store_options.nav_mode = NavMode::kBp;
  auto store = DocumentStore::Build(xml, store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());
  constexpr uint64_t kDepth = 3;  // r/a/c
  for (const WideCase& c : kWideCases) {
    const size_t candidates = EvaluateWideCase(&engine, *dom, c);
    EXPECT_GT(candidates, 0u) << c.query;
    // Per hit: the probe's Select1 and one Enclose, and the trunk's one
    // Enclose (<a>); <r> is the document root, which opens at 0.
    EXPECT_LE(engine.last_trace().bp_steps, candidates * kDepth) << c.query;
  }
}

TEST(WideRootTest, PagedHitsResolveOnTheBpIndexAfterAnInsert) {
  DocumentStore::Options store_options;
  store_options.page_size = 512;
  auto store = DocumentStore::Build(WideXml(), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());
  auto pages_of = [&](const DomTree& dom, const WideCase& c) {
    const StringStore::NavStats before = (*store)->tree()->nav_stats();
    EvaluateWideCase(&engine, dom, c);
    return (*store)->tree()->nav_stats().pages_scanned - before.pages_scanned;
  };
  auto dom = DomTree::Parse(WideXml());
  ASSERT_TRUE(dom.ok());
  uint64_t pages_before[std::size(kWideCases)];
  for (size_t i = 0; i < std::size(kWideCases); ++i) {
    pages_before[i] = pages_of(*dom, kWideCases[i]);
  }
  const size_t chain_before = (*store)->tree()->chain_length();

  // A front insert shifts every later Dewey ID.  Hits and their trunk
  // ancestors are located on the BP index, so the queries fetch no page
  // they did not fetch before, bar pages the insert added.  (Walking the
  // page chain from stale cached positions took 6714 and 5774 pages.)
  const std::string inserted = "<a><b>new</b></a>";
  ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, inserted).ok());
  ASSERT_TRUE((*store)->bp_index().ok());  // The rebuild scan, up front.
  const uint64_t split_pages = (*store)->tree()->chain_length() - chain_before;
  auto updated = DomTree::Parse(WideXml(inserted));
  ASSERT_TRUE(updated.ok());
  for (size_t i = 0; i < std::size(kWideCases); ++i) {
    EXPECT_LE(pages_of(*updated, kWideCases[i]),
              pages_before[i] + split_pages)
        << kWideCases[i].query;
  }
}

/// Every located hit of every tag probe, and of a value probe per value
/// in `values`, sits at the position BpIndex::Locate (ValueOf's locate)
/// finds for its Dewey ID, in the generation the probe answered in.  A
/// value hit's ValueOf is the probed value.  Returns the hits checked.
size_t ExpectHitsLocated(DocumentStore* store,
                         const std::vector<std::string>& values) {
  auto derived = store->derived();
  EXPECT_TRUE(derived.ok()) << derived.status().ToString();
  if (!derived.ok()) return 0;
  const BpIndex& bp = *(*derived)->bp;
  size_t checked = 0;
  auto expect_located = [&](const std::vector<LocatedNode>& hits) {
    for (const LocatedNode& hit : hits) {
      EXPECT_EQ(bp.Locate(hit.dewey), std::optional<uint64_t>(hit.pos))
          << hit.dewey.ToString();
      ++checked;
    }
  };
  for (TagId tag = 1; tag <= store->tags()->size(); ++tag) {
    auto hits = store->NodesWithTag(**derived, tag);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (hits.ok()) expect_located(*hits);
  }
  for (const std::string& value : values) {
    SCOPED_TRACE(value);
    auto hits = store->NodesWithValue(**derived, Slice(value));
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (!hits.ok()) continue;
    EXPECT_FALSE(hits->empty());
    expect_located(*hits);
    for (const LocatedNode& hit : *hits) {
      auto got = store->ValueOf(hit.dewey);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (got.ok()) {
        EXPECT_EQ(*got, std::optional<std::string>(value))
            << hit.dewey.ToString();
      }
    }
  }
  return checked;
}

TEST(WideRootTest, ProbeHitsArriveAtTheirBpPositions) {
  const std::vector<std::string> values = {"needle", "hay", "0", "63",
                                           "64", "1507", "2399"};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_located_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  options.page_size = 512;
  {
    auto store = DocumentStore::Build(WideXml(), options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    {
      SCOPED_TRACE("fresh build");
      EXPECT_GT(ExpectHitsLocated(store->get(), values),
                static_cast<size_t>(kWideFanout));
    }
    // Unflushed: the probes answer in the generation rebuilt on demand.
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId::Root(), 0,
                                    "<a><b>new</b><c>needle</c></a>")
                    .ok());
    ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 100})).ok());
    {
      SCOPED_TRACE("after an unflushed front insert and a delete");
      EXPECT_GT(ExpectHitsLocated(store->get(), values),
                static_cast<size_t>(kWideFanout));
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    // A snapshot adopts its writer's generation.
    SwmrStore::Options swmr_options;
    swmr_options.store.page_size = options.page_size;
    auto swmr = SwmrStore::Open(dir, swmr_options);
    ASSERT_TRUE(swmr.ok()) << swmr.status().ToString();
    ASSERT_TRUE((*swmr)->DeleteSubtree(DeweyId({0, 5})).ok());
    ASSERT_TRUE((*swmr)->Commit().ok());
    SCOPED_TRACE("SwmrStore snapshot");
    EXPECT_GT(ExpectHitsLocated((*swmr)->snapshot()->store(), values),
              static_cast<size_t>(kWideFanout));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
