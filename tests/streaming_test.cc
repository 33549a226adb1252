#include <gtest/gtest.h>

#include "common/random.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "streaming/sax_source.h"
#include "streaming/stream_matcher.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP</title><author><last>Stevens"
    "</last></author><price>65.95</price></book>"
    "<book year=\"2000\"><title>Web</title><author><last>Abiteboul"
    "</last></author><price>39.95</price></book>"
    "<news><book year=\"1999\"><title>Nested</title><price>5</price>"
    "</book></news>"
    "</bib>";

// ---------------------------------------------------------------------------
// SaxSource event normalization.

TEST(SaxSourceTest, ExpandsAttributesToPseudoNodes) {
  SaxSource source("<a k=\"v\"><b/></a>");
  std::vector<StreamEvent> events;
  StreamEvent e;
  for (;;) {
    ASSERT_TRUE(source.Next(&e).ok());
    if (e.kind == StreamEvent::Kind::kEnd) break;
    events.push_back(e);
  }
  // a, @k, "v", ), b, ), ).
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(events[0].kind, StreamEvent::Kind::kOpen);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "@k");
  EXPECT_EQ(events[2].kind, StreamEvent::Kind::kText);
  EXPECT_EQ(events[2].text, "v");
  EXPECT_EQ(events[3].kind, StreamEvent::Kind::kClose);
  EXPECT_EQ(events[4].name, "b");
  EXPECT_EQ(events[5].kind, StreamEvent::Kind::kClose);
  EXPECT_EQ(events[6].kind, StreamEvent::Kind::kClose);
}

TEST(SaxSourceTest, EmptyAttributeValueSkipsText) {
  SaxSource source("<a k=\"\"/>");
  std::vector<StreamEvent> events;
  StreamEvent e;
  for (;;) {
    ASSERT_TRUE(source.Next(&e).ok());
    if (e.kind == StreamEvent::Kind::kEnd) break;
    events.push_back(e);
  }
  // a, @k, ), ).
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].name, "@k");
  EXPECT_EQ(events[2].kind, StreamEvent::Kind::kClose);
}

// ---------------------------------------------------------------------------
// Streaming evaluation - rooted mode.

std::vector<std::string> Stream(const std::string& xpath,
                                const std::string& xml,
                                StreamRunStats* stats = nullptr) {
  auto r = EvaluateStreaming(xpath, xml, stats);
  EXPECT_TRUE(r.ok()) << xpath << ": " << r.status().ToString();
  std::vector<std::string> out;
  if (r.ok()) {
    for (const auto& d : *r) out.push_back(d.ToString());
  }
  return out;
}

TEST(StreamMatcherTest, RootedPathQuery) {
  EXPECT_EQ(Stream("/bib/book/title", kBibXml),
            (std::vector<std::string>{"0.0.1", "0.1.1"}));
  EXPECT_EQ(Stream("/bib/book[price<50]/title", kBibXml),
            (std::vector<std::string>{"0.1.1"}));
  EXPECT_EQ(Stream("/bib/book[author/last=\"Stevens\"]", kBibXml),
            (std::vector<std::string>{"0.0"}));
}

TEST(StreamMatcherTest, RootedReturnsRootItself) {
  EXPECT_EQ(Stream("/bib", kBibXml), (std::vector<std::string>{"0"}));
  EXPECT_TRUE(Stream("/other", kBibXml).empty());
  EXPECT_EQ(Stream("/bib[book]", kBibXml),
            (std::vector<std::string>{"0"}));
  EXPECT_TRUE(Stream("/bib[missing]", kBibXml).empty());
}

// Rooted mode runs its own frontier over the first step's children: a
// preceding-sibling:: match needs a later sibling there too.  Answered
// by hand (bib 0; book 0.0; book 0.1; x 0.2; book 0.3; book 0.4).
TEST(StreamMatcherTest, RootedPrecedingSiblingNeedsALaterSibling) {
  const std::string xml = "<bib><book/><book/><x/><book/><book/></bib>";
  EXPECT_EQ(Stream("/bib/book/preceding-sibling::book", xml),
            (std::vector<std::string>{"0.0", "0.1", "0.3"}));
  EXPECT_EQ(Stream("/bib/book/following-sibling::book", xml),
            (std::vector<std::string>{"0.1", "0.3", "0.4"}));
  EXPECT_EQ(Stream("/bib/x/preceding-sibling::book", xml),
            (std::vector<std::string>{"0.0", "0.1"}));
}

TEST(StreamMatcherTest, LocateModeFindsNestedCandidates) {
  EXPECT_EQ(Stream("//book", kBibXml),
            (std::vector<std::string>{"0.0", "0.1", "0.2.0"}));
  EXPECT_EQ(Stream("//book[price<10]/title", kBibXml),
            (std::vector<std::string>{"0.2.0.1"}));
  EXPECT_EQ(Stream("//book[@year=\"2000\"]", kBibXml),
            (std::vector<std::string>{"0.1"}));
}

TEST(StreamMatcherTest, UnsupportedShapesReported) {
  StreamRunStats stats;
  EXPECT_TRUE(EvaluateStreaming("/bib//book//title", kBibXml, &stats)
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(EvaluateStreaming("/bib[.=\"x\"]/book", kBibXml, &stats)
                  .status()
                  .IsNotSupported());
}

TEST(StreamMatcherTest, Proposition1BufferBound) {
  // Rooted mode buffers one second-level subtree at a time: the peak must
  // be the largest book subtree (7 nodes incl. the attribute), not the
  // document (24 nodes).
  StreamRunStats stats;
  auto r = EvaluateStreaming("/bib/book/title", kBibXml, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(stats.peak_buffered_nodes, 7u);
  EXPECT_GT(stats.events, 0u);
}

TEST(StreamMatcherTest, StatsCountCandidates) {
  StreamRunStats stats;
  ASSERT_TRUE(EvaluateStreaming("//book", kBibXml, &stats).ok());
  // Two top-level books + one news subtree containing a nested book: the
  // nested one is matched from within the news buffer... but news is not
  // a book, so buffering starts at the nested book. 3 candidates total.
  EXPECT_EQ(stats.candidates, 3u);
}

// ---------------------------------------------------------------------------
// Equivalence with the stored-document engine.

class StreamVsEngine : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamVsEngine, SameResultsAsQueryEngine) {
  Random rng(GetParam());
  int checked = 0;
  for (int round = 0; round < 25; ++round) {
    const std::string xml = testutil::RandomXml(&rng);
    DocumentStore::Options options;
    auto store = DocumentStore::Build(xml, options);
    ASSERT_TRUE(store.ok());
    QueryEngine engine(store->get());
    auto dom = DomTree::Parse(xml);
    ASSERT_TRUE(dom.ok());

    for (int q = 0; q < 8; ++q) {
      const std::string query = testutil::RandomQuery(&rng);
      StreamRunStats stats;
      auto streamed = EvaluateStreaming(query, xml, &stats);
      if (!streamed.ok()) {
        // Only the documented unsupported shapes may be rejected.
        EXPECT_TRUE(streamed.status().IsNotSupported() ||
                    streamed.status().IsParseError())
            << query << ": " << streamed.status().ToString();
        continue;
      }
      auto stored = engine.Evaluate(query);
      ASSERT_TRUE(stored.ok()) << query;
      std::vector<std::string> a, b;
      for (const auto& d : *streamed) a.push_back(d.ToString());
      for (const auto& d : *stored) b.push_back(d.ToString());
      EXPECT_EQ(a, b) << query << "\n" << xml;
      ++checked;
    }
  }
  EXPECT_GT(checked, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamVsEngine,
                         ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace nok
