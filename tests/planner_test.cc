// Planner/executor tests: schedule validity, access-path selection and
// estimates, arc directions, `ExplainLast` contents, and the last_stats
// staleness regression (a failed Evaluate must never leave the previous
// query's diagnostics in place).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baseline/navigational_engine.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"
#include "nok/nok_partition.h"
#include "nok/physical_matcher.h"
#include "nok/planner.h"
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

std::unique_ptr<DocumentStore> MakeStore(const std::string& xml) {
  DocumentStore::Options options;
  options.page_size = 512;
  auto store = DocumentStore::Build(xml, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

struct Planned {
  PatternTree pattern;  ///< Owns the nodes the partition points into.
  NokPartition partition;
  QueryPlan plan;
};

Planned PlanFor(DocumentStore* store, const std::string& xpath,
                const QueryOptions& options = {}) {
  Planned out;
  auto pattern = ParseXPath(xpath);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  out.pattern = std::move(pattern).ValueOrDie();
  out.partition = PartitionPattern(out.pattern);
  const std::vector<TagId> tag_table =
      ResolvePatternTags(out.pattern, *store->tags());
  Planner planner(store);
  auto plan = planner.Plan(out.partition, tag_table, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  out.plan = std::move(plan).ValueOrDie();
  return out;
}

/// Every arc target (child tree) must be scheduled before its source
/// (parent tree): that is the invariant that keeps semi-joins sound.
void ExpectChildrenFirst(const NokPartition& partition,
                         const std::vector<int>& schedule) {
  ASSERT_EQ(schedule.size(), partition.trees.size());
  std::vector<int> pos(schedule.size(), -1);
  for (size_t i = 0; i < schedule.size(); ++i) {
    ASSERT_GE(schedule[i], 0);
    ASSERT_LT(static_cast<size_t>(schedule[i]), schedule.size());
    pos[static_cast<size_t>(schedule[i])] = static_cast<int>(i);
  }
  for (const GlobalArc& arc : partition.arcs) {
    EXPECT_LT(pos[static_cast<size_t>(arc.to_tree)],
              pos[static_cast<size_t>(arc.from_tree)])
        << "tree " << arc.to_tree << " must run before tree "
        << arc.from_tree;
  }
}

TEST(PlannerTest, ScheduleIsChildrenFirst) {
  auto store = MakeStore(kBibXml);
  for (const char* xpath :
       {"/bib//book[.//first]//last", "//book[.//affiliation]",
        "//book[author/last=\"Stevens\"][.//first]", "//last"}) {
    SCOPED_TRACE(xpath);
    Planned planned = PlanFor(store.get(), xpath);
    ExpectChildrenFirst(planned.partition, planned.plan.schedule);
  }
}

TEST(PlannerTest, SelectivityScheduleOrdersMostSelectiveReadyFirst) {
  // Synthetic star partition: tree 0 parents trees 1 and 2.
  NokPartition partition;
  partition.trees.resize(3);
  partition.arcs.push_back({0, 0, 1, Axis::kDescendant});
  partition.arcs.push_back({0, 0, 2, Axis::kDescendant});
  std::vector<TreeAccessPlan> trees(3);
  for (int t = 0; t < 3; ++t) trees[static_cast<size_t>(t)].tree = t;
  trees[0].access.cardinality.matches = 50;
  trees[1].access.cardinality.matches = 100;
  trees[2].access.cardinality.matches = 5;

  // Trees 1 and 2 are ready (no outgoing arcs); 2 is more selective.
  // Tree 0 only becomes ready once both children are done.
  EXPECT_EQ(SelectivitySchedule(partition, trees),
            (std::vector<int>{2, 1, 0}));

  trees[1].access.cardinality.matches = 3;
  EXPECT_EQ(SelectivitySchedule(partition, trees),
            (std::vector<int>{1, 2, 0}));
}

TEST(PlannerTest, AccessPathsFollowPaperHeuristic) {
  auto store = MakeStore(kBibXml);

  // A rare tag is selective enough for the tag index; its estimate is
  // the exact dictionary count.
  Planned rare = PlanFor(store.get(), "//affiliation");
  ASSERT_EQ(rare.plan.trees.size(), 2u);
  EXPECT_EQ(rare.plan.trees[1].access.strategy, StartStrategy::kTagIndex);
  EXPECT_EQ(rare.plan.trees[1].access.cardinality.candidates, 1u);

  // A frequent tag (above index_fraction of the document) scans.
  Planned frequent = PlanFor(store.get(), "//book");
  ASSERT_EQ(frequent.plan.trees.size(), 2u);
  EXPECT_EQ(frequent.plan.trees[1].access.strategy, StartStrategy::kScan);
  EXPECT_EQ(frequent.plan.trees[1].access.cardinality.candidates, 4u);

  // An equality constraint always wins (the paper's Section 6.2 rule).
  Planned value = PlanFor(store.get(), "//book[author/last=\"Stevens\"]");
  ASSERT_EQ(value.plan.trees.size(), 2u);
  EXPECT_EQ(value.plan.trees[1].access.strategy,
            StartStrategy::kValueIndex);
  EXPECT_EQ(value.plan.trees[1].access.value_operand, "Stevens");
  EXPECT_EQ(value.plan.trees[1].access.cardinality.candidates, 2u);

  // The doc-root tree is a single virtual candidate.
  EXPECT_EQ(value.plan.trees[0].access.strategy, StartStrategy::kScan);
  EXPECT_EQ(value.plan.trees[0].access.cardinality.candidates, 1u);
}

TEST(PlannerTest, ForcedStrategiesDegradeToScanWhenInapplicable) {
  auto store = MakeStore(kBibXml);

  QueryOptions force_value;
  force_value.strategy = StartStrategy::kValueIndex;
  Planned no_value = PlanFor(store.get(), "//book", force_value);
  EXPECT_EQ(no_value.plan.trees[1].access.strategy, StartStrategy::kScan);

  QueryOptions force_tag;
  force_tag.strategy = StartStrategy::kTagIndex;
  Planned all_wild = PlanFor(store.get(), "//*", force_tag);
  EXPECT_EQ(all_wild.plan.trees[1].access.strategy, StartStrategy::kScan);
}

TEST(PlannerTest, PlanToStringIsStable) {
  auto store = MakeStore(kBibXml);
  Planned p = PlanFor(store.get(), "//book[author/last=\"Stevens\"]");
  const std::string text = p.plan.ToString(p.partition);
  EXPECT_NE(text.find("plan: nav=paged"), std::string::npos);
  EXPECT_NE(text.find("schedule: 1 0"), std::string::npos);
  EXPECT_NE(text.find("value-index value=\"Stevens\""), std::string::npos);
  EXPECT_NE(text.find("arc: tree 0 node 0 -//-> tree 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Arc directions: the top-down cost rule on a small dblp store.

std::unique_ptr<DocumentStore> MakeDblpStore() {
  GenOptions gen;
  gen.scale = 0.002;  // 800 articles, 4 of them carrying needle-hi-*.
  gen.seed = 1;
  return MakeStore(GenerateDataset(Dataset::kDblp, gen).xml);
}

/// Directions of the plan's arcs, one letter each: 'T' top-down, 'B'
/// bottom-up.
std::string Directions(const Planned& planned) {
  std::string out;
  for (size_t a = 0; a < planned.partition.arcs.size(); ++a) {
    out += planned.plan.DirectionOf(a) == ArcDirection::kTopDown ? 'T' : 'B';
  }
  return out;
}

/// Page fetches of B+v and the value column.
uint64_t IndexFetches(DocumentStore* store) {
  return store->value_index()->buffer_pool()->stats().fetches +
         store->value_column()->buffer_pool()->stats().fetches;
}

constexpr const char* kQ3d =
    "/dblp/article[journal=\"needle-hi-a\"][volume=\"needle-hi-b\"]//title";

TEST(PlannerTest, SelectiveParentRunsItsDescendantArcTopDown) {
  auto store = MakeDblpStore();
  Planned q3d = PlanFor(store.get(), kQ3d);
  ASSERT_EQ(q3d.partition.arcs.size(), 1u);
  EXPECT_EQ(Directions(q3d), "T");
  EXPECT_NE(q3d.plan.ToString(q3d.partition).find("-//-> tree 1 top-down"),
            std::string::npos);
  // The plan stays children-first: the scout is not a schedule entry.
  ExpectChildrenFirst(q3d.partition, q3d.plan.schedule);

  // A predicate arc from the same selective parent (arc 0) goes top-down
  // too; the arc from the document root (arc 1) never does.
  Planned branch =
      PlanFor(store.get(), "//article[journal=\"needle-hi-a\"][.//title]");
  EXPECT_EQ(Directions(branch), "TB");
}

TEST(PlannerTest, UnselectiveAndDocRootArcsStayBottomUp) {
  auto store = MakeDblpStore();
  for (const char* xpath : {
           "/dblp/article//cite",  // Q10d: 800 sources, few cites.
           "/dblp//title",         // One source spanning the document.
           "//title",
           "//dblp/article[journal=\"needle-hi-a\"]",
       }) {
    SCOPED_TRACE(xpath);
    Planned planned = PlanFor(store.get(), xpath);
    ASSERT_FALSE(planned.partition.arcs.empty());
    EXPECT_EQ(Directions(planned),
              std::string(planned.partition.arcs.size(), 'B'));
    for (const GlobalArc& arc : planned.partition.arcs) {
      const bool from_doc_root =
          planned.partition.trees[static_cast<size_t>(arc.from_tree)]
              .nodes[static_cast<size_t>(arc.from_node)]
              .pattern->is_doc_root;
      EXPECT_EQ(TopDownEligible(planned.partition, arc), !from_doc_root);
    }
  }
}

TEST(PlannerTest, OrderAxesNeverRunTopDown) {
  auto store = MakeDblpStore();
  for (const char* xpath :
       {"/dblp/article[journal=\"needle-hi-a\"]/following::title",
        "/dblp/article[journal=\"needle-hi-a\"]/preceding::title"}) {
    SCOPED_TRACE(xpath);
    Planned planned = PlanFor(store.get(), xpath);
    ASSERT_EQ(planned.partition.arcs.size(), 1u);
    EXPECT_FALSE(TopDownEligible(planned.partition,
                                 planned.partition.arcs[0]));
    EXPECT_EQ(Directions(planned), "B");
  }
}

TEST(PlannerTest, ArcDirectionsAddNoIndexProbes) {
  // The direction rule reads only synopsis counts and the trees' own
  // estimates: planning Q3d (top-down chosen) probes the B+ trees
  // exactly as often as planning its parent tree alone (no arc, so no
  // direction rule at all).  The //title tree's tag count comes from the
  // dictionary, not a probe.
  auto store = MakeDblpStore();
  uint64_t before = IndexFetches(store.get());
  Planned q3d = PlanFor(store.get(), kQ3d);
  const uint64_t q3d_fetches = IndexFetches(store.get()) - before;
  ASSERT_EQ(Directions(q3d), "T");
  before = IndexFetches(store.get());
  PlanFor(store.get(),
          "/dblp/article[journal=\"needle-hi-a\"][volume=\"needle-hi-b\"]");
  EXPECT_EQ(IndexFetches(store.get()) - before, q3d_fetches);
  EXPECT_GT(q3d_fetches, 0u);  // The value-count estimate probes B+v.
}

TEST(QueryEngineTest, TopDownPlanMatchesBottomUpAndScansOnlyTheScope) {
  auto store = MakeDblpStore();
  QueryEngine engine(store.get());
  auto top_down = engine.Evaluate(kQ3d);
  ASSERT_TRUE(top_down.ok()) << top_down.status().ToString();
  EXPECT_EQ(top_down->size(), 4u);
  const std::string explain = engine.ExplainLast();
  EXPECT_NE(explain.find("NokMatch scout anchored"), std::string::npos)
      << explain;
  // Four articles scoped, four titles found in them.
  EXPECT_NE(explain.find("ScopedScan root=title"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("in=4 out=4"), std::string::npos) << explain;

  auto bottom_up = testutil::EvaluateWithArcDirection(
      store.get(), kQ3d, QueryOptions{}, ArcDirection::kBottomUp);
  ASSERT_TRUE(bottom_up.ok()) << bottom_up.status().ToString();
  EXPECT_EQ(*top_down, *bottom_up);
}

TEST(QueryEngineTest, FailedEvaluateClearsPreviousDiagnostics) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());

  auto good = engine.Evaluate("//book");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(engine.last_stats().results, 4u);
  EXPECT_FALSE(engine.last_stats().trees.empty());
  EXPECT_NE(engine.ExplainLast(), "no query evaluated yet\n");

  // A malformed query must not leave the old stats/plan behind.
  auto bad = engine.Evaluate("/a[");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.last_stats().results, 0u);
  EXPECT_TRUE(engine.last_stats().trees.empty());
  EXPECT_EQ(engine.ExplainLast(), "no query evaluated yet\n");
}

TEST(QueryEngineTest, ExplainPrintsEstimatedAndActualCardinalities) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());

  // Branchy query: value-index anchor, a semi-join pre-filter on the
  // anchor hits, and a structural semi-join against the predicate tree.
  auto result =
      engine.Evaluate("//book[author/last=\"Stevens\"][.//first]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = engine.ExplainLast();
  EXPECT_NE(text.find("ValueIndexProbe"), std::string::npos) << text;
  EXPECT_NE(text.find("SemiJoinFilter"), std::string::npos) << text;
  EXPECT_NE(text.find("StructuralSemiJoin"), std::string::npos) << text;
  EXPECT_NE(text.find("NokMatch"), std::string::npos) << text;
  EXPECT_NE(text.find("Output"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("in="), std::string::npos) << text;
  EXPECT_NE(text.find("out="), std::string::npos) << text;
  EXPECT_NE(text.find("results: " + std::to_string(result->size())),
            std::string::npos)
      << text;

  // Tag-index probe.
  ASSERT_TRUE(engine.Evaluate("//affiliation").ok());
  EXPECT_NE(engine.ExplainLast().find("TagIndexProbe"), std::string::npos);

  // Forced sequential scan.
  QueryOptions scan;
  scan.strategy = StartStrategy::kScan;
  ASSERT_TRUE(engine.Evaluate("//book", scan).ok());
  EXPECT_NE(engine.ExplainLast().find("AnchorScan"), std::string::npos);
}

TEST(QueryEngineTest, PlannedAnswersMatchNavigationalBaseline) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  NavigationalEngine nav(&*dom);
  for (const char* xpath :
       {"//book[.//affiliation]", "/bib//book[.//first]//last",
        "//book[author/last=\"Stevens\"][.//first]",
        "//editor/following::book"}) {
    SCOPED_TRACE(xpath);
    auto planned = engine.Evaluate(xpath);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    auto pattern = ParseXPath(xpath);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
    auto baseline = nav.Evaluate(*pattern);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    std::vector<DeweyId> want;
    for (const DomNode* node : *baseline) want.push_back(DomDewey(node));
    std::sort(want.begin(), want.end(),
              [](const DeweyId& a, const DeweyId& b) {
                return a.Compare(b) < 0;
              });
    EXPECT_EQ(*planned, want);
  }
}

}  // namespace
}  // namespace nok
