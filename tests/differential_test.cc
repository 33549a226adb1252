// Randomized differential harness over the generated Table 2 workload:
// for several dataset seeds, every category query (and its descendant-
// axis variant) runs through the NoK QueryEngine, the DI and TwigStack
// structural-join baselines, the navigational baseline, and the region
// (pre,post,level) engine, and each engine's Dewey-ID result set must
// equal the brute-force oracle's.
//
// Documents are generated at the minimum dataset size (the generators
// floor at 8 entries) because the oracle is exponential by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baseline/di_engine.h"
#include "baseline/interval_encoding.h"
#include "baseline/navigational_engine.h"
#include "baseline/region_engine.h"
#include "baseline/twigstack_engine.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace nok {
namespace {

std::vector<std::string> CanonDewey(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonNodes(
    const std::vector<const DomNode*>& nodes) {
  std::vector<std::string> out;
  for (const DomNode* n : nodes) out.push_back(DomDewey(n).ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Maps interval-document node indexes to Dewey strings via the DOM (both
/// enumerate nodes in document order).
std::vector<std::string> CanonIndexesOrDie(
    const DomTree& dom, const std::vector<uint32_t>& indexes) {
  std::vector<const DomNode*> doc_order;
  ForEachNode(dom.root(),
              [&](const DomNode* n) { doc_order.push_back(n); });
  std::vector<std::string> out;
  for (uint32_t i : indexes) {
    EXPECT_LT(i, doc_order.size());
    if (i < doc_order.size()) {
      out.push_back(DomDewey(doc_order[i]).ToString());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RunDataset(Dataset dataset, uint64_t seed) {
  GenOptions gen;
  gen.scale = 0.0;  // Generators floor at 8 entries: oracle-sized docs.
  gen.seed = seed;
  const GeneratedDataset ds = GenerateDataset(dataset, gen);

  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants =
      DescendantVariants(queries, seed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  ASSERT_EQ(queries.size(), 24u);

  auto dom = DomTree::Parse(ds.xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  auto interval = IntervalDocument::Build(ds.xml);
  ASSERT_TRUE(interval.ok()) << interval.status().ToString();
  DiEngine di(&*interval);
  TwigStackEngine twig(&*interval);
  NavigationalEngine nav(&*dom);
  RegionEngine region(&*interval);

  DocumentStore::Options options;
  options.page_size = 512;  // Small pages: the store actually pages.
  auto store = DocumentStore::Build(ds.xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());

  for (const CategoryQuery& q : queries) {
    SCOPED_TRACE(ds.name + " seed " + std::to_string(seed) + " " + q.id +
                 " (" + q.category + "): " + q.xpath);
    auto oracle = OracleEvaluateDewey(q.xpath, *dom);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const std::vector<std::string> want = CanonDewey(*oracle);

    auto pattern = ParseXPath(q.xpath);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();

    auto nok_result = engine.Evaluate(q.xpath);
    ASSERT_TRUE(nok_result.ok()) << nok_result.status().ToString();
    EXPECT_EQ(CanonDewey(*nok_result), want) << "engine: NoK";

    auto di_result = di.Evaluate(*pattern);
    ASSERT_TRUE(di_result.ok()) << di_result.status().ToString();
    EXPECT_EQ(CanonIndexesOrDie(*dom, *di_result), want) << "engine: DI";

    auto twig_result = twig.Evaluate(*pattern);
    ASSERT_TRUE(twig_result.ok()) << twig_result.status().ToString();
    EXPECT_EQ(CanonIndexesOrDie(*dom, *twig_result), want)
        << "engine: TwigStack";

    auto nav_result = nav.Evaluate(*pattern);
    ASSERT_TRUE(nav_result.ok()) << nav_result.status().ToString();
    EXPECT_EQ(CanonNodes(*nav_result), want) << "engine: navigational";

    auto region_result = region.Evaluate(*pattern);
    ASSERT_TRUE(region_result.ok()) << region_result.status().ToString();
    EXPECT_EQ(CanonIndexesOrDie(*dom, *region_result), want)
        << "engine: region";
  }
}

/// Deep-recursion sweep: the kParts generator nests part/assembly to a
/// configurable depth, which is where region-interval reasoning (and the
/// positional predicate) earn their keep.  Queries come from QueryGen v2
/// so the mix includes positional and sibling-order shapes; any query an
/// engine rejects as NotSupported is skipped for that engine, everything
/// else must match the oracle.
void RunRecursiveParts(uint64_t seed) {
  RecursiveGenOptions gen;
  gen.seed = seed;
  gen.entries = 6;
  gen.max_depth = 8;
  const GeneratedDataset ds = GenerateRecursiveDataset(gen);

  RandomQueryOptions qopt;
  qopt.seed = seed;
  qopt.count = 24;
  std::vector<std::string> queries = RandomQueries(ds, qopt);
  queries.push_back("//part[2]/pname");
  queries.push_back("/parts/part/assembly//part[pname]");

  auto dom = DomTree::Parse(ds.xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  auto interval = IntervalDocument::Build(ds.xml);
  ASSERT_TRUE(interval.ok()) << interval.status().ToString();
  DiEngine di(&*interval);
  TwigStackEngine twig(&*interval);
  NavigationalEngine nav(&*dom);
  RegionEngine region(&*interval);

  DocumentStore::Options options;
  options.page_size = 512;
  auto store = DocumentStore::Build(ds.xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());

  for (const std::string& xpath : queries) {
    SCOPED_TRACE("parts seed " + std::to_string(seed) + ": " + xpath);
    auto oracle = OracleEvaluateDewey(xpath, *dom);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const std::vector<std::string> want = CanonDewey(*oracle);

    auto pattern = ParseXPath(xpath);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();

    auto region_result = region.Evaluate(*pattern);
    ASSERT_TRUE(region_result.ok()) << region_result.status().ToString();
    EXPECT_EQ(CanonIndexesOrDie(*dom, *region_result), want)
        << "engine: region";

    auto nav_result = nav.Evaluate(*pattern);
    if (nav_result.ok()) {
      EXPECT_EQ(CanonNodes(*nav_result), want) << "engine: navigational";
    } else {
      EXPECT_TRUE(nav_result.status().IsNotSupported())
          << nav_result.status().ToString();
    }

    auto di_result = di.Evaluate(*pattern);
    if (di_result.ok()) {
      EXPECT_EQ(CanonIndexesOrDie(*dom, *di_result), want)
          << "engine: DI";
    } else {
      EXPECT_TRUE(di_result.status().IsNotSupported())
          << di_result.status().ToString();
    }

    auto twig_result = twig.Evaluate(*pattern);
    if (twig_result.ok()) {
      EXPECT_EQ(CanonIndexesOrDie(*dom, *twig_result), want)
          << "engine: TwigStack";
    } else {
      EXPECT_TRUE(twig_result.status().IsNotSupported())
          << twig_result.status().ToString();
    }

    auto nok_result = engine.Evaluate(xpath);
    if (nok_result.ok()) {
      EXPECT_EQ(CanonDewey(*nok_result), want) << "engine: NoK";
    } else {
      EXPECT_TRUE(nok_result.status().IsNotSupported())
          << nok_result.status().ToString();
    }
  }
}

/// The Table 2 sweep with the (st,lo,hi) header skip off and on: both
/// modes must match the brute-force oracle, and the NavStats counters
/// must respect the knob (header skip off never skips; skipping never
/// scans more pages than the no-skip run of the same query).
void RunAblationSweep(Dataset dataset, uint64_t seed) {
  GenOptions gen;
  gen.scale = 0.0;
  gen.seed = seed;
  const GeneratedDataset ds = GenerateDataset(dataset, gen);

  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants =
      DescendantVariants(queries, seed);
  queries.insert(queries.end(), variants.begin(), variants.end());

  auto dom = DomTree::Parse(ds.xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();

  std::vector<std::unique_ptr<DocumentStore>> stores;
  for (const bool header_skip : {false, true}) {
    DocumentStore::Options options;
    options.page_size = 512;
    options.use_header_skip = header_skip;
    auto store = DocumentStore::Build(ds.xml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    stores.push_back(std::move(store).ValueOrDie());
  }

  for (const CategoryQuery& q : queries) {
    SCOPED_TRACE(ds.name + " seed " + std::to_string(seed) + " " + q.id +
                 ": " + q.xpath);
    auto oracle = OracleEvaluateDewey(q.xpath, *dom);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const std::vector<std::string> want = CanonDewey(*oracle);

    std::vector<StringStore::NavStats> nav;
    for (size_t m = 0; m < stores.size(); ++m) {
      stores[m]->tree()->ResetNavStats();
      QueryEngine engine(stores[m].get());
      auto result = engine.Evaluate(q.xpath);
      ASSERT_TRUE(result.ok())
          << "mode " << m << ": " << result.status().ToString();
      EXPECT_EQ(CanonDewey(*result), want) << "mode " << m;
      nav.push_back(stores[m]->tree()->nav_stats());
    }

    // Counter hygiene: a disabled knob must never skip.
    EXPECT_EQ(nav[0].pages_skipped, 0u);
    // Every page a scan handles is either materialized or skipped, so
    // skips can only remove page visits relative to the no-skip run.
    EXPECT_LE(nav[1].pages_scanned, nav[0].pages_scanned);
  }
}

/// The Table 2 sweep across planner configurations: every query runs
/// once with the planner's own choice (kAuto, cost-based order) and then
/// under every forced StartStrategy crossed with {cost-based, fixed}
/// join order and the plan cache on.  Access path, evaluation order,
/// candidate pre-filtering and plan reuse are pure optimizations, so
/// every configuration must return the planner's exact result set.
void RunStrategySweep(Dataset dataset, uint64_t seed) {
  GenOptions gen;
  gen.scale = 0.0;
  gen.seed = seed;
  const GeneratedDataset ds = GenerateDataset(dataset, gen);

  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  const std::vector<CategoryQuery> variants =
      DescendantVariants(queries, seed);
  queries.insert(queries.end(), variants.begin(), variants.end());
  ASSERT_EQ(queries.size(), 24u);

  DocumentStore::Options options;
  options.page_size = 512;
  auto store = DocumentStore::Build(ds.xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());

  const StartStrategy forced[] = {
      StartStrategy::kScan, StartStrategy::kTagIndex,
      StartStrategy::kValueIndex};
  for (const CategoryQuery& q : queries) {
    SCOPED_TRACE(ds.name + " seed " + std::to_string(seed) + " " + q.id +
                 " (" + q.category + "): " + q.xpath);
    auto planned = engine.Evaluate(q.xpath);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    const std::vector<std::string> want = CanonDewey(*planned);

    for (StartStrategy strategy : forced) {
      for (bool cost_based : {true, false}) {
        for (bool synopsis : {true, false}) {
          QueryOptions qo;
          qo.strategy = strategy;
          qo.cost_based_join_order = cost_based;
          qo.use_synopsis = synopsis;
          auto result = engine.Evaluate(q.xpath, qo);
          ASSERT_TRUE(result.ok())
              << StrategyName(strategy) << ": "
              << result.status().ToString();
          EXPECT_EQ(CanonDewey(*result), want)
              << "strategy " << StrategyName(strategy) << " cost_based "
              << cost_based << " synopsis " << synopsis;
        }
      }
    }

    // Plan-cache replay: the second evaluation reuses the cached plan.
    QueryOptions cached;
    cached.use_plan_cache = true;
    for (int round = 0; round < 2; ++round) {
      auto result = engine.Evaluate(q.xpath, cached);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(CanonDewey(*result), want) << "cache round " << round;
    }
  }
}

/// Forced arc directions: every query of the document runs with every
/// eligible `//` arc forced top-down and forced bottom-up (the test
/// helper rewrites the plan; no QueryOptions field exists for it), under
/// each start strategy, both join modes and both navigation tiers, on
/// fresh positions and again after one insert has made them stale.  The
/// insert duplicates the root's first child at child 0, shifting every
/// later Dewey ID.  Every answer must equal the oracle's.
void RunForcedDirections(const std::string& name, const std::string& xml,
                         const std::vector<std::string>& queries) {
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  ASSERT_FALSE(dom->root()->children.empty());
  const std::string fragment =
      SerializeNode(dom->root()->children.front().get());
  std::string stale_xml = SerializeTree(*dom);
  stale_xml.insert(stale_xml.find('>') + 1, fragment);
  auto stale_dom = DomTree::Parse(stale_xml);
  ASSERT_TRUE(stale_dom.ok()) << stale_dom.status().ToString();

  const StartStrategy strategies[] = {
      StartStrategy::kAuto, StartStrategy::kScan, StartStrategy::kTagIndex,
      StartStrategy::kValueIndex};
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStore::Options options;
    options.page_size = 512;
    options.nav_mode = mode;
    auto store = DocumentStore::Build(xml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const bool stale : {false, true}) {
      if (stale) {
        ASSERT_TRUE(
            (*store)->InsertSubtree(DeweyId::Root(), 0, fragment).ok());
        ASSERT_FALSE((*store)->positions_fresh());
      }
      for (const std::string& xpath : queries) {
        SCOPED_TRACE(name + (mode == NavMode::kBp ? " bp" : " paged") +
                     (stale ? " stale: " : " fresh: ") + xpath);
        auto oracle = OracleEvaluateDewey(xpath, stale ? *stale_dom : *dom);
        if (!oracle.ok() && oracle.status().IsNotSupported()) continue;
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        const std::vector<std::string> want = CanonDewey(*oracle);
        for (const StartStrategy strategy : strategies) {
          for (const JoinMode join : {JoinMode::kDewey, JoinMode::kInterval}) {
            for (const ArcDirection direction :
                 {ArcDirection::kTopDown, ArcDirection::kBottomUp}) {
              QueryOptions qo;
              qo.strategy = strategy;
              qo.join_mode = join;
              auto result = testutil::EvaluateWithArcDirection(
                  store->get(), xpath, qo, direction);
              if (!result.ok() && result.status().IsNotSupported()) continue;
              ASSERT_TRUE(result.ok()) << result.status().ToString();
              EXPECT_EQ(CanonDewey(*result), want)
                  << StrategyName(strategy) << " join "
                  << (join == JoinMode::kDewey ? "dewey" : "interval")
                  << (direction == ArcDirection::kTopDown ? " top-down"
                                                          : " bottom-up");
            }
          }
        }
      }
    }
  }
}

void RunForcedDirections(Dataset dataset, uint64_t seed) {
  GenOptions gen;
  gen.scale = 0.0;
  gen.seed = seed;
  const GeneratedDataset ds = GenerateDataset(dataset, gen);
  std::vector<std::string> queries;
  const std::vector<CategoryQuery> table2 = QueriesForDataset(ds);
  for (const CategoryQuery& q : table2) queries.push_back(q.xpath);
  for (const CategoryQuery& q : DescendantVariants(table2, seed)) {
    queries.push_back(q.xpath);
  }
  RunForcedDirections(ds.name + " seed " + std::to_string(seed), ds.xml,
                      queries);
}

TEST(DifferentialTest, ForcedArcDirectionsMatchOracle) {
  RunForcedDirections(Dataset::kAuthor, 7);
  RunForcedDirections(Dataset::kCatalog, 3);
  RunForcedDirections(Dataset::kDblp, 2);
  RunForcedDirections(Dataset::kTreebank, 5);
  // Deep recursion: nested `//` arcs, so scouts scope scouts.
  RecursiveGenOptions gen;
  gen.seed = 4;
  gen.entries = 6;
  gen.max_depth = 8;
  const GeneratedDataset ds = GenerateRecursiveDataset(gen);
  RandomQueryOptions qopt;
  qopt.seed = 4;
  qopt.count = 24;
  std::vector<std::string> queries = RandomQueries(ds, qopt);
  queries.push_back("/parts/part//assembly//part[pname]//pname");
  queries.push_back("//part[.//assembly]//part//pname");
  RunForcedDirections("parts seed 4", ds.xml, queries);
}

/// One wide document through both navigation tiers: /dblp gets more
/// than 200 children, past the BP index's child-sample stride, so Dewey
/// resolution takes the sampled jumps that the 8-entry documents above
/// never reach.  Every Table 2 query must answer as the oracle does on the
/// paged store and on the bp store.
TEST(DifferentialTest, WideDblpAcrossNavModes) {
  GenOptions gen;
  gen.scale = 0.00055;  // 220 entries.
  gen.seed = 9;
  const GeneratedDataset ds = GenerateDataset(Dataset::kDblp, gen);
  std::vector<CategoryQuery> queries = QueriesForDataset(ds);
  // Variant seed 42, as e2ebench/ and `nokq gen` use: the same 24 query
  // strings the benchmark times.
  const std::vector<CategoryQuery> variants = DescendantVariants(queries, 42);
  queries.insert(queries.end(), variants.begin(), variants.end());
  ASSERT_EQ(queries.size(), 24u);

  auto dom = DomTree::Parse(ds.xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  ASSERT_GE(dom->root()->children.size(), 200u);

  std::vector<std::unique_ptr<DocumentStore>> stores;
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStore::Options options;
    options.page_size = 512;
    options.nav_mode = mode;
    auto store = DocumentStore::Build(ds.xml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    stores.push_back(std::move(store).ValueOrDie());
  }

  for (const CategoryQuery& q : queries) {
    SCOPED_TRACE(q.id + " (" + q.category + "): " + q.xpath);
    auto oracle = OracleEvaluateDewey(q.xpath, *dom);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const std::vector<std::string> want = CanonDewey(*oracle);
    for (const auto& store : stores) {
      QueryEngine engine(store.get());
      auto result = engine.Evaluate(q.xpath);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(CanonDewey(*result), want)
          << "nav mode " << (store->nav_mode() == NavMode::kBp ? "bp"
                                                                : "paged");
    }
  }
}

TEST(DifferentialTest, StrategySweepMatchesPlanner) {
  RunStrategySweep(Dataset::kAuthor, 7);
  RunStrategySweep(Dataset::kCatalog, 3);
  RunStrategySweep(Dataset::kDblp, 2);
  RunStrategySweep(Dataset::kTreebank, 5);
}

TEST(DifferentialTest, AblationModesMatchOracle) {
  RunAblationSweep(Dataset::kCatalog, 3);
  RunAblationSweep(Dataset::kDblp, 2);
  RunAblationSweep(Dataset::kTreebank, 5);
}

TEST(DifferentialTest, AuthorAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 42u}) RunDataset(Dataset::kAuthor, seed);
}

TEST(DifferentialTest, CatalogAcrossSeeds) {
  for (uint64_t seed : {3u, 11u}) RunDataset(Dataset::kCatalog, seed);
}

TEST(DifferentialTest, TreebankAcrossSeeds) {
  for (uint64_t seed : {5u, 23u}) RunDataset(Dataset::kTreebank, seed);
}

TEST(DifferentialTest, DblpAcrossSeeds) {
  for (uint64_t seed : {2u, 13u}) RunDataset(Dataset::kDblp, seed);
}

TEST(DifferentialTest, RecursivePartsAcrossSeeds) {
  for (uint64_t seed : {4u, 19u}) RunRecursiveParts(seed);
}

}  // namespace
}  // namespace nok
