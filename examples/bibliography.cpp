// The paper's running example (Figures 1-2, Example 1), end to end:
// parse the bibliography, show the pattern tree and its NoK partition,
// evaluate //book[author/last="Stevens"][price<100] with each
// starting-point strategy, and print the per-strategy statistics.
//
//   $ ./bibliography

#include <cstdio>

#include "encoding/document_store.h"
#include "nok/nok_partition.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"

namespace {

const char* kBibliography = R"(
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix Environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor>
      <last>Gerbarg</last><first>Darcy</first>
      <affiliation>CITI</affiliation>
    </editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>)";

const char* StrategyDisplay(nok::StartStrategy s) {
  switch (s) {
    case nok::StartStrategy::kScan: return "sequential scan";
    case nok::StartStrategy::kTagIndex: return "tag index";
    case nok::StartStrategy::kValueIndex: return "value index";
    case nok::StartStrategy::kAuto: return "auto";
  }
  return "?";
}

}  // namespace

int main() {
  const std::string query =
      "//book[author/last=\"Stevens\"][price<100]";

  // Pattern tree and NoK partition (Sections 2-3 of the paper).
  auto pattern = nok::ParseXPath(query);
  if (!pattern.ok()) return 1;
  printf("query: %s\n\npattern tree:\n%s\n", query.c_str(),
         pattern->ToString().c_str());
  const nok::NokPartition partition = nok::PartitionPattern(*pattern);
  printf("NoK partition (%zu trees, %zu global arc(s)):\n%s\n",
         partition.trees.size(), partition.arcs.size(),
         partition.ToString().c_str());

  // Build the store and evaluate with every strategy.
  auto store = nok::DocumentStore::Build(kBibliography, {});
  if (!store.ok()) {
    fprintf(stderr, "build failed: %s\n",
            store.status().ToString().c_str());
    return 1;
  }
  nok::QueryEngine engine(store->get());
  for (nok::StartStrategy strategy :
       {nok::StartStrategy::kAuto, nok::StartStrategy::kScan,
        nok::StartStrategy::kTagIndex, nok::StartStrategy::kValueIndex}) {
    nok::QueryOptions options;
    options.strategy = strategy;
    auto result = engine.Evaluate(query, options);
    if (!result.ok()) {
      fprintf(stderr, "evaluate failed: %s\n",
              result.status().ToString().c_str());
      return 1;
    }
    printf("strategy %-16s -> %zu matches;", StrategyDisplay(strategy),
           result->size());
    for (const auto& tree_stats : engine.last_stats().trees) {
      printf(" [tree: %s, %zu candidates, %zu bindings]",
             StrategyDisplay(tree_stats.strategy), tree_stats.candidates,
             tree_stats.bindings);
    }
    printf("\n");
    for (const nok::DeweyId& id : *result) {
      auto title = (*store)->ValueOf(id.Child(1));  // title = child 1.
      printf("    book %s%s%s\n", id.ToString().c_str(),
             title.ok() && title->has_value() ? ": " : "",
             title.ok() && title->has_value() ? (*title)->c_str() : "");
    }
  }
  return 0;
}
