// Shared helpers for the test suite: random document and random query
// generation for property/differential tests, and evaluation with every
// eligible arc forced to one direction.

#ifndef NOKXML_TESTS_TEST_UTIL_H_
#define NOKXML_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "encoding/bp_index.h"
#include "encoding/dewey.h"
#include "encoding/document_store.h"
#include "nok/planner.h"

namespace nok {
namespace testutil {

/// Knobs for random document generation.
struct RandomDocOptions {
  size_t max_nodes = 120;
  int max_depth = 6;
  int max_children = 4;
  int tag_pool = 5;        ///< Tags "a".."e" by default.
  int value_pool = 6;      ///< Values "v0".."v5"; ~half of leaves get one.
  double value_prob = 0.5;
  double attr_prob = 0.15; ///< Chance of an attribute per element.
};

/// Generates a random well-formed XML document.
std::string RandomXml(Random* rng, const RandomDocOptions& options = {});

/// Generates a random path expression in the supported subset, using the
/// same tag/value pools as RandomXml so queries actually hit.
std::string RandomQuery(Random* rng, const RandomDocOptions& options = {});

/// Evaluates `xpath` as QueryEngine::Evaluate does, except that every
/// arc of the plan eligible for top-down evaluation (TopDownEligible) is
/// forced to `direction` before Executor::Run: a forced schedule for the
/// differential sweeps that needs no QueryOptions field.  Positional
/// predicates return NotSupported, as they do from the engine.
Result<std::vector<DeweyId>> EvaluateWithArcDirection(
    DocumentStore* store, const std::string& xpath,
    const QueryOptions& options, ArcDirection direction);

/// DocumentStore::NodesWithTag / NodesWithValue in the store's current
/// generation (DocumentStore::derived()).
Result<std::vector<LocatedNode>> TagHits(DocumentStore* store, TagId tag);
Result<std::vector<LocatedNode>> ValueHits(DocumentStore* store,
                                           const Slice& value);

/// The hits' Dewey IDs, as strings, in order.
std::vector<std::string> HitStrings(const std::vector<LocatedNode>& hits);

}  // namespace testutil
}  // namespace nok

#endif  // NOKXML_TESTS_TEST_UTIL_H_
