// Shared helpers for the test suite: random document and random query
// generation for property/differential tests, and evaluation with every
// eligible arc forced to one direction.

#ifndef NOKXML_TESTS_TEST_UTIL_H_
#define NOKXML_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "encoding/dewey.h"
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

}  // namespace testutil
}  // namespace nok

#endif  // NOKXML_TESTS_TEST_UTIL_H_
