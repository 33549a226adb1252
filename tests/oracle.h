// Brute-force reference evaluator for differential testing.
//
// Deliberately written with a completely different strategy from every
// engine in src/: for each candidate subject node r, it checks by
// exhaustive search whether the pattern tree is satisfiable with the
// returning node bound to r.  Per r, each (subject node, pattern node)
// answer is computed once, and only the children a sibling-order pair
// ties together are enumerated jointly; the rest need any one witness.
// Slow — tests keep documents small — but obviously correct, which is
// the point.

#ifndef NOKXML_TESTS_ORACLE_H_
#define NOKXML_TESTS_ORACLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/dewey.h"
#include "nok/pattern_tree.h"
#include "xml/dom.h"

namespace nok {

/// Evaluates a pattern tree over a DOM by brute force; returns matches of
/// the returning node in document order.
std::vector<const DomNode*> OracleEvaluate(const PatternTree& pattern,
                                           const DomTree& tree);

/// Convenience: parse + evaluate, returning Dewey IDs (comparable with
/// QueryEngine output).
Result<std::vector<DeweyId>> OracleEvaluateDewey(const std::string& xpath,
                                                 const DomTree& tree);

/// The Dewey ID of a DOM node (root = 0, child indexes below).
DeweyId DomDewey(const DomNode* node);

}  // namespace nok

#endif  // NOKXML_TESTS_ORACLE_H_
