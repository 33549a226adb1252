// Seeded, grammar-driven randomized differential testing harness.
//
// One iteration: GenerateCase(seed) derives a (document, query set) pair
// — deep-recursion parts documents and scale-zero Table 1 documents, an
// eighth of them with the root padded to 65-300 children, with
// QueryGen-v2 grammar samples over the document's schema — and
// CheckCase runs every query through the full engine matrix
//   {DI, TwigStack, navigational, region, NoK}, the NoK engine as
//   {planner strategies} x {paged, bp} x
//   {as planned, every eligible `//` arc forced top-down}
// against the brute-force oracle.  Engines rejecting a fragment with
// Status::NotSupported are skipped (a typed rejection is never a wrong
// answer); any other status, or any result-set difference, is a
// Mismatch.
//
// On mismatch, Shrink greedily minimizes the failing (document, query)
// pair — dropping DOM subtrees and stripping query predicate blocks and
// trailing steps while the failure reproduces — and the result is
// serialized as a self-contained repro file ("# nok-fuzz repro v1")
// that Replay re-executes, so a corpus entry under tests/fuzz/corpus/
// is a permanent regression test.

#ifndef NOKXML_TESTS_FUZZ_FUZZ_HARNESS_H_
#define NOKXML_TESTS_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baseline/interval_encoding.h"
#include "common/result.h"
#include "nok/pattern_tree.h"

namespace nok {
namespace fuzz {

/// One generated differential-testing iteration.
struct FuzzCase {
  uint64_t seed = 0;
  std::string name;  ///< Generator family ("parts-deep", "author", ...).
  std::string xml;
  std::vector<std::string> queries;
};

/// Derives a document plus query set from a seed, deterministically.
FuzzCase GenerateCase(uint64_t seed);

/// One disagreement between an engine configuration and the oracle.
struct Mismatch {
  std::string engine;  ///< "region", "nok scan bp top-down", ...
  std::string query;
  std::string detail;  ///< want/got canonical Dewey sets, or a status.
};

/// An additional engine injected into the matrix (used by the
/// mutation-detection "tooth check" with a deliberately broken engine).
struct ExtraEngine {
  std::string name;
  /// Evaluates a pattern over the interval document; same contract as
  /// RegionEngine::Evaluate (document-order node indexes).
  std::function<Result<std::vector<uint32_t>>(const PatternTree&,
                                              const IntervalDocument&)>
      eval;
};

/// Runs every query of the case through the engine matrix; returns all
/// mismatches found (empty = full agreement).
std::vector<Mismatch> CheckCase(const FuzzCase& fuzz_case,
                                const ExtraEngine* extra = nullptr);

/// A minimized, self-contained failing case.
struct ReproCase {
  uint64_t seed = 0;
  std::string engine;
  std::string detail;
  std::string query;
  std::string xml;
};

/// Greedily shrinks the failing document and query while the mismatch
/// still reproduces (under the same extra engine, if any).
ReproCase Shrink(const FuzzCase& fuzz_case, const Mismatch& mismatch,
                 const ExtraEngine* extra = nullptr);

/// Re-runs a repro through the engine matrix.
std::vector<Mismatch> Replay(const ReproCase& repro,
                             const ExtraEngine* extra = nullptr);

/// Repro file round-trip ("# nok-fuzz repro v1" header + XML body).
std::string FormatRepro(const ReproCase& repro);
Result<ReproCase> ParseRepro(const std::string& text);
Status WriteRepro(const std::string& path, const ReproCase& repro);
Result<ReproCase> LoadRepro(const std::string& path);

}  // namespace fuzz
}  // namespace nok

#endif  // NOKXML_TESTS_FUZZ_FUZZ_HARNESS_H_
