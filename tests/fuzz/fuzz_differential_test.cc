// Driver for the randomized differential fuzzer (ctest entry
// `fuzz_differential_test`).
//
// The seeded sweep budget is small by default so the suite stays fast;
// CI and soak runs raise it via NOK_FUZZ_ITERATIONS (and shift the seed
// base via NOK_FUZZ_SEED) without recompiling.  Every failure is
// shrunk and written as a self-contained repro file; committed repros
// under tests/fuzz/corpus/ are replayed forever.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline/region_engine.h"
#include "tests/fuzz/fuzz_harness.h"
#include "xml/dom.h"

namespace nok {
namespace fuzz {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return strtoull(value, nullptr, 10);
}

TEST(FuzzHarnessTest, GenerateCaseIsDeterministic) {
  const FuzzCase a = GenerateCase(123);
  const FuzzCase b = GenerateCase(123);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.xml, b.xml);
  EXPECT_EQ(a.queries, b.queries);
  const FuzzCase c = GenerateCase(124);
  EXPECT_NE(a.xml, c.xml);
}

// Some of the default sweep's documents have a root wider than the BP
// index's child-sample stride, so the sweep covers the sampled jumps.
TEST(FuzzHarnessTest, SomeCasesHaveWideRoots) {
  size_t wide = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzCase fuzz_case = GenerateCase(seed);
    auto dom = DomTree::Parse(fuzz_case.xml);
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    const size_t fanout = dom->root()->children.size();
    if (fanout <= 64) continue;
    ++wide;
    EXPECT_LE(fanout, 300u) << "seed " << seed;
  }
  EXPECT_GT(wide, 0u);
}

TEST(FuzzHarnessTest, ReproFormatRoundTrips) {
  ReproCase repro;
  repro.seed = 99;
  repro.engine = "region";
  repro.detail = "want {0.1} got {}";
  repro.query = "/parts/part[2]";
  repro.xml = "<parts><part/><part/></parts>";
  auto parsed = ParseRepro(FormatRepro(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, repro.seed);
  EXPECT_EQ(parsed->engine, repro.engine);
  EXPECT_EQ(parsed->detail, repro.detail);
  EXPECT_EQ(parsed->query, repro.query);
  EXPECT_EQ(parsed->xml, repro.xml);

  EXPECT_FALSE(ParseRepro("not a repro").ok());
  EXPECT_FALSE(ParseRepro("# nok-fuzz repro v1\n<xml/>").ok());
}

// The seeded sweep: every engine/strategy/knob combination must agree
// with the oracle on every generated (document, query) pair.
TEST(FuzzDifferentialTest, SeededSweep) {
  const uint64_t iterations = EnvOr("NOK_FUZZ_ITERATIONS", 60);
  const uint64_t seed_base = EnvOr("NOK_FUZZ_SEED", 1);
  for (uint64_t i = 0; i < iterations; ++i) {
    const FuzzCase fuzz_case = GenerateCase(seed_base + i);
    const auto mismatches = CheckCase(fuzz_case);
    if (mismatches.empty()) continue;

    const ReproCase repro = Shrink(fuzz_case, mismatches.front());
    const std::string path =
        "fuzz_repro_" + std::to_string(fuzz_case.seed) + ".repro";
    const Status written = WriteRepro(path, repro);
    FAIL() << "seed " << fuzz_case.seed << " (" << fuzz_case.name
           << "): engine " << repro.engine << " disagrees on \""
           << repro.query << "\": " << repro.detail << "\nshrunk repro "
           << (written.ok() ? "written to " + path
                            : "write failed: " + written.ToString())
           << "\nreplay: load the file with LoadRepro and run Replay, "
              "or re-run with NOK_FUZZ_SEED="
           << fuzz_case.seed << " NOK_FUZZ_ITERATIONS=1";
  }
}

// Committed repro files are permanent regression tests.
TEST(FuzzDifferentialTest, CorpusReplay) {
  const std::filesystem::path corpus(NOK_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(corpus)) << corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no .repro files under " << corpus;
  for (const auto& file : files) {
    auto repro = LoadRepro(file.string());
    ASSERT_TRUE(repro.ok()) << file << ": " << repro.status().ToString();
    const auto mismatches = Replay(*repro);
    for (const Mismatch& m : mismatches) {
      ADD_FAILURE() << file << ": engine " << m.engine << " on \""
                    << m.query << "\": " << m.detail;
    }
  }
}

// Mutation "tooth check": a deliberately broken engine variant must be
// caught within a bounded iteration budget, and the shrunk repro must
// replay.  The broken engine exists only in this fuzz target — it wraps
// the real region engine and drops the last match (a classic off-by-one
// harvest bug).
TEST(FuzzDifferentialTest, BrokenEngineCaught) {
  ExtraEngine broken;
  broken.name = "broken-region";
  broken.eval = [](const PatternTree& pattern,
                   const IntervalDocument& doc)
      -> Result<std::vector<uint32_t>> {
    RegionEngine region(&doc);
    auto r = region.Evaluate(pattern);
    if (!r.ok()) return r.status();
    std::vector<uint32_t> out = std::move(*r);
    if (!out.empty()) out.pop_back();
    return out;
  };

  const uint64_t budget = EnvOr("NOK_FUZZ_TOOTH_BUDGET", 40);
  for (uint64_t i = 0; i < budget; ++i) {
    const FuzzCase fuzz_case = GenerateCase(1000 + i);
    auto mismatches = CheckCase(fuzz_case, &broken);
    // The broken engine must be the only source of disagreement.
    for (const Mismatch& m : mismatches) {
      ASSERT_EQ(m.engine, "broken-region")
          << m.query << ": " << m.detail;
    }
    if (mismatches.empty()) continue;

    // Shrink and round-trip the repro; the mismatch must survive both.
    const ReproCase repro = Shrink(fuzz_case, mismatches.front(), &broken);
    EXPECT_FALSE(repro.xml.empty());
    EXPECT_LE(repro.xml.size(), fuzz_case.xml.size());
    auto parsed = ParseRepro(FormatRepro(repro));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto replayed = Replay(*parsed, &broken);
    ASSERT_FALSE(replayed.empty())
        << "shrunk repro no longer reproduces: " << repro.query;
    for (const Mismatch& m : replayed) {
      EXPECT_EQ(m.engine, "broken-region");
    }
    // Without the broken engine the repro must be clean.
    EXPECT_TRUE(Replay(*parsed).empty());
    return;  // Tooth check passed.
  }
  FAIL() << "broken engine survived " << budget
         << " fuzz iterations undetected";
}

}  // namespace
}  // namespace fuzz
}  // namespace nok
