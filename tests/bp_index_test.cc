#include "encoding/bp_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "tests/test_util.h"

namespace nok {
namespace {

// ---------------------------------------------------------------------
// Naive O(n) reference implementations over a parenthesis string.

uint64_t NaiveRank1(const std::string& parens, uint64_t pos) {
  uint64_t rank = 0;
  for (uint64_t i = 0; i < pos; ++i) {
    if (parens[i] == '(') ++rank;
  }
  return rank;
}

uint64_t NaiveSelect1(const std::string& parens, uint64_t rank) {
  uint64_t seen = 0;
  for (uint64_t i = 0; i < parens.size(); ++i) {
    if (parens[i] == '(' && seen++ == rank) return i;
  }
  return ~uint64_t{0};
}

int64_t NaiveExcess(const std::string& parens, uint64_t pos) {
  int64_t e = 0;
  for (uint64_t i = 0; i <= pos; ++i) {
    e += parens[i] == '(' ? 1 : -1;
  }
  return e;
}

uint64_t NaiveFindClose(const std::string& parens, uint64_t pos) {
  int64_t depth = 0;
  for (uint64_t i = pos; i < parens.size(); ++i) {
    depth += parens[i] == '(' ? 1 : -1;
    if (depth == 0) return i;
  }
  return ~uint64_t{0};
}

std::optional<uint64_t> NaiveEnclose(const std::string& parens,
                                     uint64_t pos) {
  int64_t depth = 0;
  for (uint64_t i = pos; i-- > 0;) {
    depth += parens[i] == '(' ? 1 : -1;
    if (parens[i] == '(' && depth > 0) return i;
  }
  return std::nullopt;
}

/// A random balanced parenthesis string with `nodes` node pairs: a
/// depth-bounded random walk that spends its opens with probability
/// proportional to the remaining budget.
std::string RandomParens(Random* rng, uint64_t nodes) {
  std::string out = "(";
  uint64_t opened = 1, closed = 0;
  int64_t depth = 1;
  while (out.size() < 2 * nodes) {
    const bool can_open = opened < nodes;
    // The root close is emitted last: never drop to depth 0 early.
    const bool can_close = depth > 1;
    if (can_open && (!can_close || rng->Uniform(2) == 0)) {
      out += '(';
      ++opened;
      ++depth;
    } else if (can_close) {
      out += ')';
      ++closed;
      --depth;
    } else {
      break;
    }
  }
  while (depth > 0) {
    out += ')';
    ++closed;
    --depth;
  }
  EXPECT_EQ(out.size(), 2 * opened);
  return out;
}

std::vector<TagId> RandomTags(Random* rng, uint64_t nodes, int pool) {
  std::vector<TagId> tags;
  tags.reserve(nodes);
  for (uint64_t i = 0; i < nodes; ++i) {
    tags.push_back(static_cast<TagId>(1 + rng->Uniform(
                                              static_cast<uint64_t>(pool))));
  }
  return tags;
}

// ---------------------------------------------------------------------
// Golden tests on a hand-built string.
//
//   pos:   0123456789
//   bits:  (()(()()))
//
// A root with two children; the second child has two leaf children.

std::unique_ptr<BpIndex> Golden() {
  auto bp = BpIndex::FromParens("(()(()()))", {10, 20, 30, 40, 50});
  EXPECT_TRUE(bp.ok()) << bp.status().ToString();
  return std::move(bp).ValueOrDie();
}

TEST(BpIndexTest, GoldenShape) {
  auto bp = Golden();
  EXPECT_EQ(bp->node_count(), 5u);
  EXPECT_EQ(bp->bit_count(), 10u);
  EXPECT_GT(bp->MemoryBytes(), 0u);
}

TEST(BpIndexTest, GoldenRankSelectExcess) {
  auto bp = Golden();
  EXPECT_TRUE(bp->IsOpen(0));
  EXPECT_FALSE(bp->IsOpen(2));
  EXPECT_EQ(bp->Rank1(0), 0u);
  EXPECT_EQ(bp->Rank1(4), 3u);
  EXPECT_EQ(bp->Rank1(10), 5u);
  EXPECT_EQ(bp->Select1(0), 0u);
  EXPECT_EQ(bp->Select1(1), 1u);
  EXPECT_EQ(bp->Select1(2), 3u);
  EXPECT_EQ(bp->Select1(3), 4u);
  EXPECT_EQ(bp->Select1(4), 6u);
  EXPECT_EQ(bp->Excess(0), 1);
  EXPECT_EQ(bp->Excess(3), 2);
  EXPECT_EQ(bp->Excess(4), 3);
  EXPECT_EQ(bp->Excess(9), 0);
}

TEST(BpIndexTest, GoldenFindCloseEnclose) {
  auto bp = Golden();
  EXPECT_EQ(bp->FindClose(0), 9u);
  EXPECT_EQ(bp->FindClose(1), 2u);
  EXPECT_EQ(bp->FindClose(3), 8u);
  EXPECT_EQ(bp->FindClose(4), 5u);
  EXPECT_EQ(bp->FindClose(6), 7u);
  EXPECT_FALSE(bp->Enclose(0).has_value());
  EXPECT_EQ(bp->Enclose(1), std::optional<uint64_t>(0));
  EXPECT_EQ(bp->Enclose(3), std::optional<uint64_t>(0));
  EXPECT_EQ(bp->Enclose(4), std::optional<uint64_t>(3));
  EXPECT_EQ(bp->Enclose(6), std::optional<uint64_t>(3));
}

TEST(BpIndexTest, GoldenTreeSteps) {
  auto bp = Golden();
  EXPECT_EQ(bp->Depth(0), 1);
  EXPECT_EQ(bp->Depth(4), 3);
  EXPECT_EQ(bp->FirstChild(0), std::optional<uint64_t>(1));
  EXPECT_FALSE(bp->FirstChild(1).has_value());
  EXPECT_EQ(bp->FirstChild(3), std::optional<uint64_t>(4));
  EXPECT_EQ(bp->FollowingSibling(1), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->FollowingSibling(3).has_value());
  EXPECT_EQ(bp->FollowingSibling(4), std::optional<uint64_t>(6));
  EXPECT_EQ(bp->Parent(4), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->Parent(0).has_value());
}

TEST(BpIndexTest, GoldenTagsAndFusedScan) {
  auto bp = Golden();
  EXPECT_EQ(bp->TagAt(0), 10);
  EXPECT_EQ(bp->TagAt(3), 30);
  EXPECT_EQ(bp->TagAt(6), 50);
  EXPECT_EQ(bp->TagAtRank(4), 50);
  uint64_t skipped = 0;
  // Starting *after* pos 0: the next node tagged 30 is at pos 3.
  EXPECT_EQ(bp->NextOpenWithTag(0, 30, &skipped),
            std::optional<uint64_t>(3));
  // No node after pos 3 carries tag 20.
  EXPECT_FALSE(bp->NextOpenWithTag(3, 20, &skipped).has_value());
  EXPECT_EQ(bp->NextOpen(0), std::optional<uint64_t>(1));
  EXPECT_EQ(bp->NextOpen(1), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->NextOpen(6).has_value());
}

TEST(BpIndexTest, RejectsUnbalancedParens) {
  EXPECT_FALSE(BpIndex::FromParens("(()", {}).ok());
  EXPECT_FALSE(BpIndex::FromParens("())(", {}).ok());
  EXPECT_FALSE(BpIndex::FromParens(")(", {}).ok());
}

// ---------------------------------------------------------------------
// Randomized cross-check against the naive references.  Sizes straddle
// the support-structure boundaries: sub-word, one word, many words (the
// segment tree and the select samples only matter past 64 bits / 64
// opens).  Seeded, so failures are bit-reproducible.

TEST(BpIndexTest, RandomizedMatchesNaiveReference) {
  Random rng(20260808);
  for (const uint64_t nodes : {1u, 3u, 17u, 64u, 65u, 333u, 2500u}) {
    for (int round = 0; round < 3; ++round) {
      const std::string parens = RandomParens(&rng, nodes);
      auto bp_or = BpIndex::FromParens(parens, RandomTags(&rng, nodes, 4));
      ASSERT_TRUE(bp_or.ok()) << bp_or.status().ToString();
      const BpIndex& bp = *bp_or.ValueOrDie();
      ASSERT_EQ(bp.node_count(), nodes);
      ASSERT_EQ(bp.bit_count(), parens.size());

      for (uint64_t pos = 0; pos < parens.size(); ++pos) {
        ASSERT_EQ(bp.IsOpen(pos), parens[pos] == '(')
            << "seedpos " << pos << " n=" << nodes;
        ASSERT_EQ(bp.Rank1(pos), NaiveRank1(parens, pos)) << pos;
        ASSERT_EQ(bp.Excess(pos), NaiveExcess(parens, pos)) << pos;
        if (parens[pos] == '(') {
          ASSERT_EQ(bp.FindClose(pos), NaiveFindClose(parens, pos)) << pos;
          ASSERT_EQ(bp.Enclose(pos), NaiveEnclose(parens, pos)) << pos;
        }
      }
      ASSERT_EQ(bp.Rank1(parens.size()), nodes);
      for (uint64_t rank = 0; rank < nodes; ++rank) {
        ASSERT_EQ(bp.Select1(rank), NaiveSelect1(parens, rank)) << rank;
      }
    }
  }
}

TEST(BpIndexTest, RandomizedFusedTagScanMatchesNaive) {
  Random rng(424242);
  const uint64_t nodes = 700;  // > 10 SWAR blocks.
  const std::string parens = RandomParens(&rng, nodes);
  // A rare tag (99) sprinkled over a common filler tag, so whole blocks
  // actually get skipped.
  std::vector<TagId> tags(nodes, 1);
  for (int i = 0; i < 5; ++i) {
    tags[rng.Uniform(nodes)] = 99;
  }
  auto bp_or = BpIndex::FromParens(parens, tags);
  ASSERT_TRUE(bp_or.ok());
  const BpIndex& bp = *bp_or.ValueOrDie();

  for (const TagId want : {TagId{99}, TagId{1}, TagId{7}}) {
    uint64_t pos = 0;
    uint64_t naive_rank = 1;
    for (;;) {
      uint64_t skipped = 0;
      const auto got = bp.NextOpenWithTag(pos, want, &skipped);
      // Naive: next open strictly after pos with the wanted tag.
      std::optional<uint64_t> expect;
      for (uint64_t r = naive_rank; r < nodes; ++r) {
        if (tags[r] == want) {
          expect = NaiveSelect1(parens, r);
          break;
        }
      }
      ASSERT_EQ(got, expect) << "tag " << want << " from " << pos;
      if (!got.has_value()) break;
      pos = *got;
      naive_rank = bp.Rank1(pos + 1);
    }
  }
}

// The subtree-bounded scan behind ScopedScan: from every node, with the
// node's FindClose as the bound, the hits are exactly the tag's nodes
// strictly inside the subtree, and every skipped block lies inside it
// (the last node of the document has an empty subtree).
TEST(BpIndexTest, BoundedTagScanStaysInsideTheSubtree) {
  Random rng(5150);
  const uint64_t nodes = 900;
  const std::string parens = RandomParens(&rng, nodes);
  std::vector<TagId> tags(nodes, 1);
  for (int i = 0; i < 12; ++i) tags[rng.Uniform(nodes)] = 99;
  for (int i = 0; i < 200; ++i) tags[rng.Uniform(nodes)] = 2;
  auto bp_or = BpIndex::FromParens(parens, tags);
  ASSERT_TRUE(bp_or.ok());
  const BpIndex& bp = *bp_or.ValueOrDie();

  uint64_t total_skipped = 0;
  for (uint64_t rank = 0; rank < nodes; ++rank) {
    const uint64_t source = bp.Select1(rank);
    const uint64_t close = bp.FindClose(source);
    const uint64_t inside = (close - source - 1) / 2;  // Strict descendants.
    for (const TagId want : {TagId{99}, TagId{2}, TagId{1}, TagId{7}}) {
      std::vector<uint64_t> expect;
      for (uint64_t r = rank + 1; r <= rank + inside; ++r) {
        if (tags[r] == want) expect.push_back(NaiveSelect1(parens, r));
      }
      std::vector<uint64_t> got;
      uint64_t skipped = 0;
      for (std::optional<uint64_t> pos = source;;) {
        pos = bp.NextOpenWithTag(*pos, want, &skipped, close);
        if (!pos.has_value()) break;
        got.push_back(*pos);
      }
      ASSERT_EQ(got, expect) << "node " << rank << " tag " << want;
      EXPECT_LE(skipped * 64, inside) << "skipped past node " << rank;
      total_skipped += skipped;
    }
  }
  EXPECT_GT(total_skipped, 0u) << "no block was ever skipped";
}

// ---------------------------------------------------------------------
// Sampled child jumps.

/// Open positions of the children of the node opening at `parent`.
std::vector<uint64_t> NaiveChildren(const std::string& parens,
                                    uint64_t parent) {
  std::vector<uint64_t> out;
  int64_t depth = 0;
  for (uint64_t i = parent + 1; i < parens.size(); ++i) {
    if (parens[i] == '(') {
      if (depth == 0) out.push_back(i);
      ++depth;
    } else if (depth-- == 0) {
      break;  // The parent's own close.
    }
  }
  return out;
}

/// A root with `fanout` children, child i holding i % 3 leaves, and —
/// so wide parents nest and their samples interleave — child 1 holding
/// `fanout` leaves of its own.
std::string WideParens(uint64_t fanout) {
  std::string out = "(";
  for (uint64_t i = 0; i < fanout; ++i) {
    out += '(';
    const uint64_t leaves = i == 1 ? fanout : i % 3;
    for (uint64_t j = 0; j < leaves; ++j) out += "()";
    out += ')';
  }
  return out + ")";
}

TEST(BpIndexTest, ChildJumpMatchesNaiveChildren) {
  constexpr uint64_t kRate = BpIndex::kChildSampleRate;
  for (const uint64_t fanout : {1u, 63u, 64u, 65u, 128u, 129u, 1000u}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    const std::string parens = WideParens(fanout);
    auto bp_or = BpIndex::FromParens(parens, {});
    ASSERT_TRUE(bp_or.ok()) << bp_or.status().ToString();
    const BpIndex& bp = *bp_or.ValueOrDie();

    uint64_t wide = 0, sampled = 0;
    for (uint64_t pos = 0; pos < parens.size(); ++pos) {
      if (parens[pos] != '(') continue;
      const std::vector<uint64_t> kids = NaiveChildren(parens, pos);
      const uint64_t degree = kids.size();
      if (degree > kRate) {
        ++wide;
        sampled += (degree - 1) / kRate;
      }
      for (uint64_t k = 0; k <= degree; ++k) {
        uint64_t child = 0;
        std::optional<uint64_t> at = bp.JumpToChild(pos, k, &child);
        if (at.has_value()) {
          EXPECT_GT(degree, kRate) << pos;
          EXPECT_EQ(child, std::min(k / kRate, (degree - 1) / kRate) * kRate);
          ASSERT_EQ(*at, kids[child]) << pos << " k=" << k;
        } else {
          EXPECT_TRUE(k < kRate || degree <= kRate) << pos << " k=" << k;
          at = bp.FirstChild(pos);
          child = 0;
        }
        while (at.has_value() && child < k) {
          at = bp.FollowingSibling(*at);
          ++child;
        }
        if (k == degree) {
          EXPECT_FALSE(at.has_value()) << pos << " k=" << k;
        } else {
          ASSERT_TRUE(at.has_value()) << pos << " k=" << k;
          EXPECT_EQ(*at, kids[k]) << pos << " k=" << k;
        }
      }
    }
    const BpIndex::ChildSamples& table = bp.child_samples();
    EXPECT_EQ(table.parents.size(), wide);
    EXPECT_EQ(table.samples.size(), sampled);
    EXPECT_TRUE(std::is_sorted(table.parents.begin(), table.parents.end()));
  }
}

TEST(BpIndexTest, ChildSamplesAreCounted) {
  const std::string parens = WideParens(1000);
  auto bp_or = BpIndex::FromParens(parens, {});
  ASSERT_TRUE(bp_or.ok());
  const BpIndex& bp = *bp_or.ValueOrDie();
  const BpIndex::ChildSamples& table = bp.child_samples();
  ASSERT_EQ(table.parents.size(), 2u);  // The root and its child 1.
  EXPECT_EQ(table.offsets.size(), 3u);
  EXPECT_EQ(table.samples.size(), 2 * (999u / 64));

  // Every other structure depends on the node count alone, so a chain of
  // the same size (no node wider than one child) differs by the table.
  const uint64_t nodes = parens.size() / 2;
  auto chain = BpIndex::FromParens(
      std::string(nodes, '(') + std::string(nodes, ')'), {});
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ((*chain)->child_samples().MemoryBytes(), 0u);
  EXPECT_EQ(table.MemoryBytes(),
            (table.parents.size() + table.offsets.size() +
             table.samples.size()) *
                sizeof(uint64_t));
  EXPECT_EQ(bp.MemoryBytes(), (*chain)->MemoryBytes() + table.MemoryBytes());
}

// ---------------------------------------------------------------------
// Tag probes: per-tag rank lists and child indexes.

/// A random tree as parentheses, depth-first: the first-child chain from
/// the root runs `spine` levels deep, a few nodes near the top take a
/// fanout of 64 to 1,000, and the rest take 0-2 children down to depth
/// 14.  Stops opening nodes at `max_nodes`.
std::string RandomWideDeepParens(Random* rng, uint64_t max_nodes,
                                 int spine) {
  std::string out;
  uint64_t nodes = 0;
  std::function<void(int, bool)> emit = [&](int depth, bool on_spine) {
    out += '(';
    ++nodes;
    uint64_t fanout = 0;
    if (depth <= 4 && rng->Uniform(8) == 0) {
      fanout = 64 + rng->Uniform(937);
    } else if (depth < 14) {
      fanout = rng->Uniform(3);
    }
    if (on_spine && depth < spine) fanout = std::max<uint64_t>(fanout, 1);
    for (uint64_t i = 0; i < fanout && nodes < max_nodes; ++i) {
      emit(depth + 1, on_spine && i == 0);
    }
    out += ')';
  };
  emit(1, true);
  return out;
}

/// The naive reference for one tag: open positions and Dewey IDs of its
/// nodes, by a preorder walk that counts each open node's children.
struct NaiveTagHits {
  std::vector<uint64_t> positions;
  std::vector<std::string> deweys;
};

std::map<TagId, NaiveTagHits> NaiveHitsByTag(const std::string& parens,
                                             const std::vector<TagId>& tags,
                                             std::vector<uint32_t>* child) {
  std::map<TagId, NaiveTagHits> out;
  std::vector<uint32_t> path;      // Child index of each open node.
  std::vector<uint32_t> children;  // Children seen so far, per open node.
  uint64_t rank = 0;
  for (uint64_t pos = 0; pos < parens.size(); ++pos) {
    if (parens[pos] == ')') {
      path.pop_back();
      children.pop_back();
      continue;
    }
    const uint32_t index = children.empty() ? 0 : children.back()++;
    path.push_back(index);
    children.push_back(0);
    child->push_back(index);
    std::string dewey;
    for (const uint32_t c : path) {
      if (!dewey.empty()) dewey += '.';
      dewey += std::to_string(c);
    }
    NaiveTagHits& hits = out[tags[rank++]];
    hits.positions.push_back(pos);
    hits.deweys.push_back(dewey);
  }
  return out;
}

TEST(BpIndexTest, TagProbesMatchANaivePreorderWalk) {
  Random rng(31337);
  uint64_t widest = 0;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string parens = RandomWideDeepParens(&rng, 20000, 10);
    const uint64_t nodes = parens.size() / 2;
    // Five common tags and a rare one (tag 6, about 1 node in 500).
    std::vector<TagId> tags = RandomTags(&rng, nodes, 5);
    for (TagId& tag : tags) {
      if (rng.Uniform(500) == 0) tag = 6;
    }
    auto bp_or = BpIndex::FromParens(parens, tags);
    ASSERT_TRUE(bp_or.ok()) << bp_or.status().ToString();
    const BpIndex& bp = *bp_or.ValueOrDie();

    int64_t depth = 0, max_depth = 0;
    for (const char c : parens) {
      depth += c == '(' ? 1 : -1;
      max_depth = std::max(max_depth, depth);
    }
    ASSERT_GE(max_depth, 8);
    std::vector<uint32_t> child;
    const std::map<TagId, NaiveTagHits> want =
        NaiveHitsByTag(parens, tags, &child);
    for (const uint32_t index : child) {
      widest = std::max<uint64_t>(widest, index + 1);
    }

    for (TagId tag = 0; tag <= 8; ++tag) {
      SCOPED_TRACE("tag " + std::to_string(tag));
      const auto it = want.find(tag);
      const NaiveTagHits none;
      const NaiveTagHits& expect = it == want.end() ? none : it->second;
      std::vector<uint64_t> positions;
      for (const uint32_t rank : bp.RanksWithTag(tag)) {
        positions.push_back(bp.Select1(rank));
      }
      EXPECT_EQ(positions, expect.positions);

      uint64_t steps = 0;
      std::vector<std::string> deweys;
      for (const DeweyId& id : bp.DeweysWithTag(tag, &steps)) {
        deweys.push_back(id.ToString());
      }
      ASSERT_EQ(deweys, expect.deweys);
      // One Select1 per hit, and at most one Enclose per level above it.
      EXPECT_GE(steps, expect.positions.size());
      EXPECT_LE(steps, expect.positions.size() * static_cast<uint64_t>(
                                                     max_depth));
    }
    // A TagId past every node's tag has no hits.
    uint64_t steps = 0;
    EXPECT_TRUE(bp.RanksWithTag(60000).empty());
    EXPECT_TRUE(bp.DeweysWithTag(60000, &steps).empty());
    EXPECT_EQ(steps, 0u);
  }
  EXPECT_GE(widest, 500u) << "no wide parent was generated";
}

// ---------------------------------------------------------------------
// Store-level: bp navigation must answer every query exactly like the
// paged tier.

TEST(BpIndexTest, BpModeMatchesPagedOnRandomDocuments) {
  Random rng(777);
  for (int doc = 0; doc < 6; ++doc) {
    testutil::RandomDocOptions doc_options;
    doc_options.max_nodes = 150;
    const std::string xml = testutil::RandomXml(&rng, doc_options);

    DocumentStore::Options paged_options;
    paged_options.page_size = 512;
    auto paged = DocumentStore::Build(xml, paged_options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    DocumentStore::Options bp_options = paged_options;
    bp_options.nav_mode = NavMode::kBp;
    auto bp = DocumentStore::Build(xml, bp_options);
    ASSERT_TRUE(bp.ok()) << bp.status().ToString();

    QueryEngine paged_engine(paged->get());
    QueryEngine bp_engine(bp->get());
    bool saw_results = false;
    for (int q = 0; q < 20; ++q) {
      const std::string query = testutil::RandomQuery(&rng, doc_options);
      auto want = paged_engine.Evaluate(query);
      auto got = bp_engine.Evaluate(query);
      ASSERT_EQ(want.ok(), got.ok())
          << query << ": " << want.status().ToString() << " vs "
          << got.status().ToString();
      if (!want.ok()) continue;
      ASSERT_EQ(*want, *got) << query;
      saw_results = saw_results || !want->empty();
    }
    // The bp store navigated through the BP tier (a doc whose random
    // queries all came up empty may legitimately skip navigation: the
    // path synopsis answers schema-impossible queries with no I/O).
    if (saw_results) {
      EXPECT_GT((*bp)->tree()->nav_stats().bp_steps, 0u);
    }
  }
}

}  // namespace
}  // namespace nok
