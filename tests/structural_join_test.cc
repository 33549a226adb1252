#include <gtest/gtest.h>

#include "common/random.h"
#include "nok/structural_join.h"

namespace nok {
namespace {

NodeMatch M(std::vector<uint32_t> dewey) {
  NodeMatch m;
  m.dewey = DeweyId(std::move(dewey));
  return m;
}

NodeMatch Virtual() {
  NodeMatch m;
  m.virtual_root = true;
  return m;
}

TEST(StructuralJoinTest, IsRelatedDescendant) {
  EXPECT_TRUE(IsRelated(M({0, 1}), M({0, 1, 2}), Axis::kDescendant));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 1}), Axis::kDescendant));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 2, 1}), Axis::kDescendant));
  EXPECT_TRUE(IsRelated(Virtual(), M({0}), Axis::kDescendant));
}

TEST(StructuralJoinTest, IsRelatedFollowing) {
  // After in document order and not a descendant.
  EXPECT_TRUE(IsRelated(M({0, 1}), M({0, 2}), Axis::kFollowing));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 1, 0}), Axis::kFollowing));
  EXPECT_FALSE(IsRelated(M({0, 2}), M({0, 1}), Axis::kFollowing));
  EXPECT_FALSE(IsRelated(Virtual(), M({0, 1}), Axis::kFollowing));
}

TEST(StructuralJoinTest, IsRelatedPreceding) {
  // Before in document order and not an ancestor.
  EXPECT_TRUE(IsRelated(M({0, 2}), M({0, 1, 5}), Axis::kPreceding));
  EXPECT_FALSE(IsRelated(M({0, 1, 0}), M({0, 1}), Axis::kPreceding));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 2}), Axis::kPreceding));
  EXPECT_FALSE(IsRelated(Virtual(), M({0, 1}), Axis::kPreceding));
}

TEST(StructuralJoinTest, SortUniqueOrdersAndDedupes) {
  std::vector<NodeMatch> v{M({0, 2}), M({0, 1}), M({0, 1}), M({0, 1, 5})};
  SortUnique(&v);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].dewey.ToString(), "0.1");
  EXPECT_EQ(v[1].dewey.ToString(), "0.1.5");
  EXPECT_EQ(v[2].dewey.ToString(), "0.2");
}

TEST(StructuralJoinTest, KeepOutermostDropsNestedMatches) {
  std::vector<NodeMatch> v{M({0, 1}), M({0, 1, 0}), M({0, 1, 2, 3}),
                           M({0, 2}), M({0, 3}), M({0, 3, 0})};
  KeepOutermost(&v);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].dewey.ToString(), "0.1");
  EXPECT_EQ(v[1].dewey.ToString(), "0.2");
  EXPECT_EQ(v[2].dewey.ToString(), "0.3");
}

TEST(StructuralJoinTest, HasRelatedOuterNestedOuters) {
  // The nearest outer before 0.1.7 (0.1.5.2) is no ancestor, but an
  // earlier one (0.1) is: the descendant search needs outermost outers.
  std::vector<NodeMatch> outers{M({0, 1}), M({0, 1, 5, 2})};
  for (uint32_t i = 2; i < 10; ++i) outers.push_back(M({0, i, 0}));
  KeepOutermost(&outers);
  EXPECT_TRUE(HasRelatedOuter(outers, M({0, 1, 7}), Axis::kDescendant));
  EXPECT_FALSE(HasRelatedOuter(outers, M({0, 2}), Axis::kDescendant));
  EXPECT_TRUE(HasRelatedOuter(outers, M({0, 9, 0, 4}), Axis::kDescendant));
  EXPECT_FALSE(HasRelatedOuter(outers, M({0, 0, 3}), Axis::kDescendant));
}

TEST(StructuralJoinTest, VirtualOuter) {
  const std::vector<NodeMatch> outers{Virtual()};
  EXPECT_TRUE(HasRelatedOuter(outers, M({0, 4}), Axis::kDescendant));
  EXPECT_FALSE(HasRelatedOuter(outers, M({0, 4}), Axis::kFollowing));
  EXPECT_FALSE(HasRelatedOuter(outers, M({0, 4}), Axis::kPreceding));
  const std::vector<NodeMatch> inners{M({0}), M({0, 4})};
  EXPECT_TRUE(HasRelatedInner(Virtual(), inners, Axis::kDescendant));
  EXPECT_FALSE(HasRelatedInner(Virtual(), inners, Axis::kFollowing));
  EXPECT_FALSE(HasRelatedInner(Virtual(), inners, Axis::kPreceding));
  // As an inner the virtual root is related to nothing.
  for (Axis axis : {Axis::kDescendant, Axis::kFollowing, Axis::kPreceding}) {
    EXPECT_FALSE(IsRelated(Virtual(), Virtual(), axis));
    EXPECT_FALSE(HasRelatedInner(Virtual(), {Virtual()}, axis));
    EXPECT_FALSE(HasRelatedInner(M({0, 4}), {Virtual()}, axis));
  }
}

TEST(StructuralJoinTest, EmptyInputs) {
  for (Axis axis : {Axis::kDescendant, Axis::kFollowing, Axis::kPreceding}) {
    EXPECT_FALSE(HasRelatedInner(M({0}), {}, axis));
    EXPECT_FALSE(HasRelatedOuter({}, M({0, 1}), axis));
    EXPECT_FALSE(HasRelatedInner(Virtual(), {}, axis));
  }
}

// Property: the sorted-list searches agree with a brute-force IsRelated
// loop, on every global axis, with and without a virtual-root outer
// (alone or first in a longer list).
class JoinFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzz, AgreesWithQuadraticReference) {
  Random rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    auto random_matches = [&](size_t n) {
      std::vector<NodeMatch> out;
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint32_t> c{0};
        const size_t depth = rng.Range(0, 3);
        for (size_t d = 0; d < depth; ++d) {
          c.push_back(static_cast<uint32_t>(rng.Uniform(4)));
        }
        out.push_back(M(std::move(c)));
      }
      SortUnique(&out);
      return out;
    };
    std::vector<NodeMatch> outers = random_matches(rng.Range(0, 24));
    if (rng.Bernoulli(0.1)) {
      outers = {Virtual()};
    } else if (rng.Bernoulli(0.1)) {
      outers.insert(outers.begin(), Virtual());
    }
    // The descendant search takes outermost outers; the reference loop
    // runs over all of them.
    std::vector<NodeMatch> outermost_outers = outers;
    KeepOutermost(&outermost_outers);
    const std::vector<NodeMatch> inners = random_matches(rng.Range(0, 24));
    for (Axis axis : {Axis::kDescendant, Axis::kFollowing, Axis::kPreceding}) {
      const std::vector<NodeMatch>& searched =
          axis == Axis::kDescendant ? outermost_outers : outers;
      for (const NodeMatch& inner : inners) {
        bool any = false;
        for (const NodeMatch& outer : outers) {
          any = any || IsRelated(outer, inner, axis);
        }
        EXPECT_EQ(HasRelatedOuter(searched, inner, axis), any)
            << inner.dewey.ToString() << " axis " << AxisName(axis);
      }
      for (const NodeMatch& outer : outers) {
        bool any = false;
        for (const NodeMatch& inner : inners) {
          any = any || IsRelated(outer, inner, axis);
        }
        EXPECT_EQ(HasRelatedInner(outer, inners, axis), any)
            << (outer.virtual_root ? "(virtual)" : outer.dewey.ToString())
            << " axis " << AxisName(axis);
      }
    }
    // KeepOutermost keeps exactly the inners no other inner contains.
    std::vector<NodeMatch> outermost = inners;
    KeepOutermost(&outermost);
    std::vector<std::string> want;
    for (const NodeMatch& inner : inners) {
      bool nested = false;
      for (const NodeMatch& other : inners) {
        nested = nested || IsRelated(other, inner, Axis::kDescendant);
      }
      if (!nested) want.push_back(inner.dewey.ToString());
    }
    std::vector<std::string> got;
    for (const NodeMatch& m : outermost) got.push_back(m.dewey.ToString());
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzz, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace nok
