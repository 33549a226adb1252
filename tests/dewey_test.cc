#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/random.h"
#include "encoding/dewey.h"

namespace nok {
namespace {

TEST(DeweyTest, RootAndChildren) {
  const DeweyId root = DeweyId::Root();
  EXPECT_EQ(root.ToString(), "0");
  EXPECT_EQ(root.depth(), 1u);
  const DeweyId second_child = root.Child(2);
  EXPECT_EQ(second_child.ToString(), "0.2");  // Paper's Section 4.1 example.
  EXPECT_EQ(second_child.depth(), 2u);
}

TEST(DeweyTest, NextSiblingAdvancesInPlace) {
  DeweyId d({0, 3, 1});
  d.NextSibling();
  EXPECT_EQ(d.ToString(), "0.3.2");
  d.NextSibling();
  EXPECT_EQ(d.ToString(), "0.3.3");
  EXPECT_EQ(d.depth(), 3u);
  // Equivalent to rebuilding through the parent: d.Parent().Child(i+1).
  const DeweyId rebuilt = DeweyId({0, 3}).Child(4);
  d.NextSibling();
  EXPECT_EQ(d, rebuilt);
}

TEST(DeweyTest, ParentAndAncestor) {
  const DeweyId d({0, 3, 1, 4});
  EXPECT_EQ(d.Parent()->ToString(), "0.3.1");
  EXPECT_EQ(d.Ancestor(0)->ToString(), "0.3.1.4");
  EXPECT_EQ(d.Ancestor(2)->ToString(), "0.3");
  EXPECT_EQ(d.Ancestor(3)->ToString(), "0");
  EXPECT_FALSE(d.Ancestor(4).has_value());
  EXPECT_FALSE(DeweyId::Root().Parent().has_value());
}

TEST(DeweyTest, AncestorshipIsProperPrefix) {
  const DeweyId a({0, 1});
  const DeweyId b({0, 1, 2});
  const DeweyId c({0, 12});
  EXPECT_TRUE(a.IsAncestorOf(b));
  EXPECT_FALSE(b.IsAncestorOf(a));
  EXPECT_FALSE(a.IsAncestorOf(a));
  EXPECT_FALSE(a.IsAncestorOf(c));  // 0.1 vs 0.12: not a component prefix.
}

TEST(DeweyTest, CompareIsDocumentOrder) {
  const DeweyId a({0, 1});
  const DeweyId b({0, 1, 0});
  const DeweyId c({0, 2});
  EXPECT_LT(a.Compare(b), 0);  // Ancestor before descendant.
  EXPECT_LT(b.Compare(c), 0);
  EXPECT_EQ(a.Compare(a), 0);
  EXPECT_GT(c.Compare(a), 0);
}

TEST(DeweyTest, EncodeDecodeRoundTrip) {
  const DeweyId d({0, 70000, 3});
  auto decoded = DeweyId::Decode(Slice(d.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, d);
}

TEST(DeweyTest, DecodeRejectsBadLengths) {
  EXPECT_FALSE(DeweyId::Decode(Slice("")).ok());
  EXPECT_FALSE(DeweyId::Decode(Slice("abc")).ok());
  EXPECT_FALSE(DeweyId::Decode(Slice("abcde")).ok());
}

TEST(DeweyTest, EncodingPreservesOrderProperty) {
  // Byte-wise order of encodings == document order, for random IDs.
  Random rng(3);
  std::vector<DeweyId> ids;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint32_t> c{0};
    const size_t depth = rng.Range(0, 5);
    for (size_t d = 0; d < depth; ++d) {
      c.push_back(static_cast<uint32_t>(rng.Uniform(70000)));
    }
    ids.emplace_back(std::move(c));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      const int logical = ids[i].Compare(ids[j]);
      const int bytes = Slice(ids[i].Encode()).compare(
          Slice(ids[j].Encode()));
      EXPECT_EQ(logical < 0, bytes < 0);
      EXPECT_EQ(logical == 0, bytes == 0);
    }
  }
}

TEST(DeweyTest, PrefixEncodingMatchesAncestor) {
  Random rng(4);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint32_t> c{0};
    const size_t depth = rng.Range(1, 5);
    for (size_t d = 0; d < depth; ++d) {
      c.push_back(static_cast<uint32_t>(rng.Uniform(1000)));
    }
    DeweyId child(c);
    DeweyId parent = *child.Parent();
    EXPECT_TRUE(parent.IsAncestorOf(child));
    EXPECT_TRUE(Slice(child.Encode()).starts_with(Slice(parent.Encode())));
  }
}

TEST(DeweyTest, CounterDerivesIdsFromPreorderLevels) {
  // <r><a><x/><y/></a><b><z/></b><c/></r> visited in document order.
  const size_t levels[] = {1, 2, 3, 3, 2, 3, 2};
  const char* const want[] = {"0",   "0.0",   "0.0.0", "0.0.1",
                              "0.1", "0.1.0", "0.2"};
  DeweyCounter counter;
  for (size_t i = 0; i < std::size(levels); ++i) {
    EXPECT_EQ(DeweyId(counter.Next(levels[i])).ToString(), want[i]) << i;
  }
}

}  // namespace
}  // namespace nok
