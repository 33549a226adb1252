#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "btree/node.h"
#include "common/coding.h"
#include "common/random.h"
#include "storage/file.h"

namespace nok {
namespace {

std::unique_ptr<BTree> MakeTree(uint32_t page_size = 512) {
  BTree::Options options;
  options.page_size = page_size;
  options.pool_frames = 32;
  auto r = BTree::Open(NewMemFile(), options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

TEST(BTreeTest, EmptyTree) {
  auto tree = MakeTree();
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_TRUE(tree->Get(Slice("nope")).status().IsNotFound());
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, InsertGetSingle) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(Slice("k"), Slice("v")).ok());
  auto got = tree->Get(Slice("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  EXPECT_EQ(tree->num_entries(), 1u);
}

/// The order a test inserts its keys in.
enum class InsertOrder {
  kAscending,  ///< Build's pattern: every index is loaded as a sorted run.
  kStrided,    ///< A fixed permutation (i * 7919 mod n).
  kShuffled,   ///< A seeded random permutation.
};

/// Fraction of the leaf pages' bytes that live cells, slots and headers
/// use, over every leaf of the tree.
double LeafFill(BTree* tree, uint32_t page_size) {
  const uint64_t pages = tree->SizeBytes() / (page_size + kPageTrailerSize);
  uint64_t used = 0, leaves = 0;
  for (PageId id = 1; id < pages; ++id) {  // Page 0 is the meta page.
    auto handle = tree->buffer_pool()->Fetch(id);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    if (!handle.ok()) return 0;
    NodeRef node(handle->mutable_data(), page_size);
    if (!node.is_leaf()) continue;
    used += node.UsedBytes();
    ++leaves;
  }
  return leaves == 0 ? 0
                     : static_cast<double>(used) /
                           static_cast<double>(leaves * page_size);
}

class BTreeInsertOrderTest : public ::testing::TestWithParam<InsertOrder> {};

TEST_P(BTreeInsertOrderTest, ManyInsertsWithSplitsStaySorted) {
  auto tree = MakeTree(512);  // Small pages: force deep splits.
  constexpr int kKeys = 2000;
  std::vector<int> order(kKeys);
  for (int i = 0; i < kKeys; ++i) order[static_cast<size_t>(i)] = i;
  if (GetParam() == InsertOrder::kStrided) {
    for (int i = 0; i < kKeys; ++i) {
      order[static_cast<size_t>(i)] = (i * 7919) % kKeys;
    }
  } else if (GetParam() == InsertOrder::kShuffled) {
    Random rng(42);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
  }
  std::map<std::string, std::string> expected;
  for (const int k : order) {
    // Zero-padded, so byte order is numeric order.
    char key[16];
    snprintf(key, sizeof(key), "key%05d", k);
    const std::string value = "value" + std::to_string(k);
    ASSERT_TRUE(expected.emplace(key, value).second);
    ASSERT_TRUE(tree->Insert(Slice(key), Slice(value)).ok());
  }
  EXPECT_EQ(tree->num_entries(), expected.size());

  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().ToString(), key);
    EXPECT_EQ(it.value().ToString(), value);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
  // Every leaf is as deep as every other, and no separator equals a
  // stored key, so each lookup fetches the same root-to-leaf path length
  // and never steps across to a sibling leaf.
  uint64_t path_fetches = 0;
  for (const auto& [key, value] : expected) {
    const uint64_t before = tree->buffer_pool()->stats().fetches;
    auto got = tree->Get(Slice(key));
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value);
    const uint64_t fetches = tree->buffer_pool()->stats().fetches - before;
    if (path_fetches == 0) path_fetches = fetches;
    EXPECT_EQ(fetches, path_fetches) << key;
  }
  EXPECT_GE(path_fetches, 3u);  // 2,000 keys in 512-byte pages.

  // The append split keeps a sorted run's leaves full; other orders split
  // at the middle and leave room behind.
  const double fill = LeafFill(tree.get(), 512);
  if (GetParam() == InsertOrder::kAscending) {
    EXPECT_GE(fill, 0.9);
  } else {
    EXPECT_GT(fill, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, BTreeInsertOrderTest,
    ::testing::Values(InsertOrder::kAscending, InsertOrder::kStrided,
                      InsertOrder::kShuffled),
    [](const auto& test) {
      switch (test.param) {
        case InsertOrder::kAscending: return std::string("Ascending");
        case InsertOrder::kStrided: return std::string("Strided");
        case InsertOrder::kShuffled: return std::string("Shuffled");
      }
      return std::string();
    });

TEST(BTreeTest, DuplicateKeysAllEnumerable) {
  auto tree = MakeTree();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tree->Insert(Slice("dup"), Slice("v" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(tree->Insert(Slice("dup0"), Slice("after")).ok());
  ASSERT_TRUE(tree->Insert(Slice("du"), Slice("before")).ok());

  auto it = tree->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("dup")).ok());
  std::multiset<std::string> values;
  while (it.Valid() && it.key() == Slice("dup")) {
    values.insert(it.value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(values.size(), 50u);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "dup0");
}

TEST(BTreeTest, DuplicatesSpanningManyLeaves) {
  auto tree = MakeTree(512);
  const std::string big(100, 'x');
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->Insert(Slice("samekey"), Slice(big)).ok());
  }
  // A smaller key inserted later must still be found first.
  ASSERT_TRUE(tree->Insert(Slice("aaa"), Slice("first")).ok());
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "aaa");

  size_t count = 0;
  ASSERT_TRUE(it.Seek(Slice("samekey")).ok());
  while (it.Valid() && it.key() == Slice("samekey")) {
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 500u);
}

TEST(BTreeTest, SeekLowerBoundSemantics) {
  auto tree = MakeTree();
  for (int i = 0; i < 100; i += 2) {
    char key[8];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(tree->Insert(Slice(key), Slice("v")).ok());
  }
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("k005")).ok());  // Absent: lower bound k006.
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k006");
  ASSERT_TRUE(it.Seek(Slice("k098")).ok());
  EXPECT_EQ(it.key().ToString(), "k098");
  ASSERT_TRUE(it.Seek(Slice("k099")).ok());
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, DeleteFirstMatchOnly) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(tree->Insert(Slice("k"), Slice("v2")).ok());
  auto deleted = tree->Delete(Slice("k"));
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(*deleted);
  EXPECT_EQ(tree->num_entries(), 1u);
  auto missing = tree->Delete(Slice("zz"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
}

TEST(BTreeTest, OversizedEntryRejected) {
  auto tree = MakeTree(512);
  std::string big(400, 'x');
  EXPECT_TRUE(tree->Insert(Slice("k"), Slice(big)).IsInvalidArgument());
}

TEST(BTreeTest, PersistsAcrossReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("nokxml_btree_reopen_" + std::to_string(::getpid())))
          .string();
  NOK_IGNORE_STATUS(RemoveFile(path), "pre-test scratch cleanup");
  {
    auto file = OpenPosixFile(path, /*create=*/true);
    ASSERT_TRUE(file.ok());
    auto tree_r = BTree::Open(std::move(file).ValueOrDie());
    ASSERT_TRUE(tree_r.ok());
    auto& tree = *tree_r;
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree->Insert(Slice("key" + std::to_string(i)),
                               Slice("value" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  {
    auto file = OpenPosixFile(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto tree_r = BTree::Open(std::move(file).ValueOrDie());
    ASSERT_TRUE(tree_r.ok());
    auto& tree = *tree_r;
    EXPECT_EQ(tree->num_entries(), 500u);
    for (int i = 0; i < 500; i += 37) {
      auto got = tree->Get(Slice("key" + std::to_string(i)));
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(*got, "value" + std::to_string(i));
    }
  }
  NOK_IGNORE_STATUS(RemoveFile(path), "best-effort teardown cleanup");
}

// Property test: random interleaved inserts/deletes against a multimap.
class BTreeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzz, MatchesMultimapOracle) {
  Random rng(GetParam());
  auto tree = MakeTree(512);
  std::multimap<std::string, std::string> oracle;

  for (int op = 0; op < 3000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(200));
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Uniform(1000));
      ASSERT_TRUE(tree->Insert(Slice(key), Slice(value)).ok());
      oracle.emplace(key, value);
    } else {
      // Delete removes the tree-order-first entry; learn which value that
      // is via Get (same positioning rule) so the oracle can mirror it.
      auto head = tree->Get(Slice(key));
      auto deleted = tree->Delete(Slice(key));
      ASSERT_TRUE(deleted.ok());
      EXPECT_EQ(*deleted, head.ok());
      if (head.ok()) {
        auto range = oracle.equal_range(key);
        auto it = range.first;
        while (it != range.second && it->second != *head) ++it;
        ASSERT_NE(it, range.second);
        oracle.erase(it);
      }
    }
  }
  EXPECT_EQ(tree->num_entries(), oracle.size());

  // Full scan must agree on the key sequence and per-key value multisets.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::multimap<std::string, std::string> scanned;
  std::string prev;
  while (it.Valid()) {
    const std::string key = it.key().ToString();
    EXPECT_LE(prev, key);
    prev = key;
    scanned.emplace(key, it.value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  ASSERT_EQ(scanned.size(), oracle.size());
  for (auto it1 = oracle.begin(), it2 = scanned.begin();
       it1 != oracle.end(); ++it1, ++it2) {
    EXPECT_EQ(it1->first, it2->first);
  }
  // Values per key as multisets.
  for (auto iter = oracle.begin(); iter != oracle.end();) {
    const std::string key = iter->first;
    std::multiset<std::string> want, got;
    for (; iter != oracle.end() && iter->first == key; ++iter) {
      want.insert(iter->second);
    }
    auto range = scanned.equal_range(key);
    for (auto s = range.first; s != range.second; ++s) {
      got.insert(s->second);
    }
    EXPECT_EQ(want, got) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Node-level (slotted page) tests.

#include "btree/node.h"

namespace nok {
namespace {

TEST(BTreeNodeTest, LeafInsertKeepsSortedSlots) {
  std::vector<char> page(512);
  NodeRef node(page.data(), 512);
  node.Init(NodeType::kLeaf);
  EXPECT_TRUE(node.is_leaf());
  EXPECT_EQ(node.nkeys(), 0);

  node.InsertLeafCell(0, Slice("m"), Slice("1"));
  node.InsertLeafCell(0, Slice("a"), Slice("2"));
  node.InsertLeafCell(2, Slice("z"), Slice("3"));
  ASSERT_EQ(node.nkeys(), 3);
  EXPECT_EQ(node.KeyAt(0).ToString(), "a");
  EXPECT_EQ(node.KeyAt(1).ToString(), "m");
  EXPECT_EQ(node.KeyAt(2).ToString(), "z");
  EXPECT_EQ(node.ValueAt(1).ToString(), "1");
  EXPECT_EQ(node.LowerBound(Slice("m")), 1);
  EXPECT_EQ(node.UpperBound(Slice("m")), 2);
  EXPECT_EQ(node.LowerBound(Slice("zz")), 3);
}

TEST(BTreeNodeTest, RemoveReclaimsCellBytesAtOnce) {
  std::vector<char> page(256);
  NodeRef node(page.data(), 256);
  node.Init(NodeType::kLeaf);
  for (int i = 0; i < 5; ++i) {
    node.InsertLeafCell(static_cast<uint16_t>(i),
                        Slice("key" + std::to_string(i)),
                        Slice(std::string(20, static_cast<char>('a' + i))));
  }
  const uint32_t free_full = node.FreeSpace();
  node.RemoveCell(2);
  EXPECT_EQ(node.nkeys(), 4);
  // No fragmentation: the cell's bytes are contiguous free space already.
  EXPECT_EQ(node.FreeSpace(), node.FreeSpaceAfterCompact());
  EXPECT_EQ(node.FreeSpace(),
            free_full + NodeRef::LeafCellSize(Slice("key2"),
                                              Slice(std::string(20, 'c'))));
  const int kept[] = {0, 1, 3, 4};
  for (uint16_t i = 0; i < 4; ++i) {
    EXPECT_EQ(node.KeyAt(i).ToString(), "key" + std::to_string(kept[i]));
    EXPECT_EQ(node.ValueAt(i).ToString(),
              std::string(20, static_cast<char>('a' + kept[i])));
  }
}

TEST(BTreeNodeTest, CompactReclaimsFragmentationLeftInAPage) {
  // A page written before RemoveCell closed holes may carry dead cell
  // bytes.  Make one by hand: drop slot 2 and count its cell as
  // fragmentation, as that writer did.
  std::vector<char> page(256);
  NodeRef node(page.data(), 256);
  node.Init(NodeType::kLeaf);
  for (int i = 0; i < 5; ++i) {
    node.InsertLeafCell(static_cast<uint16_t>(i),
                        Slice("key" + std::to_string(i)),
                        Slice(std::string(20, 'v')));
  }
  const uint32_t dead =
      NodeRef::LeafCellSize(Slice("key2"), Slice(std::string(20, 'v'))) - 2;
  memmove(page.data() + 12 + 4, page.data() + 12 + 6, 4);  // Slots 3, 4.
  EncodeFixed16(page.data() + 2, 4);                       // nkeys
  EncodeFixed16(page.data() + 6, static_cast<uint16_t>(dead));  // frag
  EXPECT_EQ(node.FreeSpaceAfterCompact(), node.FreeSpace() + dead);
  const uint32_t free_after = node.FreeSpaceAfterCompact();
  node.Compact();
  EXPECT_EQ(node.FreeSpace(), free_after);
  EXPECT_EQ(node.FreeSpace(), node.FreeSpaceAfterCompact());
  EXPECT_EQ(node.KeyAt(2).ToString(), "key3");
  EXPECT_EQ(node.KeyAt(3).ToString(), "key4");
}

TEST(BTreeNodeTest, InternalCellsCarryChildren) {
  std::vector<char> page(512);
  NodeRef node(page.data(), 512);
  node.Init(NodeType::kInternal);
  node.set_leftmost_child(7);
  node.InsertInternalCell(0, Slice("k"), 9);
  node.InsertInternalCell(1, Slice("p"), 11);
  EXPECT_EQ(node.leftmost_child(), 7u);
  EXPECT_EQ(node.ChildAt(0), 9u);
  EXPECT_EQ(node.ChildAt(1), 11u);
  node.SetChildAt(0, 42);
  EXPECT_EQ(node.ChildAt(0), 42u);
  EXPECT_EQ(node.KeyAt(0).ToString(), "k");
}

TEST(BTreeNodeTest, InsertIntoFragmentedPageAutoCompacts) {
  std::vector<char> page(128);
  NodeRef node(page.data(), 128);
  node.Init(NodeType::kLeaf);
  // Fill, then churn: delete + insert repeatedly so fragmentation would
  // overflow the page if Compact never ran.
  for (int round = 0; round < 30; ++round) {
    while (node.FreeSpaceAfterCompact() >=
           NodeRef::LeafCellSize(Slice("key"), Slice("valueXX"))) {
      node.InsertLeafCell(node.nkeys(), Slice("key"), Slice("valueXX"));
    }
    while (node.nkeys() > 1) node.RemoveCell(0);
  }
  EXPECT_GE(node.nkeys(), 1);
}

}  // namespace
}  // namespace nok
