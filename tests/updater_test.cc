#include <gtest/gtest.h>

#include <functional>

#include "common/random.h"
#include "encoding/document_store.h"
#include "encoding/updater.h"
#include "nok/query_engine.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace nok {
namespace {

/// Verifies that the store's structure, values and indexes exactly match
/// the given DOM.
void ExpectStoreMatchesDom(DocumentStore* store, const DomTree& dom) {
  ASSERT_EQ(store->stats().node_count, dom.node_count());
  // Lockstep DFS over structure + values.
  std::function<void(const DomNode*, StorePos)> verify =
      [&](const DomNode* node, StorePos pos) {
        auto tag = store->tree()->TagAt(pos);
        ASSERT_TRUE(tag.ok());
        EXPECT_EQ(store->tags()->Name(*tag), node->name);
        const DeweyId id = DomDewey(node);
        auto value = store->ValueOf(id);
        ASSERT_TRUE(value.ok()) << id.ToString();
        if (node->value.empty()) {
          EXPECT_FALSE(value->has_value()) << id.ToString();
        } else {
          ASSERT_TRUE(value->has_value()) << id.ToString();
          EXPECT_EQ(**value, node->value) << id.ToString();
        }
        // Children.
        auto child = store->tree()->FirstChild(pos);
        ASSERT_TRUE(child.ok());
        size_t index = 0;
        std::optional<StorePos> current = *child;
        while (current.has_value()) {
          ASSERT_LT(index, node->children.size()) << id.ToString();
          verify(node->children[index].get(), *current);
          auto sib = store->tree()->FollowingSibling(*current);
          ASSERT_TRUE(sib.ok());
          current = *sib;
          ++index;
        }
        EXPECT_EQ(index, node->children.size()) << id.ToString();
      };
  verify(dom.root(), store->tree()->RootPos());

  // Index integrity: every node locatable via B+t with the right dewey.
  ForEachNode(dom.root(), [&](const DomNode* node) {
    auto tag = store->tags()->Lookup(node->name);
    ASSERT_TRUE(tag.has_value());
    auto nodes = store->NodesWithTag(*tag);
    ASSERT_TRUE(nodes.ok());
    const DeweyId id = DomDewey(node);
    auto has_dewey = [&](const auto& list) {
      for (const auto& entry : list) {
        if (entry.dewey == id) return true;
      }
      return false;
    };
    EXPECT_TRUE(has_dewey(*nodes)) << "B+t lost " << id.ToString();
    if (!node->value.empty()) {
      auto with_value = store->NodesWithValue(Slice(node->value));
      ASSERT_TRUE(with_value.ok());
      EXPECT_TRUE(has_dewey(*with_value)) << "B+v lost " << id.ToString();
    }
  });
}

/// Applies the same insertion to a DOM tree (parent found by Dewey ID).
void DomInsert(DomTree* dom, const DeweyId& parent, uint32_t index,
               const std::string& fragment) {
  auto frag = DomTree::Parse(fragment);
  ASSERT_TRUE(frag.ok());
  DomNode* node = dom->mutable_root();
  const auto& c = parent.components();
  for (size_t i = 1; i < c.size(); ++i) {
    node = node->children[c[i]].get();
  }
  // Deep-move the fragment root in.
  auto detach = [&](DomTree&& t) {
    // Re-parse to get a fresh owning node (DomTree keeps its root).
    auto again = DomTree::Parse(SerializeTree(t));
    EXPECT_TRUE(again.ok());
    return again;
  };
  auto owned = detach(std::move(*frag));
  ASSERT_TRUE(owned.ok());
  // Steal the root out of the re-parsed tree via serialization into a
  // plain recursive copy.
  std::function<std::unique_ptr<DomNode>(const DomNode*)> clone =
      [&](const DomNode* src) {
        auto copy = std::make_unique<DomNode>();
        copy->name = src->name;
        copy->value = src->value;
        for (const auto& child : src->children) {
          auto c2 = clone(child.get());
          c2->parent = copy.get();
          copy->children.push_back(std::move(c2));
        }
        return copy;
      };
  auto fresh = clone(owned->root());
  fresh->parent = node;
  node->children.insert(
      node->children.begin() + static_cast<long>(index), std::move(fresh));
  dom->Renumber();
}

void DomDelete(DomTree* dom, const DeweyId& target) {
  DomNode* node = dom->mutable_root();
  const auto& c = target.components();
  for (size_t i = 1; i + 1 < c.size(); ++i) {
    node = node->children[c[i]].get();
  }
  node->children.erase(node->children.begin() +
                       static_cast<long>(c.back()));
  dom->Renumber();
}

constexpr const char* kBase =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP</title><price>65.95</price></book>"
    "<book year=\"2000\"><title>Web</title><price>39.95</price></book>"
    "</bib>";

TEST(UpdaterTest, InsertLeafSubtreeInPlace) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());

  const std::string frag = "<publisher>AW</publisher>";
  ASSERT_TRUE(store->InsertSubtree(DeweyId({0, 0}), 2, frag).ok());
  DomInsert(&*dom, DeweyId({0, 0}), 2, frag);
  ExpectStoreMatchesDom(store.get(), *dom);
}

TEST(UpdaterTest, InsertAtEveryPosition) {
  for (uint32_t position = 0; position <= 3; ++position) {
    auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
    ASSERT_TRUE(store_r.ok());
    auto& store = *store_r;
    auto dom = DomTree::Parse(kBase);
    ASSERT_TRUE(dom.ok());
    const std::string frag =
        "<note lang=\"en\"><p>first</p><p>second</p></note>";
    ASSERT_TRUE(
        store->InsertSubtree(DeweyId({0, 0}), position, frag).ok())
        << position;
    DomInsert(&*dom, DeweyId({0, 0}), position, frag);
    ExpectStoreMatchesDom(store.get(), *dom);
  }
}

TEST(UpdaterTest, InsertRejectsBadPosition) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  EXPECT_TRUE((*store_r)
                  ->InsertSubtree(DeweyId({0, 0}), 9, "<x/>")
                  .IsInvalidArgument());
}

TEST(UpdaterTest, LargeInsertSplitsPages) {
  DocumentStore::Options options;
  options.page_size = 256;
  auto store_r = DocumentStore::Build(kBase, options);
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());

  std::string frag = "<appendix>";
  for (int i = 0; i < 120; ++i) {
    frag += "<entry>e" + std::to_string(i) + "</entry>";
  }
  frag += "</appendix>";
  const size_t pages_before = store->tree()->chain_length();
  ASSERT_TRUE(store->InsertSubtree(DeweyId({0}), 1, frag).ok());
  DomInsert(&*dom, DeweyId({0}), 1, frag);
  EXPECT_GT(store->tree()->chain_length(), pages_before);
  ExpectStoreMatchesDom(store.get(), *dom);
}

TEST(UpdaterTest, DeleteSubtreeMiddleChild) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());

  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 0, 1})).ok());  // title.
  DomDelete(&*dom, DeweyId({0, 0, 1}));
  ExpectStoreMatchesDom(store.get(), *dom);
}

TEST(UpdaterTest, DeleteWholeEntry) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());

  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 0})).ok());
  DomDelete(&*dom, DeweyId({0, 0}));
  ExpectStoreMatchesDom(store.get(), *dom);
}

TEST(UpdaterTest, DeleteRootRejected) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  EXPECT_TRUE(
      (*store_r)->DeleteSubtree(DeweyId({0})).IsInvalidArgument());
}

TEST(UpdaterTest, QueriesStayCorrectAfterUpdates) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());

  ASSERT_TRUE(store
                  ->InsertSubtree(DeweyId({0}), 0,
                                  "<book year=\"1990\"><title>Old</title>"
                                  "<price>10</price></book>")
                  .ok());
  DomInsert(&*dom, DeweyId({0}), 0,
            "<book year=\"1990\"><title>Old</title><price>10</price>"
            "</book>");
  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 2, 1})).ok());
  DomDelete(&*dom, DeweyId({0, 2, 1}));

  QueryEngine engine(store.get());
  for (const char* q :
       {"/bib/book", "//title", "/bib/book[price<20]", "//book[@year]",
        "/bib/book[title=\"Old\"]/price"}) {
    auto got = engine.Evaluate(q);
    ASSERT_TRUE(got.ok()) << q;
    auto want = OracleEvaluateDewey(q, *dom);
    ASSERT_TRUE(want.ok()) << q;
    EXPECT_EQ(*got, *want) << q;
  }
}

TEST(UpdaterTest, MultiPageDeleteUnlinksAndFreeListReuses) {
  DocumentStore::Options options;
  options.page_size = 256;
  // A document with one large middle entry spanning several pages.
  std::string xml = "<r><first>a</first><big>";
  for (int i = 0; i < 600; ++i) {
    xml += "<e>x" + std::to_string(i) + "</e>";
  }
  xml += "</big><last>z</last></r>";
  auto store_r = DocumentStore::Build(xml, options);
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok());

  const size_t chain_before = store->tree()->chain_length();
  const uint64_t file_before = store->tree()->SizeBytes();
  ASSERT_GT(chain_before, 4u);

  // Delete the multi-page subtree: the chain must shrink.
  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 1})).ok());
  DomDelete(&*dom, DeweyId({0, 1}));
  ExpectStoreMatchesDom(store.get(), *dom);
  EXPECT_LT(store->tree()->chain_length(), chain_before);
  EXPECT_EQ(store->tree()->SizeBytes(), file_before);  // Pages recycled.

  // A large insertion draws pages from the free list before growing the
  // file.
  std::string frag = "<rebuilt>";
  for (int i = 0; i < 400; ++i) {
    frag += "<n>y" + std::to_string(i) + "</n>";
  }
  frag += "</rebuilt>";
  ASSERT_TRUE(store->InsertSubtree(DeweyId({0}), 1, frag).ok());
  DomInsert(&*dom, DeweyId({0}), 1, frag);
  ExpectStoreMatchesDom(store.get(), *dom);
  EXPECT_EQ(store->tree()->SizeBytes(), file_before);
}

TEST(UpdaterTest, DeleteFirstChildAtPageStart) {
  // Deleting the very first child (byte offset right after the root's
  // open symbol) exercises the from-page trimming edge.
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());
  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 0})).ok());
  DomDelete(&*dom, DeweyId({0, 0}));
  ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 0})).ok());
  DomDelete(&*dom, DeweyId({0, 0}));
  ExpectStoreMatchesDom(store.get(), *dom);
  // Only the empty root remains; it must still answer queries.
  QueryEngine engine(store.get());
  auto r = engine.Evaluate("/bib");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  auto none = engine.Evaluate("//book");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(UpdaterTest, PositionsGoStaleAndRefresh) {
  auto store_r = DocumentStore::Build(kBase, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(kBase);
  ASSERT_TRUE(dom.ok());
  EXPECT_TRUE(store->positions_fresh());

  ASSERT_TRUE(store
                  ->InsertSubtree(DeweyId({0}), 1,
                                  "<book year=\"1999\"><title>Mid</title>"
                                  "<price>20</price></book>")
                  .ok());
  DomInsert(&*dom, DeweyId({0}), 1,
            "<book year=\"1999\"><title>Mid</title><price>20</price>"
            "</book>");
  EXPECT_FALSE(store->positions_fresh());

  // Stale positions: Locate falls back to navigation and still works.
  ExpectStoreMatchesDom(store.get(), *dom);

  ASSERT_TRUE(store->RefreshPositions().ok());
  EXPECT_TRUE(store->positions_fresh());
  ExpectStoreMatchesDom(store.get(), *dom);

  // Fresh positions point at the right physical nodes.
  auto book_tag = store->tags()->Lookup("book");
  ASSERT_TRUE(book_tag.has_value());
  auto books = store->NodesWithTag(*book_tag);
  ASSERT_TRUE(books.ok());
  ASSERT_EQ(books->size(), 3u);
  for (const auto& entry : *books) {
    auto pos = store->tree()->PosForGlobal(entry.pos);
    ASSERT_TRUE(pos.ok());
    auto tag = store->tree()->TagAt(*pos);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(*tag, *book_tag) << entry.dewey.ToString();
  }
  // Refresh is idempotent.
  ASSERT_TRUE(store->RefreshPositions().ok());
  // Queries use the fast path again and stay correct.
  QueryEngine engine(store.get());
  auto result = engine.Evaluate("/bib/book[title=\"Mid\"]");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].ToString(), "0.1");
}

class UpdaterFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdaterFuzz, RandomUpdateSequencesMatchDom) {
  Random rng(GetParam());
  testutil::RandomDocOptions doc_options;
  doc_options.max_nodes = 60;
  const std::string xml = testutil::RandomXml(&rng, doc_options);
  DocumentStore::Options options;
  options.page_size = 256;  // Small pages: exercise splits/unlinks.
  auto store_r = DocumentStore::Build(xml, options);
  ASSERT_TRUE(store_r.ok());
  auto& store = *store_r;
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok());

  for (int op = 0; op < 12; ++op) {
    // Pick a random existing node via the DOM.
    std::vector<const DomNode*> nodes;
    ForEachNode(dom->root(), [&](const DomNode* n) { nodes.push_back(n); });
    const DomNode* victim = nodes[rng.Uniform(nodes.size())];
    const DeweyId id = DomDewey(victim);
    if (rng.Bernoulli(0.5) && victim->parent != nullptr) {
      ASSERT_TRUE(store->DeleteSubtree(id).ok()) << id.ToString();
      DomDelete(&*dom, id);
    } else {
      const std::string frag = testutil::RandomXml(&rng, {.max_nodes = 10});
      const uint32_t position = static_cast<uint32_t>(rng.Uniform(
          victim->children.size() + 1));
      ASSERT_TRUE(store->InsertSubtree(id, position, frag).ok())
          << id.ToString() << " @ " << position;
      DomInsert(&*dom, id, position, frag);
    }
    ExpectStoreMatchesDom(store.get(), *dom);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdaterFuzz,
                         ::testing::Values(10, 20, 30, 40));

}  // namespace
}  // namespace nok
