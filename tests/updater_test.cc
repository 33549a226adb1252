#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
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

  // Index integrity: every node found by its tag's probe (the BP index)
  // with the right dewey, and by its value's (B+v).
  ForEachNode(dom.root(), [&](const DomNode* node) {
    auto tag = store->tags()->Lookup(node->name);
    ASSERT_TRUE(tag.has_value());
    auto nodes = store->NodesWithTag(*tag);
    ASSERT_TRUE(nodes.ok());
    const DeweyId id = DomDewey(node);
    auto has_dewey = [&](const auto& list) {
      for (const DeweyId& entry : list) {
        if (entry == id) return true;
      }
      return false;
    };
    EXPECT_TRUE(has_dewey(*nodes)) << "tag probe lost " << id.ToString();
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

TEST(UpdaterTest, QueriesFollowAnInsertInBothNavModes) {
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    SCOPED_TRACE(NavModeName(mode));
    DocumentStore::Options options;
    options.nav_mode = mode;
    auto store_r = DocumentStore::Build(kBase, options);
    ASSERT_TRUE(store_r.ok());
    auto& store = *store_r;
    auto dom = DomTree::Parse(kBase);
    ASSERT_TRUE(dom.ok());
    ASSERT_TRUE(store
                    ->InsertSubtree(DeweyId({0}), 1,
                                    "<book year=\"1999\"><title>Mid</title>"
                                    "<price>20</price></book>")
                    .ok());
    DomInsert(&*dom, DeweyId({0}), 1,
              "<book year=\"1999\"><title>Mid</title><price>20</price>"
              "</book>");
    ExpectStoreMatchesDom(store.get(), *dom);
    // Index hits are located on the BP index rebuilt for the new
    // structure, whichever tier takes the tree steps.
    QueryEngine engine(store.get());
    auto result = engine.Evaluate("/bib/book[title=\"Mid\"]");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0].ToString(), "0.1");
  }
}

TEST(UpdaterTest, FrontInsertKeepsIndexAnchoredPagedQueriesCheap) {
  // dblp at scale 0.02: /dblp has 8,000 children, and a front insert
  // shifts every one of them.  Index hits are located on the BP index,
  // so a value-anchored query after the insert fetches the subject-tree
  // pages it fetched before, plus at most the pages the insert added to
  // the chain.  (Positions cached in the index entries went stale at the
  // insert, and locating hits by walking the paged /dblp sibling chain
  // instead cost this query about 19x the pages.)
  GenOptions gen;
  gen.scale = 0.02;
  const GeneratedDataset ds = GenerateDataset(Dataset::kDblp, gen);
  std::string xpath;
  for (const CategoryQuery& q : QueriesForDataset(ds)) {
    if (q.id == "Q5") xpath = q.xpath;  // [journal="needle-mod-a"]/title
  }
  ASSERT_FALSE(xpath.empty());
  auto store_r = DocumentStore::Build(ds.xml, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok()) << store_r.status().ToString();
  DocumentStore* store = store_r->get();
  ASSERT_EQ(store->nav_mode(), NavMode::kPaged);
  QueryEngine engine(store);
  BufferPool* pool = store->tree()->buffer_pool();
  auto tree_fetches = [&](size_t* results) {
    const uint64_t before = pool->stats().fetches;
    auto r = engine.Evaluate(xpath);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    *results = r.ok() ? r->size() : 0;
    bool probed = false;
    for (const OperatorStats& op : engine.last_trace().operators) {
      probed = probed || op.op == "ValueIndexProbe";
    }
    EXPECT_TRUE(probed) << xpath;
    return pool->stats().fetches - before;
  };
  size_t results_before = 0;
  const uint64_t fetches_before = tree_fetches(&results_before);
  ASSERT_GT(results_before, 0u);
  const size_t chain_before = store->tree()->chain_length();

  ASSERT_TRUE(store
                  ->InsertSubtree(DeweyId::Root(), 0,
                                  "<article key=\"front\"><author>A</author>"
                                  "<title>Front</title><year>2004</year>"
                                  "</article>")
                  .ok());
  // The first query after an update rebuilds the BP index by one chain
  // scan, as a commit would; do it here so the count is the query's own.
  ASSERT_TRUE(store->bp_index().ok());
  const uint64_t split_pages = store->tree()->chain_length() - chain_before;
  size_t results_after = 0;
  const uint64_t fetches_after = tree_fetches(&results_after);
  EXPECT_EQ(results_after, results_before);
  EXPECT_LE(fetches_after, fetches_before + split_pages);
}

/// Buffer-pool fetches of one lookup of the tree's first key: one per
/// level, since the descent ends in the leftmost leaf at slot 0.
uint64_t TreeHeight(BTree* index) {
  BTreeIterator it = index->NewIterator();
  EXPECT_TRUE(it.SeekToFirst().ok());
  EXPECT_TRUE(it.Valid());
  const std::string first = it.key().ToString();
  it = index->NewIterator();  // Unpin before counting.
  index->buffer_pool()->ResetStats();
  EXPECT_TRUE(index->Get(Slice(first)).ok());
  return index->buffer_pool()->stats().fetches;
}

TEST(UpdaterTest, FrontUpdatesCostLogarithmicIndexWorkPerShiftedNode) {
  // A wide root: a front insert or delete shifts all 2,000 following
  // items and their valued children, 4,000 nodes each time.
  constexpr int kItems = 2000;
  std::string xml = "<r>";
  for (int i = 0; i < kItems; ++i) {
    xml += "<item><name>n" + std::to_string(i % 97) + "</name></item>";
  }
  xml += "</r>";
  auto store_r = DocumentStore::Build(xml, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok()) << store_r.status().ToString();
  auto& store = *store_r;
  BTree* value_index = store->value_index();
  const uint64_t value_height = TreeHeight(value_index);
  ASSERT_GE(value_height, 2u);

  const std::string frag = "<item><name>front</name></item>";
  auto cycle = [&]() {
    ASSERT_TRUE(store->InsertSubtree(DeweyId({0}), 0, frag).ok());
    ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 0})).ok());
  };
  value_index->buffer_pool()->ResetStats();
  cycle();
  const uint64_t shifted = 2 * 2 * kItems;
  // Each shifted entry is one exact delete plus one insert.  A scan of
  // the value's duplicate run would cost many fetches per node.
  EXPECT_LE(value_index->buffer_pool()->stats().fetches,
            4 * value_height * shifted);

  // Churn at the front reuses the leaves it empties: every rewritten key
  // lands next to the one it replaces.
  const uint64_t value_bytes = value_index->SizeBytes();
  for (int i = 1; i < 50; ++i) cycle();
  EXPECT_LE(value_index->SizeBytes(), 2 * value_bytes);
  EXPECT_EQ(value_index->num_entries(), static_cast<uint64_t>(kItems));
}

/// Dewey IDs of an index answer, in document order.
std::vector<std::string> DeweyStrings(const std::vector<DeweyId>& nodes) {
  std::vector<std::string> out;
  for (const DeweyId& node : nodes) out.push_back(node.ToString());
  return out;
}

TEST(UpdaterTest, IndexContentsMatchAFreshBuildAfterUpdates) {
  GenOptions gen;
  gen.scale = 0.002;
  gen.seed = 5;
  const std::string xml = GenerateDataset(Dataset::kDblp, gen).xml;
  auto store_r = DocumentStore::Build(xml, DocumentStore::Options());
  ASSERT_TRUE(store_r.ok()) << store_r.status().ToString();
  auto& store = *store_r;
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok());

  // Seeded batches: copies of existing entries inserted anywhere under
  // the root or inside an entry, and entries or their fields deleted.
  Random rng(11);
  for (int batch = 0; batch < 5; ++batch) {
    for (int op = 0; op < 4; ++op) {
      const DomNode* root = dom->root();
      const size_t entries = root->children.size();
      const DomNode* entry = root->children[rng.Uniform(entries)].get();
      const bool deep = rng.Bernoulli(0.3) && !entry->children.empty();
      if (rng.Bernoulli(0.5)) {
        // A copy of an entry, or of an entry's last field.
        const DomNode* model = root->children[rng.Uniform(entries)].get();
        if (deep) model = model->children.back().get();
        ASSERT_NE(model->name[0], '@');
        const std::string frag = SerializeNode(model);
        const DomNode* parent = deep ? entry : root;
        const DeweyId parent_id = DomDewey(parent);
        // Attribute pseudo-children stay first: serialization puts them
        // there, and the fresh build must see the same document.
        size_t attributes = 0;
        while (attributes < parent->children.size() &&
               parent->children[attributes]->name[0] == '@') {
          ++attributes;
        }
        const auto position = static_cast<uint32_t>(
            attributes +
            rng.Uniform(parent->children.size() - attributes + 1));
        ASSERT_TRUE(store->InsertSubtree(parent_id, position, frag).ok())
            << parent_id.ToString() << " @ " << position;
        DomInsert(&*dom, parent_id, position, frag);
      } else {
        const DomNode* victim =
            deep ? entry->children[rng.Uniform(entry->children.size())]
                       .get()
                 : entry;
        const DeweyId id = DomDewey(victim);
        ASSERT_TRUE(store->DeleteSubtree(id).ok()) << id.ToString();
        DomDelete(&*dom, id);
      }
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  auto fresh_r = DocumentStore::Build(SerializeTree(*dom),
                                      DocumentStore::Options());
  ASSERT_TRUE(fresh_r.ok()) << fresh_r.status().ToString();
  auto& fresh = *fresh_r;
  ASSERT_EQ(store->stats().node_count, fresh->stats().node_count);
  EXPECT_EQ(store->value_index()->num_entries(),
            fresh->value_index()->num_entries());

  for (TagId tag = 1; tag <= store->tags()->size(); ++tag) {
    const std::string& name = store->tags()->Name(tag);
    auto got = store->NodesWithTag(tag);
    ASSERT_TRUE(got.ok()) << name;
    std::vector<std::string> want;
    if (auto fresh_tag = fresh->tags()->Lookup(name)) {
      auto nodes = fresh->NodesWithTag(*fresh_tag);
      ASSERT_TRUE(nodes.ok()) << name;
      want = DeweyStrings(*nodes);
    }
    EXPECT_EQ(DeweyStrings(*got), want)
        << "tag probe differs for " << name;
  }
  std::set<std::string> values;
  ForEachNode(dom->root(), [&](const DomNode* node) {
    if (!node->value.empty()) values.insert(node->value);
  });
  for (const std::string& value : values) {
    auto got = store->NodesWithValue(Slice(value));
    auto want = fresh->NodesWithValue(Slice(value));
    ASSERT_TRUE(got.ok() && want.ok()) << value;
    EXPECT_EQ(DeweyStrings(*got), DeweyStrings(*want))
        << "B+v differs for " << value;
  }
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
