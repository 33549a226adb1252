#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "encoding/dewey.h"
#include "encoding/document_store.h"
#include "tests/oracle.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP</title><author><last>Stevens"
    "</last><first>W.</first></author><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title><author><last>"
    "Abiteboul</last><first>Serge</first></author><price>39.95</price>"
    "</book>"
    "</bib>";

std::unique_ptr<DocumentStore> Build(const std::string& xml) {
  auto r = DocumentStore::Build(xml, DocumentStore::Options());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

TEST(DocumentStoreTest, StatsMatchDom) {
  auto store = Build(kBibXml);
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(store->stats().node_count, dom->node_count());
  EXPECT_EQ(store->stats().max_depth, dom->max_depth());
  EXPECT_EQ(store->stats().distinct_tags, dom->distinct_tags());
  EXPECT_DOUBLE_EQ(store->stats().avg_depth, dom->avg_depth());
  EXPECT_GT(store->stats().tree_bytes, 0u);
  EXPECT_GT(store->stats().value_index_bytes, 0u);
  EXPECT_GT(store->stats().id_index_bytes, 0u);
  EXPECT_GT(store->stats().data_bytes, 0u);
}

TEST(DocumentStoreTest, ValueOfReadsThroughIndexes) {
  auto store = Build(kBibXml);
  // /bib/book[0]/author/last = 0.1.1.0 (after @year at index 0).
  const DeweyId last({0, 0, 2, 0});
  auto value = store->ValueOf(last);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_TRUE(value->has_value());
  EXPECT_EQ(**value, "Stevens");
  // The book element itself has no text value.
  auto book = store->ValueOf(DeweyId({0, 0}));
  ASSERT_TRUE(book.ok());
  EXPECT_FALSE(book->has_value());
  // Attribute node value.
  auto year = store->ValueOf(DeweyId({0, 0, 0}));
  ASSERT_TRUE(year.ok());
  ASSERT_TRUE(year->has_value());
  EXPECT_EQ(**year, "1994");
  // Unknown node.
  auto nothing = store->ValueOf(DeweyId({0, 9, 9}));
  ASSERT_TRUE(nothing.ok());
  EXPECT_FALSE(nothing->has_value());
}

TEST(DocumentStoreTest, NodesWithTagInDocumentOrder) {
  auto store = Build(kBibXml);
  auto book_tag = store->tags()->Lookup("book");
  ASSERT_TRUE(book_tag.has_value());
  auto books = store->NodesWithTag(*book_tag);
  ASSERT_TRUE(books.ok());
  ASSERT_EQ(books->size(), 2u);
  EXPECT_EQ((*books)[0].ToString(), "0.0");
  EXPECT_EQ((*books)[1].ToString(), "0.1");
  EXPECT_EQ(store->CountTag(*book_tag), 2u);
}

/// For every tag in the store's dictionary: NodesWithTag answers the
/// Dewey IDs a preorder walk of `xml`'s DOM finds with that tag, in
/// document order (none for a tag whose nodes were all deleted).
void ExpectNodesWithTagMatchDom(DocumentStore* store, const std::string& xml,
                                const std::string& what) {
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok()) << what;
  std::map<std::string, std::vector<std::string>> want;
  ForEachNode(dom->root(), [&](const DomNode* node) {
    want[node->name].push_back(DomDewey(node).ToString());
  });
  for (TagId tag = 1; tag <= store->tags()->size(); ++tag) {
    const std::string& name = store->tags()->Name(tag);
    auto got = store->NodesWithTag(tag);
    ASSERT_TRUE(got.ok()) << what << " " << name << ": "
                          << got.status().ToString();
    std::vector<std::string> got_strings;
    for (const DeweyId& id : *got) got_strings.push_back(id.ToString());
    EXPECT_EQ(got_strings, want[name]) << what << ", tag " << name;
  }
}

/// `<r>` holding the given children.
std::string RootOf(const std::vector<std::string>& children) {
  std::string xml = "<r>";
  for (const std::string& child : children) xml += child;
  return xml + "</r>";
}

TEST(DocumentStoreTest, NodesWithTagMatchesADomWalkInBothNavModes) {
  // Wide and deep: 150 children under the root (past the BP index's
  // child-sample stride), with nested <a> runs so one tag's hits share
  // some ancestors and not others.
  std::vector<std::string> children;
  for (int i = 0; i < 150; ++i) {
    children.push_back(i % 7 == 0 ? "<a n=\"" + std::to_string(i) +
                                        "\"><a><b>x</b><a><c/></a></a></a>"
                                  : "<b><c/><a/></b>");
  }
  const std::string fragment = "<a><c>new</c><b><a/></b></a>";
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_tagprobe_" + std::to_string(::getpid())))
          .string();
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    const std::string where = NavModeName(mode);
    std::filesystem::remove_all(dir);
    DocumentStore::Options options;
    options.dir = dir;
    options.page_size = 256;
    options.nav_mode = mode;
    std::vector<std::string> current = children;
    {
      auto store = DocumentStore::Build(RootOf(current), options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ExpectNodesWithTagMatchDom(store->get(), RootOf(current),
                                 where + " fresh");
      // Unflushed updates: the probe rebuilds the BP index on demand.
      ASSERT_TRUE((*store)->InsertSubtree(DeweyId::Root(), 0, fragment).ok());
      current.insert(current.begin(), fragment);
      ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 8})).ok());
      current.erase(current.begin() + 8);
      ExpectNodesWithTagMatchDom(store->get(), RootOf(current),
                                 where + " after unflushed updates");
    }
    // A WAL commit, then a fresh reopen of the committed generation.  The
    // insert goes below a <b> child, ahead of its own children.
    const std::string plain_b = "<b><c/><a/></b>";
    const size_t k = static_cast<size_t>(
        std::find(current.begin() + 3, current.end(), plain_b) -
        current.begin());
    ASSERT_LT(k, current.size());
    options.wal.enabled = true;
    {
      auto store = DocumentStore::OpenDir(options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)
                      ->InsertSubtree(DeweyId({0, static_cast<uint32_t>(k)}),
                                      0, fragment)
                      .ok());
      ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 100})).ok());
      ASSERT_TRUE((*store)->Flush().ok());
      current[k] = "<b>" + fragment + "<c/><a/></b>";
      current.erase(current.begin() + 100);
      ExpectNodesWithTagMatchDom(store->get(), RootOf(current),
                                 where + " after a WAL commit");
    }
    options.wal.enabled = false;
    auto reopened = DocumentStore::OpenDir(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectNodesWithTagMatchDom(reopened->get(), RootOf(current),
                               where + " reopened after a WAL commit");
  }
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, NodesWithValueVerifiesCollisions) {
  auto store = Build(kBibXml);
  auto stevens = store->NodesWithValue(Slice("Stevens"));
  ASSERT_TRUE(stevens.ok());
  ASSERT_EQ(stevens->size(), 1u);
  EXPECT_EQ((*stevens)[0].ToString(), "0.0.2.0");
  auto absent = store->NodesWithValue(Slice("not-here"));
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->empty());

  auto estimate = store->EstimateValueCount(Slice("Stevens"), 10);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 1u);
}

TEST(DocumentStoreTest, NavigateWalksToAnyNode) {
  auto store = Build(kBibXml);
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  // Every DOM node must be reachable and carry the right tag.
  ForEachNode(dom->root(), [&](const DomNode* node) {
    const DeweyId id = DomDewey(node);
    auto pos = store->Navigate(id);
    ASSERT_TRUE(pos.ok()) << id.ToString();
    auto tag = store->tree()->TagAt(*pos);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(store->tags()->Name(*tag), node->name) << id.ToString();
  });
  EXPECT_TRUE(store->Navigate(DeweyId({0, 7})).status().IsNotFound());
  EXPECT_FALSE(store->Navigate(DeweyId({1})).ok());
}

/// For every node, in document order: StorePosOf maps its BP open bit to
/// the paged position Navigate reaches, where the tag is the BP index's.
void ExpectBpLocatorMatchesNavigate(DocumentStore* store) {
  auto bp = store->bp_index();
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  DeweyCounter deweys;
  int level = 0;
  uint64_t nodes = 0;
  for (uint64_t pos = 0; pos < (*bp)->bit_count(); ++pos) {
    if (!(*bp)->IsOpen(pos)) {
      --level;
      continue;
    }
    ++level;
    ++nodes;
    const DeweyId id(deweys.Next(static_cast<size_t>(level)));
    auto walked = store->Navigate(id);
    ASSERT_TRUE(walked.ok()) << id.ToString();
    EXPECT_TRUE(store->StorePosOf(pos) == *walked) << id.ToString();
    auto tag = store->tree()->TagAt(*walked);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(*tag, (*bp)->TagAt(pos)) << id.ToString();
  }
  EXPECT_EQ(nodes, store->stats().node_count);
}

TEST(DocumentStoreTest, BpLocatorSpansManyPagesAndFollowsUpdates) {
  // 256-byte pages hold a few dozen symbols each, so the locator's page
  // table has many entries; updates split pages and empty others.
  std::string xml = "<r>";
  for (int i = 0; i < 200; ++i) {
    xml += "<a n=\"" + std::to_string(i) + "\"><b>x</b><c/></a>";
  }
  xml += "</r>";
  DocumentStore::Options options;
  options.page_size = 256;
  auto built = DocumentStore::Build(xml, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DocumentStore* store = built->get();
  ASSERT_GT(store->tree()->chain_length(), 10u);
  ExpectBpLocatorMatchesNavigate(store);

  const std::string fragment = "<a><b>new</b><b>more</b><c/></a>";
  for (const uint32_t at : {0u, 100u, 201u}) {
    ASSERT_TRUE(store->InsertSubtree(DeweyId::Root(), at, fragment).ok());
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store->DeleteSubtree(DeweyId({0, 5})).ok());
  }
  // No Flush: bp_index() rebuilds from the edited chain on demand.
  ExpectBpLocatorMatchesNavigate(store);
}

TEST(DocumentStoreTest, PersistsAndReopens) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_docstore_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  // The files a store consists of in either nav mode: two B+ trees, the
  // two sidecars, and neither a tag-name index (tag.idx; the BP index
  // answers tag probes) nor a rooted tag-path index (path.idx).
  const std::set<std::string> want_files = {
      store_files::kTree,    store_files::kValues,  store_files::kDict,
      store_files::kValIdx,  store_files::kIdIdx,   store_files::kBpIndex,
      store_files::kSynopsis};
  auto files_in_dir = [&] {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  };
  {
    auto store = DocumentStore::Build(kBibXml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  EXPECT_EQ(files_in_dir(), want_files);
  EXPECT_FALSE(std::filesystem::exists(dir + "/tag.idx"));
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().node_count, 15u);
    auto stevens = (*store)->NodesWithValue(Slice("Stevens"));
    ASSERT_TRUE(stevens.ok());
    EXPECT_EQ(stevens->size(), 1u);
    auto value = (*store)->ValueOf(DeweyId({0, 0, 2, 0}));
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(**value, "Stevens");
  }
  EXPECT_EQ(files_in_dir(), want_files);
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, BuildRejectsMalformedXml) {
  auto r = DocumentStore::Build("<a><b></a>", DocumentStore::Options());
  EXPECT_FALSE(r.ok());
}

TEST(DocumentStoreTest, IdIndexCoversEveryNode) {
  auto store = Build(kBibXml);
  EXPECT_EQ(store->id_index()->num_entries(), store->stats().node_count);
}

}  // namespace
}  // namespace nok
