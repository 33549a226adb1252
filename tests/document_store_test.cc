#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

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
  EXPECT_GT(store->stats().tag_index_bytes, 0u);
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
  EXPECT_EQ((*books)[0].dewey.ToString(), "0.0");
  EXPECT_EQ((*books)[1].dewey.ToString(), "0.1");
  // Stored positions round-trip to the right physical node.
  EXPECT_TRUE(store->positions_fresh());
  auto pos = store->tree()->PosForGlobal((*books)[1].pos);
  ASSERT_TRUE(pos.ok());
  auto tag_at = store->tree()->TagAt(*pos);
  ASSERT_TRUE(tag_at.ok());
  EXPECT_EQ(*tag_at, *book_tag);
  EXPECT_EQ(store->CountTag(*book_tag), 2u);

  auto limited = store->NodesWithTag(*book_tag, 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 1u);
}

TEST(DocumentStoreTest, NodesWithValueVerifiesCollisions) {
  auto store = Build(kBibXml);
  auto stevens = store->NodesWithValue(Slice("Stevens"));
  ASSERT_TRUE(stevens.ok());
  ASSERT_EQ(stevens->size(), 1u);
  EXPECT_EQ((*stevens)[0].dewey.ToString(), "0.0.2.0");
  auto absent = store->NodesWithValue(Slice("not-here"));
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->empty());

  auto estimate = store->EstimateValueCount(Slice("Stevens"), 10);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, 1u);
}

TEST(DocumentStoreTest, LocateWalksToAnyNode) {
  auto store = Build(kBibXml);
  auto dom = DomTree::Parse(kBibXml);
  ASSERT_TRUE(dom.ok());
  // Every DOM node must be locatable and carry the right tag.
  ForEachNode(dom->root(), [&](const DomNode* node) {
    const DeweyId id = DomDewey(node);
    auto pos = store->Locate(id);
    ASSERT_TRUE(pos.ok()) << id.ToString();
    auto tag = store->tree()->TagAt(*pos);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(store->tags()->Name(*tag), node->name) << id.ToString();
  });
  EXPECT_TRUE(store->Locate(DeweyId({0, 7})).status().IsNotFound());
  EXPECT_FALSE(store->Locate(DeweyId({1})).ok());
}

TEST(DocumentStoreTest, PersistsAndReopens) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_docstore_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  // The files a paged store consists of: three B+ trees and no rooted
  // tag-path index (path.idx).
  const std::set<std::string> want_files = {
      store_files::kTree,   store_files::kValues, store_files::kDict,
      store_files::kTagIdx, store_files::kValIdx, store_files::kIdIdx,
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
  EXPECT_EQ(store->tag_index()->num_entries(), store->stats().node_count);
}

}  // namespace
}  // namespace nok
