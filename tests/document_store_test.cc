#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "encoding/dewey.h"
#include "encoding/document_store.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"
#include "tests/oracle.h"
#include "xml/dom.h"
#include "tests/test_util.h"

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
  EXPECT_GT(store->stats().column_bytes, 0u);
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
  // Unknown nodes: past the last child, below a leaf, and outside the
  // one document (a first component other than 0).
  for (const DeweyId& unknown :
       {DeweyId({0, 9, 9}), DeweyId({0, 0, 2, 0, 0}), DeweyId({1}),
        DeweyId({1, 0})}) {
    auto nothing = store->ValueOf(unknown);
    ASSERT_TRUE(nothing.ok()) << unknown.ToString();
    EXPECT_FALSE(nothing->has_value()) << unknown.ToString();
  }
}

TEST(DocumentStoreTest, NodesWithTagInDocumentOrder) {
  auto store = Build(kBibXml);
  auto book_tag = store->tags()->Lookup("book");
  ASSERT_TRUE(book_tag.has_value());
  auto books = testutil::TagHits(store.get(), *book_tag);
  ASSERT_TRUE(books.ok());
  EXPECT_EQ(testutil::HitStrings(*books),
            (std::vector<std::string>{"0.0", "0.1"}));
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
    auto got = testutil::TagHits(store, tag);
    ASSERT_TRUE(got.ok()) << what << " " << name << ": "
                          << got.status().ToString();
    EXPECT_EQ(testutil::HitStrings(*got), want[name])
        << what << ", tag " << name;
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
  auto stevens = testutil::ValueHits(store.get(), Slice("Stevens"));
  ASSERT_TRUE(stevens.ok());
  ASSERT_EQ(stevens->size(), 1u);
  EXPECT_EQ((*stevens)[0].dewey.ToString(), "0.0.2.0");
  auto absent = testutil::ValueHits(store.get(), Slice("not-here"));
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
    auto tag = StringStore::Navigator(store->tree()).TagAt(*pos);
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
    auto tag = StringStore::Navigator(store->tree()).TagAt(*walked);
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
  // The files a store consists of in either nav mode: B+v and the value
  // column, and no Dewey-ID index (id.idx; the column replaced it), no
  // tag-name index (tag.idx; the BP index answers tag probes)
  // nor a rooted tag-path index (path.idx), nor a persisted BP index or
  // synopsis (tree.bpx, synopsis.pds; both are derived on every open).
  const std::set<std::string> want_files = {
      store_files::kTree, store_files::kValues, store_files::kDict,
      store_files::kValIdx, store_files::kValueColumn};
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
    auto stevens = testutil::ValueHits(store->get(), Slice("Stevens"));
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

/// The bibliography the value-column tests update: `books` are the
/// root's children, in order.
std::string BibOf(const std::vector<std::string>& books) {
  std::string xml = "<bib>";
  for (const std::string& book : books) xml += book;
  return xml + "</bib>";
}

/// Every node's value read by preorder rank (the in-memory column, filled
/// from the on-disk one) equals the value of the node of that rank in a
/// DOM of `xml`, and ValueOf of its Dewey ID agrees.
void ExpectValueColumnMatches(DocumentStore* store, const std::string& xml) {
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  std::vector<const DomNode*> preorder;
  ForEachNode(dom->root(),
              [&](const DomNode* node) { preorder.push_back(node); });
  auto bp = store->bp_index();
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  ASSERT_EQ((*bp)->node_count(), preorder.size());
  DeweyCounter deweys;
  uint64_t valued = 0;
  for (uint64_t rank = 0; rank < preorder.size(); ++rank) {
    const DeweyId dewey(deweys.Next(
        static_cast<size_t>((*bp)->Depth((*bp)->Select1(rank)))));
    const std::string& want = preorder[rank]->value;
    auto by_rank = store->ValueAtRank(rank);
    ASSERT_TRUE(by_rank.ok()) << dewey.ToString() << ": "
                              << by_rank.status().ToString();
    if (want.empty()) {
      EXPECT_FALSE(by_rank->has_value()) << dewey.ToString();
    } else {
      ASSERT_TRUE(by_rank->has_value()) << dewey.ToString();
      EXPECT_EQ(**by_rank, want) << dewey.ToString();
      ++valued;
    }
    auto by_dewey = store->ValueOf(dewey);
    ASSERT_TRUE(by_dewey.ok()) << dewey.ToString();
    EXPECT_EQ(*by_dewey, *by_rank) << dewey.ToString();
  }
  EXPECT_GT(valued, 0u);
}

TEST(DocumentStoreTest, ValueColumnFollowsUpdatesAndReopens) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_valuecol_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  // Small pages spread the column over many pages, so updates split and
  // empty them.
  DocumentStore::Options options;
  options.dir = dir;
  options.page_size = 256;
  options.index_page_size = 512;
  std::vector<std::string> books;
  for (int i = 0; i < 60; ++i) {
    books.push_back("<book year=\"" + std::to_string(1950 + i % 7) +
                    "\"><title>T" + std::to_string(i) +
                    "</title><author><last>L" + std::to_string(i % 9) +
                    "</last></author></book>");
  }
  {
    auto store = DocumentStore::Build(BibOf(books), options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    SCOPED_TRACE("fresh Build");
    ExpectValueColumnMatches(store->get(), BibOf(books));
  }
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    {
      SCOPED_TRACE("reopen");
      ExpectValueColumnMatches(store->get(), BibOf(books));
    }
    // Non-WAL updates drop the in-memory column with the BP index; the
    // next query refills both.
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId::Root(), 3,
                                    "<book><title>New</title></book>")
                    .ok());
    books.insert(books.begin() + 3, "<book><title>New</title></book>");
    ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 10})).ok());
    books.erase(books.begin() + 10);
    QueryEngine engine(store->get());
    auto got = engine.Evaluate("//book[title=\"New\"]");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0].ToString(), "0.3");
    SCOPED_TRACE("non-WAL updates and a query");
    ExpectValueColumnMatches(store->get(), BibOf(books));
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    DocumentStore::Options wal = options;
    wal.wal.enabled = true;
    auto store = DocumentStore::OpenDir(wal);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Child 1 of book 0.5, right after its year attribute.
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId({0, 5}), 1,
                                    "<author><last>Wal</last></author>")
                    .ok());
    std::string& book = books[5];
    book.insert(book.find('>') + 1, "<author><last>Wal</last></author>");
    ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 0})).ok());
    books.erase(books.begin());
    ASSERT_TRUE((*store)->Flush().ok());
    {
      SCOPED_TRACE("WAL commit");
      ExpectValueColumnMatches(store->get(), BibOf(books));
    }
    QueryEngine engine(store->get());
    auto got = engine.Evaluate("//book[author/last=\"Wal\"]");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0].ToString(), "0.4");
  }
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    SCOPED_TRACE("reopen after the WAL commit");
    ExpectValueColumnMatches(store->get(), BibOf(books));
  }
  std::filesystem::remove_all(dir);
}

/// A value column out of step with the tree (here one entry short,
/// committed) fails every value read, and not the open: the column would
/// otherwise hand later ranks a neighbour's value.
TEST(DocumentStoreTest, ValueColumnRefusesAColumnOutOfStepWithTheTree) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_outofstep_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  {
    auto built = DocumentStore::Build(kBibXml, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::vector<uint64_t> erased;
    ASSERT_TRUE((*built)->value_column()->Erase(2, 1, &erased).ok());
    ASSERT_TRUE((*built)->Flush().ok());
  }
  options.read_only = true;
  auto store = DocumentStore::OpenDir(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto bp = (*store)->bp_index();
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  for (const uint64_t rank : {uint64_t{0}, (*bp)->node_count() - 1}) {
    auto value = (*store)->ValueAtRank(rank);
    ASSERT_FALSE(value.ok());
    EXPECT_TRUE(value.status().IsCorruption()) << value.status().ToString();
    EXPECT_NE(value.status().ToString().find(store_files::kValueColumn),
              std::string::npos)
        << value.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, ValueColumnCoversEveryNode) {
  auto store = Build(kBibXml);
  EXPECT_EQ(store->value_column()->size(), store->stats().node_count);
}

// ---------------------------------------------------------------------
// Derived structures: the BP index and the path synopsis are built from
// the page chain by one scan on every Build, open and commit, and never
// persisted.

constexpr const char* kDerivedXml = "<a><b><c/></b><b/><d>x</d></a>";
// kDerivedXml after inserting <e/> as the root's first child.
constexpr const char* kDerivedXmlAfterInsert =
    "<a><e/><b><c/></b><b/><d>x</d></a>";

/// The BP index (parentheses with tag names) and the synopsis (one line
/// per rooted path) of `store`, by tag name, so that stores which
/// interned their tags in a different order compare equal.
std::string DescribeDerived(DocumentStore* store) {
  auto bp = store->bp_index();
  auto synopsis = store->path_synopsis();
  EXPECT_TRUE(bp.ok()) << bp.status().ToString();
  EXPECT_TRUE(synopsis.ok()) << synopsis.status().ToString();
  if (!bp.ok() || !synopsis.ok()) return "";
  std::string out;
  for (uint64_t pos = 0; pos < (*bp)->bit_count(); ++pos) {
    out += (*bp)->IsOpen(pos) ? "(" + store->tags()->Name((*bp)->TagAt(pos))
                              : ")";
  }
  for (size_t i = 0; i < (*synopsis)->path_count(); ++i) {
    const PathSynopsis::PathNode& node = (*synopsis)->node(i);
    out += "\n" + store->tags()->Name(node.tag) +
           " count=" + std::to_string(node.count) +
           " level=" + std::to_string(node.level) +
           " parent=" + std::to_string(node.parent) +
           " end=" + std::to_string(node.subtree_end);
  }
  return out;
}

/// Expects `got`'s in-memory value column (offsets and inverse) to equal
/// `want`'s.
void ExpectSameColumn(DocumentStore* got, DocumentStore* want) {
  auto a = got->derived();
  auto b = want->derived();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE((*a)->column_status.ok()) << (*a)->column_status.ToString();
  EXPECT_EQ((*a)->offsets, (*b)->offsets);
  EXPECT_TRUE((*a)->inverse == (*b)->inverse);
  EXPECT_EQ((*a)->offsets.size(), got->tree()->node_count());
}

/// DescribeDerived of an in-memory store freshly built from `xml`.
std::string FreshDerived(const std::string& xml) {
  auto fresh = DocumentStore::Build(xml, DocumentStore::Options());
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  if (!fresh.ok()) return "";
  return DescribeDerived(fresh->get());
}

class DerivedStructuresTest : public ::testing::TestWithParam<NavMode> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nokxml_derived_" + std::string(NavModeName(GetParam())) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    options_.dir = dir_;
    options_.nav_mode = GetParam();
    auto store = DocumentStore::Build(kDerivedXml, options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ(DescribeDerived(store->get()), FreshDerived(kDerivedXml));
    ExpectOnlyComponents(/*wal=*/false);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The store directory holds the five component files, plus the WAL
  /// file of a store that has been opened with the WAL, and nothing else.
  void ExpectOnlyComponents(bool wal) const {
    std::set<std::string> want = {store_files::kTree, store_files::kValues,
                                  store_files::kDict, store_files::kValIdx,
                                  store_files::kValueColumn};
    if (wal) want.insert(kWalFileName);
    std::set<std::string> got;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      got.insert(entry.path().filename().string());
    }
    EXPECT_EQ(got, want);
  }

  std::string dir_;
  DocumentStore::Options options_;
};

TEST_P(DerivedStructuresTest, ReopenDerivesWhatAFreshBuildDoes) {
  for (const bool read_only : {true, false}) {
    SCOPED_TRACE(read_only ? "read-only open" : "writable open");
    DocumentStore::Options options = options_;
    options.read_only = read_only;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(DescribeDerived(store->get()), FreshDerived(kDerivedXml));
  }
  ExpectOnlyComponents(/*wal=*/false);
}

TEST_P(DerivedStructuresTest, StructuralUpdateAndFlushRederive) {
  {
    auto store = DocumentStore::OpenDir(options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId::Root(), 0, "<e/>").ok());
    // Before the commit: rebuilt on demand from the edited chain.
    EXPECT_EQ(DescribeDerived(store->get()),
              FreshDerived(kDerivedXmlAfterInsert));
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ(DescribeDerived(store->get()),
              FreshDerived(kDerivedXmlAfterInsert));
  }
  ExpectOnlyComponents(/*wal=*/false);
  auto store = DocumentStore::OpenDir(options_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(DescribeDerived(store->get()),
            FreshDerived(kDerivedXmlAfterInsert));
}

TEST_P(DerivedStructuresTest, WalAndSnapshotCommitsRederive) {
  std::string last;  // The last snapshot's DescribeDerived.
  {
    DocumentStore::Options wal = options_;
    wal.wal.enabled = true;
    auto store = DocumentStore::OpenDir(wal);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId::Root(), 0, "<e/>").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->wal_stats().commits, 1u);
    EXPECT_EQ(DescribeDerived(store->get()),
              FreshDerived(kDerivedXmlAfterInsert));
  }
  ExpectOnlyComponents(/*wal=*/true);
  {
    SwmrStore::Options options;
    options.store = options_;
    auto swmr = SwmrStore::Open(dir_, options);
    ASSERT_TRUE(swmr.ok()) << swmr.status().ToString();
    ASSERT_TRUE((*swmr)->DeleteSubtree(DeweyId({0, 0})).ok());
    ASSERT_TRUE((*swmr)->Commit().ok());
    EXPECT_EQ(DescribeDerived((*swmr)->snapshot()->store()),
              FreshDerived(kDerivedXml));

    // Twelve more commits mixing inserts and deletes.  Each published
    // snapshot adopts the writer's structures: it reads no tree or column
    // page, and what it holds equals a fresh read-only open's derive.
    DocumentStore::Options read_only = options_;
    read_only.read_only = true;
    std::shared_ptr<const DocumentStore::Derived> previous;
    for (int commit = 0; commit < 12; ++commit) {
      SCOPED_TRACE("commit " + std::to_string(commit));
      if (commit % 3 == 2) {
        ASSERT_TRUE((*swmr)->DeleteSubtree(DeweyId({0, 0})).ok());
      } else {
        const std::string fragment =
            "<f><g>v" + std::to_string(commit) + "</g></f>";
        ASSERT_TRUE((*swmr)
                        ->InsertSubtree(DeweyId::Root(),
                                        static_cast<uint32_t>(commit % 2),
                                        fragment)
                        .ok());
      }
      ASSERT_TRUE((*swmr)->Commit().ok());
      DocumentStore* snap = (*swmr)->snapshot()->store();
      EXPECT_EQ(snap->tree()->buffer_pool()->stats().fetches, 0u);
      EXPECT_EQ(snap->value_column()->buffer_pool()->stats().fetches, 0u);
      auto adopted = snap->derived();
      auto writers = (*swmr)->writer()->derived();
      ASSERT_TRUE(adopted.ok() && writers.ok());
      EXPECT_EQ(adopted->get(), writers->get());

      auto fresh = DocumentStore::OpenDir(read_only);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(DescribeDerived(snap), DescribeDerived(fresh->get()));
      ExpectSameColumn(snap, fresh->get());

      // The previous generation's copy disagrees with this one's meta.
      if (previous != nullptr) {
        auto stale = DocumentStore::OpenDir(read_only, previous);
        ASSERT_FALSE(stale.ok()) << "adopted a stale generation's copy";
        EXPECT_TRUE(stale.status().IsCorruption())
            << stale.status().ToString();
      }
      previous = *adopted;
      last = DescribeDerived(snap);
    }
  }
  ExpectOnlyComponents(/*wal=*/true);
  auto store = DocumentStore::OpenDir(options_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(DescribeDerived(store->get()), last);
}

TEST_P(DerivedStructuresTest, ChainThatDisagreesWithTheMetaFailsOpen) {
  // Claim one node more in the tree meta page than the chain holds, and
  // re-seal the page's CRC so that the count, not the checksum, is what
  // the open sees.
  constexpr size_t kMetaNodeCount = 12;
  const std::string path = dir_ + "/" + store_files::kTree;
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  ASSERT_GT(bytes.size(), size_t{kDefaultPageSize} + 4);
  EncodeFixed64(bytes.data() + kMetaNodeCount,
                DecodeFixed64(bytes.data() + kMetaNodeCount) + 1);
  EncodeFixed32(bytes.data() + kDefaultPageSize,
                Crc32c(Slice(bytes.data(), kDefaultPageSize)));
  ASSERT_TRUE(WriteStringToFile(path, Slice(bytes)).ok());
  for (const bool read_only : {true, false}) {
    DocumentStore::Options options = options_;
    options.read_only = read_only;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_FALSE(store.ok()) << "opened a chain the meta miscounts";
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
    EXPECT_NE(store.status().ToString().find("meta node count"),
              std::string::npos)
        << store.status().ToString();
  }
  ExpectOnlyComponents(/*wal=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    NavModes, DerivedStructuresTest,
    ::testing::Values(NavMode::kPaged, NavMode::kBp),
    [](const ::testing::TestParamInfo<NavMode>& param_info) {
      return std::string(NavModeName(param_info.param));
    });

}  // namespace
}  // namespace nok
