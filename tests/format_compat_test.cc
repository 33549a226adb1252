// On-disk format compatibility: stores written in the retired tree-string
// formats 3 (raw) and 4 (checksummed), which appended per-page tag
// summaries to the meta page, must keep opening, answering and verifying
// as formats 1/2.  The fixtures under tests/fixtures/legacy_format/ were
// built from doc.xml by the last writer of those formats, with 512-byte
// pages for both the tree string and the B+ trees.  They also carry the
// retired tag-name index (B+t, whose probes the BP index now answers) and
// rooted tag-path index, which no open, verify or commit reads or touches
// any more.
//
// Index entries once cached each node's physical position: B+v values
// and the leading varint of B+i payloads.  Current writers store none,
// and readers skip the ones old stores still carry, so those stores
// answer, update and verify without a format bump.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/coding.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "tests/oracle.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kFixtureDir = NOK_FIXTURE_DIR "/legacy_format";
constexpr uint64_t kMetaVersionOffset = 32;
/// The retired index files the fixtures still carry: the tag-name index
/// (B+t) and the rooted tag-path index.
const char* const kLegacyIndexFiles[] = {"tag.idx", "path.idx"};
/// The retired marker of stale cached positions, which updates wrote.
constexpr const char* kLegacyStaleMarker = "positions.stale";

const StartStrategy kStrategies[] = {
    StartStrategy::kAuto, StartStrategy::kScan, StartStrategy::kTagIndex,
    StartStrategy::kValueIndex};

const char* const kQueries[] = {
    "//book",
    "/bib/book[author/last=\"L3\"]/title",
    "//book[price<40]//first",
    "//author[first=\"F0\"]/last",
    "/bib/book[editor]/title",
    "//book[@year=\"1995\"]/price",
    "//editor/following::title",
};

DocumentStoreOptions FixtureOptions(const std::string& dir) {
  DocumentStoreOptions options;
  options.dir = dir;
  options.page_size = 512;
  options.index_page_size = 512;
  return options;
}

/// A private copy of one fixture store: opening a store writes sidecars,
/// and the committed fixture must stay as the old writer left it.
std::string CopyFixture(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_compat_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::copy(std::string(kFixtureDir) + "/" + name, dir);
  return dir;
}

uint32_t MetaVersion(const std::string& dir) {
  auto file = OpenPosixFile(dir + "/" + store_files::kTree, false);
  EXPECT_TRUE(file.ok());
  char buf[4];
  Slice got;
  EXPECT_TRUE((*file)->ReadAt(kMetaVersionOffset, 4, buf, &got).ok());
  return DecodeFixed32(got.data());
}

/// The bytes of one file of a store directory.
std::string FileBytes(const std::string& dir, const char* name) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(dir + "/" + name, &bytes).ok()) << name;
  return bytes;
}

/// The bytes of each retired index file in dir (kLegacyIndexFiles order).
std::vector<std::string> LegacyIndexBytes(const std::string& dir) {
  std::vector<std::string> out;
  for (const char* name : kLegacyIndexFiles) {
    out.push_back(FileBytes(dir, name));
  }
  return out;
}

std::vector<std::string> Canon(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  return out;
}

/// Every query under every start strategy must answer as the oracle does
/// on `dom`.
void ExpectAnswersMatch(DocumentStore* store, const DomTree& dom,
                        const std::string& label) {
  QueryEngine engine(store);
  for (const StartStrategy strategy : kStrategies) {
    QueryOptions options;
    options.strategy = strategy;
    for (const char* query : kQueries) {
      auto got = engine.Evaluate(query, options);
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      auto want = OracleEvaluateDewey(query, dom);
      ASSERT_TRUE(want.ok()) << query;
      EXPECT_EQ(Canon(*got), Canon(*want))
          << query << " " << label << " nav="
          << NavModeName(store->nav_mode())
          << " strategy=" << StrategyName(strategy);
    }
  }
}

DomTree FixtureDom() {
  std::string xml;
  EXPECT_TRUE(
      ReadFileToString(std::string(kFixtureDir) + "/doc.xml", &xml).ok());
  auto dom = DomTree::Parse(xml);
  EXPECT_TRUE(dom.ok());
  return std::move(dom).ValueOrDie();
}

/// Number of varints in each B+i payload: 2 for a legacy payload (a
/// position, then the value field), 1 for a current one.
std::vector<size_t> IdPayloadWidths(BTree* id_index) {
  std::vector<size_t> widths;
  BTreeIterator it = id_index->NewIterator();
  EXPECT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    Slice payload = it.value();
    size_t varints = 0;
    uint64_t v = 0;
    while (!payload.empty() && GetVarint64(&payload, &v)) ++varints;
    widths.push_back(varints);
    EXPECT_TRUE(it.Next().ok());
  }
  return widths;
}

size_t CountWidth(const std::vector<size_t>& widths, size_t width) {
  return static_cast<size_t>(
      std::count(widths.begin(), widths.end(), width));
}

class LegacyFormatTest
    : public ::testing::TestWithParam<std::pair<const char*, uint32_t>> {};

TEST_P(LegacyFormatTest, OpensVerifiesAndAnswersLikeTheOracle) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  ASSERT_EQ(MetaVersion(dir), version);
  const std::vector<std::string> legacy_indexes = LegacyIndexBytes(dir);
  for (const std::string& bytes : legacy_indexes) ASSERT_FALSE(bytes.empty());

  auto report = VerifyStoreDir(dir, FixtureOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].component << ": "
                            << report->issues[0].detail;
  EXPECT_GT(report->entries_checked, 0u);

  std::string xml;
  ASSERT_TRUE(
      ReadFileToString(std::string(kFixtureDir) + "/doc.xml", &xml).ok());
  auto dom = DomTree::Parse(xml);
  ASSERT_TRUE(dom.ok());
  for (const NavMode nav_mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.nav_mode = nav_mode;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_GT((*store)->tree()->chain_length(), 1u);
    QueryEngine engine(store->get());
    for (const char* query : kQueries) {
      auto got = engine.Evaluate(query);
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      auto want = OracleEvaluateDewey(query, *dom);
      ASSERT_TRUE(want.ok()) << query;
      EXPECT_EQ(Canon(*got), Canon(*want))
          << query << " nav=" << NavModeName(nav_mode);
    }
    // Tag probes come from the BP index, not from the fixture's B+t.
    ExpectAnswersMatch(store->get(), *dom, name);
  }
  EXPECT_EQ(LegacyIndexBytes(dir), legacy_indexes);
  std::filesystem::remove_all(dir);
}

TEST_P(LegacyFormatTest, NextCommitRewritesTheMetaAsTheBaseFormat) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  const std::vector<std::string> legacy_indexes = LegacyIndexBytes(dir);
  {
    auto store = DocumentStore::OpenDir(FixtureOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId({0}), 0,
                                    "<book><title>New</title></book>")
                    .ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // The writable open rewrote the legacy B+v entries: every key now
    // carries its Dewey ID after the value-hash prefix.
    BTreeIterator it = (*store)->value_index()->NewIterator();
    ASSERT_TRUE(it.SeekToFirst().ok());
    ASSERT_TRUE(it.Valid());
    while (it.Valid()) {
      EXPECT_GT(it.key().size(), index_keys::kValueKeySize);
      ASSERT_TRUE(it.Next().ok());
    }
  }
  // 3 -> 1 (raw), 4 -> 2 (checksummed); the data pages never changed.
  EXPECT_EQ(MetaVersion(dir), version - 2);
  auto report = VerifyStoreDir(dir, FixtureOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  auto store = DocumentStore::OpenDir(FixtureOptions(dir));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryEngine engine(store->get());
  auto titles = engine.Evaluate("/bib/book[title=\"New\"]");
  ASSERT_TRUE(titles.ok()) << titles.status().ToString();
  ASSERT_EQ(titles->size(), 1u);
  EXPECT_EQ((*titles)[0].ToString(), "0.0");
  // The stray B+t and path index survived the upgrade, the commit and
  // the reopen byte for byte.
  EXPECT_EQ(LegacyIndexBytes(dir), legacy_indexes);
  std::filesystem::remove_all(dir);
}

TEST_P(LegacyFormatTest, ReadOnlyOpensServePositionBearingEntries) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  const DomTree dom = FixtureDom();
  for (const NavMode nav_mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.read_only = true;
    options.nav_mode = nav_mode;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The entries are as the old writer left them: bare-prefix B+v keys
    // with the position ahead of the Dewey ID in the value, and a
    // position ahead of the value field in every B+i payload.
    BTreeIterator it = (*store)->value_index()->NewIterator();
    ASSERT_TRUE(it.SeekToFirst().ok());
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().size(), index_keys::kValueKeySize);
    const std::vector<size_t> widths = IdPayloadWidths((*store)->id_index());
    EXPECT_EQ(CountWidth(widths, 2), widths.size());
    ExpectAnswersMatch(store->get(), dom, name);
  }
  std::filesystem::remove_all(dir);
}

TEST_P(LegacyFormatTest, AppendMixesLegacyAndCurrentEntriesAndVerifies) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  DomTree dom = FixtureDom();
  const std::string fragment = "<book><title>Tail</title></book>";
  {
    auto store = DocumentStore::OpenDir(FixtureOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Appending shifts no sibling, so the old entries stay as they are.
    const uint32_t last =
        static_cast<uint32_t>(dom.root()->children.size());
    ASSERT_TRUE(
        (*store)->InsertSubtree(DeweyId::Root(), last, fragment).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto updated_xml = std::string();
  ASSERT_TRUE(
      ReadFileToString(std::string(kFixtureDir) + "/doc.xml", &updated_xml)
          .ok());
  updated_xml.insert(updated_xml.rfind("</bib>"), fragment);
  auto updated = DomTree::Parse(updated_xml);
  ASSERT_TRUE(updated.ok());

  auto report = VerifyStoreDir(dir, FixtureOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  for (const NavMode nav_mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.read_only = true;
    options.nav_mode = nav_mode;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const std::vector<size_t> widths = IdPayloadWidths((*store)->id_index());
    EXPECT_EQ(CountWidth(widths, 1), 2u);  // The new book and its title.
    EXPECT_EQ(CountWidth(widths, 2), widths.size() - 2);
    ExpectAnswersMatch(store->get(), *updated, name);
  }
  std::filesystem::remove_all(dir);
}

TEST_P(LegacyFormatTest, LeftoverStaleMarkerIsIgnored) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  ASSERT_TRUE(WriteStringToFile(dir + "/" + kLegacyStaleMarker, Slice("1"))
                  .ok());
  const DomTree dom = FixtureDom();
  for (const bool read_only : {true, false}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.read_only = read_only;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExpectAnswersMatch(store->get(), dom, name);
  }
  auto report = VerifyStoreDir(dir, FixtureOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  {
    SwmrStore::Options options;
    options.store = FixtureOptions(dir);
    auto swmr = SwmrStore::Open(dir, options);
    ASSERT_TRUE(swmr.ok()) << swmr.status().ToString();
    ASSERT_TRUE((*swmr)
                    ->InsertSubtree(DeweyId::Root(), 0,
                                    "<book><title>Front</title></book>")
                    .ok());
    ASSERT_TRUE((*swmr)->Commit().ok());
    QueryEngine engine((*swmr)->snapshot()->store());
    auto front = engine.Evaluate("/bib/book[title=\"Front\"]");
    ASSERT_TRUE(front.ok()) << front.status().ToString();
    ASSERT_EQ(front->size(), 1u);
    EXPECT_EQ((*front)[0].ToString(), "0.0");
  }
  // Nothing removed or rewrote it.
  EXPECT_EQ(FileBytes(dir, kLegacyStaleMarker), "1");
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, LegacyFormatTest,
    ::testing::Values(std::make_pair("v3", 3u), std::make_pair("v4", 4u)),
    [](const auto& test) { return std::string(test.param.first); });

TEST(FormatCompatTest, NewStoresWriteTheBaseFormatsWithIdenticalDataPages) {
  std::string xml;
  ASSERT_TRUE(
      ReadFileToString(std::string(kFixtureDir) + "/doc.xml", &xml).ok());
  for (const bool checksum : {false, true}) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("nokxml_compat_new_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    DocumentStoreOptions options = FixtureOptions(dir);
    options.checksum_pages = checksum;
    {
      auto store = DocumentStore::Build(xml, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)->Flush().ok());
    }
    EXPECT_EQ(MetaVersion(dir), checksum ? 2u : 1u);
    for (const char* retired : kLegacyIndexFiles) {
      EXPECT_FALSE(std::filesystem::exists(dir + "/" + retired)) << retired;
    }
    // Only the meta page (the first slot) may differ from the fixture.
    std::string fresh, legacy;
    ASSERT_TRUE(
        ReadFileToString(dir + "/" + store_files::kTree, &fresh).ok());
    ASSERT_TRUE(ReadFileToString(std::string(kFixtureDir) +
                                     (checksum ? "/v4/" : "/v3/") +
                                     store_files::kTree,
                                 &legacy)
                    .ok());
    const size_t slot = 512 + (checksum ? kPageTrailerSize : 0);
    ASSERT_EQ(fresh.size(), legacy.size());
    ASSERT_GT(fresh.size(), slot);
    EXPECT_TRUE(fresh.compare(slot, std::string::npos, legacy, slot,
                              std::string::npos) == 0);
    std::filesystem::remove_all(dir);
  }
}

TEST(FormatCompatTest, KeyedEntriesWithCachedPositionsStillServe) {
  // The writer before the current one keyed B+v entries by Dewey ID but
  // still stored the node's position as the value.  Rewrite a fresh
  // store's entries that way, then read, update and verify it.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_compat_keyed_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::string xml;
  ASSERT_TRUE(
      ReadFileToString(std::string(kFixtureDir) + "/doc.xml", &xml).ok());
  {
    auto store = DocumentStore::Build(xml, FixtureOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    {
      BTree* index = (*store)->value_index();
      std::vector<std::pair<std::string, std::string>> entries;
      BTreeIterator it = index->NewIterator();
      ASSERT_TRUE(it.SeekToFirst().ok());
      while (it.Valid()) {
        EXPECT_TRUE(it.value().empty());
        DeweyId dewey = DeweyId::Root();
        ASSERT_TRUE(
            index_keys::ParseNodeRefEntry(it.key(), it.value(), &dewey).ok());
        auto pos = (*store)->Navigate(dewey);
        ASSERT_TRUE(pos.ok());
        std::string value;
        PutVarint64(&value, (*store)->tree()->GlobalPos(*pos));
        entries.emplace_back(it.key().ToString(), value);
        ASSERT_TRUE(it.Next().ok());
      }
      it = index->NewIterator();  // Unpin before writing.
      for (const auto& [key, value] : entries) {
        ASSERT_TRUE(index->Delete(Slice(key)).ok());
        ASSERT_TRUE(index->Insert(Slice(key), Slice(value)).ok());
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const DomTree dom = FixtureDom();
  for (const NavMode nav_mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.read_only = true;
    options.nav_mode = nav_mode;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExpectAnswersMatch(store->get(), dom, "keyed");
  }
  // An insert before the third book moves every shifted entry to the
  // current layout and keeps the rest: the tree now mixes both.
  const std::string fragment = "<book><title>Middle</title></book>";
  {
    auto store = DocumentStore::OpenDir(FixtureOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(
        (*store)->InsertSubtree(DeweyId::Root(), 2, fragment).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    size_t empty = 0, positioned = 0;
    BTreeIterator it = (*store)->value_index()->NewIterator();
    ASSERT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      ++(it.value().empty() ? empty : positioned);
      ASSERT_TRUE(it.Next().ok());
    }
    EXPECT_GT(empty, 0u);
    // The first two books' valued nodes: no insert after them shifts them.
    EXPECT_GT(positioned, 0u);
  }
  auto report = VerifyStoreDir(dir, FixtureOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  std::string updated_xml = xml;
  size_t third_book = updated_xml.find("<book");
  for (int i = 0; i < 2; ++i) {
    third_book = updated_xml.find("<book", third_book + 1);
  }
  ASSERT_NE(third_book, std::string::npos);
  updated_xml.insert(third_book, fragment);
  auto updated = DomTree::Parse(updated_xml);
  ASSERT_TRUE(updated.ok());
  for (const NavMode nav_mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = FixtureOptions(dir);
    options.nav_mode = nav_mode;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExpectAnswersMatch(store->get(), *updated, "keyed+insert");
  }
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, UnknownMetaVersionIsCorruption) {
  const std::string dir = CopyFixture("v3");
  {
    auto file = OpenPosixFile(dir + "/" + store_files::kTree, false);
    ASSERT_TRUE(file.ok());
    char buf[4];
    EncodeFixed32(buf, 5);
    ASSERT_TRUE((*file)->WriteAt(kMetaVersionOffset, Slice(buf, 4)).ok());
  }
  auto store = DocumentStore::OpenDir(FixtureOptions(dir));
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
