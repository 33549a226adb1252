// On-disk format compatibility: stores written in the retired tree-string
// formats 3 (raw) and 4 (checksummed), which appended per-page tag
// summaries to the meta page, must keep opening, answering and verifying
// as formats 1/2.  The fixtures under tests/fixtures/legacy_format/ were
// built from doc.xml by the last writer of those formats, with 512-byte
// pages for both the tree string and the B+ trees.  They also carry the
// retired rooted tag-path index, which no open, verify or commit reads or
// touches any more.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/coding.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "nok/query_engine.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "tests/oracle.h"
#include "xml/dom.h"

namespace nok {
namespace {

constexpr const char* kFixtureDir = NOK_FIXTURE_DIR "/legacy_format";
constexpr uint64_t kMetaVersionOffset = 32;
/// The retired rooted tag-path index file the fixtures still carry.
constexpr const char* kLegacyPathIdx = "path.idx";

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

std::vector<std::string> Canon(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  return out;
}

class LegacyFormatTest
    : public ::testing::TestWithParam<std::pair<const char*, uint32_t>> {};

TEST_P(LegacyFormatTest, OpensVerifiesAndAnswersLikeTheOracle) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  ASSERT_EQ(MetaVersion(dir), version);
  const std::string path_idx = FileBytes(dir, kLegacyPathIdx);
  ASSERT_FALSE(path_idx.empty());

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
  }
  EXPECT_EQ(FileBytes(dir, kLegacyPathIdx), path_idx);
  std::filesystem::remove_all(dir);
}

TEST_P(LegacyFormatTest, NextCommitRewritesTheMetaAsTheBaseFormat) {
  const auto [name, version] = GetParam();
  const std::string dir = CopyFixture(name);
  const std::string path_idx = FileBytes(dir, kLegacyPathIdx);
  {
    auto store = DocumentStore::OpenDir(FixtureOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId({0}), 0,
                                    "<book><title>New</title></book>")
                    .ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // The writable open rewrote the legacy B+t / B+v entries: every key
    // now carries its Dewey ID after the tag / value-hash prefix.
    for (const auto& [index, prefix_len] :
         {std::pair{(*store)->tag_index(), index_keys::kTagKeySize},
          std::pair{(*store)->value_index(), index_keys::kValueKeySize}}) {
      BTreeIterator it = index->NewIterator();
      ASSERT_TRUE(it.SeekToFirst().ok());
      ASSERT_TRUE(it.Valid());
      while (it.Valid()) {
        EXPECT_GT(it.key().size(), prefix_len);
        ASSERT_TRUE(it.Next().ok());
      }
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
  // The stray path index survived the upgrade, the commit and the
  // reopen byte for byte.
  EXPECT_EQ(FileBytes(dir, kLegacyPathIdx), path_idx);
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
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + kLegacyPathIdx));
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
