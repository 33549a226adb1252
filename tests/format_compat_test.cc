// On-disk format: a store has one format.  Every page of the tree string
// and the B+ trees carries a CRC-32C trailer, every values.dat record a
// CRC of its value, and the dictionary a checksummed header.  The formats
// that came before (raw pages, tree meta versions 0/1/3/4, B+ tree
// versions 0/1, the headerless dictionary, stores without epochs, index
// entries that cache node positions or key B+v by the bare value hash)
// are refused with Corruption, never served and never an abort.  Files
// that retired indexes and sidecars left in a store directory are
// ignored.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/coding.h"
#include "common/hash.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {
namespace {

constexpr uint32_t kPageSize = 512;
constexpr uint64_t kSlotSize = kPageSize + kPageTrailerSize;
// Meta-page field offsets: the tree string's and the B+ trees'.
constexpr uint64_t kTreeMetaVersion = 32;
constexpr uint64_t kTreeMetaEpoch = 36;
constexpr uint64_t kBTreeMetaVersion = 20;

/// A bibliography big enough to span several 512-byte pages per file.
std::string BibXml() {
  std::string xml = "<bib>";
  for (int i = 0; i < 40; ++i) {
    xml += "<book year=\"" + std::to_string(1990 + i % 7) + "\"><title>T" +
           std::to_string(i) + "</title><author><last>L" +
           std::to_string(i % 5) + "</last><first>F" + std::to_string(i % 3) +
           "</first></author><price>" + std::to_string(20 + i) +
           "</price></book>";
  }
  return xml + "</bib>";
}

DocumentStoreOptions SmallPageOptions(const std::string& dir) {
  DocumentStoreOptions options;
  options.dir = dir;
  options.page_size = kPageSize;
  options.index_page_size = kPageSize;
  return options;
}

std::string TempDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_format_" + name + "_" + std::to_string(::getpid())))
      .string();
}

void BuildStore(const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto store = DocumentStore::Build(BibXml(), SmallPageOptions(dir));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Flush().ok());
}

std::string FileBytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

/// Overwrites the 32-bit field at `offset` of page 0 (the meta page) of a
/// paged file and re-seals the page's CRC trailer, so that the reader's
/// field check, not its checksum, sees the change.
void PatchMetaField(const std::string& path, uint64_t offset,
                    uint32_t value) {
  std::string bytes = FileBytes(path);
  ASSERT_GE(bytes.size(), kSlotSize);
  EncodeFixed32(bytes.data() + offset, value);
  EncodeFixed32(bytes.data() + kPageSize,
                Crc32c(Slice(bytes.data(), kPageSize)));
  ASSERT_TRUE(WriteStringToFile(path, Slice(bytes)).ok());
}

uint32_t MetaField(const std::string& path, uint64_t offset) {
  return DecodeFixed32(FileBytes(path).data() + offset);
}

/// The store must refuse to open with Corruption, and the scrub must
/// report damage (so `nokq verify` exits 1).
void ExpectRefused(const std::string& dir, const std::string& what,
                   bool retired, const char* names_file = nullptr) {
  auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
  ASSERT_FALSE(store.ok()) << what << " opened";
  EXPECT_TRUE(store.status().IsCorruption())
      << what << ": " << store.status().ToString();
  if (retired) {
    EXPECT_NE(store.status().ToString().find("nokq build"),
              std::string::npos)
        << what << ": " << store.status().ToString();
  }
  if (names_file != nullptr) {
    EXPECT_NE(store.status().message().find(names_file), std::string::npos)
        << what << ": " << store.status().ToString();
  }
  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
  EXPECT_FALSE(report->ok()) << what << " verified clean";
}

TEST(FormatCompatTest, EveryPageAndValueRecordCarriesAVerifiedCrc) {
  const std::string dir = TempDir("fresh");
  BuildStore(dir);
  EXPECT_EQ(MetaField(dir + "/" + store_files::kTree, kTreeMetaVersion), 2u);
  uint64_t pages = 0;
  for (const char* name :
       {store_files::kTree, store_files::kValIdx, store_files::kIdIdx}) {
    const std::string path = dir + "/" + name;
    const std::string bytes = FileBytes(path);
    ASSERT_EQ(bytes.size() % kSlotSize, 0u) << name;
    ASSERT_GT(bytes.size(), kSlotSize) << name;
    for (uint64_t off = 0; off < bytes.size(); off += kSlotSize) {
      EXPECT_EQ(DecodeFixed32(bytes.data() + off + kPageSize),
                Crc32c(Slice(bytes.data() + off, kPageSize)))
          << name << " page " << off / kSlotSize;
      ++pages;
    }
    if (std::string(name) != store_files::kTree) {
      EXPECT_EQ(MetaField(path, kBTreeMetaVersion), 2u) << name;
    }
  }
  // values.dat is a run of (varint len, value, crc32c(value)) records.
  const std::string values = FileBytes(dir + "/" + store_files::kValues);
  Slice input(values);
  size_t records = 0;
  while (!input.empty()) {
    Slice value;
    ASSERT_TRUE(GetLengthPrefixedSlice(&input, &value));
    ASSERT_GE(input.size(), 4u);
    EXPECT_EQ(DecodeFixed32(input.data()), Crc32c(value));
    input.RemovePrefix(4);
    ++records;
  }
  EXPECT_GT(records, 0u);
  for (const char* retired : {store_files::kTagIdx, store_files::kPathIdx}) {
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + retired)) << retired;
  }
  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  EXPECT_EQ(report->pages_checked, pages);
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, UnknownMetaVersionIsCorruption) {
  const std::string dir = TempDir("version");
  // Tree meta versions: 0/1 were raw pages, 3/4 carried per-page tag
  // summaries; 5 was never written.
  for (const uint32_t version : {0u, 1u, 3u, 4u, 5u}) {
    BuildStore(dir);
    PatchMetaField(dir + "/" + store_files::kTree, kTreeMetaVersion,
                   version);
    ExpectRefused(dir, "tree meta version " + std::to_string(version),
                  /*retired=*/version != 5);
    if (HasFatalFailure()) return;
  }
  // B+ tree versions: 0 and 1 were raw pages; 3 was never written.
  for (const char* name : {store_files::kValIdx, store_files::kIdIdx}) {
    for (const uint32_t version : {0u, 1u, 3u}) {
      BuildStore(dir);
      PatchMetaField(dir + "/" + name, kBTreeMetaVersion, version);
      ExpectRefused(dir,
                    std::string(name) + " version " + std::to_string(version),
                    /*retired=*/version != 3, /*names_file=*/name);
      if (HasFatalFailure()) return;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, RawPagesAreCorruption) {
  // The retired default wrote each page without its trailer, under meta
  // version 1.  Strip the trailers from every page of a fresh tree.
  const std::string dir = TempDir("raw");
  BuildStore(dir);
  const std::string path = dir + "/" + store_files::kTree;
  PatchMetaField(path, kTreeMetaVersion, 1);
  const std::string slots = FileBytes(path);
  std::string raw;
  for (uint64_t off = 0; off < slots.size(); off += kSlotSize) {
    raw.append(slots, off, kPageSize);
  }
  ASSERT_TRUE(WriteStringToFile(path, Slice(raw)).ok());
  ExpectRefused(dir, "raw tree pages", /*retired=*/true);
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, StoreWithoutEpochsIsCorruption) {
  const std::string dir = TempDir("epoch0");
  BuildStore(dir);
  PatchMetaField(dir + "/" + store_files::kTree, kTreeMetaEpoch, 0);
  PatchMetaField(dir + "/" + store_files::kTree, kTreeMetaEpoch + 4, 0);
  ExpectRefused(dir, "epoch 0", /*retired=*/true);
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, HeaderlessDictionaryIsCorruption) {
  const std::string dir = TempDir("dict");
  BuildStore(dir);
  // The retired dictionary was the payload alone: a varint count, then
  // (length-prefixed name, varint count) per tag.
  const std::string path = dir + "/" + store_files::kDict;
  const std::string headed = FileBytes(path);
  ASSERT_TRUE(
      WriteStringToFile(path, Slice(headed.data() + 20, headed.size() - 20))
          .ok());
  ExpectRefused(dir, "headerless dictionary", /*retired=*/true);
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, LeftoverRetiredFilesAreIgnored) {
  // The retired tag-name and tag-path indexes, the stale-positions
  // marker, and the BP index and synopsis sidecars (with a sidecar's temp
  // file) may still sit in a store directory.  No open, verify, commit or
  // snapshot reads or touches them.
  const std::string dir = TempDir("leftovers");
  BuildStore(dir);
  const std::string leftovers[] = {
      store_files::kTagIdx,   store_files::kPathIdx,
      "positions.stale",      store_files::kBpIndex,
      store_files::kSynopsis, std::string(store_files::kBpIndex) + ".tmp"};
  for (const std::string& name : leftovers) {
    ASSERT_TRUE(
        WriteStringToFile(dir + "/" + name, Slice("not a store file")).ok());
  }
  for (const bool read_only : {true, false}) {
    DocumentStoreOptions options = SmallPageOptions(dir);
    options.read_only = read_only;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    auto books = engine.Evaluate("//book[title=\"T7\"]");
    ASSERT_TRUE(books.ok()) << books.status().ToString();
    ASSERT_EQ(books->size(), 1u);
    EXPECT_EQ((*books)[0].ToString(), "0.7");
  }
  {
    SwmrStore::Options options;
    options.store = SmallPageOptions(dir);
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
  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues[0].detail;
  for (const std::string& name : leftovers) {
    EXPECT_EQ(FileBytes(dir + "/" + name), "not a store file") << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(FormatCompatTest, PositionBearingIndexEntriesAreCorruption) {
  // Index entries once cached each node's position: a varint ahead of the
  // B+i payload, the B+v value (first under the bare value-hash key, then
  // after the Dewey ID moved into the key).  Rewrite one entry of a fresh
  // store each way; the scrub must name it and the probes that meet it
  // must fail cleanly.
  const std::string dir = TempDir("entries");
  enum class Entry { kIdPosition, kValueBareKey, kValuePosition };
  for (const Entry entry :
       {Entry::kIdPosition, Entry::kValueBareKey, Entry::kValuePosition}) {
    BuildStore(dir);
    // The title "T7" of the eighth book, 0.7.1 (the year attribute is
    // child 0).
    const DeweyId title({0, 7, 1});
    {
      auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      std::string position;
      PutVarint64(&position, 12345);
      if (entry == Entry::kIdPosition) {
        BTree* index = (*store)->id_index();
        const std::string key = title.Encode();
        auto payload = index->Get(Slice(key));
        ASSERT_TRUE(payload.ok()) << payload.status().ToString();
        ASSERT_TRUE(index->Delete(Slice(key)).ok());
        ASSERT_TRUE(index->Insert(Slice(key), Slice(position + *payload))
                        .ok());
      } else {
        BTree* index = (*store)->value_index();
        const std::string key = index_keys::ValueKey(Slice("T7"), title);
        auto removed = index->Delete(Slice(key));
        ASSERT_TRUE(removed.ok() && *removed);
        if (entry == Entry::kValueBareKey) {
          ASSERT_TRUE(index
                          ->Insert(Slice(index_keys::ValueKey(Slice("T7"))),
                                   Slice(position + title.Encode()))
                          .ok());
        } else {
          ASSERT_TRUE(index->Insert(Slice(key), Slice(position)).ok());
        }
      }
      ASSERT_TRUE((*store)->Flush().ok());
    }
    auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_FALSE(report->ok()) << "a retired entry verified clean";
    EXPECT_EQ(report->issues[0].component,
              entry == Entry::kIdPosition ? "B+i" : "B+v");
    EXPECT_NE(report->issues[0].detail.find("nokq build"), std::string::npos)
        << report->issues[0].detail;

    DocumentStoreOptions options = SmallPageOptions(dir);
    options.read_only = true;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    QueryOptions probe;
    probe.strategy = StartStrategy::kValueIndex;
    auto got = engine.Evaluate("//book[title=\"T7\"]", probe);
    ASSERT_FALSE(got.ok()) << "a retired entry was served";
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
