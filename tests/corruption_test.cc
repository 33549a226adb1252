// On-disk damage tests: a store must turn every flipped byte
// and every truncation into a clean Corruption/IOError -- reported by the
// offline verifier with the damaged file and page named -- and a torn
// multi-file commit (mismatched epochs) must be refused at open.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "encoding/tag_dictionary.h"
#include "encoding/value_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"

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

std::string TempDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_corrupt_" + name + "_" + std::to_string(::getpid())))
      .string();
}

/// Small pages so the bib document spans several of them.
DocumentStoreOptions SmallPageOptions(const std::string& dir) {
  DocumentStoreOptions options;
  options.dir = dir;
  options.page_size = 256;
  options.index_page_size = 512;
  return options;
}

void BuildStore(const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto store = DocumentStore::Build(kBibXml, SmallPageOptions(dir));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Flush().ok());
}

void FlipByte(const std::string& path, uint64_t offset) {
  auto file = OpenPosixFile(path, /*create=*/false);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  char byte;
  Slice got;
  ASSERT_TRUE((*file)->ReadAt(offset, 1, &byte, &got).ok());
  const char flipped = static_cast<char>(got[0] ^ 0x01);
  ASSERT_TRUE((*file)->WriteAt(offset, Slice(&flipped, 1)).ok());
}

uint64_t FileSize(const std::string& path) {
  auto file = OpenPosixFile(path, /*create=*/false);
  EXPECT_TRUE(file.ok());
  return file.ok() ? (*file)->Size() : 0;
}

// ---------------------------------------------------------------------------
// Bit rot.

TEST(CorruptionTest, FlippedByteInAnyPageOfAnyFileIsDetected) {
  const std::string dir = TempDir("flippage");
  BuildStore(dir);

  const DocumentStoreOptions options = SmallPageOptions(dir);
  struct Target {
    const char* name;
    uint32_t page_size;
  };
  for (const Target& t :
       {Target{store_files::kTree, options.page_size},
        Target{store_files::kValIdx, options.index_page_size},
        Target{store_files::kValueColumn, options.page_size}}) {
    const std::string path = dir + "/" + t.name;
    const uint64_t slot = t.page_size + kPageTrailerSize;
    const uint64_t pages = FileSize(path) / slot;
    ASSERT_GT(pages, 0u) << t.name;
    for (uint64_t page = 0; page < pages; ++page) {
      // One byte in the middle of this page's body.
      const uint64_t offset = page * slot + t.page_size / 2;
      FlipByte(path, offset);
      auto report = VerifyStoreDir(dir, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_FALSE(report->ok())
          << t.name << " page " << page << ": damage not detected";
      EXPECT_EQ(report->issues[0].component, t.name);
      EXPECT_NE(report->issues[0].detail.find(
                    "page " + std::to_string(page)),
                std::string::npos)
          << report->issues[0].detail;
      FlipByte(path, offset);  // Heal.
    }
  }
  // Healed store is clean again.
  auto report = VerifyStoreDir(dir, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_GT(report->entries_checked, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, FlippedTreePageFailsQueriesWithCorruption) {
  const std::string dir = TempDir("flipquery");
  BuildStore(dir);
  const std::string tree_path = dir + "/" + store_files::kTree;
  const uint64_t slot = 256 + kPageTrailerSize;
  // Damage the last data page (page 0 is the meta page; damaging it fails
  // the open itself, which the truncation test covers).
  const uint64_t pages = FileSize(tree_path) / slot;
  ASSERT_GT(pages, 1u);
  FlipByte(tree_path, (pages - 1) * slot + 100);

  auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
  if (store.ok()) {
    // The open may not touch the damaged page; a full scan must.
    auto book_tag = (*store)->tags()->Lookup("book");
    ASSERT_TRUE(book_tag.has_value());
    Status s = Status::OK();
    for (uint32_t i = 0; i < 8 && s.ok(); ++i) {
      s = (*store)->Navigate(DeweyId({0, 0, 2, 0})).status();
      s = s.ok() ? (*store)->Navigate(DeweyId({0, 1, 2, 0})).status() : s;
    }
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  } else {
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

/// Every start strategy that reads the damaged component, in both nav
/// modes, must answer a value query on `dir` with a Corruption whose
/// message contains `names`; a scan reads B+v only when `scan_reads` is
/// false, and then must answer right.
void ExpectValueQueriesFailWithCorruption(const std::string& dir,
                                          const std::string& names,
                                          bool scan_reads) {
  for (const NavMode mode : {NavMode::kPaged, NavMode::kBp}) {
    DocumentStoreOptions options = SmallPageOptions(dir);
    options.nav_mode = mode;
    options.read_only = true;
    // The open reads no value column or B+v page, so it succeeds.
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    for (const StartStrategy strategy :
         {StartStrategy::kAuto, StartStrategy::kScan,
          StartStrategy::kValueIndex}) {
      QueryOptions qo;
      qo.strategy = strategy;
      auto got = engine.Evaluate("//book[title=\"Data on the Web\"]", qo);
      if (strategy == StartStrategy::kScan && !scan_reads) {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->size(), 1u);
        EXPECT_EQ((*got)[0].ToString(), "0.1");
        continue;
      }
      ASSERT_FALSE(got.ok()) << StrategyName(strategy) << ": answered";
      EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
      EXPECT_NE(got.status().ToString().find(names), std::string::npos)
          << got.status().ToString();
    }
  }
}

TEST(CorruptionTest, FlippedValueColumnPageFailsValueQueriesWithCorruption) {
  const std::string dir = TempDir("flipcolumn");
  BuildStore(dir);
  // Page 1, the column's first data page, holds every entry of the bib
  // document; page 0 is its meta page.
  const std::string path = dir + "/" + store_files::kValueColumn;
  const uint64_t slot = 256 + kPageTrailerSize;
  ASSERT_EQ(FileSize(path), 2 * slot);
  FlipByte(path, slot + 10);

  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok()) << "a flipped column byte verified clean";
  EXPECT_EQ(report->issues[0].component, store_files::kValueColumn);
  EXPECT_NE(report->issues[0].detail.find("page 1"), std::string::npos)
      << report->issues[0].detail;
  ExpectValueQueriesFailWithCorruption(dir, store_files::kValueColumn,
                                       /*scan_reads=*/true);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, BadCellLengthInAValueIndexLeafIsATypedError) {
  // A cell whose key length runs past its page, in a page whose checksum
  // was re-sealed over the damage: only the node check can catch it.
  const std::string dir = TempDir("cell");
  BuildStore(dir);
  const uint32_t page_size = SmallPageOptions(dir).index_page_size;
  const uint64_t slot = page_size + kPageTrailerSize;
  const std::string path = dir + "/" + store_files::kValIdx;
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // The bib document's B+v is one leaf, its root, page 1: byte 0 is the
  // node type (1 = leaf), slot 0 sits after the 12-byte header.
  ASSERT_EQ(bytes.size(), 2 * slot);
  char* leaf = bytes.data() + slot;
  ASSERT_EQ(leaf[0], 1);
  const uint16_t cell = DecodeFixed16(leaf + 12);
  ASSERT_LT(cell + 5u, page_size);
  const char huge_varint[] = {'\xff', '\xff', '\xff', '\xff', '\x0f'};
  memcpy(leaf + cell, huge_varint, sizeof(huge_varint));
  EncodeFixed32(leaf + page_size, Crc32c(Slice(leaf, page_size)));
  ASSERT_TRUE(WriteStringToFile(path, Slice(bytes)).ok());

  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok()) << "a bad cell length verified clean";
  EXPECT_EQ(report->issues[0].component, "B+v");
  EXPECT_NE(report->issues[0].detail.find("btree page 1: cell 0"),
            std::string::npos)
      << report->issues[0].detail;
  ExpectValueQueriesFailWithCorruption(dir, "btree page 1",
                                       /*scan_reads=*/false);
  // The write path meets the same check.
  auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Status s = (*store)->InsertSubtree(DeweyId::Root(), 0,
                                     "<book><title>New</title></book>");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Truncation.

TEST(CorruptionTest, TruncatedComponentFilesNeverCrashTheOpen) {
  const std::string dir = TempDir("trunc");
  const std::string scratch = TempDir("trunc_scratch");
  BuildStore(dir);

  const std::vector<const char*> components = {
      store_files::kTree,   store_files::kValues,
      store_files::kDict,   store_files::kValIdx,
      store_files::kValueColumn};
  for (const char* name : components) {
    const uint64_t orig = FileSize(dir + "/" + name);
    ASSERT_GT(orig, 0u) << name;
    for (uint64_t size : std::vector<uint64_t>{0, 1, orig / 2, orig - 1}) {
      if (size >= orig) continue;

      std::filesystem::remove_all(scratch);
      std::filesystem::copy(dir, scratch);
      {
        auto file = OpenPosixFile(scratch + "/" + name, /*create=*/false);
        ASSERT_TRUE(file.ok());
        ASSERT_TRUE((*file)->Truncate(size).ok());
      }

      // The damage must surface as a clean error -- at open or in the
      // scrub -- never as a crash or a store that reads back clean.
      auto store = DocumentStore::OpenDir(SmallPageOptions(scratch));
      if (!store.ok()) {
        EXPECT_TRUE(store.status().IsCorruption() ||
                    store.status().IsIOError() ||
                    store.status().IsNotFound())
            << name << " @" << size << ": " << store.status().ToString();
        continue;
      }
      auto report = VerifyStoreDir(scratch, SmallPageOptions(scratch));
      if (report.ok()) {
        EXPECT_FALSE(report->ok())
            << name << " truncated to " << size
            << " opened and verified clean";
      }
    }
  }
  std::filesystem::remove_all(scratch);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, StandaloneStoreOpensRejectDamagedFiles) {
  // StringStore: a file too small to hold a meta page.
  {
    auto file = NewMemFile();
    ASSERT_TRUE(file->WriteAt(0, Slice("x")).ok());
    Status s = StringStore::Open(std::move(file)).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // StringStore: an empty file is not a store either.
  {
    Status s = StringStore::Open(NewMemFile()).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // BTree: a file that is not a whole number of pages.
  {
    auto file = NewMemFile();
    ASSERT_TRUE(file->WriteAt(0, Slice(std::string(100, 'b'))).ok());
    BTreeOptions options;
    options.page_size = 512;
    Status s = BTree::Open(std::move(file), options).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // BTree: an empty file with error_if_empty set means lost data.
  {
    BTreeOptions options;
    options.error_if_empty = true;
    Status s = BTree::Open(NewMemFile(), options).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // TagDictionary: a header-bearing blob cut off mid-payload.
  {
    TagDictionary dict;
    ASSERT_TRUE(dict.Intern("tag").ok());
    const std::string blob = dict.Serialize(1);
    auto r = TagDictionary::Deserialize(Slice(blob.data(), blob.size() - 2));
    EXPECT_FALSE(r.ok());
  }
}

// ---------------------------------------------------------------------------
// Epoch mismatch (torn multi-file commit).

TEST(CorruptionTest, MixedGenerationComponentsAreRefused) {
  const std::string dir = TempDir("epoch");
  const std::string old_copy = TempDir("epoch_old");
  BuildStore(dir);
  std::filesystem::remove_all(old_copy);
  std::filesystem::copy(dir, old_copy);

  // Advance the store by one generation.
  {
    auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }

  // Splice the previous generation's value index into the new store: the
  // torn-commit shape a crash between component syncs would leave.
  std::filesystem::copy_file(
      old_copy + "/" + store_files::kValIdx,
      dir + "/" + store_files::kValIdx,
      std::filesystem::copy_options::overwrite_existing);

  auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().ToString().find("generation"), std::string::npos)
      << store.status().ToString();

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(old_copy);
}

// ---------------------------------------------------------------------------
// Lost index entries: checksums pass, but B+v no longer covers the value
// column.

/// The key of B+v's first entry under `value`'s hash.
std::string FirstValueKey(DocumentStore* store, const std::string& value) {
  const std::string prefix = index_keys::ValueKey(Slice(value));
  BTreeIterator it = store->value_index()->NewIterator();
  EXPECT_TRUE(it.Seek(Slice(prefix)).ok());
  EXPECT_TRUE(it.Valid() && it.key().starts_with(Slice(prefix))) << value;
  return it.Valid() ? it.key().ToString() : prefix;
}

TEST(CorruptionTest, MissingValueIndexEntryIsReported) {
  const std::string dir = TempDir("lost_value_entry");
  BuildStore(dir);
  {
    auto store = DocumentStore::OpenDir(SmallPageOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The second book's title.
    const std::string key = FirstValueKey(store->get(), "Data on the Web");
    auto removed = (*store)->value_index()->Delete(Slice(key));
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_TRUE(*removed);
    ASSERT_TRUE((*store)->Flush().ok());
  }

  auto report = VerifyStoreDir(dir, SmallPageOptions(dir));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok()) << "a lost B+v entry verified clean";
  EXPECT_EQ(report->issues[0].component, "B+v");
  EXPECT_NE(report->issues[0].detail.find("entries"), std::string::npos)
      << report->issues[0].detail;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Value records and the dictionary.

TEST(CorruptionTest, ValueRecordChecksumDetectsFlippedPayloadByte) {
  // A short record is read with one read, a long one with two.
  for (const std::string& payload :
       {std::string("precious payload"), std::string(1000, 'p')}) {
    auto file = NewMemFile();
    File* raw = file.get();
    auto store = ValueStore::Open(std::move(file));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    uint64_t offset = 0;
    ASSERT_TRUE((*store)->Append(Slice(payload), &offset).ok());
    ASSERT_TRUE((*store)->Read(offset).ok());

    // Flip a payload byte (skip the length varint at the record start).
    char byte;
    Slice got;
    ASSERT_TRUE(raw->ReadAt(offset + 3, 1, &byte, &got).ok());
    const char flipped = static_cast<char>(got[0] ^ 0x10);
    ASSERT_TRUE(raw->WriteAt(offset + 3, Slice(&flipped, 1)).ok());

    Status s = (*store)->Read(offset).status();
    EXPECT_TRUE(s.IsCorruption()) << payload.size() << ": " << s.ToString();
  }
}

TEST(CorruptionTest, DictionaryChecksumDetectsDamage) {
  TagDictionary dict;
  ASSERT_TRUE(dict.Intern("chapter").ok());
  ASSERT_TRUE(dict.Intern("section").ok());
  const std::string blob = dict.Serialize(/*epoch=*/7);

  uint64_t epoch = 0;
  auto reloaded = TagDictionary::Deserialize(Slice(blob), &epoch);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(epoch, 7u);

  std::string damaged = blob;
  damaged[damaged.size() / 2] =
      static_cast<char>(damaged[damaged.size() / 2] ^ 0x01);
  auto broken = TagDictionary::Deserialize(Slice(damaged), &epoch);
  EXPECT_FALSE(broken.ok()) << "flipped byte accepted";
}

}  // namespace
}  // namespace nok
