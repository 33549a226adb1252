// On-disk damage tests: a checksummed store must turn every flipped byte
// and every truncation into a clean Corruption/IOError -- reported by the
// offline verifier with the damaged file and page named -- and a torn
// multi-file commit (mismatched epochs) must be refused at open.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "encoding/tag_dictionary.h"
#include "encoding/value_store.h"
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
DocumentStoreOptions ChecksummedOptions(const std::string& dir) {
  DocumentStoreOptions options;
  options.dir = dir;
  options.checksum_pages = true;
  options.page_size = 256;
  options.index_page_size = 512;
  return options;
}

void BuildChecksummedStore(const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto store = DocumentStore::Build(kBibXml, ChecksummedOptions(dir));
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
  BuildChecksummedStore(dir);

  const DocumentStoreOptions options = ChecksummedOptions(dir);
  struct Target {
    const char* name;
    uint32_t page_size;
  };
  for (const Target& t :
       {Target{store_files::kTree, options.page_size},
        Target{store_files::kValIdx, options.index_page_size},
        Target{store_files::kIdIdx, options.index_page_size}}) {
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
  BuildChecksummedStore(dir);
  const std::string tree_path = dir + "/" + store_files::kTree;
  const uint64_t slot = 256 + kPageTrailerSize;
  // Damage the last data page (page 0 is the meta page; damaging it fails
  // the open itself, which the truncation test covers).
  const uint64_t pages = FileSize(tree_path) / slot;
  ASSERT_GT(pages, 1u);
  FlipByte(tree_path, (pages - 1) * slot + 100);

  auto store = DocumentStore::OpenDir(ChecksummedOptions(dir));
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

// ---------------------------------------------------------------------------
// Truncation.

TEST(CorruptionTest, TruncatedComponentFilesNeverCrashTheOpen) {
  const std::string dir = TempDir("trunc");
  const std::string scratch = TempDir("trunc_scratch");
  BuildChecksummedStore(dir);

  const std::vector<const char*> components = {
      store_files::kTree,   store_files::kValues, store_files::kDict,
      store_files::kValIdx, store_files::kIdIdx};
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
      auto store = DocumentStore::OpenDir(ChecksummedOptions(scratch));
      if (!store.ok()) {
        EXPECT_TRUE(store.status().IsCorruption() ||
                    store.status().IsIOError() ||
                    store.status().IsNotFound())
            << name << " @" << size << ": " << store.status().ToString();
        continue;
      }
      auto report = VerifyStoreDir(scratch, ChecksummedOptions(scratch));
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
  BuildChecksummedStore(dir);
  std::filesystem::remove_all(old_copy);
  std::filesystem::copy(dir, old_copy);

  // Advance the store by one generation.
  {
    auto store = DocumentStore::OpenDir(ChecksummedOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }

  // Splice the previous generation's value index into the new store: the
  // torn-commit shape a crash between component syncs would leave.
  std::filesystem::copy_file(
      old_copy + "/" + store_files::kValIdx,
      dir + "/" + store_files::kValIdx,
      std::filesystem::copy_options::overwrite_existing);

  auto store = DocumentStore::OpenDir(ChecksummedOptions(dir));
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().ToString().find("generation"), std::string::npos)
      << store.status().ToString();

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(old_copy);
}

// ---------------------------------------------------------------------------
// Lost index entries: checksums pass, but B+v no longer covers B+i.

TEST(CorruptionTest, MissingValueIndexEntryIsReported) {
  const std::string dir = TempDir("lost_value_entry");
  BuildChecksummedStore(dir);
  {
    auto store = DocumentStore::OpenDir(ChecksummedOptions(dir));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The second book's title, 0.1.1 (the year attribute is child 0).
    auto removed = (*store)->value_index()->Delete(Slice(
        index_keys::ValueKey(Slice("Data on the Web"), DeweyId({0, 1, 1}))));
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_TRUE(*removed);
    ASSERT_TRUE((*store)->Flush().ok());
  }

  auto report = VerifyStoreDir(dir, ChecksummedOptions(dir));
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
  auto file = NewMemFile();
  File* raw = file.get();
  ValueStoreOptions options;
  options.checksum_records = true;
  auto store = ValueStore::Open(std::move(file), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  uint64_t offset = 0;
  ASSERT_TRUE((*store)->Append(Slice("precious payload"), &offset).ok());
  ASSERT_TRUE((*store)->Read(offset).ok());

  // Flip a payload byte (skip the length varint at the record start).
  char byte;
  Slice got;
  ASSERT_TRUE(raw->ReadAt(offset + 3, 1, &byte, &got).ok());
  const char flipped = static_cast<char>(got[0] ^ 0x10);
  ASSERT_TRUE(raw->WriteAt(offset + 3, Slice(&flipped, 1)).ok());

  Status s = (*store)->Read(offset).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
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
