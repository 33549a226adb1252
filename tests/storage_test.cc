#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_storage_test_" + name + "_" +
           std::to_string(::getpid())))
      .string();
}

// ---------------------------------------------------------------------------
// File.

class FileKinds : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<File> Make() {
    if (GetParam()) {
      path_ = TempPath("file");
      NOK_IGNORE_STATUS(RemoveFile(path_), "pre-test scratch cleanup");
      auto r = OpenPosixFile(path_, /*create=*/true);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return std::move(r).ValueOrDie();
    }
    return NewMemFile();
  }
  void TearDown() override {
    if (!path_.empty()) {
      NOK_IGNORE_STATUS(RemoveFile(path_), "best-effort teardown cleanup");
    }
  }
  std::string path_;
};

TEST_P(FileKinds, AppendReadWrite) {
  auto file = Make();
  EXPECT_EQ(file->Size(), 0u);
  uint64_t off = 0;
  ASSERT_TRUE(file->Append(Slice("hello "), &off).ok());
  EXPECT_EQ(off, 0u);
  ASSERT_TRUE(file->Append(Slice("world"), &off).ok());
  EXPECT_EQ(off, 6u);
  EXPECT_EQ(file->Size(), 11u);

  char buf[16];
  Slice out;
  ASSERT_TRUE(file->ReadAt(0, 11, buf, &out).ok());
  EXPECT_EQ(out.ToString(), "hello world");
  ASSERT_TRUE(file->WriteAt(6, Slice("earth")).ok());
  ASSERT_TRUE(file->ReadAt(6, 5, buf, &out).ok());
  EXPECT_EQ(out.ToString(), "earth");
}

TEST_P(FileKinds, ReadPastEndFails) {
  auto file = Make();
  uint64_t off;
  ASSERT_TRUE(file->Append(Slice("abc"), &off).ok());
  char buf[8];
  Slice out;
  EXPECT_FALSE(file->ReadAt(1, 5, buf, &out).ok());
}

TEST_P(FileKinds, WriteBeyondEndExtends) {
  auto file = Make();
  ASSERT_TRUE(file->WriteAt(10, Slice("xy")).ok());
  EXPECT_EQ(file->Size(), 12u);
}

TEST_P(FileKinds, TruncateShrinks) {
  auto file = Make();
  uint64_t off;
  ASSERT_TRUE(file->Append(Slice("0123456789"), &off).ok());
  ASSERT_TRUE(file->Truncate(4).ok());
  EXPECT_EQ(file->Size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, FileKinds,
                         ::testing::Values(false, true));

TEST(FileTest, ReadWriteStringHelpers) {
  const std::string path = TempPath("helpers");
  ASSERT_TRUE(WriteStringToFile(path, Slice("payload")).ok());
  EXPECT_TRUE(FileExists(path));
  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "payload");
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // Idempotent.
}

// ---------------------------------------------------------------------------
// Pager.

std::unique_ptr<Pager> MakePager(uint32_t page_size) {
  auto r = Pager::Open(NewMemFile(), page_size);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

TEST(PagerTest, AllocateReadWrite) {
  auto pager = MakePager(256);
  EXPECT_EQ(pager->page_count(), 0u);
  PageId a, b;
  ASSERT_TRUE(pager->AllocatePage(&a).ok());
  ASSERT_TRUE(pager->AllocatePage(&b).ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  std::string page(256, 'x');
  ASSERT_TRUE(pager->WritePage(b, page.data()).ok());
  std::string readback(256, '\0');
  ASSERT_TRUE(pager->ReadPage(b, readback.data()).ok());
  EXPECT_EQ(readback, page);
  // Fresh pages are zeroed.
  ASSERT_TRUE(pager->ReadPage(a, readback.data()).ok());
  EXPECT_EQ(readback, std::string(256, '\0'));
}

TEST(PagerTest, OutOfRangeRejected) {
  auto pager = MakePager(256);
  std::string buf(256, '\0');
  EXPECT_TRUE(pager->ReadPage(0, buf.data()).IsOutOfRange());
  EXPECT_TRUE(pager->WritePage(3, buf.data()).IsOutOfRange());
}

TEST(PagerTest, SizeBytesCountsTrailers) {
  auto pager = MakePager(256);
  PageId a;
  ASSERT_TRUE(pager->AllocatePage(&a).ok());
  ASSERT_TRUE(pager->AllocatePage(&a).ok());
  EXPECT_EQ(pager->SizeBytes(), 2 * (256u + kPageTrailerSize));
}

TEST(PagerTest, ZeroPageSizeRejected) {
  auto r = Pager::Open(NewMemFile(), 0);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(PagerTest, TruncatedFileIsCorruptionNotCrash) {
  // A file whose size is not a whole number of page slots means a torn
  // write or truncation; Open must report it, not abort.
  for (uint64_t size : {1u, 255u, 257u, 300u}) {
    auto file = NewMemFile();
    ASSERT_TRUE(file->WriteAt(0, Slice(std::string(size, 'a'))).ok());
    auto r = Pager::Open(std::move(file), 256);
    EXPECT_TRUE(r.status().IsCorruption()) << "size " << size;
  }
}

TEST(PagerTest, ChecksumDetectsFlippedByte) {
  auto file = NewMemFile();
  File* raw = file.get();
  auto r = Pager::Open(std::move(file), 128);
  ASSERT_TRUE(r.ok());
  auto& pager = r.ValueOrDie();
  PageId id;
  ASSERT_TRUE(pager->AllocatePage(&id).ok());
  std::string page(128, 'p');
  ASSERT_TRUE(pager->WritePage(id, page.data()).ok());

  // Flip one byte of the page body behind the pager's back.
  char byte;
  Slice got;
  ASSERT_TRUE(raw->ReadAt(17, 1, &byte, &got).ok());
  char flipped = static_cast<char>(got[0] ^ 0x40);
  ASSERT_TRUE(raw->WriteAt(17, Slice(&flipped, 1)).ok());

  std::string buf(128, '\0');
  Status s = pager->ReadPage(id, buf.data());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("page 0"), std::string::npos) << s.ToString();
}

TEST(PagerTest, FileSurvivesReopen) {
  auto file = NewMemFile();
  File* raw = file.get();
  auto r = Pager::Open(std::move(file), 128);
  ASSERT_TRUE(r.ok());
  PageId id;
  ASSERT_TRUE((*r)->AllocatePage(&id).ok());
  std::string page(128, 'q');
  ASSERT_TRUE((*r)->WritePage(id, page.data()).ok());

  // Reopen over the same bytes.
  std::string image(raw->Size(), '\0');
  Slice got;
  ASSERT_TRUE(raw->ReadAt(0, image.size(), image.data(), &got).ok());
  auto copy = NewMemFile();
  ASSERT_TRUE(copy->WriteAt(0, got).ok());
  auto r2 = Pager::Open(std::move(copy), 128);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r2)->page_count(), 1u);
  std::string buf(128, '\0');
  ASSERT_TRUE((*r2)->ReadPage(id, buf.data()).ok());
  EXPECT_EQ(buf, page);
}

// ---------------------------------------------------------------------------
// BufferPool.

TEST(BufferPoolTest, HitAndMissCounting) {
  auto pager = MakePager(128);
  PageId p0, p1;
  ASSERT_TRUE(pager->AllocatePage(&p0).ok());
  ASSERT_TRUE(pager->AllocatePage(&p1).ok());
  BufferPool pool(pager.get(), 4);

  {
    auto h = pool.Fetch(p0);
    ASSERT_TRUE(h.ok());
  }
  {
    auto h = pool.Fetch(p0);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().fetches, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().disk_reads, 1u);
}

TEST(BufferPoolTest, DirtyPagesWrittenBackOnEviction) {
  auto pager = MakePager(128);
  std::vector<PageId> pages(4);
  for (auto& p : pages) ASSERT_TRUE(pager->AllocatePage(&p).ok());
  BufferPool pool(pager.get(), 2);

  {
    auto h = pool.Fetch(pages[0]);
    ASSERT_TRUE(h.ok());
    h->mutable_data()[0] = 'Z';
    h->MarkDirty();
  }
  // Force eviction of pages[0] by touching two more pages.
  { auto h = pool.Fetch(pages[1]); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch(pages[2]); ASSERT_TRUE(h.ok()); }
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().disk_writes, 1u);

  std::string buf(128, '\0');
  ASSERT_TRUE(pager->ReadPage(pages[0], buf.data()).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST(BufferPoolTest, AllPinnedExhaustsCapacity) {
  auto pager = MakePager(128);
  std::vector<PageId> pages(3);
  for (auto& p : pages) ASSERT_TRUE(pager->AllocatePage(&p).ok());
  BufferPool pool(pager.get(), 2);

  auto h0 = pool.Fetch(pages[0]);
  auto h1 = pool.Fetch(pages[1]);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());
  auto h2 = pool.Fetch(pages[2]);
  EXPECT_FALSE(h2.ok());
  h0->Release();
  auto h3 = pool.Fetch(pages[2]);
  EXPECT_TRUE(h3.ok());
}

TEST(BufferPoolTest, DecorationSurvivesWhileCachedAndDropsOnEvict) {
  auto pager = MakePager(128);
  std::vector<PageId> pages(3);
  for (auto& p : pages) ASSERT_TRUE(pager->AllocatePage(&p).ok());
  BufferPool pool(pager.get(), 2);
  int decodes = 0;
  const BufferPool::Decoder decode =
      [&](const char*) -> Result<std::shared_ptr<void>> {
    ++decodes;
    return std::shared_ptr<void>(std::make_shared<int>(99 + decodes));
  };

  auto first = pool.FetchDecoration(pages[0], decode);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*std::static_pointer_cast<int>(*first), 100);
  auto cached = pool.FetchDecoration(pages[0], decode);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *first);  // Same object: no second decode.
  EXPECT_EQ(decodes, 1);

  // A writer's reset forces a fresh decode.
  {
    auto h = pool.Fetch(pages[0]);
    ASSERT_TRUE(h.ok());
    h->set_decoration(nullptr);
  }
  auto redecoded = pool.FetchDecoration(pages[0], decode);
  ASSERT_TRUE(redecoded.ok());
  EXPECT_EQ(decodes, 2);

  // Evict pages[0]: its next fetch decodes again, and the copies handed
  // out earlier stay valid.
  { auto h = pool.Fetch(pages[1]); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch(pages[2]); ASSERT_TRUE(h.ok()); }
  auto after = pool.FetchDecoration(pages[0], decode);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(decodes, 3);
  EXPECT_EQ(*std::static_pointer_cast<int>(*first), 100);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.fetches, 7u);
  EXPECT_EQ(stats.hits + stats.misses, stats.fetches);
  EXPECT_EQ(stats.disk_reads, stats.misses);
}

TEST(BufferPoolTest, FetchDecorationTakesNoPin) {
  auto pager = MakePager(128);
  std::vector<PageId> pages(2);
  for (auto& p : pages) ASSERT_TRUE(pager->AllocatePage(&p).ok());
  BufferPool pool(pager.get(), 1);
  const BufferPool::Decoder decode =
      [](const char*) -> Result<std::shared_ptr<void>> {
    return std::shared_ptr<void>(std::make_shared<int>(1));
  };
  // One frame serves any number of decoration reads: none holds a pin.
  for (int round = 0; round < 3; ++round) {
    for (PageId p : pages) {
      ASSERT_TRUE(pool.FetchDecoration(p, decode).ok());
    }
  }
  EXPECT_EQ(pool.stats().evictions, 5u);
  // A handle's pin is what exhausts the shard.
  auto pinned = pool.Fetch(pages[0]);
  ASSERT_TRUE(pinned.ok());
  EXPECT_FALSE(pool.FetchDecoration(pages[1], decode).ok());
}

TEST(BufferPoolTest, EvictsTheLeastRecentlyUsedFrame) {
  auto pager = MakePager(128);
  std::vector<PageId> pages(3);
  for (auto& p : pages) ASSERT_TRUE(pager->AllocatePage(&p).ok());
  BufferPool pool(pager.get(), 2);
  const BufferPool::Decoder decode =
      [](const char*) -> Result<std::shared_ptr<void>> {
    return std::shared_ptr<void>(std::make_shared<int>(1));
  };
  { auto h = pool.Fetch(pages[0]); ASSERT_TRUE(h.ok()); }
  ASSERT_TRUE(pool.FetchDecoration(pages[1], decode).ok());
  // Touch pages[0] (both fetch kinds refresh recency), so pages[1] is
  // the victim when pages[2] comes in.
  { auto h = pool.Fetch(pages[0]); ASSERT_TRUE(h.ok()); }
  ASSERT_TRUE(pool.FetchDecoration(pages[2], decode).ok());
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchDecoration(pages[0], decode).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.FetchDecoration(pages[1], decode).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  // pages[2] was least recently used when pages[1] came back.
  { auto h = pool.Fetch(pages[2]); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPoolTest, DropAllFlushesAndClears) {
  auto pager = MakePager(128);
  PageId p0;
  ASSERT_TRUE(pager->AllocatePage(&p0).ok());
  BufferPool pool(pager.get(), 4);
  {
    auto h = pool.Fetch(p0);
    ASSERT_TRUE(h.ok());
    h->mutable_data()[5] = 'Q';
    h->MarkDirty();
  }
  ASSERT_TRUE(pool.DropAll().ok());
  pool.ResetStats();
  {
    auto h = pool.Fetch(p0);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data()[5], 'Q');
  }
  EXPECT_EQ(pool.stats().disk_reads, 1u);  // Really came from disk again.
}

TEST(BufferPoolTest, MoveHandleTransfersPin) {
  auto pager = MakePager(128);
  PageId p0;
  ASSERT_TRUE(pager->AllocatePage(&p0).ok());
  BufferPool pool(pager.get(), 1);
  auto h = pool.Fetch(p0);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(h).ValueOrDie();
  EXPECT_TRUE(moved.valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
  // After release the frame is evictable again.
  auto h2 = pool.Fetch(p0);
  EXPECT_TRUE(h2.ok());
}

}  // namespace
}  // namespace nok
