// Unit tests for the write-ahead log stack: frame encoding, WAL scanning,
// transactional overlay capture (TxnFile/WalWriter), crash recovery
// replay, epoch-keyed pre-image retention (PageVersionStore/SnapshotFile)
// and the single-writer / multi-reader store facade.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "encoding/document_store.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"
#include "storage/file.h"
#include "storage/page_versions.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace nok {
namespace {

std::string TempDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_wal_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string ReadAll(File* f) {
  std::string buf(f->Size(), '\0');
  if (buf.empty()) return buf;
  Slice out;
  Status s = f->ReadAt(0, buf.size(), buf.data(), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out.ToString();
}

// ---------------------------------------------------------------------------
// Frame encoding.

TEST(WalFrameTest, RoundTripsEveryRecordType) {
  std::vector<WalRecord> records;
  WalRecord rec;
  rec.type = WalRecordType::kTxnBegin;
  rec.epoch = 7;
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kFileWrite;
  rec.name = "tree.nok";
  rec.offset = 8192;
  rec.data = std::string("page bytes\0with zeros", 21);
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kFileTruncate;
  rec.name = "val.idx";
  rec.size = 123456789;
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kFileReplace;
  rec.name = "tags.dict";
  rec.data = "dictionary contents";
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kFileRemove;
  rec.name = "positions.stale";
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kTxnCommit;
  rec.epoch = 7;
  rec.record_count = 4;
  records.push_back(rec);
  rec = WalRecord();
  rec.type = WalRecordType::kCheckpoint;
  rec.epoch = 7;
  records.push_back(rec);

  std::string buf;
  for (const WalRecord& r : records) AppendWalFrame(&buf, r);

  size_t pos = 0;
  for (const WalRecord& want : records) {
    WalRecord got;
    auto more = ReadWalFrame(Slice(buf), &pos, &got);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.record_count, want.record_count);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.data, want.data);
  }
  WalRecord end;
  auto more = ReadWalFrame(Slice(buf), &pos, &end);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);  // Clean end of buffer.
}

TEST(WalFrameTest, CrcMismatchIsCorruption) {
  std::string buf;
  WalRecord rec;
  rec.type = WalRecordType::kTxnBegin;
  rec.epoch = 1;
  AppendWalFrame(&buf, rec);
  buf[kWalFrameHeaderSize] ^= 0x40;  // Flip a payload bit.

  size_t pos = 0;
  WalRecord got;
  auto more = ReadWalFrame(Slice(buf), &pos, &got);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption());
  EXPECT_EQ(pos, 0u);  // Scan position stays at the last good boundary.
}

TEST(WalFrameTest, ShortFrameIsCorruption) {
  std::string buf;
  WalRecord rec;
  rec.type = WalRecordType::kFileWrite;
  rec.name = "x";
  rec.data = "payload";
  AppendWalFrame(&buf, rec);
  buf.resize(buf.size() - 3);  // Torn tail.

  size_t pos = 0;
  WalRecord got;
  auto more = ReadWalFrame(Slice(buf), &pos, &got);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption());
}

// ---------------------------------------------------------------------------
// WAL scanning.

std::string WalWithHeader() {
  return std::string(kWalMagic, kWalHeaderSize);
}

void AppendTxn(std::string* wal, uint64_t epoch,
               const std::vector<WalRecord>& body, bool commit = true) {
  WalRecord rec;
  rec.type = WalRecordType::kTxnBegin;
  rec.epoch = epoch;
  AppendWalFrame(wal, rec);
  for (const WalRecord& r : body) AppendWalFrame(wal, r);
  if (commit) {
    rec = WalRecord();
    rec.type = WalRecordType::kTxnCommit;
    rec.epoch = epoch;
    rec.record_count = body.size();
    AppendWalFrame(wal, rec);
  }
}

WalRecord WriteRec(const std::string& name, uint64_t offset,
                   const std::string& data) {
  WalRecord rec;
  rec.type = WalRecordType::kFileWrite;
  rec.name = name;
  rec.offset = offset;
  rec.data = data;
  return rec;
}

TEST(WalScanTest, CollectsCommittedTransactions) {
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "one")});
  AppendTxn(&wal, 2, {WriteRec("a", 0, "two"), WriteRec("b", 4, "x")});

  WalScan scan = ScanWal(Slice(wal));
  ASSERT_EQ(scan.committed.size(), 2u);
  EXPECT_EQ(scan.committed[0].epoch, 1u);
  EXPECT_EQ(scan.committed[0].records.size(), 1u);
  EXPECT_EQ(scan.committed[1].epoch, 2u);
  EXPECT_EQ(scan.committed[1].records.size(), 2u);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.valid_bytes, wal.size());
}

TEST(WalScanTest, DiscardsTransactionWithoutCommit) {
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "one")});
  AppendTxn(&wal, 2, {WriteRec("a", 0, "never committed")},
            /*commit=*/false);

  WalScan scan = ScanWal(Slice(wal));
  ASSERT_EQ(scan.committed.size(), 1u);
  EXPECT_EQ(scan.committed[0].epoch, 1u);
  EXPECT_EQ(scan.torn_bytes, 0u);  // Frames are intact, just uncommitted.
}

TEST(WalScanTest, TornTailEndsTheScan) {
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "one")});
  const size_t good = wal.size();
  AppendTxn(&wal, 2, {WriteRec("a", 0, "two")});
  wal.resize(good + 7);  // The epoch-2 txn is cut mid-frame.

  WalScan scan = ScanWal(Slice(wal));
  ASSERT_EQ(scan.committed.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good);
  EXPECT_EQ(scan.torn_bytes, 7u);
}

TEST(WalScanTest, BadMagicIsAllTorn) {
  std::string wal = "garbage, not a WAL";
  WalScan scan = ScanWal(Slice(wal));
  EXPECT_TRUE(scan.committed.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.torn_bytes, wal.size());
}

TEST(WalScanTest, CheckpointMarksTransactionsApplied) {
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "one")});
  WalRecord cp;
  cp.type = WalRecordType::kCheckpoint;
  cp.epoch = 1;
  AppendWalFrame(&wal, cp);
  AppendTxn(&wal, 2, {WriteRec("a", 0, "two")});

  WalScan scan = ScanWal(Slice(wal));
  EXPECT_EQ(scan.checkpoint_epoch, 1u);
  ASSERT_EQ(scan.committed.size(), 2u);  // Scan reports all; replay skips.
}

// ---------------------------------------------------------------------------
// TxnFile overlay capture.

struct WriterFixture {
  std::unique_ptr<WalWriter> wal;
  std::unique_ptr<File> file;  ///< TxnFile wrapping a MemFile.
  File* base = nullptr;        ///< The wrapped MemFile.
};

WriterFixture MakeWriter(const std::string& dir) {
  WriterFixture fx;
  auto wal = WalWriter::Open(dir, NewMemFile());
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  fx.wal = std::move(wal).ValueOrDie();
  auto mem = NewMemFile();
  fx.base = mem.get();
  fx.file = fx.wal->Wrap("data", std::move(mem));
  return fx;
}

TEST(TxnFileTest, PassesThroughOutsideTransaction) {
  auto fx = MakeWriter(TempDir("passthrough"));
  ASSERT_TRUE(fx.file->WriteAt(0, Slice("hello")).ok());
  EXPECT_EQ(ReadAll(fx.base), "hello");  // Base touched immediately.
  fx.file.reset();
}

TEST(TxnFileTest, BuffersWritesUntilCommit) {
  auto fx = MakeWriter(TempDir("buffer"));
  ASSERT_TRUE(fx.file->WriteAt(0, Slice("0123456789")).ok());

  fx.wal->Begin();
  ASSERT_TRUE(fx.file->WriteAt(2, Slice("AB")).ok());
  uint64_t at = 0;
  ASSERT_TRUE(fx.file->Append(Slice("tail"), &at).ok());
  EXPECT_EQ(at, 10u);

  // Reads through the wrapper see the overlay; the base is untouched.
  EXPECT_EQ(ReadAll(fx.file.get()), "01AB456789tail");
  EXPECT_EQ(ReadAll(fx.base), "0123456789");
  EXPECT_EQ(fx.file->Size(), 14u);
  EXPECT_EQ(fx.base->Size(), 10u);

  ASSERT_TRUE(fx.wal->Commit(1).ok());
  EXPECT_EQ(ReadAll(fx.base), "01AB456789tail");
  fx.file.reset();
}

TEST(TxnFileTest, OverlappingAndBridgingWritesMatchAPlainBuffer) {
  auto fx = MakeWriter(TempDir("overlap"));
  std::string model(64, '.');
  ASSERT_TRUE(fx.file->WriteAt(0, Slice(model)).ok());

  // Seeded writes that land inside, abut, straddle and bridge earlier
  // overlay ranges, and extend the file; the overlay must read back as
  // the same bytes a plain buffer holds.
  fx.wal->Begin();
  Random rng(7);
  for (int i = 0; i < 400; ++i) {
    const uint64_t offset = rng.Uniform(model.size() + 8);
    const std::string data(1 + rng.Uniform(12),
                           static_cast<char>('a' + i % 26));
    if (offset + data.size() > model.size()) {
      model.resize(offset + data.size(), '\0');
    }
    model.replace(offset, data.size(), data);
    ASSERT_TRUE(fx.file->WriteAt(offset, Slice(data)).ok());
    ASSERT_EQ(ReadAll(fx.file.get()), model) << "write " << i;
  }
  ASSERT_TRUE(fx.wal->Commit(1).ok());
  EXPECT_EQ(ReadAll(fx.base), model);
  fx.file.reset();
}

TEST(TxnFileTest, TruncateShrinksAndExtends) {
  auto fx = MakeWriter(TempDir("truncate"));
  ASSERT_TRUE(fx.file->WriteAt(0, Slice("0123456789")).ok());

  fx.wal->Begin();
  ASSERT_TRUE(fx.file->Truncate(4).ok());
  EXPECT_EQ(ReadAll(fx.file.get()), "0123");
  ASSERT_TRUE(fx.file->Truncate(6).ok());  // Extend with zeros.
  EXPECT_EQ(ReadAll(fx.file.get()), std::string("0123\0\0", 6));
  ASSERT_TRUE(fx.file->WriteAt(5, Slice("Z")).ok());
  EXPECT_EQ(ReadAll(fx.file.get()), std::string("0123\0Z", 6));
  EXPECT_EQ(ReadAll(fx.base), "0123456789");

  ASSERT_TRUE(fx.wal->Commit(1).ok());
  EXPECT_EQ(ReadAll(fx.base), std::string("0123\0Z", 6));
  fx.file.reset();
}

TEST(TxnFileTest, AbortDiscardsTheOverlay) {
  auto fx = MakeWriter(TempDir("abort"));
  ASSERT_TRUE(fx.file->WriteAt(0, Slice("keep me")).ok());

  fx.wal->Begin();
  ASSERT_TRUE(fx.file->WriteAt(0, Slice("scratch that")).ok());
  ASSERT_TRUE(fx.wal->Abort().ok());

  EXPECT_EQ(ReadAll(fx.base), "keep me");
  EXPECT_EQ(ReadAll(fx.file.get()), "keep me");
  fx.file.reset();
}

// ---------------------------------------------------------------------------
// Recovery replay.

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("recovery");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteWal(const std::string& bytes) {
    ASSERT_TRUE(
        WriteStringToFile(dir_ + "/" + kWalFileName, Slice(bytes)).ok());
  }
  std::string ReadComponent(const std::string& name) {
    std::string out;
    Status s = ReadFileToString(dir_ + "/" + name, &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, ReplaysCommittedTransactions) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a", Slice("old-a")).ok());
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "new-a"), WriteRec("b", 0, "new-b")});
  WriteWal(wal);

  RecoveryReport report;
  ASSERT_TRUE(RecoverStoreDir(dir_, nullptr, &report).ok());
  EXPECT_TRUE(report.wal_present);
  EXPECT_EQ(report.transactions_committed, 1u);
  EXPECT_EQ(report.transactions_replayed, 1u);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(ReadComponent("a"), "new-a");
  EXPECT_EQ(ReadComponent("b"), "new-b");

  // The replay checkpointed; a second recovery replays nothing.
  RecoveryReport again;
  ASSERT_TRUE(RecoverStoreDir(dir_, nullptr, &again).ok());
  EXPECT_EQ(again.transactions_replayed, 0u);
  auto pending = PendingWalTransactions(dir_);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(*pending, 0u);
}

TEST_F(RecoveryTest, ReplayIsIdempotentOverHalfAppliedState) {
  // Half-applied: "a" already carries the new bytes, "b" does not — the
  // crash shape recovery exists for.
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a", Slice("new-a")).ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/b", Slice("old-b")).ok());
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "new-a"), WriteRec("b", 0, "new-b")});
  WriteWal(wal);

  ASSERT_TRUE(RecoverStoreDir(dir_).ok());
  EXPECT_EQ(ReadComponent("a"), "new-a");
  EXPECT_EQ(ReadComponent("b"), "new-b");
}

TEST_F(RecoveryTest, DiscardsTornTailAndUncommitted) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a", Slice("old-a")).ok());
  std::string wal = WalWithHeader();
  AppendTxn(&wal, 1, {WriteRec("a", 0, "new-a")});
  const size_t good = wal.size();
  AppendTxn(&wal, 2, {WriteRec("a", 0, "XXXXX")});
  wal.resize(good + 9);  // Epoch 2 torn mid-frame: never durable.
  WriteWal(wal);

  RecoveryReport report;
  ASSERT_TRUE(RecoverStoreDir(dir_, nullptr, &report).ok());
  EXPECT_EQ(report.transactions_replayed, 1u);
  EXPECT_EQ(report.torn_bytes_discarded, 9u);
  EXPECT_EQ(ReadComponent("a"), "new-a");

  // The torn bytes are physically gone from the log.
  std::string after;
  ASSERT_TRUE(ReadFileToString(dir_ + "/" + kWalFileName, &after).ok());
  WalScan scan = ScanWal(Slice(after));
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST_F(RecoveryTest, ReplaysReplaceAndRemove) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/dict", Slice("old dict")).ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/marker", Slice("x")).ok());
  std::string wal = WalWithHeader();
  WalRecord replace;
  replace.type = WalRecordType::kFileReplace;
  replace.name = "dict";
  replace.data = "new dict";
  WalRecord remove;
  remove.type = WalRecordType::kFileRemove;
  remove.name = "marker";
  AppendTxn(&wal, 1, {replace, remove});
  WriteWal(wal);

  ASSERT_TRUE(RecoverStoreDir(dir_).ok());
  EXPECT_EQ(ReadComponent("dict"), "new dict");
  EXPECT_FALSE(FileExists(dir_ + "/marker"));
}

TEST_F(RecoveryTest, NoWalIsANoOp) {
  RecoveryReport report;
  ASSERT_TRUE(RecoverStoreDir(dir_, nullptr, &report).ok());
  EXPECT_FALSE(report.wal_present);
}

// ---------------------------------------------------------------------------
// Page version retention.

TEST(PageVersionStoreTest, OverlaysTheOldestVisibleVersion) {
  PageVersionStore store;
  // Base history for [0,4): "v1" through epoch 1, "v2" through epoch 2,
  // base now holds "v3".
  store.Retain(0, "1111", 1);
  store.Retain(0, "2222", 2);

  char buf[4];
  std::memcpy(buf, "3333", 4);
  EXPECT_TRUE(store.OverlayForEpoch(1, 0, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "1111");

  std::memcpy(buf, "3333", 4);
  EXPECT_TRUE(store.OverlayForEpoch(2, 0, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "2222");

  std::memcpy(buf, "3333", 4);
  EXPECT_FALSE(store.OverlayForEpoch(3, 0, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "3333");  // Current epoch: base wins.
}

TEST(PageVersionStoreTest, IntersectsPartialRanges) {
  PageVersionStore store;
  store.Retain(4, "ABCD", 5);

  char buf[8];
  std::memcpy(buf, "xxxxxxxx", 8);
  EXPECT_TRUE(store.OverlayForEpoch(5, 2, buf, 8));
  EXPECT_EQ(std::string(buf, 8), "xxABCDxx");

  char tail[4];
  std::memcpy(tail, "yyyy", 4);
  EXPECT_TRUE(store.OverlayForEpoch(5, 6, tail, 4));
  EXPECT_EQ(std::string(tail, 4), "CDyy");
}

TEST(PageVersionStoreTest, ReclaimDropsDeadVersions) {
  PageVersionStore store;
  store.Retain(0, "old!", 1);
  store.Retain(0, "mid!", 3);
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_EQ(store.byte_count(), 8u);

  store.ReclaimBelow(2);  // Readers at >= 2 can still need valid_through 3.
  EXPECT_EQ(store.entry_count(), 1u);

  char buf[4];
  std::memcpy(buf, "new!", 4);
  EXPECT_TRUE(store.OverlayForEpoch(2, 0, buf, 4));
  EXPECT_EQ(std::string(buf, 4), "mid!");

  store.ReclaimBelow(4);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.byte_count(), 0u);
}

TEST(SnapshotTrackerTest, ReclaimsWhenOldestReaderDrains) {
  SnapshotTracker tracker;
  auto store = std::make_shared<PageVersionStore>();
  tracker.Track(store);

  tracker.Register(1);
  tracker.AdvanceEpoch(2);
  store->Retain(0, "epoch1 bytes", 1);
  EXPECT_EQ(tracker.retained_entries(), 1u);
  EXPECT_EQ(tracker.MinActiveEpoch(99), 1u);

  // The epoch-1 reader drains: nothing can read valid_through 1 anymore.
  tracker.Release(1);
  EXPECT_EQ(tracker.retained_entries(), 0u);
  EXPECT_EQ(tracker.MinActiveEpoch(99), 99u);  // Fallback when none live.
}

TEST(SnapshotFileTest, ServesThePinnedEpoch) {
  auto base = NewMemFile();
  File* raw = base.get();
  ASSERT_TRUE(raw->WriteAt(0, Slice("AAAABBBB")).ok());

  auto versions = std::make_shared<PageVersionStore>();
  SnapshotFile snap(std::move(base), versions, /*epoch=*/1);

  // Writer commits epoch 2: retains the pre-image, then mutates the base.
  versions->Retain(4, "BBBB", 1);
  ASSERT_TRUE(raw->WriteAt(4, Slice("CCCC")).ok());

  EXPECT_EQ(ReadAll(&snap), "AAAABBBB");  // Snapshot still sees epoch 1.

  // And the snapshot is immutable.
  EXPECT_FALSE(snap.WriteAt(0, Slice("x")).ok());
  EXPECT_FALSE(snap.Truncate(0).ok());
}

TEST(SnapshotFileTest, SizeIsPinnedAgainstConcurrentGrowth) {
  auto base = NewMemFile();
  File* raw = base.get();
  ASSERT_TRUE(raw->WriteAt(0, Slice("AAAA")).ok());

  SnapshotFile snap(std::move(base), nullptr, /*epoch=*/1);
  uint64_t at = 0;
  ASSERT_TRUE(raw->Append(Slice("BBBB"), &at).ok());

  EXPECT_EQ(snap.Size(), 4u);  // Growth after the pin is invisible.
  EXPECT_EQ(ReadAll(&snap), "AAAA");
}

// ---------------------------------------------------------------------------
// DocumentStore in WAL mode.

constexpr const char* kDocXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP</title><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title><price>39.95"
    "</price></book>"
    "</bib>";

class WalStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("store");
    std::filesystem::remove_all(dir_);
    DocumentStoreOptions build;
    build.dir = dir_;
    auto store = DocumentStore::Build(kDocXml, build);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<std::unique_ptr<DocumentStore>> OpenWal() {
    DocumentStoreOptions options;
    options.dir = dir_;
    options.wal.enabled = true;
    return DocumentStore::OpenDir(options);
  }

  std::string dir_;
};

TEST_F(WalStoreTest, CommitsUpdatesThroughTheLog) {
  auto store = OpenWal();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)
                  ->InsertSubtree(DeweyId({0}), 2,
                                  "<book><title>New</title></book>")
                  .ok());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_GE((*store)->wal_stats().commits, 1u);
  store->reset();

  // A plain reopen sees the committed update.
  DocumentStoreOptions plain;
  plain.dir = dir_;
  auto reopened = DocumentStore::OpenDir(plain);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto hits = testutil::ValueHits(reopened->get(), Slice("New"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(WalStoreTest, UncommittedBatchIsInvisibleAfterClose) {
  {
    auto store = OpenWal();
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)
                    ->InsertSubtree(DeweyId({0}), 2,
                                    "<book><title>Lost</title></book>")
                    .ok());
    // No Flush: the batch only ever lived in the overlay.
  }
  DocumentStoreOptions plain;
  plain.dir = dir_;
  auto reopened = DocumentStore::OpenDir(plain);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto hits = testutil::ValueHits(reopened->get(), Slice("Lost"));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(WalStoreTest, RejectsWalWithReadOnly) {
  DocumentStoreOptions options;
  options.dir = dir_;
  options.wal.enabled = true;
  options.read_only = true;
  auto store = DocumentStore::OpenDir(options);
  EXPECT_FALSE(store.ok());
}

// ---------------------------------------------------------------------------
// SwmrStore snapshots.

TEST(SwmrStoreTest, SnapshotsAreIsolatedFromLaterCommits) {
  const std::string dir = TempDir("swmr");
  std::filesystem::remove_all(dir);
  {
    DocumentStoreOptions build;
    build.dir = dir;
    auto built = DocumentStore::Build(kDocXml, build);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Flush().ok());
  }

  auto swmr = SwmrStore::Open(dir);
  ASSERT_TRUE(swmr.ok()) << swmr.status().ToString();

  auto before = (*swmr)->snapshot();
  ASSERT_NE(before, nullptr);
  {
    QueryEngine engine(before->store());
    auto rows = engine.Evaluate("/bib/book");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);
  }

  ASSERT_TRUE((*swmr)
                  ->InsertSubtree(DeweyId({0}), 2,
                                  "<book><title>Third</title></book>")
                  .ok());
  ASSERT_TRUE((*swmr)->Commit().ok());

  auto after = (*swmr)->snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->epoch(), before->epoch());

  // The old snapshot still answers from its own epoch...
  {
    QueryEngine engine(before->store());
    auto rows = engine.Evaluate("/bib/book");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);
  }
  // ...while the new one sees the committed insert.
  {
    QueryEngine engine(after->store());
    auto rows = engine.Evaluate("/bib/book");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 3u);
  }

  // Draining the old snapshot lets the store reclaim its pre-images.
  before.reset();
  SwmrStore::Stats stats = (*swmr)->stats();
  EXPECT_EQ(stats.retained_entries, 0u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_GE(stats.snapshots_published, 2u);

  swmr->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
