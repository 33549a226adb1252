// Fault-injection tests for the storage stack: injector semantics, buffer
// pool write-back failures, and LevelDB-style sweeps that fail every k-th
// I/O operation of a workload, asserting clean error propagation and
// old-state/new-state atomicity on reopen.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection_file.h"
#include "storage/file.h"
#include "storage/pager.h"

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
          ("nokxml_fault_" + name + "_" + std::to_string(::getpid())))
      .string();
}

// ---------------------------------------------------------------------------
// FaultInjector semantics.

TEST(FaultInjectorTest, FailsExactlyTheScheduledOp) {
  auto injector = std::make_shared<FaultInjector>();
  FaultInjectionFile file(NewMemFile(), injector);
  injector->FailAtOp(2, FaultKind::kError, /*sticky=*/false);

  EXPECT_TRUE(file.WriteAt(0, Slice("aa")).ok());   // Op 0.
  EXPECT_TRUE(file.WriteAt(2, Slice("bb")).ok());   // Op 1.
  Status s = file.WriteAt(4, Slice("cc"));          // Op 2: fails.
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(file.WriteAt(4, Slice("cc")).ok());   // Non-sticky: recovers.
  EXPECT_EQ(injector->faults_injected(), 1u);
  EXPECT_EQ(injector->ops_seen(), 4u);
}

TEST(FaultInjectorTest, StickyFaultKillsEverythingAfter) {
  auto injector = std::make_shared<FaultInjector>();
  FaultInjectionFile file(NewMemFile(), injector);
  injector->FailAtOp(1, FaultKind::kError, /*sticky=*/true);

  EXPECT_TRUE(file.WriteAt(0, Slice("aa")).ok());
  EXPECT_FALSE(file.WriteAt(2, Slice("bb")).ok());
  EXPECT_FALSE(file.WriteAt(4, Slice("cc")).ok());
  EXPECT_FALSE(file.Sync().ok());
  char buf[4];
  Slice out;
  EXPECT_FALSE(file.ReadAt(0, 2, buf, &out).ok());
  injector->Disarm();
  EXPECT_TRUE(file.ReadAt(0, 2, buf, &out).ok());
}

TEST(FaultInjectorTest, OpCounterSpansAllFiles) {
  auto injector = std::make_shared<FaultInjector>();
  FaultInjectionFile a(NewMemFile(), injector);
  FaultInjectionFile b(NewMemFile(), injector);
  injector->FailAtOp(1, FaultKind::kError, /*sticky=*/false);

  EXPECT_TRUE(a.WriteAt(0, Slice("x")).ok());   // Op 0 on file a.
  EXPECT_FALSE(b.WriteAt(0, Slice("y")).ok());  // Op 1 on file b: fails.
}

TEST(FaultInjectorTest, TornWriteAppliesAPrefix) {
  auto injector = std::make_shared<FaultInjector>();
  auto base = NewMemFile();
  File* raw = base.get();
  FaultInjectionFile file(std::move(base), injector);
  ASSERT_TRUE(file.WriteAt(0, Slice("........")).ok());

  injector->FailAtOp(1, FaultKind::kTorn, /*sticky=*/false);
  Status s = file.WriteAt(0, Slice("ABCDEFGH"));
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  char buf[8];
  Slice out;
  ASSERT_TRUE(raw->ReadAt(0, 8, buf, &out).ok());
  EXPECT_EQ(out.ToString(), "ABCD....");  // Half landed, half did not.
}

TEST(FaultInjectorTest, CrashDropsUnsyncedData) {
  auto injector = std::make_shared<FaultInjector>();
  auto base = NewMemFile();
  File* raw = base.get();
  FaultInjectionFile file(std::move(base), injector);

  ASSERT_TRUE(file.WriteAt(0, Slice("durable!")).ok());
  ASSERT_TRUE(file.Sync().ok());
  ASSERT_TRUE(file.WriteAt(0, Slice("volatile")).ok());
  ASSERT_TRUE(file.WriteAt(8, Slice("tail")).ok());

  injector->FailAtOp(4, FaultKind::kCrash, /*sticky=*/true);
  EXPECT_FALSE(file.WriteAt(0, Slice("boom")).ok());

  // The base file is back at its last synced image.
  EXPECT_EQ(raw->Size(), 8u);
  char buf[8];
  Slice out;
  ASSERT_TRUE(raw->ReadAt(0, 8, buf, &out).ok());
  EXPECT_EQ(out.ToString(), "durable!");
}

TEST(FaultInjectorTest, CrashOnNeverSyncedFileEmptiesIt) {
  auto injector = std::make_shared<FaultInjector>();
  auto base = NewMemFile();
  File* raw = base.get();
  FaultInjectionFile file(std::move(base), injector);
  ASSERT_TRUE(file.WriteAt(0, Slice("not yet durable")).ok());
  ASSERT_TRUE(file.DropUnsyncedData().ok());
  EXPECT_EQ(raw->Size(), 0u);
}

TEST(FaultInjectorTest, KindTargetedFaultHitsExactlyTheKthSync) {
  auto injector = std::make_shared<FaultInjector>();
  FaultInjectionFile file(NewMemFile(), injector);
  injector->FailAtOpOfKind(FaultOpKind::kSync, 1, FaultKind::kError,
                           /*sticky=*/false);

  // Writes are not counted by the sync-kind filter.
  EXPECT_TRUE(file.WriteAt(0, Slice("aa")).ok());
  EXPECT_TRUE(file.Sync().ok());                  // Sync 0.
  EXPECT_TRUE(file.WriteAt(2, Slice("bb")).ok());
  Status s = file.Sync();                         // Sync 1: fails.
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(file.Sync().ok());                  // Non-sticky: recovers.
  EXPECT_EQ(injector->ops_seen_of(FaultOpKind::kSync), 3u);
  EXPECT_EQ(injector->ops_seen_of(FaultOpKind::kWrite), 2u);
}

TEST(FaultInjectorTest, PartialCrashKeepsASeededSubsetOfUnsyncedOps) {
  auto run = [](uint64_t seed, double keep_p) {
    auto injector = std::make_shared<FaultInjector>();
    auto base = NewMemFile();
    File* raw = base.get();
    FaultInjectionFile file(std::move(base), injector);
    EXPECT_TRUE(file.WriteAt(0, Slice("DDDDDDDD")).ok());
    EXPECT_TRUE(file.Sync().ok());  // Durable image: 8 D's.
    for (uint64_t i = 0; i < 8; ++i) {
      const char c = static_cast<char>('a' + i);
      EXPECT_TRUE(file.WriteAt(i, Slice(std::string(1, c))).ok());
    }
    injector->EnablePartialCrash(seed, keep_p);
    EXPECT_TRUE(injector->DropAllUnsyncedData().ok());
    std::string got(8, '\0');
    Slice out;
    EXPECT_TRUE(raw->ReadAt(0, 8, got.data(), &out).ok());
    return out.ToString();
  };

  // keep_p = 1 keeps every unsynced write, keep_p = 0 drops them all.
  EXPECT_EQ(run(1, 1.0), "abcdefgh");
  EXPECT_EQ(run(1, 0.0), "DDDDDDDD");
  // In between: reproducible per seed, and genuinely partial — the
  // out-of-order-writeback shape an all-or-nothing drop cannot produce.
  const std::string a = run(7, 0.5), b = run(7, 0.5), c = run(8, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, "abcdefgh");
  EXPECT_NE(a, "DDDDDDDD");
  EXPECT_NE(a, c);  // Different seed, different surviving subset.
}

TEST(FaultInjectorTest, PartialCrashReplaysTruncatesInOrder) {
  auto injector = std::make_shared<FaultInjector>();
  auto base = NewMemFile();
  File* raw = base.get();
  FaultInjectionFile file(std::move(base), injector);
  ASSERT_TRUE(file.WriteAt(0, Slice("12345678")).ok());
  ASSERT_TRUE(file.Sync().ok());
  ASSERT_TRUE(file.Truncate(4).ok());
  ASSERT_TRUE(file.WriteAt(4, Slice("ZZ")).ok());

  injector->EnablePartialCrash(3, 1.0);  // Keep all: pure replay.
  ASSERT_TRUE(injector->DropAllUnsyncedData().ok());
  EXPECT_EQ(raw->Size(), 6u);
  std::string got(6, '\0');
  Slice out;
  ASSERT_TRUE(raw->ReadAt(0, 6, got.data(), &out).ok());
  EXPECT_EQ(out.ToString(), "1234ZZ");
}

TEST(FaultInjectorTest, ProbabilisticFaultsAreReproducible) {
  auto run = [](uint64_t seed) {
    auto injector = std::make_shared<FaultInjector>();
    FaultInjectionFile file(NewMemFile(), injector);
    injector->FailWithProbability(seed, 0.2);
    uint64_t failures = 0;
    for (int i = 0; i < 200; ++i) {
      if (!file.WriteAt(0, Slice("z")).ok()) ++failures;
    }
    return failures;
  };
  const uint64_t a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 200u);
  EXPECT_NE(a, c);  // Different seed, different schedule (overwhelmingly).
}

// ---------------------------------------------------------------------------
// BufferPool under write-back failures.

struct FaultyPool {
  std::shared_ptr<FaultInjector> injector;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
};

FaultyPool MakeFaultyPool(size_t frames) {
  FaultyPool fp;
  fp.injector = std::make_shared<FaultInjector>();
  auto file = std::make_unique<FaultInjectionFile>(NewMemFile(),
                                                   fp.injector);
  auto pager = Pager::Open(std::move(file), 128);
  EXPECT_TRUE(pager.ok());
  fp.pager = std::move(pager).ValueOrDie();
  fp.pool = std::make_unique<BufferPool>(fp.pager.get(), frames);
  return fp;
}

TEST(BufferPoolFaultTest, FailedWriteBackLeavesFrameDirtyAndRecovers) {
  auto fp = MakeFaultyPool(1);
  PageId p0, p1;
  ASSERT_TRUE(fp.pager->AllocatePage(&p0).ok());
  ASSERT_TRUE(fp.pager->AllocatePage(&p1).ok());
  {
    auto h = fp.pool->Fetch(p0);
    ASSERT_TRUE(h.ok());
    h->mutable_data()[0] = 'D';
    h->MarkDirty();
  }

  // Every further write fails: evicting the dirty frame for p1 must fail
  // without losing the dirty data.
  fp.injector->FailAtOp(fp.injector->ops_seen(), FaultKind::kError,
                        /*sticky=*/true);
  auto h1 = fp.pool->Fetch(p1);
  EXPECT_FALSE(h1.ok());
  EXPECT_TRUE(h1.status().IsIOError()) << h1.status().ToString();

  // Disk heals; the dirty page must still be in the pool and flushable.
  fp.injector->Disarm();
  ASSERT_TRUE(fp.pool->FlushAll().ok());
  std::string buf(128, '\0');
  ASSERT_TRUE(fp.pager->ReadPage(p0, buf.data()).ok());
  EXPECT_EQ(buf[0], 'D');

  // And the pool is structurally intact: eviction now succeeds.
  auto h2 = fp.pool->Fetch(p1);
  EXPECT_TRUE(h2.ok()) << h2.status().ToString();
}

TEST(BufferPoolFaultTest, FlushAllPropagatesWriteError) {
  auto fp = MakeFaultyPool(4);
  PageId p0;
  ASSERT_TRUE(fp.pager->AllocatePage(&p0).ok());
  {
    auto h = fp.pool->Fetch(p0);
    ASSERT_TRUE(h.ok());
    h->mutable_data()[3] = 'E';
    h->MarkDirty();
  }
  fp.injector->FailAtOp(fp.injector->ops_seen(), FaultKind::kError,
                        /*sticky=*/true);
  EXPECT_FALSE(fp.pool->FlushAll().ok());

  fp.injector->Disarm();
  ASSERT_TRUE(fp.pool->FlushAll().ok());  // Frame stayed dirty.
  std::string buf(128, '\0');
  ASSERT_TRUE(fp.pager->ReadPage(p0, buf.data()).ok());
  EXPECT_EQ(buf[3], 'E');
}

// ---------------------------------------------------------------------------
// BTree error propagation: a failed write-back during eviction must
// surface out of Insert, and a failed sync out of Flush.  These lock in
// the call-site audit done for the [[nodiscard]] sweep.

TEST(BTreeFaultTest, InsertPropagatesEvictionWriteFailure) {
  auto injector = std::make_shared<FaultInjector>();
  BTreeOptions options;
  options.page_size = 256;   // Small pages: splits after a few entries.
  options.pool_frames = 4;   // Tiny pool: eviction on nearly every fetch.
  auto tree = BTree::Open(
      std::make_unique<FaultInjectionFile>(NewMemFile(), injector), options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  // Grow well past four pages so further inserts must evict dirty frames.
  char key[16] = {0};
  for (int i = 0; i < 200; ++i) {
    std::snprintf(key, sizeof(key), "key%05d", i);
    ASSERT_TRUE((*tree)->Insert(Slice(key), Slice("v")).ok()) << i;
  }

  injector->FailAtOp(injector->ops_seen(), FaultKind::kError,
                     /*sticky=*/true);
  Status failed = Status::OK();
  for (int i = 200; i < 264 && failed.ok(); ++i) {
    std::snprintf(key, sizeof(key), "key%05d", i);
    failed = (*tree)->Insert(Slice(key), Slice("v"));
  }
  EXPECT_FALSE(failed.ok()) << "no insert propagated the injected fault";
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

  // Disk heals: the tree is still usable and durable.
  injector->Disarm();
  ASSERT_TRUE((*tree)->Flush().ok());
  auto got = (*tree)->Get(Slice("key00000"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v");
}

TEST(BTreeFaultTest, FlushPropagatesSyncFailure) {
  auto injector = std::make_shared<FaultInjector>();
  auto tree = BTree::Open(
      std::make_unique<FaultInjectionFile>(NewMemFile(), injector));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE((*tree)->Insert(Slice("k"), Slice("v")).ok());

  injector->FailAtOp(injector->ops_seen(), FaultKind::kError,
                     /*sticky=*/true);
  Status s = (*tree)->Flush();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  injector->Disarm();
  ASSERT_TRUE((*tree)->Flush().ok());
}

// ---------------------------------------------------------------------------
// Sweeps over whole-store workloads.

/// Store options that route every component file through the injector.
DocumentStoreOptions InjectedOptions(
    const std::string& dir, std::shared_ptr<FaultInjector> injector) {
  DocumentStoreOptions options;
  options.dir = dir;
  options.file_factory =
      [injector](const std::string& path,
                 bool create) -> Result<std::unique_ptr<File>> {
    auto base = OpenPosixFile(path, create);
    NOK_RETURN_IF_ERROR(base.status());
    return std::unique_ptr<File>(new FaultInjectionFile(
        std::move(base).ValueOrDie(), injector));
  };
  return options;
}

/// Build + flush under the injector; returns the first non-OK status.
/// *commit_ops (optional) receives the operation count at the moment the
/// commit returned -- destructor-phase syncs after that point fail softly
/// (logged, not propagated), so sweeps must not count them.
Status BuildWorkload(const std::string& dir,
                     std::shared_ptr<FaultInjector> injector,
                     uint64_t* commit_ops = nullptr) {
  auto store = DocumentStore::Build(kBibXml, InjectedOptions(dir, injector));
  NOK_RETURN_IF_ERROR(store.status());
  Status s = (*store)->Flush();
  if (commit_ops != nullptr) *commit_ops = injector->ops_seen();
  return s;
}

/// What a plain (uninjected) reopen of the store dir sees.
struct ReopenOutcome {
  Status status = Status::OK();
  uint64_t node_count = 0;
  size_t stevens_hits = 0;
};

ReopenOutcome Reopen(const std::string& dir) {
  ReopenOutcome outcome;
  DocumentStoreOptions options;
  options.dir = dir;
  auto store = DocumentStore::OpenDir(options);
  if (!store.ok()) {
    outcome.status = store.status();
    return outcome;
  }
  outcome.node_count = (*store)->stats().node_count;
  auto hits = (*store)->NodesWithValue(Slice("Stevens"));
  if (!hits.ok()) {
    outcome.status = hits.status();
    return outcome;
  }
  outcome.stevens_hits = hits->size();
  return outcome;
}

TEST(DocumentStoreFaultTest, FlushPropagatesSyncFailure) {
  const std::string dir = TempDir("flush_sync");
  std::filesystem::remove_all(dir);
  auto injector = std::make_shared<FaultInjector>();
  auto store = DocumentStore::Build(kBibXml, InjectedOptions(dir, injector));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Every I/O from here on fails: the commit must report it, not swallow
  // it (nokq exits on exactly this status).
  injector->FailAtOp(injector->ops_seen(), FaultKind::kError,
                     /*sticky=*/true);
  Status s = (*store)->Flush();
  EXPECT_FALSE(s.ok()) << "Flush swallowed the injected sync failure";
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  store->reset();  // Destructor-phase sync failures are logged, not fatal.

  injector->Disarm();
  std::filesystem::remove_all(dir);
}

class FaultSweep : public ::testing::TestWithParam<FaultKind> {};

TEST_P(FaultSweep, BuildFailsCleanAtEveryOp) {
  const std::string dir = TempDir("build_sweep");
  auto injector = std::make_shared<FaultInjector>();

  // Dry run to count the workload's operations and capture ground truth.
  std::filesystem::remove_all(dir);
  uint64_t total_ops = 0;
  ASSERT_TRUE(BuildWorkload(dir, injector, &total_ops).ok());
  ASSERT_GT(total_ops, 0u);
  const ReopenOutcome truth = Reopen(dir);
  ASSERT_TRUE(truth.status.ok()) << truth.status.ToString();
  ASSERT_EQ(truth.stevens_hits, 1u);

  // Sweep; stride keeps the test fast when the workload is I/O-heavy.
  const uint64_t stride = total_ops / 200 + 1;
  for (uint64_t k = 0; k < total_ops; k += stride) {
    std::filesystem::remove_all(dir);
    injector->Reset();
    injector->FailAtOp(k, GetParam(), /*sticky=*/true);
    Status s = BuildWorkload(dir, injector);
    EXPECT_FALSE(s.ok()) << "op " << k << " did not propagate";

    // With the fault disarmed, reopening must either yield the complete
    // document or a clean error -- never a crash, never partial data that
    // masquerades as a smaller document.
    injector->Disarm();
    const ReopenOutcome outcome = Reopen(dir);
    if (outcome.status.ok()) {
      EXPECT_EQ(outcome.node_count, truth.node_count) << "op " << k;
      EXPECT_EQ(outcome.stevens_hits, truth.stevens_hits) << "op " << k;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_P(FaultSweep, UpdateKeepsOldOrNewStateAtEveryOp) {
  const std::string dir = TempDir("update_sweep");
  const std::string scratch = TempDir("update_scratch");
  auto injector = std::make_shared<FaultInjector>();

  // A clean store on disk: the "old" state.
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(BuildWorkload(dir, injector).ok());
  const ReopenOutcome old_state = Reopen(dir);
  ASSERT_TRUE(old_state.status.ok());

  uint64_t commit_ops = 0;
  auto update = [&injector, &commit_ops](const std::string& d) {
    auto store = DocumentStore::OpenDir(InjectedOptions(d, injector));
    NOK_RETURN_IF_ERROR(store.status());
    NOK_RETURN_IF_ERROR((*store)->InsertSubtree(
        DeweyId({0}), 2, "<book><title>New</title></book>"));
    Status s = (*store)->Flush();
    commit_ops = injector->ops_seen();
    return s;
  };

  // Dry run on a copy for the op count and the "new" state.
  std::filesystem::remove_all(scratch);
  std::filesystem::copy(dir, scratch);
  injector->Reset();
  ASSERT_TRUE(update(scratch).ok());
  const uint64_t total_ops = commit_ops;
  const ReopenOutcome new_state = Reopen(scratch);
  ASSERT_TRUE(new_state.status.ok()) << new_state.status.ToString();
  ASSERT_GT(new_state.node_count, old_state.node_count);

  const uint64_t stride = total_ops / 200 + 1;
  for (uint64_t k = 0; k < total_ops; k += stride) {
    std::filesystem::remove_all(scratch);
    std::filesystem::copy(dir, scratch);
    injector->Reset();
    injector->FailAtOp(k, GetParam(), /*sticky=*/true);
    Status s = update(scratch);
    EXPECT_FALSE(s.ok()) << "op " << k << " did not propagate";

    injector->Disarm();
    const ReopenOutcome outcome = Reopen(scratch);
    if (outcome.status.ok()) {
      // Atomicity: the store reads as exactly the old or the new
      // document, never a blend.
      EXPECT_TRUE(outcome.node_count == old_state.node_count ||
                  outcome.node_count == new_state.node_count)
          << "op " << k << ": node_count " << outcome.node_count;
      EXPECT_EQ(outcome.stevens_hits, 1u) << "op " << k;
    }
    // else: a clean Corruption/IOError is an acceptable outcome for a
    // half-committed store; crashing or silently mixing states is not.
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(scratch);
}

INSTANTIATE_TEST_SUITE_P(ErrorAndCrash, FaultSweep,
                         ::testing::Values(FaultKind::kError,
                                           FaultKind::kCrash));

// ---------------------------------------------------------------------------
// WAL kill-point sweep.
//
// With the write-ahead log enabled, a crash at ANY operation of an update
// workload must leave a store that (a) reopens cleanly through recovery —
// never Corruption — and (b) reads back as exactly the pre-update or the
// post-update document, verified against never-crashed oracles and the
// offline scrubber.

/// InjectedOptions with the WAL turned on.
DocumentStoreOptions InjectedWalOptions(
    const std::string& dir, std::shared_ptr<FaultInjector> injector) {
  DocumentStoreOptions options = InjectedOptions(dir, injector);
  options.wal.enabled = true;
  return options;
}

/// The swept workload: open with WAL (runs recovery), insert, commit.
/// *commit_ops / *commit_syncs (optional) receive the operation counts at
/// the moment the commit returned -- destructor-phase syncs after that
/// point fail softly, so the sweeps must not count them.
Status WalUpdate(const std::string& dir,
                 std::shared_ptr<FaultInjector> injector,
                 uint64_t* commit_ops = nullptr,
                 uint64_t* commit_syncs = nullptr) {
  auto store = DocumentStore::OpenDir(InjectedWalOptions(dir, injector));
  NOK_RETURN_IF_ERROR(store.status());
  NOK_RETURN_IF_ERROR((*store)->InsertSubtree(
      DeweyId({0}), 2, "<book><title>New</title></book>"));
  Status s = (*store)->Flush();
  if (commit_ops != nullptr) *commit_ops = injector->ops_seen();
  if (commit_syncs != nullptr) {
    *commit_syncs = injector->ops_seen_of(FaultOpKind::kSync);
  }
  return s;
}

/// Reopen through WAL recovery (uninjected) and read the document back.
struct WalReopenOutcome {
  Status status = Status::OK();
  uint64_t node_count = 0;
  size_t stevens_hits = 0;
  size_t new_hits = 0;
};

WalReopenOutcome WalReopen(const std::string& dir) {
  WalReopenOutcome outcome;
  DocumentStoreOptions options;
  options.dir = dir;
  options.wal.enabled = true;
  auto store = DocumentStore::OpenDir(options);
  if (!store.ok()) {
    outcome.status = store.status();
    return outcome;
  }
  outcome.node_count = (*store)->stats().node_count;
  auto stevens = (*store)->NodesWithValue(Slice("Stevens"));
  auto added = (*store)->NodesWithValue(Slice("New"));
  if (!stevens.ok() || !added.ok()) {
    outcome.status = stevens.ok() ? added.status() : stevens.status();
    return outcome;
  }
  outcome.stevens_hits = stevens->size();
  outcome.new_hits = added->size();
  return outcome;
}

/// Asserts the crash-recovered store at `dir` reads as exactly the old or
/// the new document and passes the offline scrub.
void ExpectOldOrNew(const std::string& dir, const WalReopenOutcome& oldst,
                    const WalReopenOutcome& newst, const std::string& what) {
  const WalReopenOutcome outcome = WalReopen(dir);
  // The zero-Corruption criterion: recovery must always yield an
  // openable store.
  ASSERT_TRUE(outcome.status.ok())
      << what << ": reopen after recovery failed: "
      << outcome.status.ToString();
  const bool is_old = outcome.node_count == oldst.node_count &&
                      outcome.new_hits == 0;
  const bool is_new = outcome.node_count == newst.node_count &&
                      outcome.new_hits == 1;
  EXPECT_TRUE(is_old || is_new)
      << what << ": node_count " << outcome.node_count << ", new_hits "
      << outcome.new_hits << " is neither the pre-update state ("
      << oldst.node_count << ", 0) nor the post-update state ("
      << newst.node_count << ", 1)";
  EXPECT_EQ(outcome.stevens_hits, 1u) << what;

  auto scrub = VerifyStoreDir(dir);
  ASSERT_TRUE(scrub.ok()) << what << ": " << scrub.status().ToString();
  EXPECT_TRUE(scrub->ok()) << what << ": scrub found "
                           << scrub->issues.size() << " issue(s), first: "
                           << (scrub->issues.empty()
                                   ? ""
                                   : scrub->issues[0].detail);
}

class WalKillPointSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("wal_sweep_base");
    scratch_ = TempDir("wal_sweep_scratch");
    injector_ = std::make_shared<FaultInjector>();

    // Clean pre-update store, and oracles for both sides of the update.
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(BuildWorkload(dir_, injector_).ok());
    old_state_ = WalReopen(dir_);
    ASSERT_TRUE(old_state_.status.ok()) << old_state_.status.ToString();

    std::filesystem::remove_all(scratch_);
    std::filesystem::copy(dir_, scratch_);
    injector_->Reset();
    ASSERT_TRUE(
        WalUpdate(scratch_, injector_, &total_ops_, &total_syncs_).ok());
    ASSERT_GT(total_ops_, 0u);
    ASSERT_GT(total_syncs_, 0u);
    new_state_ = WalReopen(scratch_);
    ASSERT_TRUE(new_state_.status.ok()) << new_state_.status.ToString();
    ASSERT_GT(new_state_.node_count, old_state_.node_count);
    ASSERT_EQ(new_state_.new_hits, 1u);
  }

  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(scratch_);
  }

  /// Fresh pre-update copy in scratch_, injector reset.
  void ResetScratch() {
    std::filesystem::remove_all(scratch_);
    std::filesystem::copy(dir_, scratch_);
    injector_->Reset();
  }

  std::string dir_;
  std::string scratch_;
  std::shared_ptr<FaultInjector> injector_;
  uint64_t total_ops_ = 0;
  uint64_t total_syncs_ = 0;
  WalReopenOutcome old_state_;
  WalReopenOutcome new_state_;
};

TEST_F(WalKillPointSweep, CrashAtEveryOpReplaysOrRestores) {
  const uint64_t stride = total_ops_ / 200 + 1;
  for (uint64_t k = 0; k < total_ops_; k += stride) {
    ResetScratch();
    injector_->FailAtOp(k, FaultKind::kCrash, /*sticky=*/true);
    Status s = WalUpdate(scratch_, injector_);
    EXPECT_FALSE(s.ok()) << "op " << k << " did not propagate";
    injector_->Disarm();
    ExpectOldOrNew(scratch_, old_state_, new_state_,
                   "crash at op " + std::to_string(k));
    if (HasFatalFailure()) return;
  }
}

TEST_F(WalKillPointSweep, CrashAtEveryFsyncReplaysOrRestores) {
  // Every fsync the workload issues, hit precisely: the commit protocol's
  // ordering (WAL sync before base writes, base syncs before checkpoint)
  // is what this pins down.
  for (uint64_t j = 0; j < total_syncs_; ++j) {
    ResetScratch();
    injector_->FailAtOpOfKind(FaultOpKind::kSync, j, FaultKind::kCrash,
                              /*sticky=*/true);
    Status s = WalUpdate(scratch_, injector_);
    EXPECT_FALSE(s.ok()) << "sync " << j << " did not propagate";
    injector_->Disarm();
    ExpectOldOrNew(scratch_, old_state_, new_state_,
                   "crash at fsync " + std::to_string(j));
    if (HasFatalFailure()) return;
  }
}

TEST_F(WalKillPointSweep, PartialWritebackCrashesStillRecover) {
  // Out-of-order page writeback: the crash persists a seeded-random
  // subset of the unsynced writes instead of dropping them all.  This is
  // the shape that catches data-before-meta sync-ordering bugs.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (uint64_t j = 0; j < total_syncs_; ++j) {
      ResetScratch();
      injector_->EnablePartialCrash(seed, 0.5);
      injector_->FailAtOpOfKind(FaultOpKind::kSync, j, FaultKind::kCrash,
                                /*sticky=*/true);
      Status s = WalUpdate(scratch_, injector_);
      EXPECT_FALSE(s.ok()) << "seed " << seed << " sync " << j;
      injector_->Disarm();
      ExpectOldOrNew(scratch_, old_state_, new_state_,
                     "partial crash seed " + std::to_string(seed) +
                         " at fsync " + std::to_string(j));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(WalKillPointSweep, PlainOpenRefusesAPendingWal) {
  // Crash right after the WAL became durable but before any apply: the
  // log holds a committed-but-unapplied transaction.  A plain (non-WAL)
  // open must refuse it and point at recovery, not silently serve the old
  // epoch.
  uint64_t pending_point = 0;
  bool found = false;
  for (uint64_t j = 0; j < total_syncs_ && !found; ++j) {
    ResetScratch();
    injector_->FailAtOpOfKind(FaultOpKind::kSync, j, FaultKind::kCrash,
                              /*sticky=*/true);
    (void)WalUpdate(scratch_, injector_);
    injector_->Disarm();
    auto pending = PendingWalTransactions(scratch_);
    ASSERT_TRUE(pending.ok());
    if (*pending > 0) {
      pending_point = j;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no crash point left a committed-but-unapplied "
                        "transaction; the sweep lost its teeth";

  DocumentStoreOptions plain;
  plain.dir = scratch_;
  auto refused = DocumentStore::OpenDir(plain);
  ASSERT_FALSE(refused.ok())
      << "plain open served a store with a pending WAL (crash at fsync "
      << pending_point << ")";
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();

  // Recovery repairs it; after that a plain open is fine again.
  ASSERT_TRUE(RecoverStoreDir(scratch_).ok());
  auto repaired = DocumentStore::OpenDir(plain);
  EXPECT_TRUE(repaired.ok()) << repaired.status().ToString();
}

TEST(FaultSweepTest, RandomFaultsNeverCrashTheBuilder) {
  const std::string dir = TempDir("random");
  auto injector = std::make_shared<FaultInjector>();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::filesystem::remove_all(dir);
    injector->Reset();
    injector->FailWithProbability(seed, 0.02);
    Status s = BuildWorkload(dir, injector);
    if (s.ok()) continue;  // Got lucky; nothing to check.
    injector->Disarm();
    const ReopenOutcome outcome = Reopen(dir);
    if (outcome.status.ok()) {
      EXPECT_EQ(outcome.stevens_hits, 1u) << "seed " << seed;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
