// Sidecar files (storage/sidecar.h): the envelope, the atomic replace,
// and the store-level lifecycle shared by tree.bpx and synopsis.pds —
// persist and reload, go stale on a structural update, never trust a
// stale epoch, rebuild a damaged file silently, and let the verifier
// report damage but not staleness.

#include "storage/sidecar.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

#include "common/coding.h"
#include "encoding/document_store.h"
#include "encoding/store_verifier.h"
#include "storage/file.h"

namespace nok {
namespace {

constexpr SidecarFormat kTestFormat = {0x0123456789abcdefull, 3,
                                       "test sidecar"};

std::string TestDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("nokxml_sidecar_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteStringToFile(path, Slice(bytes)).ok()) << path;
}

// ---------------------------------------------------------------------
// Envelope.

TEST(SidecarTest, SealUnsealRoundTrip) {
  const std::string payload = "payload bytes \x01\x02\x03";
  const std::string bytes = SealSidecar(kTestFormat, 42, 7, payload);
  ASSERT_EQ(bytes.size(), 32 + payload.size());
  // The fixed layout: magic, version, epoch, node count, CRC, payload.
  EXPECT_EQ(DecodeFixed64(bytes.data()), kTestFormat.magic);
  EXPECT_EQ(DecodeFixed32(bytes.data() + 8), kTestFormat.version);
  EXPECT_EQ(DecodeFixed64(bytes.data() + 12), 42u);
  EXPECT_EQ(DecodeFixed64(bytes.data() + 20), 7u);
  EXPECT_EQ(bytes.substr(32), payload);

  auto contents = UnsealSidecar(kTestFormat, bytes);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->epoch, 42u);
  EXPECT_EQ(contents->node_count, 7u);
  EXPECT_EQ(contents->payload, payload);

  auto empty = UnsealSidecar(kTestFormat, SealSidecar(kTestFormat, 1, 0, ""));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->payload.empty());
}

TEST(SidecarTest, UnsealRejectsEveryFlippedByte) {
  const std::string bytes = SealSidecar(kTestFormat, 9, 3, "abcdefgh");
  // Header bytes break the magic/version checks or the CRC (which covers
  // the epoch and node count); payload bytes break the CRC.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto contents = UnsealSidecar(kTestFormat, bad);
    ASSERT_FALSE(contents.ok()) << "byte " << i;
    EXPECT_TRUE(contents.status().IsCorruption()) << "byte " << i;
  }
  auto truncated = UnsealSidecar(kTestFormat, bytes.substr(0, 10));
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().ToString().find("test sidecar: truncated"),
            std::string::npos)
      << truncated.status().ToString();
  EXPECT_FALSE(UnsealSidecar(kTestFormat, bytes.substr(0, 34)).ok());
  EXPECT_FALSE(UnsealSidecar(kTestFormat, bytes + "x").ok());
  SidecarFormat other = kTestFormat;
  other.magic ^= 1;
  EXPECT_FALSE(UnsealSidecar(other, bytes).ok());
}

TEST(SidecarTest, ReplaceFileAtomicallySwapsInTheNewBytes) {
  const std::string dir = TestDir("replace");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(CreateDirs(dir).ok());
  const std::string path = dir + "/x.bin";
  const std::string temp = path + std::string(kSidecarTempSuffix);
  WriteBytes(path, "old contents, longer than the new ones");
  WriteBytes(temp, "a stray temp file left by an earlier failure");
  {
    auto file = OpenPosixFile(temp, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        ReplaceFileAtomically(file->get(), dir, "x.bin", "new").ok());
  }
  EXPECT_EQ(ReadBytes(path), "new");
  EXPECT_FALSE(FileExists(temp));
  auto file = OpenPosixFile(path, /*create=*/false);
  ASSERT_TRUE(file.ok());
  auto bytes = ReadWholeFile(**file);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Store-level lifecycle, once per sidecar file.
//
// The document has 5 nodes and 4 distinct rooted paths; inserting <e/>
// under the root makes 6 nodes and 5 paths.

constexpr const char* kXml = "<a><b><c/></b><b/><d>x</d></a>";

struct SidecarCase {
  const char* file;
  NavMode nav_mode;
  /// The structure's size before and after the insert: BP nodes or
  /// synopsis paths.
  uint64_t size_before;
  uint64_t size_after;
};

class SidecarLifecycleTest : public ::testing::TestWithParam<SidecarCase> {
 protected:
  void SetUp() override {
    dir_ = TestDir(std::string("lifecycle_") + GetParam().file);
    std::filesystem::remove_all(dir_);
    options_.dir = dir_;
    options_.nav_mode = GetParam().nav_mode;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  bool IsBp() const { return GetParam().nav_mode == NavMode::kBp; }
  std::string path() const { return dir_ + "/" + GetParam().file; }

  bool Loaded(const DocumentStore& store) const {
    return IsBp() ? store.bp_loaded_from_sidecar()
                  : store.synopsis_loaded_from_sidecar();
  }

  /// Size of the structure, (re)built on demand for the current
  /// document; nullopt when that fails.
  std::optional<uint64_t> Size(DocumentStore* store) const {
    if (IsBp()) {
      auto bp = store->bp_index();
      EXPECT_TRUE(bp.ok()) << bp.status().ToString();
      if (!bp.ok()) return std::nullopt;
      return (*bp)->node_count();
    }
    auto synopsis = store->path_synopsis();
    EXPECT_TRUE(synopsis.ok()) << synopsis.status().ToString();
    if (!synopsis.ok()) return std::nullopt;
    return (*synopsis)->path_count();
  }

  /// Node count the structure was built over.
  uint64_t Nodes(DocumentStore* store) const {
    if (IsBp()) return store->bp_index().ValueOrDie()->node_count();
    return store->path_synopsis().ValueOrDie()->node_count();
  }

  void BuildStore() {
    auto store = DocumentStore::Build(kXml, options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
    // Build materializes from its own pass, not from the sidecar.
    EXPECT_FALSE(Loaded(**store));
    EXPECT_EQ(Size(store->get()), GetParam().size_before);
  }

  /// Advances the store a generation with one structural update.
  void InsertAndFlush() {
    auto store = DocumentStore::OpenDir(options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<e/>").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }

  /// Reopens writable and checks where the structure came from and that
  /// it describes the current document.
  void ExpectReopen(bool loaded, uint64_t size) {
    auto store = DocumentStore::OpenDir(options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(Loaded(**store), loaded);
    EXPECT_EQ(Size(store->get()), size);
    EXPECT_EQ(Nodes(store->get()), (*store)->stats().node_count);
  }

  void ExpectVerifyClean() {
    auto report = VerifyStoreDir(dir_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->issues.front().component << ": "
                              << report->issues.front().detail;
  }

  std::string dir_;
  DocumentStore::Options options_;
};

TEST_P(SidecarLifecycleTest, PersistsAndReloads) {
  BuildStore();
  ASSERT_TRUE(FileExists(path()));
  EXPECT_FALSE(FileExists(path() + std::string(kSidecarTempSuffix)));
  ExpectReopen(/*loaded=*/true, GetParam().size_before);
}

TEST_P(SidecarLifecycleTest, StructuralUpdateMakesItStale) {
  BuildStore();
  {
    auto store = DocumentStore::OpenDir(options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(Loaded(**store));
    // A structural update drops the in-memory structure; the next use
    // rebuilds it for the new topology (pruning on the old trie could
    // wrongly prove queries empty).
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<e/>").ok());
    EXPECT_FALSE(Loaded(**store));
    EXPECT_EQ(Size(store->get()), GetParam().size_after);
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_FALSE(Loaded(**store));
    EXPECT_EQ(Size(store->get()), GetParam().size_after);
  }
  // The Flush re-persisted the sidecar for the new generation.
  ExpectReopen(/*loaded=*/true, GetParam().size_after);
}

TEST_P(SidecarLifecycleTest, StaleEpochIsNeverTrusted) {
  BuildStore();
  const std::string old_bytes = ReadBytes(path());
  InsertAndFlush();
  WriteBytes(path(), old_bytes);
  // The stale sidecar unseals fine but its epoch diverges: the open
  // rebuilds from the page chain instead of trusting it.
  ExpectReopen(/*loaded=*/false, GetParam().size_after);
}

TEST_P(SidecarLifecycleTest, FlippedByteIsRebuiltSilently) {
  BuildStore();
  std::string bytes = ReadBytes(path());
  ASSERT_GT(bytes.size(), 36u);
  bytes[36] = static_cast<char>(bytes[36] ^ 0xff);  // A payload byte.
  WriteBytes(path(), bytes);
  // The CRC rejects the file; the open rebuilds and re-persists it.
  ExpectReopen(/*loaded=*/false, GetParam().size_before);
  ExpectReopen(/*loaded=*/true, GetParam().size_before);
}

TEST_P(SidecarLifecycleTest, StrayTempFileIsIgnoredAndReplaced) {
  BuildStore();
  const std::string temp = path() + std::string(kSidecarTempSuffix);
  WriteBytes(temp, "half-written garbage");
  ExpectVerifyClean();
  ExpectReopen(/*loaded=*/true, GetParam().size_before);
  InsertAndFlush();
  EXPECT_FALSE(FileExists(temp));
  ExpectReopen(/*loaded=*/true, GetParam().size_after);
}

TEST_P(SidecarLifecycleTest, VerifierReportsDamageButNotStaleness) {
  BuildStore();
  const std::string good = ReadBytes(path());
  ExpectVerifyClean();
  {
    // One flipped payload byte surfaces as an issue on this file.
    std::string bad = good;
    bad[36] = static_cast<char>(bad[36] ^ 0x01);
    WriteBytes(path(), bad);
    auto report = VerifyStoreDir(dir_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->issues.size(), 1u);
    EXPECT_EQ(report->issues[0].component, GetParam().file);
  }
  // Restoring the bytes is enough: the verifier's own open is read-only,
  // so the previous scrub cannot have "healed" the file.
  WriteBytes(path(), good);
  ExpectVerifyClean();
  // A stale-epoch sidecar is not an integrity issue: no open ever trusts
  // it (it is as good as missing), and a crash between a WAL commit and
  // the next writable open leaves one behind legitimately.
  InsertAndFlush();
  WriteBytes(path(), good);
  ExpectVerifyClean();
}

INSTANTIATE_TEST_SUITE_P(
    Files, SidecarLifecycleTest,
    ::testing::Values(SidecarCase{store_files::kBpIndex, NavMode::kBp, 5, 6},
                      SidecarCase{store_files::kSynopsis, NavMode::kPaged, 4,
                                  5}),
    [](const ::testing::TestParamInfo<SidecarCase>& param_info) {
      return param_info.param.nav_mode == NavMode::kBp ? "TreeBpx"
                                                       : "SynopsisPds";
    });

TEST(SidecarVerifyTest, BothDamagedFilesAreReported) {
  const std::string dir = TestDir("both");
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = NavMode::kBp;
  {
    auto store = DocumentStore::Build(kXml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  for (const char* name : {store_files::kBpIndex, store_files::kSynopsis}) {
    std::string bytes = ReadBytes(dir + "/" + name);
    bytes[36] = static_cast<char>(bytes[36] ^ 0x01);
    WriteBytes(dir + "/" + name, bytes);
  }
  auto report = VerifyStoreDir(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->issues.size(), 2u);
  EXPECT_EQ(report->issues[0].component, store_files::kBpIndex);
  EXPECT_EQ(report->issues[1].component, store_files::kSynopsis);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
