#include "encoding/store_verifier.h"

#include <memory>
#include <utility>

#include "btree/btree.h"
#include "encoding/bp_index.h"
#include "encoding/dewey.h"
#include "encoding/path_synopsis.h"
#include "encoding/string_store.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {

namespace {

// Beyond this many issues the store is toast and more detail is noise.
constexpr size_t kMaxIssues = 100;

void AddIssue(VerifyReport* report, std::string component,
              std::string detail) {
  if (report->issues.size() >= kMaxIssues) {
    report->truncated = true;
    return;
  }
  report->issues.push_back(
      VerifyIssue{std::move(component), std::move(detail)});
}

/// Reads every page of one paged component file, reporting each page that
/// fails (checksum mismatch, short file, ...).
void ScrubPagedFile(const std::string& dir, const char* name,
                    uint32_t page_size, PageFormat format,
                    VerifyReport* report) {
  const std::string path = dir + "/" + name;
  if (!FileExists(path)) {
    AddIssue(report, name, "file is missing");
    return;
  }
  auto file = OpenPosixFile(path, /*create=*/false);
  if (!file.ok()) {
    AddIssue(report, name, file.status().ToString());
    return;
  }
  auto pager = Pager::Open(std::move(file).ValueOrDie(), page_size, format);
  if (!pager.ok()) {
    AddIssue(report, name, pager.status().ToString());
    return;
  }
  const auto& p = pager.ValueOrDie();
  std::vector<char> buf(page_size);
  for (PageId id = 0; id < p->page_count(); ++id) {
    ++report->pages_checked;
    Status s = p->ReadPage(id, buf.data());
    if (!s.ok()) {
      AddIssue(report, name, s.ToString());
    }
  }
}

}  // namespace

Result<VerifyReport> VerifyStoreDir(const std::string& dir,
                                    DocumentStoreOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument("verify requires a store directory");
  }
  if (!FileExists(dir + "/" + store_files::kTree)) {
    return Status::NotFound("no document store in " + dir + " (" +
                            store_files::kTree + " is missing)");
  }
  VerifyReport report;

  // Pass 1: raw page scrub of every paged file, in the format the tree
  // meta page records.
  PageFormat format = PageFormat::kRaw;
  {
    auto tree_file = OpenPosixFile(dir + "/" + store_files::kTree,
                                   /*create=*/false);
    if (!tree_file.ok()) {
      AddIssue(&report, store_files::kTree, tree_file.status().ToString());
      return report;
    }
    auto checksummed =
        StringStore::SniffChecksummed(tree_file.ValueOrDie().get());
    if (!checksummed.ok()) {
      AddIssue(&report, store_files::kTree,
               checksummed.status().ToString());
      return report;
    }
    format = checksummed.ValueOrDie() ? PageFormat::kChecksummed
                                      : PageFormat::kRaw;
  }
  ScrubPagedFile(dir, store_files::kTree, options.page_size, format,
                 &report);
  for (const char* idx :
       {store_files::kTagIdx, store_files::kValIdx, store_files::kIdIdx,
        store_files::kPathIdx}) {
    ScrubPagedFile(dir, idx, options.index_page_size, format, &report);
  }
  if (!report.ok()) {
    // Damaged pages would poison the structural passes with noise.
    return report;
  }

  // Pass 2: structural open (magics, versions, page chain, epochs).
  // Read-only: a writable open self-heals damaged index sidecars
  // (rebuild + re-persist), which would erase exactly the evidence the
  // later passes exist to report.  A scrub must never mutate the store.
  options.dir = dir;
  options.read_only = true;
  auto store_or = DocumentStore::OpenDir(options);
  if (!store_or.ok()) {
    AddIssue(&report, "store", store_or.status().ToString());
    return report;
  }
  auto store = std::move(store_or).ValueOrDie();

  // Pass 3: every B+i entry against an independent navigation of the
  // tree string, and its value record against the data file.
  BTreeIterator it = store->id_index()->NewIterator();
  Status s = it.SeekToFirst();
  if (!s.ok()) {
    AddIssue(&report, "B+i", s.ToString());
    return report;
  }
  while (it.Valid()) {
    ++report.entries_checked;
    auto dewey_or = DeweyId::Decode(it.key());
    if (!dewey_or.ok()) {
      AddIssue(&report, "B+i",
               "undecodable Dewey key: " + dewey_or.status().ToString());
    } else {
      const DeweyId dewey = std::move(dewey_or).ValueOrDie();
      auto nav = store->Navigate(dewey);
      if (!nav.ok()) {
        AddIssue(&report, "B+i",
                 "entry for " + dewey.ToString() +
                     " has no matching node in the tree string: " +
                     nav.status().ToString());
      } else {
        uint64_t pos = 0, offset = 0;
        bool has_value = false;
        Status ps = index_keys::ParseIdPayload(it.value(), &pos,
                                               &has_value, &offset);
        if (!ps.ok()) {
          AddIssue(&report, "B+i",
                   "bad payload for " + dewey.ToString() + ": " +
                       ps.ToString());
        } else {
          if (store->positions_fresh() &&
              pos != store->tree()->GlobalPos(nav.ValueOrDie())) {
            AddIssue(&report, "B+i",
                     "stored position " + std::to_string(pos) + " for " +
                         dewey.ToString() + " disagrees with the tree (" +
                         std::to_string(store->tree()->GlobalPos(
                             nav.ValueOrDie())) +
                         ") although positions are marked fresh");
          }
          if (has_value) {
            auto value = store->values()->Read(offset);
            if (!value.ok()) {
              AddIssue(&report, "values.dat",
                       "record for " + dewey.ToString() + ": " +
                           value.status().ToString());
            }
          }
        }
      }
    }
    if (report.issues.size() >= kMaxIssues) {
      report.truncated = true;
      break;
    }
    s = it.Next();
    if (!s.ok()) {
      AddIssue(&report, "B+i", s.ToString());
      break;
    }
  }

  // The node count in the tree meta must agree with the B+i entry count
  // (every node has exactly one entry).
  if (!report.truncated &&
      report.entries_checked != store->tree()->node_count()) {
    AddIssue(&report, "B+i",
             "index holds " + std::to_string(report.entries_checked) +
                 " entries but the tree records " +
                 std::to_string(store->tree()->node_count()) + " nodes");
  }

  // Pass 4: the balanced-parentheses sidecar, when one was persisted.
  // LoadFrom validates the envelope (magic, format version, shape,
  // CRC-32C) — a flipped payload byte surfaces here as Corruption.  The
  // CRC only vouches that the bytes match what was written; the compare
  // below checks what was written against the current tree string.
  const std::string bpx_path =
      dir + "/" + store_files::kBpIndex;
  if (FileExists(bpx_path)) {
    auto bpx_file = OpenPosixFile(bpx_path, /*create=*/false);
    if (!bpx_file.ok()) {
      AddIssue(&report, store_files::kBpIndex,
               bpx_file.status().ToString());
      return report;
    }
    auto side_or = BpIndex::LoadFrom(bpx_file.ValueOrDie().get());
    if (!side_or.ok()) {
      AddIssue(&report, store_files::kBpIndex,
               side_or.status().ToString());
      return report;
    }
    const BpIndex& side = *side_or.ValueOrDie();
    // A mismatched-epoch sidecar is stale, not damaged: no open ever
    // trusts it (it is rebuilt from the page chain, exactly as if the
    // file were missing), and a crash between a WAL commit and the
    // next writable open legitimately leaves one behind.  Diffing its
    // content against a different generation would be noise, so the
    // comparison only runs when the epochs agree.
    if (side.epoch() == store->epoch()) {
      auto fresh_or = BpIndex::Build(store->tree(), side.epoch());
      if (!fresh_or.ok()) {
        AddIssue(&report, store_files::kBpIndex,
                 "cannot recompute the bitvector from the page chain: " +
                     fresh_or.status().ToString());
        return report;
      }
      const BpIndex& fresh = *fresh_or.ValueOrDie();
      if (side.node_count() != fresh.node_count()) {
        AddIssue(&report, store_files::kBpIndex,
                 "sidecar holds " + std::to_string(side.node_count()) +
                     " nodes but the tree string holds " +
                     std::to_string(fresh.node_count()));
      } else {
        uint64_t bad_bits = 0;
        for (uint64_t pos = 0; pos < fresh.bit_count(); ++pos) {
          if (side.IsOpen(pos) != fresh.IsOpen(pos)) ++bad_bits;
        }
        uint64_t bad_tags = 0;
        for (uint64_t rank = 0; rank < fresh.node_count(); ++rank) {
          if (side.TagAtRank(rank) != fresh.TagAtRank(rank)) ++bad_tags;
        }
        if (bad_bits != 0 || bad_tags != 0) {
          AddIssue(&report, store_files::kBpIndex,
                   "sidecar disagrees with the tree string: " +
                       std::to_string(bad_bits) + " parenthesis bit(s), " +
                       std::to_string(bad_tags) + " preorder tag(s)");
        }
      }
    }
  }

  // Pass 5: the path-synopsis sidecar, when one was persisted.  Same
  // shape as pass 4: LoadFrom catches envelope damage (magic, version,
  // CRC-32C over the trie records), and when the epochs agree a rebuild
  // from the tree string catches a sidecar whose bytes are internally
  // consistent but no longer describe this document.
  const std::string pds_path = dir + "/" + store_files::kSynopsis;
  if (FileExists(pds_path)) {
    auto pds_file = OpenPosixFile(pds_path, /*create=*/false);
    if (!pds_file.ok()) {
      AddIssue(&report, store_files::kSynopsis,
               pds_file.status().ToString());
      return report;
    }
    auto side_or = PathSynopsis::LoadFrom(pds_file.ValueOrDie().get());
    if (!side_or.ok()) {
      AddIssue(&report, store_files::kSynopsis,
               side_or.status().ToString());
      return report;
    }
    const PathSynopsis& side = *side_or.ValueOrDie();
    // Stale-not-damaged: same policy as pass 4 above.
    if (side.epoch() == store->epoch()) {
      auto fresh_or = PathSynopsis::Build(store->tree(), side.epoch());
      if (!fresh_or.ok()) {
        AddIssue(&report, store_files::kSynopsis,
                 "cannot recompute the path trie from the page chain: " +
                     fresh_or.status().ToString());
        return report;
      }
      const PathSynopsis& fresh = *fresh_or.ValueOrDie();
      if (side.path_count() != fresh.path_count()) {
        AddIssue(&report, store_files::kSynopsis,
                 "sidecar holds " + std::to_string(side.path_count()) +
                     " distinct paths but the tree string holds " +
                     std::to_string(fresh.path_count()));
      } else {
        uint64_t bad_paths = 0;
        for (uint32_t i = 0; i < fresh.path_count(); ++i) {
          if (side.node(i).tag != fresh.node(i).tag ||
              side.node(i).count != fresh.node(i).count ||
              side.node(i).parent != fresh.node(i).parent) {
            ++bad_paths;
          }
        }
        if (bad_paths != 0) {
          AddIssue(&report, store_files::kSynopsis,
                   "sidecar disagrees with the tree string on " +
                       std::to_string(bad_paths) + " path record(s)");
        }
      }
    }
  }
  return report;
}

}  // namespace nok
