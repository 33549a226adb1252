#include "encoding/store_verifier.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "encoding/dewey.h"
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
                    uint32_t page_size, VerifyReport* report) {
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
  auto pager = Pager::Open(std::move(file).ValueOrDie(), page_size);
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

/// Checks B+v against B+i: every entry's Dewey ID must have a B+i entry,
/// and the tree must hold exactly one entry per node with a value.
void CrossCheckValueIndex(BTree* id_index, BTree* index, uint64_t expected,
                          VerifyReport* report) {
  uint64_t count = 0;
  BTreeIterator it = index->NewIterator();
  Status s = it.SeekToFirst();
  while (s.ok() && it.Valid()) {
    ++count;
    DeweyId dewey = DeweyId::Root();
    Status ps = index_keys::ParseNodeRefEntry(it.key(), it.value(), &dewey);
    if (!ps.ok()) {
      AddIssue(report, "B+v", "undecodable entry: " + ps.ToString());
    } else {
      auto id = id_index->Get(Slice(dewey.Encode()));
      if (!id.ok()) {
        AddIssue(report, "B+v",
                 "entry for " + dewey.ToString() +
                     " has no B+i entry: " + id.status().ToString());
      }
    }
    if (report->issues.size() >= kMaxIssues) {
      report->truncated = true;
      return;
    }
    s = it.Next();
  }
  if (!s.ok()) {
    AddIssue(report, "B+v", s.ToString());
  } else if (count != expected) {
    AddIssue(report, "B+v",
             "index holds " + std::to_string(count) + " entries but B+i "
                 "records " + std::to_string(expected) + " valued nodes");
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

  // Pass 1: raw page scrub of every paged file.
  ScrubPagedFile(dir, store_files::kTree, options.page_size, &report);
  for (const char* idx : {store_files::kValIdx, store_files::kIdIdx}) {
    ScrubPagedFile(dir, idx, options.index_page_size, &report);
  }
  if (!report.ok()) {
    // Damaged pages would poison the structural passes with noise.
    return report;
  }

  // Pass 2: structural open (magics, versions, the page chain — read
  // whole to derive the BP index and synopsis — and epochs).  Read-only:
  // a scrub must never mutate the store.
  options.dir = dir;
  options.read_only = true;
  auto store_or = DocumentStore::OpenDir(options);
  if (!store_or.ok()) {
    AddIssue(&report, "store", store_or.status().ToString());
    return report;
  }
  auto store = std::move(store_or).ValueOrDie();

  // Pass 3: every B+i entry against an independent document-order walk
  // of the tree string, and its value record against the data file.  B+i
  // keys sort in document order, so one merged sweep pairs each entry
  // with its node: O(n), whatever the fanout.
  StringStore* tree = store->tree();
  std::optional<StorePos> node = tree->RootPos();
  DeweyId node_dewey = DeweyId::Root();
  DeweyCounter deweys;
  // Derives node_dewey from the level of *node.
  auto derive = [&]() -> Status {
    if (!node.has_value()) return Status::OK();
    NOK_ASSIGN_OR_RETURN(const int level, tree->LevelAt(*node));
    if (level < 1) {
      return Status::Corruption("open symbol at level " +
                                std::to_string(level));
    }
    node_dewey = DeweyId(deweys.Next(static_cast<size_t>(level)));
    return Status::OK();
  };
  Status walk = derive();
  uint64_t valued_entries = 0;
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
      // Nodes the walk passes over have no B+i entry; the count check
      // below reports them.
      while (walk.ok() && node.has_value() &&
             node_dewey.Compare(dewey) < 0) {
        auto next = tree->NextOpen(*node);
        walk = next.status();
        if (walk.ok()) {
          node = next.ValueOrDie();
          walk = derive();
        }
      }
      if (!walk.ok()) {
        AddIssue(&report, store_files::kTree,
                 "document-order walk failed: " + walk.ToString());
        return report;
      }
      if (!node.has_value() || !(node_dewey == dewey)) {
        AddIssue(&report, "B+i",
                 "entry for " + dewey.ToString() +
                     " has no matching node in the tree string");
      } else {
        uint64_t offset = 0;
        bool has_value = false;
        Status ps =
            index_keys::ParseIdPayload(it.value(), &has_value, &offset);
        if (!ps.ok()) {
          AddIssue(&report, "B+i",
                   "bad payload for " + dewey.ToString() + ": " +
                       ps.ToString());
        } else if (has_value) {
          ++valued_entries;
          auto value = store->values()->Read(offset);
          if (!value.ok()) {
            AddIssue(&report, "values.dat",
                     "record for " + dewey.ToString() + ": " +
                         value.status().ToString());
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
      report.entries_checked != tree->node_count()) {
    AddIssue(&report, "B+i",
             "index holds " + std::to_string(report.entries_checked) +
                 " entries but the tree records " +
                 std::to_string(tree->node_count()) + " nodes");
  }

  // Pass 3b: B+v against B+i.  Every entry must name a node B+i knows,
  // and B+v must hold one entry per node with a value.  Otherwise a lost
  // entry would only surface as a Corruption in the middle of a later
  // update.
  if (!report.truncated) {
    CrossCheckValueIndex(store->id_index(), store->value_index(),
                         valued_entries, &report);
  }
  return report;
}

}  // namespace nok
