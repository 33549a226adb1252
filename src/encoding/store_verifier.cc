#include "encoding/store_verifier.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/hash.h"
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

/// One column entry's record, for the B+v cross-check.
struct Record {
  uint64_t offset;
  uint64_t nodes = 0;    ///< Column entries pointing at it.
  uint64_t entries = 0;  ///< B+v entries naming it.
  uint64_t hash = 0;     ///< Hash of its value, once read.
  bool readable = false;
};

/// Checks B+v against the value column's records: every entry's offset
/// must be a record some node holds, filed under that record's value
/// hash, and each record must have exactly one entry per node holding it.
void CrossCheckValueIndex(BTree* index, std::vector<Record>* records,
                          VerifyReport* report) {
  auto find = [&](uint64_t offset) -> Record* {
    auto it = std::lower_bound(
        records->begin(), records->end(), offset,
        [](const Record& r, uint64_t o) { return r.offset < o; });
    return it != records->end() && it->offset == offset ? &*it : nullptr;
  };
  BTreeIterator it = index->NewIterator();
  Status s = it.SeekToFirst();
  while (s.ok() && it.Valid()) {
    uint64_t offset = 0;
    Status ps = index_keys::ParseValueEntry(it.key(), it.value(), &offset);
    if (!ps.ok()) {
      AddIssue(report, "B+v", "undecodable entry: " + ps.ToString());
    } else if (Record* record = find(offset); record == nullptr) {
      AddIssue(report, "B+v",
               "entry names value offset " + std::to_string(offset) +
                   ", which no node of the value column holds");
    } else {
      ++record->entries;
      if (record->readable &&
          DecodeBigEndian64(it.key().data()) != record->hash) {
        AddIssue(report, "B+v",
                 "entry for value offset " + std::to_string(offset) +
                     " is filed under another value's hash");
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
    return;
  }
  for (const Record& record : *records) {
    if (record.entries != record.nodes) {
      AddIssue(report, "B+v",
               "holds " + std::to_string(record.entries) +
                   " entries for value offset " +
                   std::to_string(record.offset) + ", which " +
                   std::to_string(record.nodes) + " node(s) hold");
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

  // Pass 1: raw page scrub of every paged file.
  ScrubPagedFile(dir, store_files::kTree, options.page_size, &report);
  ScrubPagedFile(dir, store_files::kValIdx, options.index_page_size,
                 &report);
  ScrubPagedFile(dir, store_files::kValueColumn, options.page_size, &report);
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

  // Pass 3: the open read the value column whole into its derived copy,
  // which must hold one entry per node of the tree; every record it
  // points at must read back CRC-clean.
  auto derived = store->derived();
  if (!derived.ok()) {
    AddIssue(&report, "store", derived.status().ToString());
    return report;
  }
  if (!(*derived)->column_status.ok()) {
    AddIssue(&report, store_files::kValueColumn,
             (*derived)->column_status.ToString());
    return report;
  }
  report.entries_checked = (*derived)->offsets.size();
  // The inverse lists valued nodes by offset: one record per run.
  std::vector<Record> records;
  for (const DocumentStore::RankOfOffset& entry : (*derived)->inverse) {
    if (records.empty() || records.back().offset != entry.offset) {
      records.push_back(Record{entry.offset});
    }
    ++records.back().nodes;
  }
  for (Record& record : records) {
    auto value = store->values()->Read(record.offset);
    if (!value.ok()) {
      AddIssue(&report, store_files::kValues,
               "record at offset " + std::to_string(record.offset) + ": " +
                   value.status().ToString());
      if (report.truncated) return report;
      continue;
    }
    record.hash = Hash64(Slice(*value));
    record.readable = true;
  }

  // Pass 3b: B+v against the column's records.  Otherwise a lost entry
  // would only surface as a Corruption in the middle of a later update.
  if (!report.truncated) {
    CrossCheckValueIndex(store->value_index(), &records, &report);
  }
  return report;
}

}  // namespace nok
