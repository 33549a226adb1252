// Offline integrity scrub for a document store directory (`nokq verify`).
//
// Three passes, each independent of the machinery it checks:
//
//   1. Page scrub: every page of every paged component file (the tree
//      string, B+v and the value column) is read raw through a Pager, so
//      checksum mismatches are reported per page — including pages the
//      higher layers would never visit.
//   2. Structural open: DocumentStore::OpenDir, which validates magics,
//      format versions, the page chain (read whole to derive the BP index
//      and the path synopsis, which no store persists), and
//      cross-component epochs.
//   3. Value cross-check: the value column, read whole by the open into
//      its in-memory copy, must hold one entry per node, and every record
//      it points at must read back CRC-clean.  Then every B+v entry must
//      name a record some node holds, under that record's value hash, and
//      each record must have one B+v entry per node holding it.
//
// Files a store no longer writes (id.idx next to a value column, tag.idx,
// path.idx, tree.bpx, synopsis.pds and their .tmp names) are not
// components: the scrub ignores a leftover one.

// The scrub never repairs anything; it reports.  Repair is rebuilding
// from the source document or restoring from a copy.

#ifndef NOKXML_ENCODING_STORE_VERIFIER_H_
#define NOKXML_ENCODING_STORE_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/document_store.h"

namespace nok {

/// One problem found by the scrub.
struct VerifyIssue {
  std::string component;  ///< File or subsystem ("tree.nok", "B+v", ...).
  std::string detail;     ///< Human-readable description (names page ids).
};

/// Outcome of VerifyStoreDir.
struct VerifyReport {
  uint64_t pages_checked = 0;    ///< Pages read across all paged files.
  uint64_t entries_checked = 0;  ///< Value column entries checked.
  bool truncated = false;        ///< Issue list hit its cap.
  std::vector<VerifyIssue> issues;

  bool ok() const { return issues.empty(); }
};

/// Scrubs the store in dir.  The Result is an error only when the scrub
/// itself cannot run (e.g. the directory does not exist); damage found in
/// the store is reported through VerifyReport::issues.
Result<VerifyReport> VerifyStoreDir(const std::string& dir,
                                    DocumentStoreOptions options = {});

}  // namespace nok

#endif  // NOKXML_ENCODING_STORE_VERIFIER_H_
