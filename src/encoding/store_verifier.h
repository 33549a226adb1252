// Offline integrity scrub for a document store directory (`nokq verify`).
//
// Three passes, each independent of the machinery it checks:
//
//   1. Page scrub: every page of every paged component file (the tree
//      string and the B+v and B+i indexes) is read raw through a Pager,
//      so checksum mismatches are reported per page — including pages the
//      higher layers would never visit.
//   2. Structural open: DocumentStore::OpenDir, which validates magics,
//      format versions, the page chain (read whole to derive the BP index
//      and the path synopsis, which no store persists), and
//      cross-component epochs.
//   3. Index cross-check: every B+i (Dewey -> position/value) entry is
//      paired with its node by one document-order walk of the tree string
//      (B+i keys sort in document order) and compared against the stored
//      entry, and its value record is read (which verifies the record
//      CRC).  Then every B+v entry must name a node B+i knows, and B+v
//      must hold one entry per valued node.
//
// Files a store no longer writes (tag.idx, path.idx, tree.bpx,
// synopsis.pds and their .tmp names) are not components: the scrub
// ignores a leftover one.

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
  std::string component;  ///< File or subsystem ("tree.nok", "B+i", ...).
  std::string detail;     ///< Human-readable description (names page ids).
};

/// Outcome of VerifyStoreDir.
struct VerifyReport {
  uint64_t pages_checked = 0;    ///< Pages read across all paged files.
  uint64_t entries_checked = 0;  ///< B+i entries cross-checked.
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
