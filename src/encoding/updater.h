// Update support for the succinct storage scheme (Section 4.2 of the
// paper).
//
// TreeUpdater performs the string-level edits: inserting the encoded
// symbols of a subtree before an existing symbol, and deleting the symbol
// range of a subtree.  Edits are local: they touch the affected page, use
// its reserved space when the insertion fits (the paper's load factor r),
// and otherwise split by chaining freshly allocated pages through the
// next-page pointers — exactly the cut-and-paste procedure of the paper's
// Section 4.2 example.  Deletions that empty a page unlink it from the
// chain and recycle it through a free list.
//
// The higher-level DocumentStore::InsertSubtree / DeleteSubtree (defined
// in updater.cc as well) additionally maintain the value column and B+v:
// the column pages around the edit's preorder rank are rewritten, and B+v
// entries are added or removed for the inserted or deleted nodes only.
// No persisted entry names a node by Dewey ID, so the following siblings'
// entries never move — the "indexes need to be updated" cost the paper
// attributes to Dewey IDs is gone.

#ifndef NOKXML_ENCODING_UPDATER_H_
#define NOKXML_ENCODING_UPDATER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "encoding/string_store.h"

namespace nok {

/// String-level editor for a StringStore.
class TreeUpdater {
 public:
  explicit TreeUpdater(StringStore* store) : store_(store) {}

  /// Inserts the (balanced) encoded symbol string `symbols` immediately
  /// before the symbol at `before`.  node_delta is the number of open
  /// symbols in the insertion (added to the store's node count).
  Status InsertBefore(StorePos before, const std::string& symbols,
                      uint64_t node_delta);

  /// Deletes the symbols from `from` (an open symbol) through `to` (its
  /// matching close) inclusive.  node_delta is the number of open symbols
  /// removed.
  Status DeleteRange(StorePos from, StorePos to, uint64_t node_delta);

  /// Encodes the symbol string of a subtree given pre-order (tag, close)
  /// steps; used by DocumentStore and tests.  Appends an open symbol for
  /// tag != kInvalidTag and a close symbol otherwise.
  static void AppendOpenSymbol(std::string* out, TagId tag);
  static void AppendCloseSymbol(std::string* out);

  /// Pages touched (written) by the last operation — the locality metric
  /// reported by bench_update.
  size_t last_pages_touched() const { return last_pages_touched_; }
  /// Pages newly allocated (splits) by the last operation.
  size_t last_pages_allocated() const { return last_pages_allocated_; }

 private:
  /// Byte offset of symbol idx within its page body.
  Result<uint16_t> ByteOffsetOf(StorePos pos, uint32_t* symbol_bytes);

  /// Recomputes lo/hi of a page from its st and body, updating both the
  /// on-page header and the in-memory mirror.  Returns the level after the
  /// last symbol (the st of the next page).
  Result<int16_t> RecomputeHeader(PageId page);

  /// Allocates a page, preferring the free list.
  Status AllocatePage(PageId* id);

  /// Persists the store's meta page (node count, free list).
  Status WriteMeta();

  StringStore* store_;
  size_t last_pages_touched_ = 0;
  size_t last_pages_allocated_ = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_UPDATER_H_
