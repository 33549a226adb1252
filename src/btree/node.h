// Slotted-page node layout for the B+ tree.
//
// A node is one page.  Layout:
//
//   [0]   uint8   type (kLeaf | kInternal)
//   [1]   uint8   reserved
//   [2]   uint16  nkeys
//   [4]   uint16  cell_content_start (lowest cell byte offset)
//   [6]   uint16  frag_bytes (dead cell bytes, reclaimed by Compact;
//                   RemoveCell leaves none, pages of earlier writers may)
//   [8]   uint32  right_sibling (leaf) / leftmost_child (internal)
//   [12]  uint16  slot[nkeys]      -- sorted by key, each points at a cell
//   ...   free space ...
//   cells, allocated downward from the end of the page
//
// Leaf cell:      varint key_len, key bytes, varint val_len, val bytes
// Internal cell:  varint key_len, key bytes, uint32 child_page
//
// Internal nodes hold nkeys separators and nkeys+1 children: the leftmost
// child in the header, child i of cell i covering keys >= separator i.
// A split's separator is greater than every key of the left node and at
// most the first key of the right node (equal to it only when duplicates
// straddle the split), so a lookup must descend left on equality and scan
// right via the leaf sibling chain (see btree.cc).

#ifndef NOKXML_BTREE_NODE_H_
#define NOKXML_BTREE_NODE_H_

#include <cstdint>

#include "common/slice.h"
#include "storage/page.h"

namespace nok {

enum class NodeType : uint8_t { kLeaf = 1, kInternal = 2 };

/// View over a B+ tree node page.  Does not own the buffer.
class NodeRef {
 public:
  NodeRef(char* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  /// Formats an empty node of the given type in the buffer.
  void Init(NodeType type);

  NodeType type() const;
  bool is_leaf() const { return type() == NodeType::kLeaf; }
  uint16_t nkeys() const;

  /// Leaf: next leaf in key order (kInvalidPage at the end).
  PageId right_sibling() const;
  void set_right_sibling(PageId id);
  /// Internal: child covering keys below the first separator.
  PageId leftmost_child() const { return right_sibling(); }
  void set_leftmost_child(PageId id) { set_right_sibling(id); }

  /// Key of cell i (view into the page).
  Slice KeyAt(uint16_t i) const;
  /// Leaf only: value of cell i (view into the page).
  Slice ValueAt(uint16_t i) const;
  /// Leaf only: key and value of cell i from one decode of the cell
  /// (views into the page).
  void EntryAt(uint16_t i, Slice* key, Slice* value) const;
  /// Internal only: child page of cell i.
  PageId ChildAt(uint16_t i) const;
  /// Internal only: overwrites the child page of cell i in place.
  void SetChildAt(uint16_t i, PageId child);

  /// First slot with key >= target (lower bound), in [0, nkeys].
  uint16_t LowerBound(const Slice& key) const;
  /// First slot with key > target (upper bound), in [0, nkeys].
  uint16_t UpperBound(const Slice& key) const;

  /// Bytes a new cell would occupy (cell + slot entry).
  static uint32_t LeafCellSize(const Slice& key, const Slice& value);
  static uint32_t InternalCellSize(const Slice& key);

  /// Free bytes available without compaction.
  uint32_t FreeSpace() const;
  /// Free bytes available after compaction.
  uint32_t FreeSpaceAfterCompact() const;

  /// Inserts a leaf cell at slot i; caller guarantees space (compacts if
  /// fragmented space suffices).
  void InsertLeafCell(uint16_t i, const Slice& key, const Slice& value);
  /// Inserts an internal cell at slot i.
  void InsertInternalCell(uint16_t i, const Slice& key, PageId child);

  /// Removes cell i (key order preserved).  The cells below it move up,
  /// so its bytes join the contiguous free space at once.
  void RemoveCell(uint16_t i);

  /// Rewrites the page with cells densely packed (drops fragmentation).
  void Compact();

  /// Bytes used by live cells + slots + header (i.e. what a merged page
  /// would occupy).
  uint32_t UsedBytes() const;

  uint32_t page_size() const { return page_size_; }

 private:
  static constexpr uint32_t kHeaderSize = 12;

  uint16_t SlotOffset(uint16_t i) const;
  void SetSlotOffset(uint16_t i, uint16_t off);
  uint16_t cell_content_start() const;
  void set_cell_content_start(uint16_t v);
  uint16_t frag_bytes() const;
  void set_frag_bytes(uint16_t v);
  void set_nkeys(uint16_t n);

  /// Parses the cell at byte offset off; returns key and (leaf) value or
  /// (internal) child.
  void ParseCell(uint16_t off, Slice* key, Slice* value,
                 PageId* child) const;
  /// Total byte size of the cell at offset off.
  uint32_t CellBytes(uint16_t off) const;

  /// Appends raw cell bytes into the cell area; returns the cell offset.
  uint16_t AppendCell(const char* bytes, uint32_t n);

  char* data_;
  uint32_t page_size_;
};

}  // namespace nok

#endif  // NOKXML_BTREE_NODE_H_
