#include "btree/node.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"

namespace nok {

void NodeRef::Init(NodeType type) {
  memset(data_, 0, page_size_);
  data_[0] = static_cast<char>(type);
  set_nkeys(0);
  set_cell_content_start(static_cast<uint16_t>(page_size_));
  set_frag_bytes(0);
  set_right_sibling(kInvalidPage);
}

NodeType NodeRef::type() const {
  return static_cast<NodeType>(static_cast<uint8_t>(data_[0]));
}

uint16_t NodeRef::nkeys() const { return DecodeFixed16(data_ + 2); }
void NodeRef::set_nkeys(uint16_t n) { EncodeFixed16(data_ + 2, n); }

uint16_t NodeRef::cell_content_start() const {
  return DecodeFixed16(data_ + 4);
}
void NodeRef::set_cell_content_start(uint16_t v) {
  EncodeFixed16(data_ + 4, v);
}

uint16_t NodeRef::frag_bytes() const { return DecodeFixed16(data_ + 6); }
void NodeRef::set_frag_bytes(uint16_t v) { EncodeFixed16(data_ + 6, v); }

PageId NodeRef::right_sibling() const { return DecodeFixed32(data_ + 8); }
void NodeRef::set_right_sibling(PageId id) { EncodeFixed32(data_ + 8, id); }

uint16_t NodeRef::SlotOffset(uint16_t i) const {
  return DecodeFixed16(data_ + kHeaderSize + 2 * i);
}
void NodeRef::SetSlotOffset(uint16_t i, uint16_t off) {
  EncodeFixed16(data_ + kHeaderSize + 2 * i, off);
}

void NodeRef::ParseCell(uint16_t off, Slice* key, Slice* value,
                        PageId* child) const {
  const char* p = data_ + off;
  const char* limit = data_ + page_size_;
  uint32_t key_len = 0;
  p = GetVarint32Ptr(p, limit, &key_len);
  NOK_CHECK(p != nullptr);
  *key = Slice(p, key_len);
  p += key_len;
  if (is_leaf()) {
    uint32_t val_len = 0;
    p = GetVarint32Ptr(p, limit, &val_len);
    NOK_CHECK(p != nullptr);
    if (value != nullptr) *value = Slice(p, val_len);
  } else {
    if (child != nullptr) *child = DecodeFixed32(p);
  }
}

uint32_t NodeRef::CellBytes(uint16_t off) const {
  const char* p = data_ + off;
  const char* limit = data_ + page_size_;
  uint32_t key_len = 0;
  const char* q = GetVarint32Ptr(p, limit, &key_len);
  NOK_CHECK(q != nullptr);
  q += key_len;
  if (is_leaf()) {
    uint32_t val_len = 0;
    q = GetVarint32Ptr(q, limit, &val_len);
    NOK_CHECK(q != nullptr);
    q += val_len;
  } else {
    q += 4;
  }
  return static_cast<uint32_t>(q - p);
}

Slice NodeRef::KeyAt(uint16_t i) const {
  NOK_CHECK(i < nkeys());
  Slice key;
  ParseCell(SlotOffset(i), &key, nullptr, nullptr);
  return key;
}

Slice NodeRef::ValueAt(uint16_t i) const {
  Slice key, value;
  EntryAt(i, &key, &value);
  return value;
}

void NodeRef::EntryAt(uint16_t i, Slice* key, Slice* value) const {
  NOK_CHECK(i < nkeys() && is_leaf());
  ParseCell(SlotOffset(i), key, value, nullptr);
}

PageId NodeRef::ChildAt(uint16_t i) const {
  NOK_CHECK(i < nkeys() && !is_leaf());
  Slice key;
  PageId child = kInvalidPage;
  ParseCell(SlotOffset(i), &key, nullptr, &child);
  return child;
}

void NodeRef::SetChildAt(uint16_t i, PageId child) {
  NOK_CHECK(i < nkeys() && !is_leaf());
  uint16_t off = SlotOffset(i);
  const char* p = data_ + off;
  const char* limit = data_ + page_size_;
  uint32_t key_len = 0;
  const char* q = GetVarint32Ptr(p, limit, &key_len);
  NOK_CHECK(q != nullptr);
  EncodeFixed32(data_ + (q - data_) + key_len, child);
}

uint16_t NodeRef::LowerBound(const Slice& key) const {
  uint16_t lo = 0, hi = nkeys();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (KeyAt(mid).compare(key) < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t NodeRef::UpperBound(const Slice& key) const {
  uint16_t lo = 0, hi = nkeys();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (KeyAt(mid).compare(key) <= 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t NodeRef::LeafCellSize(const Slice& key, const Slice& value) {
  return static_cast<uint32_t>(
             static_cast<size_t>(VarintLength(key.size())) + key.size() +
             static_cast<size_t>(VarintLength(value.size())) +
             value.size()) +
         2;  // +2 for the slot entry.
}

uint32_t NodeRef::InternalCellSize(const Slice& key) {
  return static_cast<uint32_t>(
             static_cast<size_t>(VarintLength(key.size())) + key.size() +
             4) +
         2;
}

uint32_t NodeRef::FreeSpace() const {
  uint32_t slots_end = kHeaderSize + 2u * nkeys();
  return cell_content_start() - slots_end;
}

uint32_t NodeRef::FreeSpaceAfterCompact() const {
  return FreeSpace() + frag_bytes();
}

uint32_t NodeRef::UsedBytes() const {
  return page_size_ - FreeSpaceAfterCompact();
}

uint16_t NodeRef::AppendCell(const char* bytes, uint32_t n) {
  uint16_t off = static_cast<uint16_t>(cell_content_start() - n);
  memcpy(data_ + off, bytes, n);
  set_cell_content_start(off);
  return off;
}

void NodeRef::Compact() {
  // Collect live cells, then rewrite the cell area densely.
  const uint16_t n = nkeys();
  std::string cells;
  cells.reserve(page_size_);
  std::vector<uint32_t> sizes(n);
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off = SlotOffset(i);
    uint32_t sz = CellBytes(off);
    sizes[i] = sz;
    cells.append(data_ + off, sz);
  }
  uint16_t write = static_cast<uint16_t>(page_size_);
  size_t pos = 0;
  for (uint16_t i = 0; i < n; ++i) {
    write = static_cast<uint16_t>(write - sizes[i]);
    memcpy(data_ + write, cells.data() + pos, sizes[i]);
    // Slots keep key order; cells are laid out in reverse so that slot 0's
    // cell sits highest.  Any dense layout is fine.
    SetSlotOffset(i, write);
    pos += sizes[i];
  }
  set_cell_content_start(write);
  set_frag_bytes(0);
}

void NodeRef::InsertLeafCell(uint16_t i, const Slice& key,
                             const Slice& value) {
  NOK_CHECK(is_leaf() && i <= nkeys());
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutVarint32(&cell, static_cast<uint32_t>(value.size()));
  cell.append(value.data(), value.size());
  const uint32_t need = static_cast<uint32_t>(cell.size()) + 2;
  if (FreeSpace() < need) {
    NOK_CHECK(FreeSpaceAfterCompact() >= need);
    Compact();
  }
  uint16_t off = AppendCell(cell.data(), static_cast<uint32_t>(cell.size()));
  const uint16_t n = nkeys();
  memmove(data_ + kHeaderSize + 2 * (i + 1), data_ + kHeaderSize + 2 * i,
          2 * static_cast<size_t>(n - i));
  SetSlotOffset(i, off);
  set_nkeys(static_cast<uint16_t>(n + 1));
}

void NodeRef::InsertInternalCell(uint16_t i, const Slice& key,
                                 PageId child) {
  NOK_CHECK(!is_leaf() && i <= nkeys());
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutFixed32(&cell, child);
  const uint32_t need = static_cast<uint32_t>(cell.size()) + 2;
  if (FreeSpace() < need) {
    NOK_CHECK(FreeSpaceAfterCompact() >= need);
    Compact();
  }
  uint16_t off = AppendCell(cell.data(), static_cast<uint32_t>(cell.size()));
  const uint16_t n = nkeys();
  memmove(data_ + kHeaderSize + 2 * (i + 1), data_ + kHeaderSize + 2 * i,
          2 * static_cast<size_t>(n - i));
  SetSlotOffset(i, off);
  set_nkeys(static_cast<uint16_t>(n + 1));
}

void NodeRef::RemoveCell(uint16_t i) {
  const uint16_t n = nkeys();
  NOK_CHECK(i < n);
  const uint16_t off = SlotOffset(i);
  const uint16_t dead = static_cast<uint16_t>(CellBytes(off));
  memmove(data_ + kHeaderSize + 2 * i, data_ + kHeaderSize + 2 * (i + 1),
          2 * static_cast<size_t>(n - i - 1));
  set_nkeys(static_cast<uint16_t>(n - 1));
  // Close the hole at once: the cells below it move up by its size, so the
  // freed bytes join the contiguous free space.  A full page that loses
  // one entry and gains another (an update moving a key) then takes the
  // new cell without compacting.
  const uint16_t start = cell_content_start();
  memmove(data_ + start + dead, data_ + start,
          static_cast<size_t>(off - start));
  // Slots are fixed16 (coding.h: native little-endian), decoded in place
  // here because this loop runs once per removed entry.
  char* slot = data_ + kHeaderSize;
  for (uint16_t s = 0; s + 1 < n; ++s, slot += 2) {
    uint16_t cell = 0;
    memcpy(&cell, slot, sizeof(cell));
    if (cell < off) {
      cell = static_cast<uint16_t>(cell + dead);
      memcpy(slot, &cell, sizeof(cell));
    }
  }
  set_cell_content_start(static_cast<uint16_t>(start + dead));
}

}  // namespace nok
