#include "btree/btree.h"

#include <vector>

#include "common/coding.h"
#include "common/logging.h"

namespace nok {

namespace {
constexpr uint64_t kMagic = 0x4e4f4b42545245ull;  // "NOKBTRE"
constexpr PageId kMetaPage = 0;
// Meta page layout: magic @0, root @8, num_entries @12, format version
// @20, epoch @24.  Version 2 is the only format: CRC-32C pages.  Versions
// 0 (no version field) and 1 had raw pages and are refused.
constexpr uint32_t kMetaVersionOffset = 20;
constexpr uint32_t kMetaEpochOffset = 24;
constexpr uint32_t kFormatVersion = 2;

/// The separator a leaf split promotes.  left_last + '\0' lies strictly
/// between two distinct keys, so no stored key equals it, and a lookup of
/// the right leaf's first key (or a prefix seek of it) goes straight
/// there instead of descending left — the rule on separator equality —
/// and stepping across the sibling link.  A duplicate run straddling the
/// split keeps the key itself, so lookups of it still start on the left.
std::string SeparatorFor(const Slice& left_last, const Slice& right_first) {
  std::string between = left_last.ToString();
  between.push_back('\0');
  return Slice(between) < right_first ? between : right_first.ToString();
}

/// A page reached by a descent or the leaf chain must be a formatted
/// node (an all-zero page passes the load check).
Status CheckFormatted(const NodeRef& node, PageId page) {
  if (node.type() == NodeType::kLeaf || node.type() == NodeType::kInternal) {
    return Status::OK();
  }
  return Status::Corruption("btree page " + std::to_string(page) +
                            " is reached from the tree but unformatted");
}
}  // namespace

BTree::BTree(std::unique_ptr<Pager> pager, Options options)
    : options_(options), pager_(std::move(pager)) {
  // Every node is checked once, as it is read from disk, so the cell
  // decoders never meet a length that runs past its page.
  const uint32_t page_size = options.page_size;
  pool_ = std::make_unique<BufferPool>(
      pager_.get(), options.pool_frames, options.pool_shards,
      [page_size](PageId id, const char* page) {
        return NodeRef(const_cast<char*>(page), page_size).Check(id);
      });
}

Result<std::unique_ptr<BTree>> BTree::Open(std::unique_ptr<File> file,
                                           Options options) {
  const bool fresh = file->Size() == 0;
  if (fresh && options.read_only) {
    return Status::InvalidArgument(
        "cannot open an empty btree file read-only: formatting a fresh "
        "tree requires write access");
  }
  if (fresh && options.error_if_empty) {
    return Status::Corruption(
        "index file is empty but was expected to hold a tree; it was lost "
        "or truncated");
  }
  NOK_ASSIGN_OR_RETURN(
      auto pager,
      Pager::Open(std::move(file), options.page_size));
  std::unique_ptr<BTree> tree(new BTree(std::move(pager), options));
  if (fresh) {
    NOK_RETURN_IF_ERROR(tree->InitNew());
  } else {
    NOK_RETURN_IF_ERROR(tree->LoadMeta());
  }
  return tree;
}

BTree::~BTree() {
  Status s = Flush();
  if (!s.ok()) {
    NOK_LOG(Error) << "BTree flush on destruction failed: " << s.ToString();
  }
}

Status BTree::InitNew() {
  PageId meta_id = kInvalidPage, root_id = kInvalidPage;
  NOK_RETURN_IF_ERROR(pager_->AllocatePage(&meta_id));
  NOK_CHECK(meta_id == kMetaPage);
  NOK_RETURN_IF_ERROR(pager_->AllocatePage(&root_id));
  root_ = root_id;
  {
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(root_id));
    NodeRef node(handle.mutable_data(), options_.page_size);
    node.Init(NodeType::kLeaf);
    handle.MarkDirty();
  }
  num_entries_ = 0;
  meta_dirty_ = true;
  return WriteMeta();
}

Status BTree::LoadMeta() {
  if (pager_->page_count() == 0) {
    return Status::Corruption("btree file has no meta page");
  }
  std::vector<char> buf(options_.page_size);
  NOK_RETURN_IF_ERROR(pager_->ReadPage(kMetaPage, buf.data()));
  const char* p = buf.data();
  if (DecodeFixed64(p) != kMagic) {
    return Status::Corruption("bad btree magic");
  }
  root_ = DecodeFixed32(p + 8);
  num_entries_ = DecodeFixed64(p + 12);
  const uint32_t version = DecodeFixed32(p + kMetaVersionOffset);
  if (version < kFormatVersion) {
    return RetiredFormat("btree format version " + std::to_string(version));
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unknown btree format version " +
                              std::to_string(version));
  }
  epoch_ = DecodeFixed64(p + kMetaEpochOffset);
  if (root_ == kInvalidPage || root_ >= pager_->page_count()) {
    return Status::Corruption("btree root page " + std::to_string(root_) +
                              " is out of range (file has " +
                              std::to_string(pager_->page_count()) +
                              " pages); the meta page is damaged");
  }
  return Status::OK();
}

// Meta goes through the pager directly, not the pool, so Flush can order
// it strictly after the data pages reach disk.
Status BTree::WriteMeta() {
  std::vector<char> buf(options_.page_size, '\0');
  char* p = buf.data();
  EncodeFixed64(p, kMagic);
  EncodeFixed32(p + 8, root_);
  EncodeFixed64(p + 12, num_entries_);
  EncodeFixed32(p + kMetaVersionOffset, kFormatVersion);
  EncodeFixed64(p + kMetaEpochOffset, epoch_);
  NOK_RETURN_IF_ERROR(pager_->WritePage(kMetaPage, buf.data()));
  meta_dirty_ = false;
  return Status::OK();
}

Status BTree::Flush() {
  // A read-only tree has nothing dirty by construction; skip the flush
  // machinery so destruction of a shared reader handle stays I/O-free.
  if (options_.read_only) return Status::OK();
  // Data pages first, synced, then the meta page, synced: the meta is the
  // commit record, so a crash anywhere in this sequence leaves either the
  // old meta (pointing at the old, durable tree) or the new meta (pointing
  // at the new, durable tree) — never a pointer into unsynced pages.
  NOK_RETURN_IF_ERROR(pool_->FlushAll());
  NOK_RETURN_IF_ERROR(pager_->Sync());
  if (meta_dirty_) {
    NOK_RETURN_IF_ERROR(WriteMeta());
    NOK_RETURN_IF_ERROR(pager_->Sync());
  }
  return Status::OK();
}

Status BTree::Insert(const Slice& key, const Slice& value) {
  if (options_.read_only) {
    return Status::InvalidArgument("Insert on a btree opened read-only");
  }
  if (NodeRef::LeafCellSize(key, value) > options_.page_size / 4) {
    return Status::InvalidArgument("entry too large for page size");
  }
  NOK_ASSIGN_OR_RETURN(auto promo, InsertRec(root_, key, value));
  if (promo.has_value()) {
    // Root split: grow the tree by one level.
    PageId new_root = kInvalidPage;
    NOK_RETURN_IF_ERROR(pager_->AllocatePage(&new_root));
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(new_root));
    NodeRef node(handle.mutable_data(), options_.page_size);
    node.Init(NodeType::kInternal);
    node.set_leftmost_child(root_);
    node.InsertInternalCell(0, Slice(promo->key), promo->page);
    handle.MarkDirty();
    root_ = new_root;
  }
  ++num_entries_;
  meta_dirty_ = true;
  return Status::OK();
}

Result<std::optional<BTree::Promotion>> BTree::InsertRec(
    PageId page, const Slice& key, const Slice& value) {
  NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
  NodeRef node(handle.mutable_data(), options_.page_size);
  NOK_RETURN_IF_ERROR(CheckFormatted(node, page));

  if (node.is_leaf()) {
    const uint16_t pos = node.UpperBound(key);
    const uint32_t need = NodeRef::LeafCellSize(key, value);
    if (node.FreeSpaceAfterCompact() >= need) {
      node.InsertLeafCell(pos, key, value);
      handle.MarkDirty();
      return std::optional<Promotion>();
    }
    PageId right_id = kInvalidPage;
    NOK_RETURN_IF_ERROR(pager_->AllocatePage(&right_id));
    NOK_ASSIGN_OR_RETURN(auto right_handle, pool_->Fetch(right_id));
    NodeRef right(right_handle.mutable_data(), options_.page_size);
    right.Init(NodeType::kLeaf);

    const uint16_t n = node.nkeys();
    if (pos == n && node.right_sibling() == kInvalidPage) {
      // Append split: the entry goes past the end of the rightmost leaf,
      // so it starts the new leaf and the full one stays untouched.
      right.InsertLeafCell(0, key, value);
      node.set_right_sibling(right_id);
      handle.MarkDirty();
      right_handle.MarkDirty();
      return std::optional<Promotion>(Promotion{
          SeparatorFor(node.KeyAt(static_cast<uint16_t>(n - 1)), key),
          right_id});
    }
    // Split the leaf: move the byte-wise upper half to the new right node.
    // Choose the split index so the left half holds ~half of the bytes.
    uint32_t total = node.UsedBytes();
    uint32_t acc = 0;
    uint16_t split = n;
    for (uint16_t i = 0; i < n; ++i) {
      acc += NodeRef::LeafCellSize(node.KeyAt(i), node.ValueAt(i));
      if (acc >= total / 2) {
        split = static_cast<uint16_t>(i + 1);
        break;
      }
    }
    if (split >= n) split = static_cast<uint16_t>(n - 1);
    if (split == 0) split = 1;

    for (uint16_t i = split; i < n; ++i) {
      right.InsertLeafCell(static_cast<uint16_t>(i - split), node.KeyAt(i),
                           node.ValueAt(i));
    }
    for (uint16_t i = n; i > split; --i) {
      node.RemoveCell(static_cast<uint16_t>(i - 1));
    }
    right.set_right_sibling(node.right_sibling());
    node.set_right_sibling(right_id);

    // Insert the pending entry on the side its position falls in; ties go
    // left, consistent with the descent rule.
    if (pos <= split) {
      node.InsertLeafCell(pos, key, value);
    } else {
      right.InsertLeafCell(static_cast<uint16_t>(pos - split), key, value);
    }
    handle.MarkDirty();
    right_handle.MarkDirty();
    return std::optional<Promotion>(Promotion{
        SeparatorFor(node.KeyAt(static_cast<uint16_t>(node.nkeys() - 1)),
                     right.KeyAt(0)),
        right_id});
  }

  // Internal node: descend right on separator equality, so a run of
  // equal keys grows at its right end and a sorted load of duplicates
  // still takes the append split.  (Lookups descend left on equality and
  // scan right, so they still meet the run's first entry.)
  const uint16_t j = node.UpperBound(key);
  const PageId child = (j == 0) ? node.leftmost_child()
                                : node.ChildAt(static_cast<uint16_t>(j - 1));
  NOK_ASSIGN_OR_RETURN(auto child_promo, InsertRec(child, key, value));
  if (!child_promo.has_value()) return std::optional<Promotion>();

  // The split child's new right sibling becomes child j (slot position j).
  const Slice promo_key(child_promo->key);
  const uint32_t need = NodeRef::InternalCellSize(promo_key);
  if (node.FreeSpaceAfterCompact() >= need) {
    node.InsertInternalCell(j, promo_key, child_promo->page);
    handle.MarkDirty();
    return std::optional<Promotion>();
  }

  // Split this internal node around the middle separator, which moves up.
  PageId right_id = kInvalidPage;
  NOK_RETURN_IF_ERROR(pager_->AllocatePage(&right_id));
  NOK_ASSIGN_OR_RETURN(auto right_handle, pool_->Fetch(right_id));
  NodeRef right(right_handle.mutable_data(), options_.page_size);
  right.Init(NodeType::kInternal);

  const uint16_t n = node.nkeys();
  const uint16_t mid = static_cast<uint16_t>(n / 2);
  std::string up_key = node.KeyAt(mid).ToString();
  right.set_leftmost_child(node.ChildAt(mid));
  for (uint16_t i = static_cast<uint16_t>(mid + 1); i < n; ++i) {
    right.InsertInternalCell(static_cast<uint16_t>(i - mid - 1),
                             node.KeyAt(i), node.ChildAt(i));
  }
  for (uint16_t i = n; i > mid; --i) {
    node.RemoveCell(static_cast<uint16_t>(i - 1));
  }

  if (j <= mid) {
    node.InsertInternalCell(j, promo_key, child_promo->page);
  } else {
    right.InsertInternalCell(static_cast<uint16_t>(j - mid - 1), promo_key,
                             child_promo->page);
  }
  handle.MarkDirty();
  right_handle.MarkDirty();
  return std::optional<Promotion>(Promotion{std::move(up_key), right_id});
}

Result<PageHandle> BTree::DescendToLeaf(const Slice& key) {
  PageId page = root_;
  for (;;) {
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
    NodeRef node(handle.mutable_data(), options_.page_size);
    NOK_RETURN_IF_ERROR(CheckFormatted(node, page));
    if (node.is_leaf()) return handle;
    const uint16_t j = node.LowerBound(key);
    page = (j == 0) ? node.leftmost_child()
                    : node.ChildAt(static_cast<uint16_t>(j - 1));
  }
}

Result<PageHandle> BTree::LeftmostLeaf() {
  PageId page = root_;
  for (;;) {
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
    NodeRef node(handle.mutable_data(), options_.page_size);
    NOK_RETURN_IF_ERROR(CheckFormatted(node, page));
    if (node.is_leaf()) return handle;
    page = node.leftmost_child();
  }
}

Result<std::string> BTree::Get(const Slice& key) {
  BTreeIterator it = NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(key));
  if (it.Valid() && it.key() == key) {
    return it.value().ToString();
  }
  return Status::NotFound("key not found");
}

Result<bool> BTree::Delete(const Slice& key) {
  if (options_.read_only) {
    return Status::InvalidArgument("Delete on a btree opened read-only");
  }
  BTreeIterator it = NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(key));
  if (!it.Valid() || it.key() != key) return false;
  NodeRef node(it.leaf_.mutable_data(), options_.page_size);
  node.RemoveCell(it.slot_);
  it.leaf_.MarkDirty();
  --num_entries_;
  meta_dirty_ = true;
  return true;
}

BTreeIterator BTree::NewIterator() { return BTreeIterator(this); }

Status BTreeIterator::SeekToFirst() {
  NOK_ASSIGN_OR_RETURN(leaf_, tree_->LeftmostLeaf());
  slot_ = 0;
  leaf_nkeys_ = NodeRef(leaf_.mutable_data(), tree_->options_.page_size)
                    .nkeys();
  return SettleOnEntry();
}

Status BTreeIterator::Seek(const Slice& target) {
  NOK_ASSIGN_OR_RETURN(leaf_, tree_->DescendToLeaf(target));
  NodeRef node(leaf_.mutable_data(), tree_->options_.page_size);
  slot_ = node.LowerBound(target);
  leaf_nkeys_ = node.nkeys();
  return SettleOnEntry();
}

Status BTreeIterator::Next() {
  NOK_CHECK(Valid());
  ++slot_;
  return SettleOnEntry();
}

Status BTreeIterator::SettleOnEntry() {
  while (leaf_.valid() && slot_ >= leaf_nkeys_) {
    NodeRef node(leaf_.mutable_data(), tree_->options_.page_size);
    const PageId next = node.right_sibling();
    leaf_.Release();
    if (next == kInvalidPage) return Status::OK();  // End: invalid.
    NOK_ASSIGN_OR_RETURN(leaf_, tree_->pool_->Fetch(next));
    NodeRef next_node(leaf_.mutable_data(), tree_->options_.page_size);
    if (!next_node.is_leaf()) {
      leaf_.Release();
      return Status::Corruption("btree page " + std::to_string(next) +
                                " on the leaf chain is not a leaf");
    }
    slot_ = 0;
    leaf_nkeys_ = next_node.nkeys();
  }
  if (leaf_.valid()) {
    NodeRef(leaf_.mutable_data(), tree_->options_.page_size)
        .EntryAt(slot_, &key_, &value_);
  }
  return Status::OK();
}

Slice BTreeIterator::key() const {
  NOK_CHECK(Valid());
  return key_;
}

Slice BTreeIterator::value() const {
  NOK_CHECK(Valid());
  return value_;
}

}  // namespace nok
