#include "encoding/updater.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"
#include "encoding/document_store.h"
#include "xml/dom.h"

namespace nok {

namespace {

/// Largest byte length <= cap that ends on a symbol boundary.
uint32_t ChunkLen(const char* data, uint32_t len, uint32_t cap) {
  uint32_t off = 0;
  while (off < len) {
    const uint32_t sym =
        (static_cast<unsigned char>(data[off]) & 0x80) ? 2u : 1u;
    if (off + sym > cap) break;
    off += sym;
  }
  return off;
}

}  // namespace

// ---------------------------------------------------------------------------
// TreeUpdater: string-level edits.

void TreeUpdater::AppendOpenSymbol(std::string* out, TagId tag) {
  NOK_CHECK(tag != kInvalidTag && tag <= kMaxTagId);
  out->push_back(static_cast<char>(0x80 | (tag >> 8)));
  out->push_back(static_cast<char>(tag & 0xff));
}

void TreeUpdater::AppendCloseSymbol(std::string* out) {
  out->push_back('\0');
}

Result<uint16_t> TreeUpdater::ByteOffsetOf(StorePos pos,
                                           uint32_t* symbol_bytes) {
  NOK_ASSIGN_OR_RETURN(auto vh, store_->FetchView(pos.page));
  if (pos.idx >= vh.view->size()) {
    return Status::OutOfRange("symbol index out of range");
  }
  if (symbol_bytes != nullptr) {
    *symbol_bytes = vh.view->tag[pos.idx] == kInvalidTag ? 1 : 2;
  }
  return vh.view->byte_off[pos.idx];
}

Result<int16_t> TreeUpdater::RecomputeHeader(PageId page) {
  NOK_ASSIGN_OR_RETURN(auto handle, store_->pool_->Fetch(page));
  StorePageHeader& h = store_->headers_[page];
  char* data = handle.mutable_data();
  const char* body = data + kStorePageHeaderSize;
  int level = h.st;
  int lo = level, hi = level;
  bool any = false;
  uint16_t off = 0;
  while (off < h.used) {
    const unsigned char b = static_cast<unsigned char>(body[off]);
    if (b & 0x80) {
      if (off + 1 >= h.used) {
        return Status::Corruption(
            "truncated open symbol while recomputing header");
      }
      ++level;
      off = static_cast<uint16_t>(off + 2);
    } else if (b == 0) {
      --level;
      off = static_cast<uint16_t>(off + 1);
    } else {
      return Status::Corruption("bad symbol byte while recomputing header");
    }
    if (!any) {
      lo = hi = level;
      any = true;
    } else {
      lo = std::min(lo, level);
      hi = std::max(hi, level);
    }
  }
  h.lo = static_cast<int16_t>(any ? lo : 0);
  h.hi = static_cast<int16_t>(any ? hi : 0);
  EncodeStorePageHeader(data, h);
  handle.MarkDirty();
  handle.set_decoration(nullptr);
  ++last_pages_touched_;
  return static_cast<int16_t>(level);
}

Status TreeUpdater::AllocatePage(PageId* id) {
  if (store_->free_list_head_ != kInvalidPage) {
    *id = store_->free_list_head_;
    store_->free_list_head_ = store_->headers_[*id].next;
    store_->headers_[*id] = StorePageHeader{};
  } else {
    NOK_RETURN_IF_ERROR(store_->pager_->AllocatePage(id));
    store_->headers_.resize(store_->pager_->page_count());
  }
  ++last_pages_allocated_;
  return Status::OK();
}

Status TreeUpdater::WriteMeta() {
  // Deferred: the meta page is the store's commit record, so it must not
  // hit disk before the data pages it describes.  StringStore::Flush
  // writes it after the data pages are synced.
  store_->meta_dirty_ = true;
  return Status::OK();
}

Status TreeUpdater::InsertBefore(StorePos before, const std::string& symbols,
                                 uint64_t node_delta) {
  last_pages_touched_ = 0;
  last_pages_allocated_ = 0;
  if (symbols.empty()) return Status::OK();

  const uint32_t page_size = store_->options_.page_size;
  const uint32_t body_cap = page_size - kStorePageHeaderSize;
  const uint32_t reserve = static_cast<uint32_t>(
      page_size * store_->options_.reserve_ratio);
  const uint32_t fill_limit = body_cap - reserve;

  NOK_ASSIGN_OR_RETURN(const uint16_t b, ByteOffsetOf(before, nullptr));
  const PageId p = before.page;
  StorePageHeader& hp = store_->headers_[p];
  const uint32_t len = static_cast<uint32_t>(symbols.size());

  if (hp.used + len <= body_cap) {
    // Local case: the insertion fits in the page's reserved space.
    NOK_ASSIGN_OR_RETURN(auto handle, store_->pool_->Fetch(p));
    char* body = handle.mutable_data() + kStorePageHeaderSize;
    memmove(body + b + len, body + b, hp.used - b);
    memcpy(body + b, symbols.data(), len);
    hp.used = static_cast<uint16_t>(hp.used + len);
    handle.MarkDirty();
    handle.set_decoration(nullptr);
    NOK_RETURN_IF_ERROR(RecomputeHeader(p).status());
  } else {
    // Split: cut the tail of the page, then lay out insertion + tail over
    // this page and freshly chained ones (the paper's cut-and-paste).
    NOK_ASSIGN_OR_RETURN(auto handle, store_->pool_->Fetch(p));
    char* body = handle.mutable_data() + kStorePageHeaderSize;
    std::string queue = symbols;
    queue.append(body + b, hp.used - b);
    const PageId old_next = hp.next;
    hp.used = b;

    // Refill the original page up to the fill limit.
    uint32_t consumed = 0;
    if (b < fill_limit) {
      const uint32_t take =
          ChunkLen(queue.data(), static_cast<uint32_t>(queue.size()),
                   fill_limit - b);
      memcpy(body + b, queue.data(), take);
      hp.used = static_cast<uint16_t>(b + take);
      consumed = take;
    }
    handle.MarkDirty();
    handle.set_decoration(nullptr);
    handle.Release();

    // Spill the rest into new pages chained after p.
    std::vector<PageId> new_pages;
    while (consumed < queue.size()) {
      const uint32_t take = ChunkLen(
          queue.data() + consumed,
          static_cast<uint32_t>(queue.size() - consumed), fill_limit);
      NOK_CHECK(take > 0) << "symbol larger than a page fill limit";
      PageId q = kInvalidPage;
      NOK_RETURN_IF_ERROR(AllocatePage(&q));
      NOK_ASSIGN_OR_RETURN(auto qh, store_->pool_->Fetch(q));
      memset(qh.mutable_data(), 0, page_size);
      memcpy(qh.mutable_data() + kStorePageHeaderSize,
             queue.data() + consumed, take);
      store_->headers_[q].used = static_cast<uint16_t>(take);
      qh.MarkDirty();
      qh.set_decoration(nullptr);
      new_pages.push_back(q);
      consumed += take;
    }

    // Relink the chain.
    PageId prev = p;
    for (PageId q : new_pages) {
      store_->headers_[prev].next = q;
      prev = q;
    }
    store_->headers_[prev].next = old_next;

    // Recompute headers along the rewritten run; each page's st is the
    // previous page's end level.
    NOK_ASSIGN_OR_RETURN(int16_t end_level, RecomputeHeader(p));
    for (PageId q : new_pages) {
      store_->headers_[q].st = end_level;
      NOK_ASSIGN_OR_RETURN(end_level, RecomputeHeader(q));
    }
    if (old_next != kInvalidPage &&
        store_->headers_[old_next].st != end_level) {
      return Status::Corruption(
          "level mismatch after split: inserted string is unbalanced");
    }
  }

  NOK_RETURN_IF_ERROR(store_->RebuildChainFromHeaders());
  store_->node_count_ += node_delta;
  // The insertion may deepen the tree.
  for (PageId q : store_->chain_) {
    store_->max_level_ =
        std::max(store_->max_level_,
                 static_cast<int>(store_->headers_[q].hi));
  }
  return WriteMeta();
}

Status TreeUpdater::DeleteRange(StorePos from, StorePos to,
                                uint64_t node_delta) {
  last_pages_touched_ = 0;
  last_pages_allocated_ = 0;

  NOK_ASSIGN_OR_RETURN(int from_level, store_->LevelAt(from));
  NOK_ASSIGN_OR_RETURN(const uint16_t from_byte, ByteOffsetOf(from, nullptr));
  uint32_t to_sym_bytes = 0;
  NOK_ASSIGN_OR_RETURN(const uint16_t to_byte,
                       ByteOffsetOf(to, &to_sym_bytes));
  const uint16_t to_end = static_cast<uint16_t>(to_byte + to_sym_bytes);

  // Walk the chain from from.page to to.page, trimming each page.
  std::vector<PageId> emptied;
  PageId page = from.page;
  for (;;) {
    StorePageHeader& h = store_->headers_[page];
    const uint16_t cut_begin = (page == from.page) ? from_byte : 0;
    const uint16_t cut_end = (page == to.page) ? to_end : h.used;
    if (cut_begin > cut_end || cut_end > h.used) {
      return Status::Corruption("bad delete range");
    }
    if (cut_begin == 0 && cut_end == h.used) {
      h.used = 0;
      emptied.push_back(page);
    } else if (cut_begin < cut_end) {
      NOK_ASSIGN_OR_RETURN(auto handle, store_->pool_->Fetch(page));
      char* body = handle.mutable_data() + kStorePageHeaderSize;
      memmove(body + cut_begin, body + cut_end, h.used - cut_end);
      h.used = static_cast<uint16_t>(h.used - (cut_end - cut_begin));
      handle.MarkDirty();
      handle.set_decoration(nullptr);
    }
    if (page == to.page) break;
    page = h.next;
    if (page == kInvalidPage) {
      return Status::Corruption("delete range runs past the chain");
    }
  }

  // Fix the st of the page holding the first surviving symbol after the
  // range: it is now the level just after the deleted subtree's close.
  if (to.page != from.page) {
    store_->headers_[to.page].st = static_cast<int16_t>(from_level - 1);
  }

  // Unlink emptied pages and recycle them through the free list.
  for (PageId dead : emptied) {
    // Find the predecessor among live pages (walk the current chain
    // mirror; the chain vector predates this operation, so recompute by
    // following next pointers from the first data page).
    PageId prev = kInvalidPage;
    PageId cur = store_->first_data_page_;
    while (cur != kInvalidPage && cur != dead) {
      prev = cur;
      cur = store_->headers_[cur].next;
    }
    if (cur != dead) {
      return Status::Corruption("emptied page not found in chain");
    }
    const PageId next = store_->headers_[dead].next;
    if (prev == kInvalidPage) {
      store_->first_data_page_ = next;
    } else {
      store_->headers_[prev].next = next;
      NOK_RETURN_IF_ERROR(RecomputeHeader(prev).status());
    }
    store_->headers_[dead].next = store_->free_list_head_;
    store_->headers_[dead].used = 0;
    store_->free_list_head_ = dead;
    NOK_RETURN_IF_ERROR(RecomputeHeader(dead).status());
  }

  // Recompute the partially trimmed pages.
  if (store_->headers_[from.page].used > 0 ||
      std::find(emptied.begin(), emptied.end(), from.page) ==
          emptied.end()) {
    NOK_RETURN_IF_ERROR(RecomputeHeader(from.page).status());
  }
  if (to.page != from.page &&
      std::find(emptied.begin(), emptied.end(), to.page) == emptied.end()) {
    NOK_RETURN_IF_ERROR(RecomputeHeader(to.page).status());
  }

  NOK_RETURN_IF_ERROR(store_->RebuildChainFromHeaders());
  NOK_CHECK(store_->node_count_ >= node_delta);
  store_->node_count_ -= node_delta;
  return WriteMeta();
}

// ---------------------------------------------------------------------------
// DocumentStore-level updates: index maintenance around the string edits.

namespace {

struct SubtreeNode {
  DeweyId dewey;
  TagId tag;
};

/// Collects (dewey, tag) for every node of the subtree rooted at pos.
Status CollectSubtree(StringStore* tree, StorePos pos, const DeweyId& dewey,
                      std::vector<SubtreeNode>* out) {
  NOK_ASSIGN_OR_RETURN(TagId tag, tree->TagAt(pos));
  out->push_back(SubtreeNode{dewey, tag});
  NOK_ASSIGN_OR_RETURN(auto child, tree->FirstChild(pos));
  uint32_t index = 0;
  while (child.has_value()) {
    NOK_RETURN_IF_ERROR(
        CollectSubtree(tree, *child, dewey.Child(index), out));
    NOK_ASSIGN_OR_RETURN(auto sibling, tree->FollowingSibling(*child));
    child = sibling;
    ++index;
  }
  return Status::OK();
}

/// Moves one entry from old_key to new_key; each key names exactly one
/// entry, so this is two O(log n) descents.  A missing entry means the
/// index lost track of a node: Corruption.
Status MoveEntry(BTree* index, const std::string& old_key,
                 const std::string& new_key, const Slice& value,
                 const char* index_name, const DeweyId& dewey) {
  NOK_ASSIGN_OR_RETURN(bool removed, index->Delete(Slice(old_key)));
  if (!removed) {
    return Status::Corruption(std::string("missing ") + index_name +
                              " entry for " + dewey.ToString());
  }
  return index->Insert(Slice(new_key), value);
}

/// Returns dewey with the component at `depth` (0-based) shifted by delta.
DeweyId ShiftComponent(const DeweyId& dewey, size_t depth, int64_t delta) {
  std::vector<uint32_t> c = dewey.components();
  NOK_CHECK(depth < c.size());
  c[depth] = static_cast<uint32_t>(static_cast<int64_t>(c[depth]) + delta);
  return DeweyId(std::move(c));
}

}  // namespace

Status DocumentStore::InsertSubtree(const DeweyId& parent,
                                    uint32_t child_index,
                                    const std::string& xml_fragment) {
  NOK_RETURN_IF_ERROR(BeginWalTxn());
  const uint64_t version = structure_version_;
  return FinishWalOp(InsertSubtreeImpl(parent, child_index, xml_fragment),
                     version);
}

Status DocumentStore::InsertSubtreeImpl(const DeweyId& parent,
                                        uint32_t child_index,
                                        const std::string& xml_fragment) {
  if (options_.read_only) {
    return Status::InvalidArgument(
        "InsertSubtree on a store opened read-only");
  }
  NOK_ASSIGN_OR_RETURN(auto fragment, DomTree::Parse(xml_fragment));
  NOK_ASSIGN_OR_RETURN(StorePos parent_pos, Navigate(parent));

  // Enumerate the parent's existing children (positions + count).
  std::vector<StorePos> children;
  {
    NOK_ASSIGN_OR_RETURN(auto child, tree_->FirstChild(parent_pos));
    while (child.has_value()) {
      children.push_back(*child);
      NOK_ASSIGN_OR_RETURN(auto sibling, tree_->FollowingSibling(*child));
      child = sibling;
    }
  }
  if (child_index > children.size()) {
    return Status::InvalidArgument(
        "child index " + std::to_string(child_index) + " > child count " +
        std::to_string(children.size()));
  }
  // Every argument is validated; from here on the op mutates state, so
  // the mutation marker (FinishWalOp's poison test) comes only after the
  // checks above can no longer reject the call.
  BeginStructuralChange();

  // Physical insertion point: before child child_index, or before the
  // parent's close symbol when appending.
  StorePos before;
  if (child_index < children.size()) {
    before = children[child_index];
  } else {
    NOK_ASSIGN_OR_RETURN(uint64_t close_global,
                         tree_->SubtreeEndGlobal(parent_pos));
    NOK_ASSIGN_OR_RETURN(before, tree_->PosForGlobal(close_global));
  }

  // Rewrite index entries of the shifted following siblings, last first so
  // rewritten keys never collide with not-yet-rewritten ones.
  const size_t shift_depth = parent.depth();  // Component index to bump.
  for (size_t j = children.size(); j-- > child_index;) {
    std::vector<SubtreeNode> nodes;
    NOK_RETURN_IF_ERROR(CollectSubtree(
        tree_.get(), children[j],
        parent.Child(static_cast<uint32_t>(j)), &nodes));
    for (const SubtreeNode& node : nodes) {
      const DeweyId new_dewey = ShiftComponent(node.dewey, shift_depth, +1);
      NOK_RETURN_IF_ERROR(RewriteIndexEntries(node.dewey, new_dewey));
    }
  }

  // Encode the fragment and collect its (dewey, value) pairs.
  std::string symbols;
  uint64_t new_nodes = 0;
  struct NewNode {
    DeweyId dewey;
    std::string value;
  };
  std::vector<NewNode> additions;
  const DeweyId frag_root_dewey = parent.Child(child_index);
  // Iterative encoding to match CollectSubtree's pre-order.
  struct Item {
    const DomNode* node;
    DeweyId dewey;
    size_t next_child;
  };
  std::vector<Item> stack;
  stack.push_back(Item{fragment.root(), frag_root_dewey, 0});
  {
    NOK_ASSIGN_OR_RETURN(TagId tag, tags_.Intern(fragment.root()->name));
    tags_.AddOccurrence(tag);
    TreeUpdater::AppendOpenSymbol(&symbols, tag);
    additions.push_back(NewNode{frag_root_dewey, fragment.root()->value});
    ++new_nodes;
  }
  while (!stack.empty()) {
    Item& top = stack.back();
    if (top.next_child < top.node->children.size()) {
      const DomNode* child = top.node->children[top.next_child].get();
      const DeweyId child_dewey =
          top.dewey.Child(static_cast<uint32_t>(top.next_child));
      ++top.next_child;
      NOK_ASSIGN_OR_RETURN(TagId tag, tags_.Intern(child->name));
      tags_.AddOccurrence(tag);
      TreeUpdater::AppendOpenSymbol(&symbols, tag);
      additions.push_back(NewNode{child_dewey, child->value});
      ++new_nodes;
      stack.push_back(Item{child, child_dewey, 0});
    } else {
      TreeUpdater::AppendCloseSymbol(&symbols);
      stack.pop_back();
    }
  }

  // String-level edit.
  TreeUpdater updater(tree_.get());
  NOK_RETURN_IF_ERROR(updater.InsertBefore(before, symbols, new_nodes));

  // Index entries for the new nodes.
  for (const NewNode& node : additions) {
    const std::string key = node.dewey.Encode();
    if (!node.value.empty()) {
      uint64_t offset = 0;
      NOK_RETURN_IF_ERROR(values_->Append(Slice(node.value), &offset));
      NOK_RETURN_IF_ERROR(value_index_->Insert(
          index_keys::ValueKey(Slice(node.value), node.dewey), Slice()));
      NOK_RETURN_IF_ERROR(id_index_->Insert(
          Slice(key), index_keys::IdPayload(true, offset)));
    } else {
      NOK_RETURN_IF_ERROR(id_index_->Insert(
          Slice(key), index_keys::IdPayload(false, 0)));
    }
  }

  stats_.node_count = tree_->node_count();
  stats_.max_depth = tree_->max_level();
  RefreshSizeStats();
  NOK_RETURN_IF_ERROR(SaveDictionary());
  return Status::OK();
}

Status DocumentStore::DeleteSubtree(const DeweyId& node) {
  NOK_RETURN_IF_ERROR(BeginWalTxn());
  const uint64_t version = structure_version_;
  return FinishWalOp(DeleteSubtreeImpl(node), version);
}

Status DocumentStore::DeleteSubtreeImpl(const DeweyId& node) {
  if (options_.read_only) {
    return Status::InvalidArgument(
        "DeleteSubtree on a store opened read-only");
  }
  if (node.depth() <= 1) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  NOK_ASSIGN_OR_RETURN(StorePos pos, Navigate(node));
  BeginStructuralChange();
  const DeweyId parent = *node.Parent();
  const uint32_t child_index = node.components().back();
  const size_t shift_depth = parent.depth();

  // Remove the index entries of the doomed subtree.
  std::vector<SubtreeNode> doomed;
  NOK_RETURN_IF_ERROR(CollectSubtree(tree_.get(), pos, node, &doomed));
  for (const SubtreeNode& n : doomed) {
    NOK_RETURN_IF_ERROR(RemoveIndexEntries(n.dewey));
    tags_.SubOccurrence(n.tag);
  }

  // Rewrite the following siblings' index entries (ascending: the target
  // keys were just vacated).
  std::vector<StorePos> siblings;
  {
    NOK_ASSIGN_OR_RETURN(auto sibling, tree_->FollowingSibling(pos));
    while (sibling.has_value()) {
      siblings.push_back(*sibling);
      NOK_ASSIGN_OR_RETURN(auto next, tree_->FollowingSibling(*sibling));
      sibling = next;
    }
  }
  for (size_t i = 0; i < siblings.size(); ++i) {
    const uint32_t old_index =
        child_index + 1 + static_cast<uint32_t>(i);
    std::vector<SubtreeNode> nodes;
    NOK_RETURN_IF_ERROR(CollectSubtree(tree_.get(), siblings[i],
                                       parent.Child(old_index), &nodes));
    for (const SubtreeNode& n : nodes) {
      const DeweyId new_dewey = ShiftComponent(n.dewey, shift_depth, -1);
      NOK_RETURN_IF_ERROR(RewriteIndexEntries(n.dewey, new_dewey));
    }
  }

  // String-level edit.
  NOK_ASSIGN_OR_RETURN(uint64_t close_global, tree_->SubtreeEndGlobal(pos));
  NOK_ASSIGN_OR_RETURN(StorePos to, tree_->PosForGlobal(close_global));
  TreeUpdater updater(tree_.get());
  NOK_RETURN_IF_ERROR(updater.DeleteRange(pos, to, doomed.size()));

  stats_.node_count = tree_->node_count();
  stats_.max_depth = tree_->max_level();
  RefreshSizeStats();
  NOK_RETURN_IF_ERROR(SaveDictionary());
  return Status::OK();
}

Status DocumentStore::RewriteIndexEntries(const DeweyId& old_dewey,
                                          const DeweyId& new_dewey) {
  const std::string old_key = old_dewey.Encode();
  NOK_ASSIGN_OR_RETURN(auto payload, id_index_->Get(Slice(old_key)));
  bool has_value = false;
  uint64_t offset = 0;
  NOK_RETURN_IF_ERROR(
      index_keys::ParseIdPayload(Slice(payload), &has_value, &offset));
  // A legacy payload is rewritten in the current layout.
  NOK_RETURN_IF_ERROR(MoveEntry(id_index_.get(), old_key, new_dewey.Encode(),
                                index_keys::IdPayload(has_value, offset),
                                "B+i", old_dewey));
  if (has_value) {
    NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
    NOK_RETURN_IF_ERROR(MoveEntry(
        value_index_.get(), index_keys::ValueKey(Slice(value), old_dewey),
        index_keys::ValueKey(Slice(value), new_dewey), Slice(), "B+v",
        old_dewey));
  }
  return Status::OK();
}

Status DocumentStore::RemoveIndexEntries(const DeweyId& dewey) {
  const std::string key = dewey.Encode();
  NOK_ASSIGN_OR_RETURN(auto payload, id_index_->Get(Slice(key)));
  NOK_RETURN_IF_ERROR(id_index_->Delete(Slice(key)).status());
  bool has_value = false;
  uint64_t offset = 0;
  NOK_RETURN_IF_ERROR(
      index_keys::ParseIdPayload(Slice(payload), &has_value, &offset));
  if (has_value) {
    NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
    NOK_RETURN_IF_ERROR(
        value_index_->Delete(Slice(index_keys::ValueKey(Slice(value), dewey)))
            .status());
  }
  // The value record itself stays in the data file (orphaned); the data
  // file is append-only and compaction happens on rebuild.
  return Status::OK();
}

}  // namespace nok
