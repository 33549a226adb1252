#include "encoding/updater.h"

#include <algorithm>
#include <cstring>
#include <optional>

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
  NOK_ASSIGN_OR_RETURN(auto view, store_->FetchView(pos.page));
  if (pos.idx >= view->size()) {
    return Status::OutOfRange("symbol index out of range");
  }
  if (symbol_bytes != nullptr) {
    *symbol_bytes = view->tag[pos.idx] == kInvalidTag ? 1 : 2;
  }
  return view->byte_off[pos.idx];
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
  // Every navigator's held view predates the pages rewritten below.
  store_->BumpGeneration();

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

  NOK_ASSIGN_OR_RETURN(int from_level,
                       StringStore::Navigator(store_).LevelAt(from));
  // Every navigator's held view predates the pages rewritten below.
  store_->BumpGeneration();
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
// DocumentStore-level updates: value upkeep around the string edits.  A
// node's column entry is addressed by its preorder rank and its B+v entry
// by its value record, so an edit at rank r touches only the column pages
// around r and the entries of the nodes it adds or removes.

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

  // The insertion point: before child child_index, or before the parent's
  // close symbol when appending.
  StringStore::Navigator nav(tree_.get());
  std::optional<StorePos> before;
  uint32_t child_count = 0;
  {
    NOK_ASSIGN_OR_RETURN(auto child, nav.FirstChild(parent_pos));
    while (child.has_value() && child_count < child_index) {
      NOK_ASSIGN_OR_RETURN(auto sibling, nav.FollowingSibling(*child));
      child = sibling;
      ++child_count;
    }
    before = child;
  }
  if (!before.has_value() && child_count < child_index) {
    return Status::InvalidArgument(
        "child index " + std::to_string(child_index) + " > child count " +
        std::to_string(child_count));
  }
  if (!before.has_value()) {
    NOK_ASSIGN_OR_RETURN(uint64_t close_global,
                         nav.SubtreeEndGlobal(parent_pos));
    NOK_ASSIGN_OR_RETURN(before, tree_->PosForGlobal(close_global));
  }
  // The new subtree's root takes the rank of the first open at or after
  // the insertion point.
  NOK_ASSIGN_OR_RETURN(const uint64_t rank, tree_->OpensBefore(*before));
  // Every argument is validated; from here on the op mutates state, so
  // the mutation marker (FinishWalOp's poison test) comes only after the
  // checks above can no longer reject the call.
  BeginStructuralChange();

  // Encode the fragment, and collect its values in preorder.
  std::string symbols;
  std::vector<const std::string*> values;
  struct Item {
    const DomNode* node;
    size_t next_child;
  };
  std::vector<Item> stack;
  auto open = [&](const DomNode* node) -> Status {
    NOK_ASSIGN_OR_RETURN(TagId tag, tags_.Intern(node->name));
    tags_.AddOccurrence(tag);
    TreeUpdater::AppendOpenSymbol(&symbols, tag);
    values.push_back(&node->value);
    stack.push_back(Item{node, 0});
    return Status::OK();
  };
  NOK_RETURN_IF_ERROR(open(fragment.root()));
  while (!stack.empty()) {
    Item& top = stack.back();
    if (top.next_child < top.node->children.size()) {
      NOK_RETURN_IF_ERROR(open(top.node->children[top.next_child++].get()));
    } else {
      TreeUpdater::AppendCloseSymbol(&symbols);
      stack.pop_back();
    }
  }

  // String-level edit.
  TreeUpdater updater(tree_.get());
  NOK_RETURN_IF_ERROR(updater.InsertBefore(*before, symbols, values.size()));

  // The new nodes' values, column entries and B+v entries.
  std::vector<uint64_t> entries;
  entries.reserve(values.size());
  for (const std::string* value : values) {
    if (value->empty()) {
      entries.push_back(kNoValue);
      continue;
    }
    uint64_t offset = 0;
    NOK_RETURN_IF_ERROR(values_->Append(Slice(*value), &offset));
    NOK_RETURN_IF_ERROR(value_index_->Insert(
        index_keys::ValueKey(Slice(*value), offset), Slice()));
    entries.push_back(offset);
  }
  NOK_RETURN_IF_ERROR(column_->Insert(rank, entries));

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
  NOK_ASSIGN_OR_RETURN(const uint64_t rank, tree_->OpensBefore(pos));
  BeginStructuralChange();
  StringStore::Navigator nav(tree_.get());

  // The doomed subtree's nodes, in preorder: their tags leave the
  // dictionary's counts.
  NOK_ASSIGN_OR_RETURN(const int level, nav.LevelAt(pos));
  uint64_t doomed = 0;
  std::optional<StorePos> at = pos;
  while (at.has_value()) {
    NOK_ASSIGN_OR_RETURN(TagId tag, nav.TagAt(*at));
    tags_.SubOccurrence(tag);
    ++doomed;
    NOK_ASSIGN_OR_RETURN(at, nav.NextOpenInSubtree(*at, kInvalidTag, level));
  }

  // Their column entries, and the B+v entry of each valued one.  The
  // value records stay in the data file (orphaned): it is append-only,
  // and a rebuild compacts it.
  std::vector<uint64_t> erased;
  NOK_RETURN_IF_ERROR(column_->Erase(rank, doomed, &erased));
  for (const uint64_t offset : erased) {
    if (offset == kNoValue) continue;
    NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
    NOK_ASSIGN_OR_RETURN(
        bool removed,
        value_index_->Delete(Slice(index_keys::ValueKey(Slice(value),
                                                        offset))));
    if (!removed) {
      return Status::Corruption("missing B+v entry for value offset " +
                                std::to_string(offset) + " of " +
                                node.ToString() + "'s subtree");
    }
  }

  // String-level edit.
  NOK_ASSIGN_OR_RETURN(uint64_t close_global, nav.SubtreeEndGlobal(pos));
  NOK_ASSIGN_OR_RETURN(StorePos to, tree_->PosForGlobal(close_global));
  TreeUpdater updater(tree_.get());
  NOK_RETURN_IF_ERROR(updater.DeleteRange(pos, to, doomed));

  stats_.node_count = tree_->node_count();
  stats_.max_depth = tree_->max_level();
  RefreshSizeStats();
  NOK_RETURN_IF_ERROR(SaveDictionary());
  return Status::OK();
}

}  // namespace nok
