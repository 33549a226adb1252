#include "encoding/value_column.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/coding.h"
#include "common/logging.h"

namespace nok {

namespace {

constexpr uint64_t kMagic = 0x4e4f4b56434f4c00ull;  // "NOKVCOL\0"
constexpr uint32_t kFormatVersion = 1;
constexpr PageId kMetaPage = 0;

// Meta page field offsets.
constexpr size_t kMetaMagic = 0;
constexpr size_t kMetaPageSize = 8;
constexpr size_t kMetaVersion = 12;
constexpr size_t kMetaEntries = 16;
constexpr size_t kMetaFirstPage = 24;
constexpr size_t kMetaFreeList = 28;
constexpr size_t kMetaEpoch = 32;

// Data page header: count @0, used @2, next @4.
constexpr uint32_t kPageHeaderSize = 8;
// The longest varint; a page body must hold at least one entry.
constexpr uint32_t kMaxEntryBytes = 10;

uint64_t EncodeEntry(uint64_t offset) {
  return offset == kNoValue ? 0 : offset + 1;
}

std::string PageName(PageId page) {
  return "value column page " + std::to_string(page);
}

}  // namespace

ValueColumnFile::ValueColumnFile(std::unique_ptr<Pager> pager,
                                 Options options)
    : options_(options), pager_(std::move(pager)) {
  pool_ = std::make_unique<BufferPool>(pager_.get(), options_.pool_frames);
}

ValueColumnFile::~ValueColumnFile() {
  Status s = Flush();
  if (!s.ok()) {
    NOK_LOG(Error) << "value column flush on destruction failed: "
                   << s.ToString();
  }
}

uint32_t ValueColumnFile::body_capacity() const {
  return options_.page_size - kPageHeaderSize;
}

uint32_t ValueColumnFile::fill_limit() const {
  const uint32_t reserve =
      static_cast<uint32_t>(options_.page_size * options_.reserve_ratio);
  return std::max(body_capacity() - std::min(reserve, body_capacity()),
                  kMaxEntryBytes);
}

namespace {

Status CheckPageSize(uint32_t page_size) {
  if (page_size < kPageHeaderSize + kMaxEntryBytes || page_size > 65536) {
    return Status::InvalidArgument("value column page size " +
                                   std::to_string(page_size) +
                                   " is outside [18, 65536]");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ValueColumnFile>> ValueColumnFile::Create(
    std::unique_ptr<File> file, const std::vector<uint64_t>& entries,
    uint64_t epoch, Options options) {
  NOK_RETURN_IF_ERROR(CheckPageSize(options.page_size));
  if (file->Size() != 0) {
    return Status::InvalidArgument("value column file is not empty");
  }
  NOK_ASSIGN_OR_RETURN(auto pager,
                       Pager::Open(std::move(file), options.page_size));
  std::unique_ptr<ValueColumnFile> column(
      new ValueColumnFile(std::move(pager), options));
  PageId meta = kInvalidPage;
  NOK_RETURN_IF_ERROR(column->pager_->AllocatePage(&meta));
  NOK_CHECK(meta == kMetaPage);

  // Lay the entries out sequentially, each page filled to the fill limit.
  const uint32_t limit = column->fill_limit();
  std::string page(options.page_size, '\0');
  std::string body;
  uint16_t count = 0;
  PageId current = kInvalidPage;
  NOK_RETURN_IF_ERROR(column->pager_->AllocatePage(&current));
  column->first_page_ = current;
  auto flush_page = [&](PageId next) -> Status {
    memset(page.data(), 0, page.size());
    EncodeFixed16(page.data(), count);
    EncodeFixed16(page.data() + 2, static_cast<uint16_t>(body.size()));
    EncodeFixed32(page.data() + 4, next);
    memcpy(page.data() + kPageHeaderSize, body.data(), body.size());
    return column->pager_->WritePage(current, page.data());
  };
  for (const uint64_t offset : entries) {
    const uint64_t encoded = EncodeEntry(offset);
    if (body.size() + static_cast<size_t>(VarintLength(encoded)) > limit) {
      PageId next = kInvalidPage;
      NOK_RETURN_IF_ERROR(column->pager_->AllocatePage(&next));
      NOK_RETURN_IF_ERROR(flush_page(next));
      current = next;
      body.clear();
      count = 0;
    }
    PutVarint64(&body, encoded);
    ++count;
  }
  NOK_RETURN_IF_ERROR(flush_page(kInvalidPage));
  // Data pages are durable before the meta page declares them.
  NOK_RETURN_IF_ERROR(column->pager_->Sync());
  column->entries_ = entries.size();
  column->epoch_ = epoch;
  NOK_RETURN_IF_ERROR(column->WriteMeta());
  NOK_RETURN_IF_ERROR(column->pager_->Sync());
  return column;
}

Result<std::unique_ptr<ValueColumnFile>> ValueColumnFile::Open(
    std::unique_ptr<File> file, Options options) {
  NOK_RETURN_IF_ERROR(CheckPageSize(options.page_size));
  NOK_ASSIGN_OR_RETURN(auto pager,
                       Pager::Open(std::move(file), options.page_size));
  std::unique_ptr<ValueColumnFile> column(
      new ValueColumnFile(std::move(pager), options));
  NOK_RETURN_IF_ERROR(column->LoadMeta());
  return column;
}

Status ValueColumnFile::LoadMeta() {
  if (pager_->page_count() == 0) {
    return Status::Corruption("value column file has no meta page");
  }
  std::string buf(options_.page_size, '\0');
  NOK_RETURN_IF_ERROR(pager_->ReadPage(kMetaPage, buf.data()));
  const char* p = buf.data();
  if (DecodeFixed64(p + kMetaMagic) != kMagic) {
    return Status::Corruption("bad value column magic");
  }
  if (DecodeFixed32(p + kMetaPageSize) != options_.page_size) {
    return Status::InvalidArgument(
        "value column page size mismatch: stored " +
        std::to_string(DecodeFixed32(p + kMetaPageSize)));
  }
  const uint32_t version = DecodeFixed32(p + kMetaVersion);
  if (version != kFormatVersion) {
    return Status::Corruption("unknown value column format version " +
                              std::to_string(version));
  }
  entries_ = DecodeFixed64(p + kMetaEntries);
  first_page_ = DecodeFixed32(p + kMetaFirstPage);
  free_head_ = DecodeFixed32(p + kMetaFreeList);
  epoch_ = DecodeFixed64(p + kMetaEpoch);
  if (first_page_ == kMetaPage || first_page_ >= pager_->page_count()) {
    return Status::Corruption("value column first page " +
                              std::to_string(first_page_) +
                              " is out of range (file has " +
                              std::to_string(pager_->page_count()) +
                              " pages); the meta page is damaged");
  }
  return Status::OK();
}

// Meta goes through the pager directly, not the pool, so Flush can order
// it strictly after the data pages reach disk.
Status ValueColumnFile::WriteMeta() {
  std::string buf(options_.page_size, '\0');
  char* p = buf.data();
  EncodeFixed64(p + kMetaMagic, kMagic);
  EncodeFixed32(p + kMetaPageSize, options_.page_size);
  EncodeFixed32(p + kMetaVersion, kFormatVersion);
  EncodeFixed64(p + kMetaEntries, entries_);
  EncodeFixed32(p + kMetaFirstPage, first_page_);
  EncodeFixed32(p + kMetaFreeList, free_head_);
  EncodeFixed64(p + kMetaEpoch, epoch_);
  NOK_RETURN_IF_ERROR(pager_->WritePage(kMetaPage, buf.data()));
  meta_dirty_ = false;
  return Status::OK();
}

Status ValueColumnFile::Flush() {
  if (options_.read_only) return Status::OK();
  NOK_RETURN_IF_ERROR(pool_->FlushAll());
  NOK_RETURN_IF_ERROR(pager_->Sync());
  if (meta_dirty_) {
    NOK_RETURN_IF_ERROR(WriteMeta());
    NOK_RETURN_IF_ERROR(pager_->Sync());
  }
  return Status::OK();
}

Status ValueColumnFile::DecodePage(PageId page, const char* data,
                                   std::vector<uint64_t>* out) const {
  const uint16_t count = DecodeFixed16(data);
  const uint16_t used = DecodeFixed16(data + 2);
  if (used > body_capacity()) {
    return Status::Corruption(PageName(page) + " claims " +
                              std::to_string(used) +
                              " used bytes, more than a page body holds");
  }
  const char* p = data + kPageHeaderSize;
  const char* limit = p + used;
  for (uint16_t i = 0; i < count; ++i) {
    uint64_t encoded = 0;
    p = GetVarint64Ptr(p, limit, &encoded);
    if (p == nullptr) {
      return Status::Corruption(PageName(page) + ": entry " +
                                std::to_string(i) + " of " +
                                std::to_string(count) +
                                " runs past its used bytes");
    }
    out->push_back(encoded == 0 ? kNoValue : encoded - 1);
  }
  if (p != limit) {
    return Status::Corruption(PageName(page) + ": " + std::to_string(count) +
                              " entries end before its used bytes");
  }
  return Status::OK();
}

Status ValueColumnFile::Scan(std::vector<uint64_t>* out) {
  const PageId page_count = pager_->page_count();
  pages_.assign(page_count, PageInfo{});
  std::vector<bool> seen(page_count, false);
  std::vector<uint64_t> entries;
  uint64_t total = 0;
  PageId page = first_page_;
  while (page != kInvalidPage) {
    if (page == kMetaPage || page >= page_count || seen[page]) {
      return Status::Corruption(
          "value column page chain is cyclic or out of range at page " +
          std::to_string(page));
    }
    seen[page] = true;
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
    const char* data = handle.data();
    entries.clear();
    NOK_RETURN_IF_ERROR(DecodePage(page, data, &entries));
    pages_[page] = PageInfo{DecodeFixed16(data), DecodeFixed16(data + 2),
                            DecodeFixed32(data + 4)};
    handle.Release();
    if (out != nullptr) out->insert(out->end(), entries.begin(), entries.end());
    total += entries.size();
    page = pages_[page].next;
  }
  if (total != entries_) {
    return Status::Corruption("value column pages hold " +
                              std::to_string(total) +
                              " entries but its meta page records " +
                              std::to_string(entries_));
  }
  NOK_RETURN_IF_ERROR(RebuildChain());
  directory_loaded_ = true;
  return Status::OK();
}

Status ValueColumnFile::EnsureDirectory() {
  if (directory_loaded_) return Status::OK();
  return Scan(nullptr);
}

Status ValueColumnFile::RebuildChain() {
  chain_.clear();
  first_rank_.assign(1, 0);
  PageId page = first_page_;
  while (page != kInvalidPage) {
    if (page >= pages_.size() || chain_.size() >= pages_.size()) {
      return Status::Corruption(
          "value column page chain is cyclic or out of range at page " +
          std::to_string(page));
    }
    chain_.push_back(page);
    first_rank_.push_back(first_rank_.back() + pages_[page].count);
    page = pages_[page].next;
  }
  if (chain_.empty()) {
    return Status::Corruption("value column has an empty page chain");
  }
  return Status::OK();
}

size_t ValueColumnFile::ChainIndexOf(uint64_t rank) const {
  // The last page starting at or before rank; an empty page shares its
  // first rank with the next page, so it is never picked.
  return static_cast<size_t>(
      std::upper_bound(first_rank_.begin(),
                       first_rank_.begin() +
                           static_cast<std::ptrdiff_t>(chain_.size()),
                       rank) -
      first_rank_.begin() - 1);
}

Status ValueColumnFile::AllocatePage(PageId* id) {
  if (free_head_ != kInvalidPage) {
    if (free_head_ == kMetaPage || free_head_ >= pager_->page_count()) {
      return Status::Corruption("value column free list points at page " +
                                std::to_string(free_head_));
    }
    *id = free_head_;
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(*id));
    free_head_ = DecodeFixed32(handle.data() + 4);
    meta_dirty_ = true;
  } else {
    NOK_RETURN_IF_ERROR(pager_->AllocatePage(id));
  }
  if (*id >= pages_.size()) pages_.resize(*id + 1);
  pages_[*id] = PageInfo{};
  return Status::OK();
}

Status ValueColumnFile::WritePage(PageId page, const uint64_t* entries,
                                  size_t n, PageId next) {
  std::string body;
  for (size_t i = 0; i < n; ++i) PutVarint64(&body, EncodeEntry(entries[i]));
  if (body.size() > body_capacity() ||
      n > std::numeric_limits<uint16_t>::max()) {
    return Status::Internal("value column entries overflow page " +
                            std::to_string(page));
  }
  NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
  char* data = handle.mutable_data();
  memset(data, 0, options_.page_size);
  EncodeFixed16(data, static_cast<uint16_t>(n));
  EncodeFixed16(data + 2, static_cast<uint16_t>(body.size()));
  EncodeFixed32(data + 4, next);
  memcpy(data + kPageHeaderSize, body.data(), body.size());
  handle.MarkDirty();
  pages_[page] = PageInfo{static_cast<uint16_t>(n),
                          static_cast<uint16_t>(body.size()), next};
  ++last_pages_written_;
  return Status::OK();
}

Status ValueColumnFile::Insert(uint64_t rank,
                               const std::vector<uint64_t>& entries) {
  last_pages_written_ = 0;
  if (options_.read_only) {
    return Status::InvalidArgument("Insert on a value column opened "
                                   "read-only");
  }
  if (entries.empty()) return Status::OK();
  NOK_RETURN_IF_ERROR(EnsureDirectory());
  if (rank > entries_) {
    return Status::InvalidArgument("value column insert at rank " +
                                   std::to_string(rank) + " of " +
                                   std::to_string(entries_));
  }
  const size_t index = ChainIndexOf(rank);
  const PageId page = chain_[index];
  std::vector<uint64_t> merged;
  {
    NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
    NOK_RETURN_IF_ERROR(DecodePage(page, handle.data(), &merged));
  }
  merged.insert(merged.begin() +
                    static_cast<std::ptrdiff_t>(rank - first_rank_[index]),
                entries.begin(), entries.end());

  // Cut the merged run into chunks: all of it when it fits the page,
  // else fill-limit chunks over this page and fresh pages after it.
  std::vector<size_t> cuts = {0};
  size_t bytes = 0;
  for (const uint64_t offset : merged) {
    bytes += static_cast<size_t>(VarintLength(EncodeEntry(offset)));
  }
  if (bytes > body_capacity()) {
    size_t chunk = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      const size_t len =
          static_cast<size_t>(VarintLength(EncodeEntry(merged[i])));
      if (chunk + len > fill_limit()) {
        cuts.push_back(i);
        chunk = 0;
      }
      chunk += len;
    }
  }
  cuts.push_back(merged.size());
  std::vector<PageId> targets = {page};
  for (size_t c = 2; c < cuts.size(); ++c) {
    PageId fresh = kInvalidPage;
    NOK_RETURN_IF_ERROR(AllocatePage(&fresh));
    targets.push_back(fresh);
  }
  const PageId old_next = pages_[page].next;
  for (size_t c = 0; c < targets.size(); ++c) {
    const PageId next = c + 1 < targets.size() ? targets[c + 1] : old_next;
    NOK_RETURN_IF_ERROR(WritePage(targets[c], merged.data() + cuts[c],
                                  cuts[c + 1] - cuts[c], next));
  }
  entries_ += entries.size();
  meta_dirty_ = true;
  return RebuildChain();
}

Status ValueColumnFile::Erase(uint64_t rank, uint64_t count,
                              std::vector<uint64_t>* erased) {
  last_pages_written_ = 0;
  if (options_.read_only) {
    return Status::InvalidArgument("Erase on a value column opened "
                                   "read-only");
  }
  if (count == 0) return Status::OK();
  NOK_RETURN_IF_ERROR(EnsureDirectory());
  if (rank > entries_ || count > entries_ - rank) {
    return Status::InvalidArgument(
        "value column erase of " + std::to_string(count) + " at rank " +
        std::to_string(rank) + " of " + std::to_string(entries_));
  }
  size_t index = ChainIndexOf(rank);
  PageId prev = index == 0 ? kInvalidPage : chain_[index - 1];
  uint64_t at = rank;  // Rank of the next entry to erase, before the erase.
  uint64_t remaining = count;
  size_t live_pages = chain_.size();
  std::vector<uint64_t> kept;
  while (remaining > 0) {
    const PageId page = chain_[index];
    kept.clear();
    {
      NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
      NOK_RETURN_IF_ERROR(DecodePage(page, handle.data(), &kept));
    }
    const uint64_t begin = at - first_rank_[index];
    const uint64_t end = std::min<uint64_t>(kept.size(), begin + remaining);
    const auto first = kept.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = kept.begin() + static_cast<std::ptrdiff_t>(end);
    erased->insert(erased->end(), first, last);
    kept.erase(first, last);
    remaining -= end - begin;
    at = first_rank_[index + 1];
    const PageId next = pages_[page].next;
    if (kept.empty() && live_pages > 1) {
      // Unlink the emptied page and recycle it.
      if (prev == kInvalidPage) {
        first_page_ = next;
        meta_dirty_ = true;
      } else {
        NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(prev));
        EncodeFixed32(handle.mutable_data() + 4, next);
        handle.MarkDirty();
        pages_[prev].next = next;
        ++last_pages_written_;
      }
      NOK_RETURN_IF_ERROR(WritePage(page, nullptr, 0, free_head_));
      free_head_ = page;
      --live_pages;
      meta_dirty_ = true;
    } else {
      NOK_RETURN_IF_ERROR(WritePage(page, kept.data(), kept.size(), next));
      prev = page;
    }
    ++index;
  }
  entries_ -= count;
  meta_dirty_ = true;
  return RebuildChain();
}

}  // namespace nok
