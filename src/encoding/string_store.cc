#include "encoding/string_store.h"

#include <cstring>
#include <limits>

#include "common/coding.h"
#include "common/logging.h"

namespace nok {

namespace {

constexpr uint64_t kMagic = 0x4e4f4b5354524545ull;  // "NOKSTREE"
constexpr uint32_t kPageHeaderSize = kStorePageHeaderSize;
constexpr PageId kMetaPage = 0;

// Meta page field offsets.
constexpr size_t kMetaMagic = 0;
constexpr size_t kMetaPageSize = 8;
constexpr size_t kMetaNodeCount = 12;
constexpr size_t kMetaMaxLevel = 20;
constexpr size_t kMetaFirstData = 24;
constexpr size_t kMetaFreeList = 28;
// Version 0 is the pre-versioning layout (raw pages, epoch 0); 1 is raw
// with version/epoch fields; 2 is checksummed.  Versions 3/4 were 1/2
// plus per-page tag summaries appended to the meta page; their data pages
// are byte-identical to 1/2, so they are read as 1/2 with the extension
// ignored (and rewritten as 1/2 by the next meta-page write).
constexpr size_t kMetaVersion = 32;
constexpr size_t kMetaEpoch = 36;
constexpr uint32_t kFormatVersionRaw = 1;
constexpr uint32_t kFormatVersionChecksummed = 2;
constexpr uint32_t kFormatVersionLegacyRaw = 3;
constexpr uint32_t kFormatVersionLegacyChecksummed = 4;

PageFormat FormatFor(const StringStoreOptions& options) {
  return options.checksum_pages ? PageFormat::kChecksummed
                                : PageFormat::kRaw;
}

uint32_t FormatVersionFor(const StringStoreOptions& options) {
  return options.checksum_pages ? kFormatVersionChecksummed
                                : kFormatVersionRaw;
}

}  // namespace

void EncodeStorePageHeader(char* buf, const StorePageHeader& h) {
  EncodeFixed16(buf + 0, static_cast<uint16_t>(h.st));
  EncodeFixed16(buf + 2, static_cast<uint16_t>(h.lo));
  EncodeFixed16(buf + 4, static_cast<uint16_t>(h.hi));
  EncodeFixed16(buf + 6, h.used);
  EncodeFixed32(buf + 8, h.next);
}

StorePageHeader DecodeStorePageHeader(const char* buf) {
  StorePageHeader h;
  h.st = static_cast<int16_t>(DecodeFixed16(buf + 0));
  h.lo = static_cast<int16_t>(DecodeFixed16(buf + 2));
  h.hi = static_cast<int16_t>(DecodeFixed16(buf + 4));
  h.used = DecodeFixed16(buf + 6);
  h.next = DecodeFixed32(buf + 8);
  return h;
}

// ---------------------------------------------------------------------------
// Builder.

StringStore::Builder::Builder(std::unique_ptr<File> file, Options options)
    : options_(options) {
  const uint32_t reserve =
      static_cast<uint32_t>(options_.page_size * options_.reserve_ratio);
  NOK_CHECK(options_.page_size > kPageHeaderSize + reserve + 4)
      << "page size too small for the reserve ratio";
  fill_limit_ = options_.page_size - kPageHeaderSize - reserve;

  // I/O failures here (a non-empty file, a failed page write) are deferred
  // into init_status_ so the first Open()/Close()/Finish() reports them.
  auto pager = Pager::Open(std::move(file), options.page_size,
                           FormatFor(options));
  if (!pager.ok()) {
    init_status_ = pager.status();
    return;
  }
  pager_ = std::move(pager).ValueOrDie();
  if (pager_->page_count() != 0) {
    init_status_ =
        Status::InvalidArgument("builder requires an empty file");
    return;
  }
  PageId meta = kInvalidPage;
  init_status_ = pager_->AllocatePage(&meta);
  if (!init_status_.ok()) return;
  NOK_CHECK(meta == kMetaPage);
  init_status_ = pager_->AllocatePage(&cur_page_);
  if (!init_status_.ok()) return;
  page_buf_.assign(options_.page_size, '\0');
}

StringStore::Builder::~Builder() = default;

Status StringStore::Builder::FlushPage(PageId next) {
  StorePageHeader h;
  h.st = st_;
  h.lo = page_has_symbols_ ? lo_ : static_cast<int16_t>(0);
  h.hi = page_has_symbols_ ? hi_ : static_cast<int16_t>(0);
  h.used = used_bytes_;
  h.next = next;
  EncodeStorePageHeader(page_buf_.data(), h);
  return pager_->WritePage(cur_page_, page_buf_.data());
}

Status StringStore::Builder::AppendSymbol(const char* bytes, uint32_t n,
                                          int new_level) {
  if (used_bytes_ + n > fill_limit_) {
    // Start a new page; during the bulk build pages are sequential.
    PageId next = kInvalidPage;
    NOK_RETURN_IF_ERROR(pager_->AllocatePage(&next));
    NOK_RETURN_IF_ERROR(FlushPage(next));
    cur_page_ = next;
    ++chain_seq_;
    page_buf_.assign(options_.page_size, '\0');
    used_bytes_ = 0;
    syms_in_page_ = 0;
    page_has_symbols_ = false;
    // st is the level of the last symbol of the PREVIOUS page, i.e. the
    // running level before the pending symbol: one below new_level for an
    // open (n == 2), one above for a close.
    st_ = static_cast<int16_t>(n == 2 ? new_level - 1 : new_level + 1);
  }
  memcpy(page_buf_.data() + kPageHeaderSize + used_bytes_, bytes, n);
  used_bytes_ = static_cast<uint16_t>(used_bytes_ + n);
  ++syms_in_page_;
  if (!page_has_symbols_) {
    lo_ = hi_ = static_cast<int16_t>(new_level);
    page_has_symbols_ = true;
  } else {
    lo_ = std::min<int16_t>(lo_, static_cast<int16_t>(new_level));
    hi_ = std::max<int16_t>(hi_, static_cast<int16_t>(new_level));
  }
  return Status::OK();
}

Status StringStore::Builder::Open(TagId tag, uint64_t* global_pos) {
  NOK_RETURN_IF_ERROR(init_status_);
  if (finished_) return Status::Internal("builder already finished");
  if (tag == kInvalidTag || tag > kMaxTagId) {
    return Status::InvalidArgument("bad tag id " + std::to_string(tag));
  }
  if (level_ == 0 && node_count_ > 0) {
    return Status::InvalidArgument("document has multiple roots");
  }
  char bytes[2];
  bytes[0] = static_cast<char>(0x80 | (tag >> 8));
  bytes[1] = static_cast<char>(tag & 0xff);
  // AppendSymbol handles the page break itself; compute the position the
  // symbol will land at (first slot of the next page if it breaks).
  const bool breaks = static_cast<uint32_t>(used_bytes_) + 2 > fill_limit_;
  const uint64_t pos =
      (breaks ? (chain_seq_ + 1) * options_.page_size
              : chain_seq_ * options_.page_size + syms_in_page_);
  ++level_;
  if (level_ > max_level_) max_level_ = level_;
  NOK_RETURN_IF_ERROR(AppendSymbol(bytes, 2, level_));
  ++node_count_;
  if (global_pos != nullptr) *global_pos = pos;
  return Status::OK();
}

Status StringStore::Builder::Close() {
  NOK_RETURN_IF_ERROR(init_status_);
  if (finished_) return Status::Internal("builder already finished");
  if (level_ <= 0) {
    return Status::InvalidArgument("close with no open element");
  }
  const char close_byte = '\0';
  --level_;
  NOK_RETURN_IF_ERROR(AppendSymbol(&close_byte, 1, level_));
  return Status::OK();
}

Result<std::unique_ptr<StringStore>> StringStore::Builder::Finish(
    uint64_t epoch) {
  NOK_RETURN_IF_ERROR(init_status_);
  if (finished_) return Status::Internal("builder already finished");
  if (level_ != 0) {
    return Status::InvalidArgument("unbalanced document: level " +
                                   std::to_string(level_) + " at finish");
  }
  if (node_count_ == 0) {
    return Status::InvalidArgument("empty document");
  }
  NOK_RETURN_IF_ERROR(FlushPage(kInvalidPage));
  // Data pages must be durable before the meta page declares them valid:
  // the meta is the commit record of the build.
  NOK_RETURN_IF_ERROR(pager_->Sync());

  // Meta page.
  std::string meta(options_.page_size, '\0');
  EncodeFixed64(meta.data() + kMetaMagic, kMagic);
  EncodeFixed32(meta.data() + kMetaPageSize, options_.page_size);
  EncodeFixed64(meta.data() + kMetaNodeCount, node_count_);
  EncodeFixed32(meta.data() + kMetaMaxLevel,
                static_cast<uint32_t>(max_level_));
  EncodeFixed32(meta.data() + kMetaFirstData, 1);
  EncodeFixed32(meta.data() + kMetaFreeList, kInvalidPage);
  EncodeFixed32(meta.data() + kMetaVersion, FormatVersionFor(options_));
  EncodeFixed64(meta.data() + kMetaEpoch, epoch);
  NOK_RETURN_IF_ERROR(pager_->WritePage(kMetaPage, meta.data()));
  NOK_RETURN_IF_ERROR(pager_->Sync());
  finished_ = true;

  std::unique_ptr<File> file = pager_->ReleaseFile();
  pager_.reset();
  return StringStore::Open(std::move(file), options_);
}

// ---------------------------------------------------------------------------
// Reader.

Result<std::unique_ptr<StringStore>> StringStore::Open(
    std::unique_ptr<File> file, Options options) {
  std::unique_ptr<StringStore> store(new StringStore(options));
  NOK_RETURN_IF_ERROR(store->Init(std::move(file)));
  return store;
}

Status StringStore::Init(std::unique_ptr<File> file) {
  NOK_ASSIGN_OR_RETURN(pager_,
                       Pager::Open(std::move(file), options_.page_size,
                                   FormatFor(options_)));
  pool_ = std::make_unique<BufferPool>(pager_.get(), options_.pool_frames,
                                       options_.pool_shards);

  if (pager_->page_count() == 0) {
    return Status::Corruption("string store file has no meta page");
  }
  std::string buf(options_.page_size, '\0');
  NOK_RETURN_IF_ERROR(pager_->ReadPage(kMetaPage, buf.data()));
  if (DecodeFixed64(buf.data() + kMetaMagic) != kMagic) {
    return Status::Corruption("bad string store magic");
  }
  if (DecodeFixed32(buf.data() + kMetaPageSize) != options_.page_size) {
    return Status::InvalidArgument(
        "page size mismatch: stored " +
        std::to_string(DecodeFixed32(buf.data() + kMetaPageSize)));
  }
  const uint32_t version = DecodeFixed32(buf.data() + kMetaVersion);
  if (version > kFormatVersionLegacyChecksummed) {
    return Status::Corruption("unknown string store format version " +
                              std::to_string(version));
  }
  const bool checksummed_version =
      version == kFormatVersionChecksummed ||
      version == kFormatVersionLegacyChecksummed;
  if (version != 0 && checksummed_version != options_.checksum_pages) {
    return Status::Corruption("string store format version " +
                              std::to_string(version) +
                              " does not match the requested page format");
  }
  node_count_ = DecodeFixed64(buf.data() + kMetaNodeCount);
  max_level_ = static_cast<int>(DecodeFixed32(buf.data() + kMetaMaxLevel));
  first_data_page_ = DecodeFixed32(buf.data() + kMetaFirstData);
  free_list_head_ = DecodeFixed32(buf.data() + kMetaFreeList);
  epoch_ = DecodeFixed64(buf.data() + kMetaEpoch);
  return ReloadHeaders();
}

StringStore::~StringStore() {
  if (pager_ == nullptr) return;
  Status s = Flush();
  if (!s.ok()) {
    NOK_LOG(Error) << "StringStore flush on destruction failed: "
                   << s.ToString();
  }
}

Status StringStore::Flush() {
  // A read-only store has nothing dirty by construction, and its file
  // rejects writes; skip the flush machinery entirely so destruction of a
  // shared reader handle stays I/O-free.
  if (options_.read_only) return Status::OK();
  NOK_RETURN_IF_ERROR(pool_->FlushAll());
  NOK_RETURN_IF_ERROR(pager_->Sync());
  if (meta_dirty_) {
    NOK_RETURN_IF_ERROR(WriteMetaPage());
    NOK_RETURN_IF_ERROR(pager_->Sync());
  }
  return Status::OK();
}

Result<bool> StringStore::SniffChecksummed(File* file) {
  char buf[kMetaVersion + 4];
  if (file->Size() < sizeof(buf)) {
    return Status::Corruption("store file too small to hold a meta page");
  }
  Slice unused;
  NOK_RETURN_IF_ERROR(file->ReadAt(0, sizeof(buf), buf, &unused));
  if (DecodeFixed64(buf + kMetaMagic) != kMagic) {
    return Status::Corruption("bad string store magic");
  }
  const uint32_t version = DecodeFixed32(buf + kMetaVersion);
  switch (version) {
    case 0:  // Pre-versioning files are raw.
    case kFormatVersionRaw:
    case kFormatVersionLegacyRaw:
      return false;
    case kFormatVersionChecksummed:
    case kFormatVersionLegacyChecksummed:
      return true;
    default:
      return Status::Corruption("unknown string store format version " +
                                std::to_string(version));
  }
}

Status StringStore::ReloadHeaders() {
  NOK_RETURN_IF_ERROR(pool_->FlushAll());
  const PageId n = pager_->page_count();
  headers_.assign(n, StorePageHeader{});
  std::string buf(options_.page_size, '\0');
  const uint16_t max_used =
      static_cast<uint16_t>(options_.page_size - kPageHeaderSize);
  for (PageId p = 1; p < n; ++p) {
    NOK_RETURN_IF_ERROR(pager_->ReadPage(p, buf.data()));
    headers_[p] = DecodeStorePageHeader(buf.data());
    if (headers_[p].used > max_used) {
      return Status::Corruption(
          "page " + std::to_string(p) + " claims " +
          std::to_string(headers_[p].used) +
          " used bytes, more than a page body holds");
    }
  }
  return RebuildChainFromHeaders();
}

Status StringStore::RebuildChainFromHeaders() {
  const size_t n = headers_.size();
  chain_.clear();
  chain_seq_.assign(n, std::numeric_limits<uint64_t>::max());
  PageId p = first_data_page_;
  while (p != kInvalidPage) {
    if (p >= n || chain_seq_[p] != std::numeric_limits<uint64_t>::max()) {
      return Status::Corruption("string store page chain is cyclic or out "
                                "of range at page " +
                                std::to_string(p));
    }
    chain_seq_[p] = chain_.size();
    chain_.push_back(p);
    p = headers_[p].next;
  }
  if (chain_.empty()) {
    return Status::Corruption("string store has an empty page chain");
  }
  return Status::OK();
}

Status StringStore::WriteMetaPage() {
  std::string meta(options_.page_size, '\0');
  EncodeFixed64(meta.data() + kMetaMagic, kMagic);
  EncodeFixed32(meta.data() + kMetaPageSize, options_.page_size);
  EncodeFixed64(meta.data() + kMetaNodeCount, node_count_);
  EncodeFixed32(meta.data() + kMetaMaxLevel,
                static_cast<uint32_t>(max_level_));
  EncodeFixed32(meta.data() + kMetaFirstData, first_data_page_);
  EncodeFixed32(meta.data() + kMetaFreeList, free_list_head_);
  EncodeFixed32(meta.data() + kMetaVersion, FormatVersionFor(options_));
  EncodeFixed64(meta.data() + kMetaEpoch, epoch_);
  NOK_RETURN_IF_ERROR(pager_->WritePage(kMetaPage, meta.data()));
  meta_dirty_ = false;
  return Status::OK();
}

const StorePageHeader& StringStore::header(PageId page) const {
  NOK_CHECK(page < headers_.size());
  return headers_[page];
}

PageId StringStore::NextInChain(PageId page) const {
  NOK_CHECK(page < headers_.size());
  return headers_[page].next;
}

uint64_t StringStore::ChainSeq(PageId page) const {
  NOK_CHECK(page < chain_seq_.size() &&
            chain_seq_[page] != std::numeric_limits<uint64_t>::max())
      << "page " << page << " is not in the chain";
  return chain_seq_[page];
}

uint64_t StringStore::GlobalPos(StorePos pos) const {
  return ChainSeq(pos.page) * options_.page_size + pos.idx;
}

Result<StorePos> StringStore::PosForGlobal(uint64_t global) const {
  const uint64_t seq = global / options_.page_size;
  const uint64_t idx = global % options_.page_size;
  if (seq >= chain_.size()) {
    return Status::OutOfRange("global position beyond the page chain");
  }
  return StorePos{chain_[seq], static_cast<uint16_t>(idx)};
}

Result<StringStore::ViewHandle> StringStore::FetchView(PageId page) {
  NOK_ASSIGN_OR_RETURN(auto handle, pool_->Fetch(page));
  auto view = std::static_pointer_cast<PageView>(handle.decoration());
  if (view == nullptr) {
    view = std::make_shared<PageView>();
    const StorePageHeader& h = headers_[page];
    const char* body = handle.data() + kPageHeaderSize;
    int level = h.st;
    uint16_t off = 0;
    while (off < h.used) {
      const unsigned char b = static_cast<unsigned char>(body[off]);
      view->byte_off.push_back(off);
      if (b & 0x80) {
        if (off + 1 >= h.used) {
          return Status::Corruption("truncated open symbol in page " +
                                    std::to_string(page));
        }
        const TagId tag = static_cast<TagId>(
            ((b & 0x7f) << 8) |
            static_cast<unsigned char>(body[off + 1]));
        ++level;
        view->level.push_back(static_cast<int16_t>(level));
        view->tag.push_back(tag);
        off = static_cast<uint16_t>(off + 2);
      } else if (b == 0) {
        --level;
        view->level.push_back(static_cast<int16_t>(level));
        view->tag.push_back(kInvalidTag);
        off = static_cast<uint16_t>(off + 1);
      } else {
        return Status::Corruption("bad symbol byte in page " +
                                  std::to_string(page));
      }
    }
    handle.set_decoration(view);
  } else {
    nav_decode_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  nav_pages_scanned_.fetch_add(1, std::memory_order_relaxed);
  return ViewHandle{std::move(handle), std::move(view)};
}

StorePos StringStore::RootPos() const {
  NOK_CHECK(!chain_.empty());
  return StorePos{chain_[0], 0};
}

Result<TagId> StringStore::TagAt(StorePos pos) {
  NOK_ASSIGN_OR_RETURN(auto vh, FetchView(pos.page));
  if (pos.idx >= vh.view->size()) {
    return Status::OutOfRange("symbol index out of range");
  }
  const TagId tag = vh.view->tag[pos.idx];
  if (tag == kInvalidTag) {
    return Status::InvalidArgument("position refers to a close symbol");
  }
  return tag;
}

Result<int> StringStore::LevelAt(StorePos pos) {
  NOK_ASSIGN_OR_RETURN(auto vh, FetchView(pos.page));
  if (pos.idx >= vh.view->size()) {
    return Status::OutOfRange("symbol index out of range");
  }
  return static_cast<int>(vh.view->level[pos.idx]);
}

template <typename Pred>
Result<std::optional<StorePos>> StringStore::ScanForward(StorePos pos,
                                                         int skip_level,
                                                         Pred pred) {
  PageId page = pos.page;
  uint32_t idx = static_cast<uint32_t>(pos.idx) + 1;
  for (;;) {
    const StorePageHeader& h = headers_[page];
    if (idx == 0 && h.used > 0 && options_.use_header_skip &&
        h.lo > skip_level) {
      // Nothing of interest in this page: advance to the next one below.
      nav_pages_skipped_.fetch_add(1, std::memory_order_relaxed);
    } else if (h.used > 0) {
      NOK_ASSIGN_OR_RETURN(auto vh, FetchView(page));
      const PageView& view = *vh.view;
      for (uint32_t i = idx; i < view.size(); ++i) {
        switch (pred(static_cast<int>(view.level[i]), view.tag[i])) {
          case ScanAction::kFound:
            return std::optional<StorePos>(
                StorePos{page, static_cast<uint16_t>(i)});
          case ScanAction::kStop:
            return std::optional<StorePos>();
          case ScanAction::kContinue:
            break;
        }
      }
    }
    page = headers_[page].next;
    if (page == kInvalidPage) return std::optional<StorePos>();
    idx = 0;
  }
}

Result<std::optional<StorePos>> StringStore::FirstChild(StorePos pos) {
  int level = 0;
  {
    NOK_ASSIGN_OR_RETURN(auto vh, FetchView(pos.page));
    if (pos.idx >= vh.view->size()) {
      return Status::OutOfRange("symbol index out of range");
    }
    if (vh.view->tag[pos.idx] == kInvalidTag) {
      return Status::InvalidArgument("FirstChild on a close symbol");
    }
    level = vh.view->level[pos.idx];
    // Fast path: next symbol in the same page.
    if (pos.idx + 1u < vh.view->size()) {
      if (vh.view->tag[pos.idx + 1] != kInvalidTag) {
        return std::optional<StorePos>(
            StorePos{pos.page, static_cast<uint16_t>(pos.idx + 1)});
      }
      return std::optional<StorePos>();
    }
  }
  // The next symbol lives in a later page; it is a child iff it is an
  // open symbol one level deeper.
  return ScanForward(pos, /*skip_level=*/std::numeric_limits<int>::max(),
                     [&](int lv, TagId tag) {
                       if (tag != kInvalidTag && lv == level + 1) {
                         return ScanAction::kFound;
                       }
                       return ScanAction::kStop;  // First symbol decides.
                     });
}

Result<std::optional<StorePos>> StringStore::FollowingSibling(StorePos pos) {
  // The paper's formulation (Section 5): first locate this node's own
  // close — the first ')' at level l-1 — skipping every page whose lo
  // exceeds l-1 (pages interior to the subtree, including those holding
  // child closes at level l, can never contain it).  The symbol right
  // after that close is the following sibling, or a close ending the
  // parent.
  NOK_ASSIGN_OR_RETURN(int level, LevelAt(pos));
  NOK_ASSIGN_OR_RETURN(
      auto close_pos,
      ScanForward(pos, /*skip_level=*/level - 1, [&](int lv, TagId tag) {
        if (tag == kInvalidTag && lv == level - 1) {
          return ScanAction::kFound;
        }
        return ScanAction::kContinue;
      }));
  if (!close_pos.has_value()) {
    return Status::Corruption("no matching close symbol");
  }
  // The very next symbol decides.
  return ScanForward(*close_pos,
                     /*skip_level=*/std::numeric_limits<int>::max(),
                     [&](int lv, TagId tag) {
                       if (tag != kInvalidTag && lv == level) {
                         return ScanAction::kFound;
                       }
                       return ScanAction::kStop;
                     });
}

Result<uint64_t> StringStore::SubtreeEndGlobal(StorePos pos) {
  NOK_ASSIGN_OR_RETURN(int level, LevelAt(pos));
  NOK_ASSIGN_OR_RETURN(
      auto close_pos,
      ScanForward(pos, /*skip_level=*/level - 1, [&](int lv, TagId tag) {
        if (tag == kInvalidTag && lv == level - 1) {
          return ScanAction::kFound;
        }
        return ScanAction::kContinue;
      }));
  if (!close_pos.has_value()) {
    return Status::Corruption("no matching close symbol");
  }
  return GlobalPos(*close_pos);
}

Result<std::optional<StorePos>> StringStore::NextOpen(StorePos pos) {
  return ScanForward(pos, /*skip_level=*/std::numeric_limits<int>::max(),
                     [&](int, TagId tag) {
                       return tag != kInvalidTag ? ScanAction::kFound
                                                 : ScanAction::kContinue;
                     });
}

Result<std::optional<StorePos>> StringStore::NextOpenWithTag(StorePos pos,
                                                             TagId tag) {
  if (tag == kInvalidTag) {
    return Status::InvalidArgument("NextOpenWithTag requires a valid tag");
  }
  // A full scan has no level bound: skip_level INT_MAX reads every page.
  return ScanForward(pos, /*skip_level=*/std::numeric_limits<int>::max(),
                     [&](int, TagId t) {
                       return t == tag ? ScanAction::kFound
                                       : ScanAction::kContinue;
                     });
}

Status StringStore::VisitSymbols(
    const std::function<void(bool, TagId)>& visit) {
  for (const PageId page : chain_) {
    NOK_ASSIGN_OR_RETURN(auto vh, FetchView(page));
    const PageView& view = *vh.view;
    for (size_t i = 0; i < view.size(); ++i) {
      const TagId tag = view.tag[i];
      visit(tag != kInvalidTag, tag);
    }
  }
  return Status::OK();
}

}  // namespace nok
