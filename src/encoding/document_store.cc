#include "encoding/document_store.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "xml/escape.h"
#include "xml/sax_parser.h"

namespace nok {

namespace index_keys {

std::string ValueKey(const Slice& value) {
  std::string key;
  PutBigEndian64(&key, Hash64(value));
  return key;
}

std::string ValueKey(const Slice& value, const DeweyId& dewey) {
  return ValueKey(value) + dewey.Encode();
}

Status ParseNodeRefEntry(const Slice& key, const Slice& value,
                         DeweyId* dewey) {
  if (key.size() <= kValueKeySize) {
    return RetiredFormat("a B+v key without a Dewey ID");
  }
  if (!value.empty()) {
    return RetiredFormat("a B+v entry with a cached node position");
  }
  NOK_ASSIGN_OR_RETURN(
      *dewey, DeweyId::Decode(Slice(key.data() + kValueKeySize,
                                    key.size() - kValueKeySize)));
  return Status::OK();
}

std::string IdPayload(bool has_value, uint64_t value_offset) {
  std::string payload;
  PutVarint64(&payload, has_value ? value_offset + 1 : 0);
  return payload;
}

Status ParseIdPayload(const Slice& payload, bool* has_value,
                      uint64_t* value_offset) {
  Slice input = payload;
  uint64_t v = 0;
  if (!GetVarint64(&input, &v)) {
    return Status::Corruption("bad B+i payload");
  }
  if (!input.empty()) {
    return RetiredFormat("a B+i payload with a cached node position");
  }
  *has_value = v != 0;
  *value_offset = v == 0 ? 0 : v - 1;
  return Status::OK();
}

}  // namespace index_keys

namespace {

constexpr const char* kTreeFile = store_files::kTree;
constexpr const char* kValuesFile = store_files::kValues;
constexpr const char* kDictFile = store_files::kDict;
constexpr const char* kValIdxFile = store_files::kValIdx;
constexpr const char* kIdIdxFile = store_files::kIdIdx;

/// Value-column entry of a node without a value.
constexpr uint64_t kNoValue = ~uint64_t{0};

}  // namespace

const char* NavModeName(NavMode mode) {
  return mode == NavMode::kBp ? "bp" : "paged";
}

Result<std::unique_ptr<File>> DocumentStore::OpenComponent(
    const char* name, bool create) const {
  const std::string path =
      options_.dir.empty() ? std::string(name) : options_.dir + "/" + name;
  std::unique_ptr<File> file;
  if (options_.file_factory) {
    NOK_ASSIGN_OR_RETURN(file, options_.file_factory(path, create));
  } else if (options_.dir.empty()) {
    file = NewMemFile();
  } else if (options_.read_only && !create) {
    return OpenPosixFileReadOnly(path);
  } else {
    NOK_ASSIGN_OR_RETURN(file, OpenPosixFile(path, create));
  }
  if (wal_writer_ != nullptr) {
    // WAL mode: capture every mutation of this component in the open
    // transaction instead of writing through.
    return wal_writer_->Wrap(name, std::move(file));
  }
  return file;
}

Status DocumentStore::InitFiles(const Options& options) {
  options_ = options;
  if (!options.dir.empty()) {
    NOK_RETURN_IF_ERROR(CreateDirs(options.dir));
  }
  // The retired B+t's and B+p's stand-ins (see tag_index() and
  // path_index()): in memory, never touched.
  BTree::Options stub_options;
  stub_options.pool_frames = 4;
  for (std::unique_ptr<BTree>* stub : {&tag_index_, &path_index_}) {
    NOK_ASSIGN_OR_RETURN(*stub, BTree::Open(NewMemFile(), stub_options));
    (*stub)->buffer_pool()->ResetStats();
  }
  return Status::OK();
}

Result<std::unique_ptr<DocumentStore>> DocumentStore::Build(
    const std::string& xml, Options options) {
  if (options.read_only) {
    return Status::InvalidArgument(
        "Build writes every component; open the finished store with "
        "OpenDir(read_only) instead");
  }
  if (options.wal.enabled) {
    return Status::InvalidArgument(
        "Build already commits atomically via the tree meta page; reopen "
        "the finished store with OpenDir to enable the WAL");
  }
  std::unique_ptr<DocumentStore> store(new DocumentStore());
  NOK_RETURN_IF_ERROR(store->InitFiles(options));

  // Component files.
  NOK_ASSIGN_OR_RETURN(auto tree_file,
                       store->OpenComponent(kTreeFile, true));
  if (tree_file->Size() != 0) {
    return Status::AlreadyExists("tree file is not empty; use OpenDir");
  }
  NOK_ASSIGN_OR_RETURN(auto values_file,
                       store->OpenComponent(kValuesFile, true));
  NOK_ASSIGN_OR_RETURN(auto val_idx_file,
                       store->OpenComponent(kValIdxFile, true));
  NOK_ASSIGN_OR_RETURN(auto id_idx_file,
                       store->OpenComponent(kIdIdxFile, true));

  StringStore::Options tree_options;
  tree_options.page_size = options.page_size;
  tree_options.reserve_ratio = options.reserve_ratio;
  tree_options.pool_frames = options.pool_frames;
  tree_options.use_header_skip = options.use_header_skip;
  StringStore::Builder builder(std::move(tree_file), tree_options);

  NOK_ASSIGN_OR_RETURN(store->values_,
                       ValueStore::Open(std::move(values_file)));
  const BTree::Options idx_options = store->IndexOptions();
  NOK_ASSIGN_OR_RETURN(store->value_index_,
                       BTree::Open(std::move(val_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(store->id_index_,
                       BTree::Open(std::move(id_idx_file), idx_options));

  // Single SAX pass: emit symbols, values, and index entries.
  struct Frame {
    std::string value;
    bool has_element_children = false;
    uint32_t next_child = 0;
  };
  std::vector<Frame> frames;
  std::vector<uint32_t> dewey_path;
  uint64_t leaf_count = 0;
  uint64_t leaf_depth_sum = 0;

  // Index entries, collected during the pass and inserted afterwards as
  // one sorted run per index, which the B+ tree's append split packs into
  // full leaves.  (Nodes close in postorder, and B+v keys lead with a
  // value hash, so neither arrives in key order.)
  std::vector<std::pair<std::string, std::string>> id_entries;
  std::vector<std::string> value_keys;

  // Closes the top frame: files the value and index entries, emits ')'.
  auto close_top = [&]() -> Status {
    Frame& frame = frames.back();
    const DeweyId dewey{std::vector<uint32_t>(dewey_path)};
    std::string value = TrimWhitespace(frame.value);
    if (!value.empty()) {
      uint64_t offset = 0;
      NOK_RETURN_IF_ERROR(store->values_->Append(Slice(value), &offset));
      value_keys.push_back(index_keys::ValueKey(Slice(value), dewey));
      id_entries.emplace_back(dewey.Encode(),
                              index_keys::IdPayload(true, offset));
    } else {
      id_entries.emplace_back(dewey.Encode(),
                              index_keys::IdPayload(false, 0));
    }
    if (!frame.has_element_children) {
      ++leaf_count;
      leaf_depth_sum += dewey_path.size();
    }
    NOK_RETURN_IF_ERROR(builder.Close());
    frames.pop_back();
    dewey_path.pop_back();
    return Status::OK();
  };

  // Opens a node (element or attribute pseudo-node).
  auto open_node = [&](const std::string& name) -> Status {
    NOK_ASSIGN_OR_RETURN(TagId tag, store->tags_.Intern(name));
    store->tags_.AddOccurrence(tag);
    if (frames.empty()) {
      dewey_path.push_back(0);
    } else {
      frames.back().has_element_children = true;
      dewey_path.push_back(frames.back().next_child++);
    }
    NOK_RETURN_IF_ERROR(builder.Open(tag));
    frames.emplace_back();
    return Status::OK();
  };

  SaxParser parser(xml);
  SaxEvent event;
  for (;;) {
    NOK_RETURN_IF_ERROR(parser.Next(&event));
    if (event.type == SaxEvent::Type::kEndDocument) break;
    switch (event.type) {
      case SaxEvent::Type::kStartElement: {
        NOK_RETURN_IF_ERROR(open_node(event.name));
        // Attribute pseudo-children come first (Figure 2 of the paper);
        // attributes never have element children, so each closes
        // immediately.
        for (auto& [attr_name, attr_value] : event.attributes) {
          NOK_RETURN_IF_ERROR(open_node("@" + attr_name));
          frames.back().value = attr_value;
          // An attribute node is a leaf but its parent has children.
          NOK_RETURN_IF_ERROR(close_top());
        }
        break;
      }
      case SaxEvent::Type::kEndElement: {
        NOK_RETURN_IF_ERROR(close_top());
        break;
      }
      case SaxEvent::Type::kText: {
        NOK_CHECK(!frames.empty());
        AppendTextChunk(&frames.back().value, event.text);
        break;
      }
      case SaxEvent::Type::kEndDocument:
        break;
    }
  }
  if (!frames.empty()) {
    return Status::ParseError("document ended with open elements");
  }
  std::sort(id_entries.begin(), id_entries.end());
  for (const auto& [key, payload] : id_entries) {
    NOK_RETURN_IF_ERROR(store->id_index_->Insert(Slice(key), Slice(payload)));
  }
  std::sort(value_keys.begin(), value_keys.end());
  for (const std::string& key : value_keys) {
    NOK_RETURN_IF_ERROR(store->value_index_->Insert(Slice(key), Slice()));
  }

  // Commit, generation 1.  Everything the tree meta will declare valid —
  // the value file, the indexes, the dictionary — must be durable before
  // builder.Finish() writes that meta (the store-level commit record).  A
  // crash before Finish leaves a tree file without a valid meta page, so
  // OpenDir reports the half-built store instead of opening it.
  store->epoch_ = 1;
  NOK_RETURN_IF_ERROR(store->values_->Sync());
  for (BTree* index : {store->value_index_.get(), store->id_index_.get()}) {
    index->set_epoch(store->epoch_);
    NOK_RETURN_IF_ERROR(index->Flush());
  }
  NOK_RETURN_IF_ERROR(store->SaveDictionary());
  NOK_ASSIGN_OR_RETURN(store->tree_, builder.Finish(store->epoch_));

  store->stats_.xml_bytes = xml.size();
  store->stats_.node_count = store->tree_->node_count();
  store->stats_.max_depth = store->tree_->max_level();
  store->stats_.avg_depth =
      leaf_count == 0 ? 0
                      : static_cast<double>(leaf_depth_sum) /
                            static_cast<double>(leaf_count);
  store->stats_.distinct_tags = store->tags_.size();
  store->RefreshSizeStats();
  // Derive the BP index and synopsis eagerly so the first query pays
  // nothing.
  NOK_RETURN_IF_ERROR(store->EnsureDerived());
  return store;
}

Result<std::unique_ptr<DocumentStore>> DocumentStore::OpenDir(
    Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("OpenDir requires a directory");
  }
  std::unique_ptr<DocumentStore> store(new DocumentStore());
  NOK_RETURN_IF_ERROR(store->InitFiles(options));

  if (options.wal.enabled) {
    if (options.read_only) {
      return Status::InvalidArgument(
          "WAL mode needs a writable open; readers open read_only "
          "without wal.enabled");
    }
    // Recovery must run before any component is opened: a crash during a
    // commit apply leaves the components at mixed epochs, which the
    // generation cross-check below would reject.
    WalFileFactory factory = options.file_factory;
    NOK_RETURN_IF_ERROR(RecoverStoreDir(options.dir, factory,
                                        &store->recovery_report_));
    const std::string wal_path = options.dir + "/" + kWalFileName;
    std::unique_ptr<File> wal_file;
    if (factory) {
      NOK_ASSIGN_OR_RETURN(wal_file, factory(wal_path, true));
    } else {
      NOK_ASSIGN_OR_RETURN(wal_file, OpenPosixFile(wal_path, true));
    }
    NOK_ASSIGN_OR_RETURN(
        store->wal_writer_,
        WalWriter::Open(options.dir, std::move(wal_file)));
  } else {
    // A WAL with committed-but-unapplied transactions means the store
    // crashed mid-commit; opening past it would serve the old epoch and
    // then lose the durable transactions on the next Flush.
    NOK_ASSIGN_OR_RETURN(const uint64_t pending,
                         PendingWalTransactions(options.dir));
    if (pending > 0) {
      return Status::InvalidArgument(
          "store has " + std::to_string(pending) +
          " committed but unapplied write-ahead-log transaction(s); run "
          "`nokq recover` or reopen with wal.enabled");
    }
  }

  NOK_ASSIGN_OR_RETURN(auto tree_file,
                       store->OpenComponent(kTreeFile, false));
  StringStore::Options tree_options;
  tree_options.page_size = options.page_size;
  tree_options.reserve_ratio = options.reserve_ratio;
  tree_options.pool_frames = options.pool_frames;
  tree_options.pool_shards = options.pool_shards;
  tree_options.use_header_skip = options.use_header_skip;
  tree_options.read_only = options.read_only;
  NOK_ASSIGN_OR_RETURN(store->tree_, StringStore::Open(std::move(tree_file),
                                                       tree_options));

  NOK_ASSIGN_OR_RETURN(auto values_file,
                       store->OpenComponent(kValuesFile, false));
  NOK_ASSIGN_OR_RETURN(store->values_,
                       ValueStore::Open(std::move(values_file)));

  BTree::Options idx_options = store->IndexOptions();
  // A zero-length index file here means the index was lost (e.g. a crash
  // truncated it); formatting a fresh empty index would silently answer
  // queries with no results.
  idx_options.error_if_empty = true;
  // A refusal names the file, which the B+ tree itself cannot.
  auto open_index = [&](const char* name) -> Result<std::unique_ptr<BTree>> {
    NOK_ASSIGN_OR_RETURN(auto file, store->OpenComponent(name, false));
    auto index = BTree::Open(std::move(file), idx_options);
    if (!index.ok()) {
      return Status(index.status().code(),
                    std::string(name) + ": " + index.status().message());
    }
    return index;
  };
  NOK_ASSIGN_OR_RETURN(store->value_index_, open_index(kValIdxFile));
  NOK_ASSIGN_OR_RETURN(store->id_index_, open_index(kIdIdxFile));

  std::string dict_data;
  NOK_RETURN_IF_ERROR(
      ReadFileToString(options.dir + "/" + kDictFile, &dict_data));
  uint64_t dict_epoch = 0;
  NOK_ASSIGN_OR_RETURN(
      store->tags_,
      TagDictionary::Deserialize(Slice(dict_data), &dict_epoch));

  // Cross-check component generations.  Flush stamps every component with
  // the same epoch and writes the tree meta last, so a mismatch means a
  // torn multi-file commit: refusing to open beats silently mixing
  // generations.  Build commits epoch 1, so epoch 0 is a store that
  // predates epochs.
  {
    const uint64_t tree_epoch = store->tree_->epoch();
    if (tree_epoch == 0) {
      return RetiredFormat("a store without generation epochs");
    }
    const uint64_t epochs[] = {tree_epoch,
                               store->value_index_->epoch(),
                               store->id_index_->epoch(),
                               dict_epoch};
    bool all_match = true;
    for (uint64_t e : epochs) {
      if (e != tree_epoch) all_match = false;
    }
    if (!all_match) {
      std::string listing;
      for (uint64_t e : epochs) {
        if (!listing.empty()) listing += ", ";
        listing += std::to_string(e);
      }
      return Status::Corruption(
          "store components are from different generations (epochs " +
          listing +
          " for tree, value index, id index, dictionary); a "
          "multi-file commit was torn by a crash");
    }
    store->epoch_ = tree_epoch;
  }

  store->stats_.node_count = store->tree_->node_count();
  store->stats_.max_depth = store->tree_->max_level();
  store->stats_.distinct_tags = store->tags_.size();
  store->RefreshSizeStats();
  // Eager so that concurrent readers of a read-only handle never race an
  // on-demand build.  The scan reads the whole page chain, so a damaged
  // tree page fails the open here, and the open writes nothing.
  NOK_RETURN_IF_ERROR(store->EnsureDerived());
  return store;
}

BTree::Options DocumentStore::IndexOptions() const {
  BTree::Options idx_options;
  idx_options.page_size = options_.index_page_size;
  idx_options.pool_frames = options_.index_pool_frames;
  idx_options.pool_shards = options_.index_pool_shards;
  idx_options.read_only = options_.read_only;
  return idx_options;
}

Status DocumentStore::SaveDictionary() {
  if (options_.dir.empty()) return Status::OK();
  std::string data = tags_.Serialize(epoch_);
  if (wal_writer_ != nullptr && wal_writer_->in_transaction()) {
    // The dictionary bypasses the File interface, so it is staged as a
    // whole-file WAL record instead of captured by a TxnFile.
    wal_writer_->StageReplace(kDictFile, std::move(data));
    return Status::OK();
  }
  return WriteStringToFile(options_.dir + "/" + kDictFile, Slice(data));
}

void DocumentStore::RefreshSizeStats() {
  stats_.tree_bytes = tree_->SizeBytes();
  stats_.value_index_bytes = value_index_->SizeBytes();
  stats_.id_index_bytes = id_index_->SizeBytes();
  stats_.data_bytes = values_->SizeBytes();
}

Status DocumentStore::BeginWalTxn() {
  if (wal_writer_ == nullptr) return Status::OK();
  if (wal_poisoned_) {
    return Status::InvalidArgument(
        "store handle was poisoned by a failed update; reopen to recover");
  }
  wal_writer_->Begin();
  return Status::OK();
}

Status DocumentStore::FinishWalOp(Status op_status,
                                  uint64_t version_before) {
  if (wal_writer_ == nullptr) return op_status;
  if (!op_status.ok()) {
    if (structure_version_ != version_before) {
      // The failed op began mutating; discard the whole open transaction
      // (disk keeps the last committed state) and refuse further mutation
      // through this handle — its in-memory component state has diverged
      // from what will be on disk.
      NOK_IGNORE_STATUS(wal_writer_->Abort(),
                        "aborting an in-memory transaction cannot fail");
      wal_poisoned_ = true;
    }
    return op_status;
  }
  ++wal_ops_pending_;
  if (options_.wal.group_commit_ops != 0 &&
      wal_ops_pending_ >= options_.wal.group_commit_ops) {
    return Flush();
  }
  return Status::OK();
}

Status DocumentStore::Flush() {
  if (options_.read_only) {
    return Status::InvalidArgument("Flush on a store opened read-only");
  }
  if (wal_writer_ != nullptr) {
    if (wal_poisoned_) {
      return Status::InvalidArgument(
          "store handle was poisoned by a failed update; reopen to "
          "recover");
    }
    // Nothing captured, nothing to commit: keep the epoch stable so
    // snapshot readers see no phantom generation.
    if (!wal_writer_->in_transaction()) return Status::OK();
    // Run the legacy flush sequence against the TxnFile wrappers: every
    // page and meta write lands in the overlay (component Syncs are
    // deferred), then Commit makes the batch durable with one WAL fsync
    // before any base file is touched.
    ++epoch_;
    NOK_RETURN_IF_ERROR(values_->Sync());
    for (BTree* index : {value_index_.get(), id_index_.get()}) {
      index->set_epoch(epoch_);
      NOK_RETURN_IF_ERROR(index->Flush());
    }
    NOK_RETURN_IF_ERROR(SaveDictionary());
    tree_->set_epoch(epoch_);
    NOK_RETURN_IF_ERROR(tree_->Flush());
    Status commit = wal_writer_->Commit(epoch_);
    if (!commit.ok()) {
      wal_poisoned_ = true;
      return commit;
    }
    wal_ops_pending_ = 0;
    // The structural updates of this batch dropped the in-memory BP
    // index, its value column and the synopsis; rebuild the index and
    // synopsis (one scan) so the next query finds them current.  The
    // column waits for the first value read.
    return EnsureDerived();
  }
  // One new generation.  Order: value file and indexes (data synced before
  // each component's own meta), then the dictionary, then the tree string
  // whose meta page — written last — commits the generation.
  ++epoch_;
  NOK_RETURN_IF_ERROR(values_->Sync());
  for (BTree* index : {value_index_.get(), id_index_.get()}) {
    index->set_epoch(epoch_);
    NOK_RETURN_IF_ERROR(index->Flush());
  }
  NOK_RETURN_IF_ERROR(SaveDictionary());
  tree_->set_epoch(epoch_);
  NOK_RETURN_IF_ERROR(tree_->Flush());
  // A structural update dropped the derived structures; rebuild them
  // from the just-flushed pages.
  return EnsureDerived();
}

Status DocumentStore::DropCaches() {
  NOK_RETURN_IF_ERROR(tree_->buffer_pool()->DropAll());
  tree_->buffer_pool()->ResetStats();
  tree_->ResetNavStats();
  NOK_RETURN_IF_ERROR(value_index_->buffer_pool()->DropAll());
  value_index_->buffer_pool()->ResetStats();
  NOK_RETURN_IF_ERROR(id_index_->buffer_pool()->DropAll());
  id_index_->buffer_pool()->ResetStats();
  return Status::OK();
}

Result<StorePos> DocumentStore::Navigate(const DeweyId& id) {
  const auto& components = id.components();
  if (components.empty() || components[0] != 0) {
    return Status::InvalidArgument("bad Dewey ID " + id.ToString());
  }
  StorePos pos = tree_->RootPos();
  for (size_t depth = 1; depth < components.size(); ++depth) {
    NOK_ASSIGN_OR_RETURN(auto child, tree_->FirstChild(pos));
    if (!child.has_value()) {
      return Status::NotFound("no node with Dewey ID " + id.ToString());
    }
    pos = *child;
    for (uint32_t i = 0; i < components[depth]; ++i) {
      NOK_ASSIGN_OR_RETURN(auto sibling, tree_->FollowingSibling(pos));
      if (!sibling.has_value()) {
        return Status::NotFound("no node with Dewey ID " + id.ToString());
      }
      pos = *sibling;
    }
  }
  return pos;
}

Result<std::optional<std::string>> DocumentStore::ValueOf(
    const DeweyId& id) {
  auto payload = id_index_->Get(Slice(id.Encode()));
  if (!payload.ok()) {
    if (payload.status().IsNotFound()) {
      return std::optional<std::string>();
    }
    return payload.status();
  }
  bool has_value = false;
  uint64_t offset = 0;
  NOK_RETURN_IF_ERROR(index_keys::ParseIdPayload(Slice(payload.ValueOrDie()),
                                                 &has_value, &offset));
  if (!has_value) return std::optional<std::string>();
  NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
  return std::optional<std::string>(std::move(value));
}

Result<std::vector<DeweyId>> DocumentStore::NodesWithTag(TagId tag) {
  NOK_RETURN_IF_ERROR(EnsureDerived());
  uint64_t steps = 0;
  std::vector<DeweyId> out = bp_->DeweysWithTag(tag, &steps);
  tree_->BumpBpSteps(steps);
  return out;
}

Result<std::vector<DeweyId>> DocumentStore::NodesWithValue(
    const Slice& value) {
  const std::string prefix = index_keys::ValueKey(value);
  std::vector<DeweyId> out;
  BTreeIterator it = value_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(prefix)));
  while (it.Valid() && it.key().starts_with(Slice(prefix))) {
    DeweyId dewey = DeweyId::Root();
    NOK_RETURN_IF_ERROR(
        index_keys::ParseNodeRefEntry(it.key(), it.value(), &dewey));
    out.push_back(std::move(dewey));
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

void DocumentStore::BeginStructuralChange() {
  ++structure_version_;
  // The topology changed: the BP bitvector, and the value column keyed by
  // its ranks, are invalid from here on.  So is the synopsis — an
  // inserted subtree can create rooted paths the old trie never saw, and
  // pruning on those would wrongly prove queries empty.  The bitvector
  // and the trie are rebuilt together on the next bp_index() or
  // path_synopsis() call (or at Flush), the column on the next value
  // read.
  bp_.reset();
  synopsis_.reset();
  value_column_ = std::make_unique<ValueColumn>();
}

Result<const BpIndex*> DocumentStore::bp_index() {
  NOK_RETURN_IF_ERROR(EnsureDerived());
  return bp_.get();
}

Result<const PathSynopsis*> DocumentStore::path_synopsis() {
  NOK_RETURN_IF_ERROR(EnsureDerived());
  return synopsis_.get();
}

StorePos DocumentStore::StorePosOf(uint64_t bp_pos) const {
  NOK_CHECK(bp_ != nullptr && !bp_page_starts_.empty());
  // The last page starting at or before bp_pos holds it; an empty page
  // shares its start with the next one, so it is never picked.
  const size_t chain_index = static_cast<size_t>(
      std::upper_bound(bp_page_starts_.begin(), bp_page_starts_.end(),
                       bp_pos) -
      bp_page_starts_.begin() - 1);
  return StorePos{tree_->chain_page(chain_index),
                  static_cast<uint16_t>(bp_pos -
                                        bp_page_starts_[chain_index])};
}

uint64_t DocumentStore::BpPosOf(StorePos pos) const {
  NOK_CHECK(bp_ != nullptr);
  return bp_page_starts_[tree_->ChainSeq(pos.page)] + pos.idx;
}

Status DocumentStore::LoadValueColumn() {
  NOK_RETURN_IF_ERROR(EnsureDerived());
  if (!value_column_->filled.load(std::memory_order_acquire)) {
    FillValueColumn();
  }
  return value_column_->status;
}

Result<std::optional<std::string>> DocumentStore::ValueAtRank(
    uint64_t rank) {
  NOK_CHECK(bp_ != nullptr);
  NOK_RETURN_IF_ERROR(LoadValueColumn());
  NOK_CHECK(rank < value_column_->offsets.size());
  const uint64_t offset = value_column_->offsets[rank];
  if (offset == kNoValue) return std::optional<std::string>();
  NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
  return std::optional<std::string>(std::move(value));
}

namespace {

/// The BP bit position of each chain page's first symbol.  An open
/// symbol is 2 bytes and a close 1, so the first x symbols take
/// x + Rank1(x) bytes: each page's start is the x at which that sum
/// reaches the `used` bytes of the pages before it.  No page is read.
Result<std::vector<uint64_t>> PageStarts(const StringStore& tree,
                                         const BpIndex& bp) {
  std::vector<uint64_t> starts;
  starts.reserve(tree.chain_length());
  uint64_t start = 0, bytes = 0;
  for (size_t i = 0; i < tree.chain_length(); ++i) {
    starts.push_back(start);
    const uint16_t used = tree.header(tree.chain_page(i)).used;
    bytes += used;
    // f(x) = x + Rank1(x) is strictly increasing; find f(x) == bytes.
    uint64_t lo = start;
    uint64_t hi = std::min<uint64_t>(start + used, bp.bit_count());
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (mid + bp.Rank1(mid) < bytes) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo + bp.Rank1(lo) != bytes) {
      return Status::Corruption("page " + std::to_string(i) +
                                " of the chain ends inside a symbol of the "
                                "BP index");
    }
    start = lo;
  }
  if (start != bp.bit_count()) {
    return Status::Corruption("the page chain holds " +
                              std::to_string(start) +
                              " symbols but the BP index " +
                              std::to_string(bp.bit_count()));
  }
  return starts;
}

/// Whether `key` is the Dewey encoding of `path` (DeweyId::Encode).
bool KeyEncodes(const Slice& key, const std::vector<uint32_t>& path) {
  if (key.size() != 4 * path.size()) return false;
  for (size_t i = 0; i < path.size(); ++i) {
    if (DecodeBigEndian32(key.data() + 4 * i) != path[i]) return false;
  }
  return true;
}

/// One value-record offset per node of `bp`, by preorder rank, from one
/// scan of B+i: its keys sort in preorder, so the k-th entry must carry
/// the Dewey ID of the k-th open bit, checked against a DeweyCounter fed
/// by the running depth.
Status ScanValueColumn(BTree* id_index, const BpIndex& bp,
                       std::vector<uint64_t>* offsets) {
  const uint64_t node_count = bp.node_count();
  offsets->reserve(node_count);
  BTreeIterator it = id_index->NewIterator();
  NOK_RETURN_IF_ERROR(it.SeekToFirst());
  DeweyCounter deweys;
  size_t level = 0;
  for (uint64_t pos = 0; pos < bp.bit_count(); ++pos) {
    if (!bp.IsOpen(pos)) {
      --level;
      continue;
    }
    const std::vector<uint32_t>& path = deweys.Next(++level);
    if (!it.Valid()) {
      return Status::Corruption(
          "B+i holds " + std::to_string(offsets->size()) +
          " entries for a tree of " + std::to_string(node_count) + " nodes");
    }
    if (!KeyEncodes(it.key(), path)) {
      return Status::Corruption(
          "B+i entry " + std::to_string(offsets->size()) +
          " is not keyed by its preorder node " + DeweyId(path).ToString());
    }
    bool has_value = false;
    uint64_t offset = 0;
    NOK_RETURN_IF_ERROR(
        index_keys::ParseIdPayload(it.value(), &has_value, &offset));
    offsets->push_back(has_value ? offset : kNoValue);
    NOK_RETURN_IF_ERROR(it.Next());
  }
  if (it.Valid()) {
    return Status::Corruption("B+i holds more than " +
                              std::to_string(node_count) +
                              " entries for a tree of " +
                              std::to_string(node_count) + " nodes");
  }
  return Status::OK();
}

}  // namespace

Status DocumentStore::EnsureDerived() {
  if (bp_ != nullptr) return Status::OK();
  PathSynopsis::Builder synopsis_builder;
  NOK_ASSIGN_OR_RETURN(
      auto bp, BpIndex::Build(tree_.get(), [&](bool is_open, TagId tag) {
        if (is_open) {
          synopsis_builder.Open(tag);
        } else {
          synopsis_builder.Close();
        }
      }));
  NOK_ASSIGN_OR_RETURN(auto synopsis, synopsis_builder.Finish());
  NOK_ASSIGN_OR_RETURN(bp_page_starts_, PageStarts(*tree_, *bp));
  bp_ = std::move(bp);
  synopsis_ = std::move(synopsis);
  return Status::OK();
}

void DocumentStore::FillValueColumn() {
  ValueColumn& column = *value_column_;
  MutexLock lock(&column.mu);
  if (column.filled.load(std::memory_order_relaxed)) return;
  column.status = ScanValueColumn(id_index_.get(), *bp_,
                                  &column.offsets);
  if (!column.status.ok()) column.offsets = {};
  column.filled.store(true, std::memory_order_release);
}

Result<size_t> DocumentStore::EstimateValueCount(const Slice& value,
                                                 size_t cap) {
  size_t count = 0;
  const std::string prefix = index_keys::ValueKey(value);
  BTreeIterator it = value_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(prefix)));
  while (it.Valid() && it.key().starts_with(Slice(prefix))) {
    ++count;
    if (cap != 0 && count >= cap) break;
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return count;
}

}  // namespace nok
