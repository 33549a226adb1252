#include "encoding/document_store.h"

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "xml/escape.h"
#include "xml/sax_parser.h"

namespace nok {

namespace index_keys {

std::string TagKey(TagId tag) {
  std::string key;
  PutBigEndian16(&key, tag);
  return key;
}

std::string ValueKey(const Slice& value) {
  std::string key;
  PutBigEndian64(&key, Hash64(value));
  return key;
}

std::string PathKey(const std::vector<TagId>& path) {
  std::string key;
  key.reserve(path.size() * 2);
  for (TagId tag : path) PutBigEndian16(&key, tag);
  return key;
}

std::string NodeRefPayload(uint64_t pos, const DeweyId& dewey) {
  std::string payload;
  PutVarint64(&payload, pos);
  payload += dewey.Encode();
  return payload;
}

Status ParseNodeRefPayload(const Slice& payload, uint64_t* pos,
                           DeweyId* dewey) {
  Slice input = payload;
  if (!GetVarint64(&input, pos)) {
    return Status::Corruption("bad node-ref payload");
  }
  NOK_ASSIGN_OR_RETURN(*dewey, DeweyId::Decode(input));
  return Status::OK();
}

std::string IdPayload(uint64_t pos, bool has_value, uint64_t value_offset) {
  std::string payload;
  PutVarint64(&payload, pos);
  PutVarint64(&payload, has_value ? value_offset + 1 : 0);
  return payload;
}

Status ParseIdPayload(const Slice& payload, uint64_t* pos, bool* has_value,
                      uint64_t* value_offset) {
  Slice input = payload;
  uint64_t v = 0;
  if (!GetVarint64(&input, pos) || !GetVarint64(&input, &v)) {
    return Status::Corruption("bad B+i payload");
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
constexpr const char* kTagIdxFile = store_files::kTagIdx;
constexpr const char* kValIdxFile = store_files::kValIdx;
constexpr const char* kIdIdxFile = store_files::kIdIdx;
constexpr const char* kPathIdxFile = store_files::kPathIdx;
constexpr const char* kStaleFile = store_files::kStale;
constexpr const char* kBpFile = store_files::kBpIndex;
constexpr const char* kSynopsisFile = store_files::kSynopsis;

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
  NOK_ASSIGN_OR_RETURN(auto tag_idx_file,
                       store->OpenComponent(kTagIdxFile, true));
  NOK_ASSIGN_OR_RETURN(auto val_idx_file,
                       store->OpenComponent(kValIdxFile, true));
  NOK_ASSIGN_OR_RETURN(auto id_idx_file,
                       store->OpenComponent(kIdIdxFile, true));
  NOK_ASSIGN_OR_RETURN(auto path_idx_file,
                       store->OpenComponent(kPathIdxFile, true));

  StringStore::Options tree_options;
  tree_options.page_size = options.page_size;
  tree_options.reserve_ratio = options.reserve_ratio;
  tree_options.pool_frames = options.pool_frames;
  tree_options.use_header_skip = options.use_header_skip;
  tree_options.checksum_pages = options.checksum_pages;
  StringStore::Builder builder(std::move(tree_file), tree_options);

  ValueStore::Options value_options;
  value_options.checksum_records = options.checksum_pages;
  NOK_ASSIGN_OR_RETURN(store->values_, ValueStore::Open(
                                           std::move(values_file),
                                           value_options));
  BTree::Options idx_options;
  idx_options.page_size = options.index_page_size;
  idx_options.pool_frames = options.index_pool_frames;
  idx_options.checksum_pages = options.checksum_pages;
  NOK_ASSIGN_OR_RETURN(store->tag_index_,
                       BTree::Open(std::move(tag_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(store->value_index_,
                       BTree::Open(std::move(val_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(store->id_index_,
                       BTree::Open(std::move(id_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(store->path_index_,
                       BTree::Open(std::move(path_idx_file), idx_options));

  // Single SAX pass: emit symbols, values, and index entries.
  struct Frame {
    std::string value;
    uint64_t pos = 0;
    bool has_element_children = false;
    uint32_t next_child = 0;
  };
  std::vector<Frame> frames;
  std::vector<uint32_t> dewey_path;
  std::vector<TagId> tag_path;
  uint64_t leaf_count = 0;
  uint64_t leaf_depth_sum = 0;
  // The path synopsis trie rides the same SAX pass — no extra scan.
  PathSynopsis::Builder synopsis_builder;

  // Closes the top frame: files value/index entries, emits ')'.
  auto close_top = [&]() -> Status {
    Frame& frame = frames.back();
    const DeweyId dewey{std::vector<uint32_t>(dewey_path)};
    const std::string key = dewey.Encode();
    std::string value = TrimWhitespace(frame.value);
    if (!value.empty()) {
      uint64_t offset = 0;
      NOK_RETURN_IF_ERROR(store->values_->Append(Slice(value), &offset));
      NOK_RETURN_IF_ERROR(store->value_index_->Insert(
          index_keys::ValueKey(Slice(value)),
          index_keys::NodeRefPayload(frame.pos, dewey)));
      NOK_RETURN_IF_ERROR(store->id_index_->Insert(
          Slice(key), index_keys::IdPayload(frame.pos, true, offset)));
    } else {
      NOK_RETURN_IF_ERROR(store->id_index_->Insert(
          Slice(key), index_keys::IdPayload(frame.pos, false, 0)));
    }
    if (!frame.has_element_children) {
      ++leaf_count;
      leaf_depth_sum += dewey_path.size();
    }
    NOK_RETURN_IF_ERROR(builder.Close());
    if (store->options_.use_synopsis) synopsis_builder.Close();
    frames.pop_back();
    dewey_path.pop_back();
    tag_path.pop_back();
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
    uint64_t pos = 0;
    NOK_RETURN_IF_ERROR(builder.Open(tag, &pos));
    if (store->options_.use_synopsis) synopsis_builder.Open(tag);
    tag_path.push_back(tag);
    const DeweyId dewey{std::vector<uint32_t>(dewey_path)};
    NOK_RETURN_IF_ERROR(store->tag_index_->Insert(
        index_keys::TagKey(tag), index_keys::NodeRefPayload(pos, dewey)));
    NOK_RETURN_IF_ERROR(store->path_index_->Insert(
        index_keys::PathKey(tag_path),
        index_keys::NodeRefPayload(pos, dewey)));
    Frame frame;
    frame.pos = pos;
    frames.push_back(std::move(frame));
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

  // Commit, generation 1.  Everything the tree meta will declare valid —
  // the value file, the indexes, the dictionary — must be durable before
  // builder.Finish() writes that meta (the store-level commit record).  A
  // crash before Finish leaves a tree file without a valid meta page, so
  // OpenDir reports the half-built store instead of opening it.
  store->epoch_ = 1;
  NOK_RETURN_IF_ERROR(store->values_->Sync());
  for (BTree* index : {store->tag_index_.get(), store->value_index_.get(),
                       store->id_index_.get(), store->path_index_.get()}) {
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
  if (store->options_.nav_mode == NavMode::kBp) {
    // Materialize the BP tier eagerly so the first query pays nothing,
    // and persist the sidecar next to the freshly committed generation.
    NOK_RETURN_IF_ERROR(store->EnsureBpIndex());
    NOK_RETURN_IF_ERROR(store->PersistBpSidecar());
  }
  if (store->options_.use_synopsis) {
    NOK_ASSIGN_OR_RETURN(store->synopsis_,
                         synopsis_builder.Finish(store->epoch_));
    store->synopsis_version_ = store->structure_version_;
    NOK_RETURN_IF_ERROR(store->PersistSynopsisSidecar());
  }
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
  // The tree meta page records whether the store was built with
  // checksums; every other component follows that format.
  NOK_ASSIGN_OR_RETURN(const bool checksummed,
                       StringStore::SniffChecksummed(tree_file.get()));
  store->options_.checksum_pages = checksummed;
  StringStore::Options tree_options;
  tree_options.page_size = options.page_size;
  tree_options.reserve_ratio = options.reserve_ratio;
  tree_options.pool_frames = options.pool_frames;
  tree_options.pool_shards = options.pool_shards;
  tree_options.use_header_skip = options.use_header_skip;
  tree_options.checksum_pages = checksummed;
  tree_options.read_only = options.read_only;
  NOK_ASSIGN_OR_RETURN(store->tree_, StringStore::Open(std::move(tree_file),
                                                       tree_options));

  NOK_ASSIGN_OR_RETURN(auto values_file,
                       store->OpenComponent(kValuesFile, false));
  ValueStore::Options value_options;
  value_options.checksum_records = checksummed;
  NOK_ASSIGN_OR_RETURN(store->values_, ValueStore::Open(
                                           std::move(values_file),
                                           value_options));

  BTree::Options idx_options;
  idx_options.page_size = options.index_page_size;
  idx_options.pool_frames = options.index_pool_frames;
  idx_options.pool_shards = options.index_pool_shards;
  idx_options.checksum_pages = checksummed;
  idx_options.read_only = options.read_only;
  // A zero-length index file here means the index was lost (e.g. a crash
  // truncated it); formatting a fresh empty index would silently answer
  // queries with no results.
  idx_options.error_if_empty = true;
  NOK_ASSIGN_OR_RETURN(auto tag_idx_file,
                       store->OpenComponent(kTagIdxFile, false));
  NOK_ASSIGN_OR_RETURN(store->tag_index_,
                       BTree::Open(std::move(tag_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(auto val_idx_file,
                       store->OpenComponent(kValIdxFile, false));
  NOK_ASSIGN_OR_RETURN(store->value_index_,
                       BTree::Open(std::move(val_idx_file), idx_options));
  NOK_ASSIGN_OR_RETURN(auto id_idx_file,
                       store->OpenComponent(kIdIdxFile, false));
  NOK_ASSIGN_OR_RETURN(store->id_index_,
                       BTree::Open(std::move(id_idx_file), idx_options));
  // The path index is derived (RefreshPositions rebuilds it), so losing
  // it is recoverable; open it permissively.
  BTree::Options path_idx_options = idx_options;
  path_idx_options.error_if_empty = false;
  NOK_ASSIGN_OR_RETURN(auto path_idx_file,
                       store->OpenComponent(kPathIdxFile, false));
  NOK_ASSIGN_OR_RETURN(
      store->path_index_,
      BTree::Open(std::move(path_idx_file), path_idx_options));

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
  // generations.  All-zero means a legacy store that predates epochs.
  // The path index is excluded — it is derived and rebuilt on refresh.
  {
    const uint64_t tree_epoch = store->tree_->epoch();
    const uint64_t epochs[] = {tree_epoch,
                               store->tag_index_->epoch(),
                               store->value_index_->epoch(),
                               store->id_index_->epoch(),
                               dict_epoch};
    bool all_zero = true, all_match = true;
    for (uint64_t e : epochs) {
      if (e != 0) all_zero = false;
      if (e != tree_epoch) all_match = false;
    }
    if (!all_zero && !all_match) {
      std::string listing;
      for (uint64_t e : epochs) {
        if (!listing.empty()) listing += ", ";
        listing += std::to_string(e);
      }
      return Status::Corruption(
          "store components are from different generations (epochs " +
          listing +
          " for tree, tag index, value index, id index, dictionary); a "
          "multi-file commit was torn by a crash");
    }
    store->epoch_ = tree_epoch;
  }

  store->stats_.node_count = store->tree_->node_count();
  store->stats_.max_depth = store->tree_->max_level();
  store->stats_.distinct_tags = store->tags_.size();
  store->positions_fresh_ = !FileExists(options.dir + "/" + kStaleFile);
  store->RefreshSizeStats();
  if (options.nav_mode == NavMode::kBp) {
    // Eager so that concurrent readers of a read-only handle never race
    // an on-demand build; loads the sidecar when its epoch matches.
    NOK_RETURN_IF_ERROR(store->EnsureBpIndex());
    if (!store->bp_from_sidecar_) {
      // Missing/stale/damaged sidecar was rebuilt from the page chain;
      // re-persist for the next open (no-op for read-only/WAL handles).
      NOK_RETURN_IF_ERROR(store->PersistBpSidecar());
    }
  }
  if (options.use_synopsis) {
    // Eager for the same reason as the BP index; when EnsureBpIndex just
    // rebuilt from the page chain, the synopsis rode that scan and this
    // is a no-op.  A missing/stale/damaged sidecar is silently replaced.
    NOK_RETURN_IF_ERROR(store->EnsureSynopsis());
    if (!store->synopsis_from_sidecar_) {
      NOK_RETURN_IF_ERROR(store->PersistSynopsisSidecar());
    }
  }
  return store;
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
  stats_.tag_index_bytes = tag_index_->SizeBytes();
  stats_.value_index_bytes = value_index_->SizeBytes();
  stats_.id_index_bytes = id_index_->SizeBytes();
  stats_.path_index_bytes = path_index_->SizeBytes();
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
                                  uint64_t ticks_before) {
  if (wal_writer_ == nullptr) return op_status;
  if (!op_status.ok()) {
    if (wal_writer_->capture_ticks() != ticks_before) {
      // The failed op captured partial writes; discard the whole open
      // transaction (disk keeps the last committed state) and refuse
      // further mutation through this handle — its in-memory component
      // state has diverged from what will be on disk.
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
    // snapshot readers and the plan cache see no phantom generation.
    if (!wal_writer_->in_transaction()) return Status::OK();
    if (options_.wal.refresh_positions_on_commit && !positions_fresh_) {
      // Fold the position refresh into this commit: the rebuilt index
      // pages and the staleness-flag removal join the open transaction
      // and ride the same single WAL fsync, instead of each commit
      // leaving stale positions behind for a separate refresh
      // transaction later (ROADMAP item 1 follow-up).
      NOK_RETURN_IF_ERROR(RefreshPositionsImpl());
    }
    // Run the legacy flush sequence against the TxnFile wrappers: every
    // page and meta write lands in the overlay (component Syncs are
    // deferred), then Commit makes the batch durable with one WAL fsync
    // before any base file is touched.
    ++epoch_;
    NOK_RETURN_IF_ERROR(values_->Sync());
    for (BTree* index :
         {tag_index_.get(), value_index_.get(), id_index_.get(),
          path_index_.get()}) {
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
    if (options_.use_synopsis) {
      // The structural updates of this batch dropped the in-memory
      // synopsis; rebuild it against the committed generation so the
      // planner keeps its cardinality estimates.  In-memory only — the
      // sidecar write is not transaction-captured (PersistSynopsisSidecar
      // no-ops on WAL handles).
      NOK_RETURN_IF_ERROR(EnsureSynopsis());
      synopsis_->set_epoch(epoch_);
    }
    return Status::OK();
  }
  // One new generation.  Order: value file and indexes (data synced before
  // each component's own meta), then the dictionary, then the tree string
  // whose meta page — written last — commits the generation.
  ++epoch_;
  NOK_RETURN_IF_ERROR(values_->Sync());
  for (BTree* index :
       {tag_index_.get(), value_index_.get(), id_index_.get(),
        path_index_.get()}) {
    index->set_epoch(epoch_);
    NOK_RETURN_IF_ERROR(index->Flush());
  }
  NOK_RETURN_IF_ERROR(SaveDictionary());
  tree_->set_epoch(epoch_);
  NOK_RETURN_IF_ERROR(tree_->Flush());
  if (options_.nav_mode == NavMode::kBp) {
    // Keep the sidecar in lockstep with the generation it describes: a
    // structural update dropped the in-memory index, so rebuild from the
    // just-flushed pages, stamp the new epoch, persist.
    NOK_RETURN_IF_ERROR(EnsureBpIndex());
    bp_index_->set_epoch(epoch_);
    NOK_RETURN_IF_ERROR(PersistBpSidecar());
  }
  if (options_.use_synopsis) {
    // Same lockstep for the synopsis sidecar.
    NOK_RETURN_IF_ERROR(EnsureSynopsis());
    synopsis_->set_epoch(epoch_);
    NOK_RETURN_IF_ERROR(PersistSynopsisSidecar());
  }
  return Status::OK();
}

Status DocumentStore::DropCaches() {
  NOK_RETURN_IF_ERROR(tree_->buffer_pool()->DropAll());
  tree_->buffer_pool()->ResetStats();
  tree_->ResetNavStats();
  NOK_RETURN_IF_ERROR(tag_index_->buffer_pool()->DropAll());
  tag_index_->buffer_pool()->ResetStats();
  NOK_RETURN_IF_ERROR(value_index_->buffer_pool()->DropAll());
  value_index_->buffer_pool()->ResetStats();
  NOK_RETURN_IF_ERROR(id_index_->buffer_pool()->DropAll());
  id_index_->buffer_pool()->ResetStats();
  NOK_RETURN_IF_ERROR(path_index_->buffer_pool()->DropAll());
  path_index_->buffer_pool()->ResetStats();
  return Status::OK();
}

Result<StorePos> DocumentStore::Locate(const DeweyId& id) {
  const auto& components = id.components();
  if (components.empty() || components[0] != 0) {
    return Status::InvalidArgument("bad Dewey ID " + id.ToString());
  }
  if (positions_fresh_) {
    auto payload = id_index_->Get(Slice(id.Encode()));
    if (!payload.ok()) {
      if (payload.status().IsNotFound()) {
        return Status::NotFound("no node with Dewey ID " + id.ToString());
      }
      return payload.status();
    }
    uint64_t global = 0, offset = 0;
    bool has_value = false;
    NOK_RETURN_IF_ERROR(index_keys::ParseIdPayload(
        Slice(payload.ValueOrDie()), &global, &has_value, &offset));
    return tree_->PosForGlobal(global);
  }
  return Navigate(id);
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
  uint64_t global = 0, offset = 0;
  NOK_RETURN_IF_ERROR(index_keys::ParseIdPayload(Slice(payload.ValueOrDie()),
                                                 &global, &has_value,
                                                 &offset));
  if (!has_value) return std::optional<std::string>();
  NOK_ASSIGN_OR_RETURN(auto value, values_->Read(offset));
  return std::optional<std::string>(std::move(value));
}

Result<std::vector<DocumentStore::IndexedNode>> DocumentStore::NodesWithTag(
    TagId tag, size_t limit) {
  std::vector<IndexedNode> out;
  const std::string key = index_keys::TagKey(tag);
  BTreeIterator it = tag_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(key)));
  while (it.Valid() && it.key() == Slice(key)) {
    IndexedNode node;
    NOK_RETURN_IF_ERROR(index_keys::ParseNodeRefPayload(it.value(),
                                                        &node.pos,
                                                        &node.dewey));
    out.push_back(std::move(node));
    if (limit != 0 && out.size() >= limit) break;
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Result<std::vector<DocumentStore::IndexedNode>>
DocumentStore::NodesWithValue(const Slice& value) {
  std::vector<IndexedNode> out;
  const std::string key = index_keys::ValueKey(value);
  BTreeIterator it = value_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(key)));
  while (it.Valid() && it.key() == Slice(key)) {
    IndexedNode node;
    NOK_RETURN_IF_ERROR(index_keys::ParseNodeRefPayload(it.value(),
                                                        &node.pos,
                                                        &node.dewey));
    // Verify against the data file to rule out hash collisions.
    NOK_ASSIGN_OR_RETURN(auto actual, ValueOf(node.dewey));
    if (actual.has_value() && Slice(*actual) == value) {
      out.push_back(std::move(node));
    }
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Result<std::vector<DocumentStore::IndexedNode>> DocumentStore::NodesWithPath(
    const std::vector<TagId>& path, size_t limit) {
  std::vector<IndexedNode> out;
  const std::string key = index_keys::PathKey(path);
  BTreeIterator it = path_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(key)));
  while (it.Valid() && it.key() == Slice(key)) {
    IndexedNode node;
    NOK_RETURN_IF_ERROR(index_keys::ParseNodeRefPayload(it.value(),
                                                        &node.pos,
                                                        &node.dewey));
    out.push_back(std::move(node));
    if (limit != 0 && out.size() >= limit) break;
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Result<size_t> DocumentStore::EstimatePathCount(
    const std::vector<TagId>& path, size_t cap) {
  size_t count = 0;
  const std::string key = index_keys::PathKey(path);
  BTreeIterator it = path_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(key)));
  while (it.Valid() && it.key() == Slice(key)) {
    ++count;
    if (cap != 0 && count >= cap) break;
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return count;
}

Status DocumentStore::MarkPositionsStale() {
  if (options_.read_only) {
    return Status::InvalidArgument(
        "MarkPositionsStale on a store opened read-only");
  }
  positions_fresh_ = false;
  ++structure_version_;
  // The topology changed: the BP bitvector is invalid from here on.  It
  // is rebuilt lazily on the next bp_index() call (or at Flush).
  bp_index_.reset();
  bp_from_sidecar_ = false;
  // The synopsis too — an inserted subtree can create rooted paths the
  // old trie never saw, and pruning on those would wrongly prove queries
  // empty.  The planner falls back to flat tag counts until Flush
  // rebuilds it.
  synopsis_.reset();
  synopsis_from_sidecar_ = false;
  if (!options_.dir.empty()) {
    if (wal_writer_ != nullptr && wal_writer_->in_transaction()) {
      wal_writer_->StageReplace(kStaleFile, "1");
      return Status::OK();
    }
    return WriteStringToFile(options_.dir + "/" + kStaleFile, Slice("1"));
  }
  return Status::OK();
}

Result<const BpIndex*> DocumentStore::bp_index() {
  NOK_RETURN_IF_ERROR(EnsureBpIndex());
  return bp_index_.get();
}

Status DocumentStore::EnsureBpIndex() {
  if (bp_index_ != nullptr && bp_version_ == structure_version_) {
    return Status::OK();
  }
  bp_index_.reset();
  bp_from_sidecar_ = false;
  // Prefer the persisted sidecar.  It only counts as current before any
  // in-process structural update (structure_version_ is in-memory and
  // resets on open) and when its stamped epoch matches the generation
  // the components were opened at.
  if (!options_.dir.empty() && structure_version_ == 0 &&
      FileExists(options_.dir + "/" + kBpFile)) {
    auto file = OpenComponent(kBpFile, /*create=*/false);
    if (file.ok()) {
      auto loaded = BpIndex::LoadFrom(file.ValueOrDie().get());
      if (loaded.ok() && loaded.ValueOrDie()->epoch() == epoch_ &&
          loaded.ValueOrDie()->node_count() == tree_->node_count()) {
        bp_index_ = std::move(loaded).ValueOrDie();
        bp_version_ = structure_version_;
        bp_from_sidecar_ = true;
        return Status::OK();
      }
      // Stale or damaged sidecar (the CRC rejects torn writes): fall
      // through to a rebuild; `nokq verify` reports the details.
    }
  }
  // Rebuild from the page chain.  When the synopsis is also out of date
  // and its own sidecar cannot supply it, its trie rides the same
  // VisitSymbols scan via the build observer — one pass, two indexes.
  PathSynopsis::Builder synopsis_builder;
  std::function<void(bool, TagId)> observer;
  const bool feed_synopsis =
      options_.use_synopsis &&
      (synopsis_ == nullptr || synopsis_version_ != structure_version_) &&
      !TrySynopsisSidecar();
  if (feed_synopsis) {
    observer = [&synopsis_builder](bool is_open, TagId tag) {
      if (is_open) {
        synopsis_builder.Open(tag);
      } else {
        synopsis_builder.Close();
      }
    };
  }
  NOK_ASSIGN_OR_RETURN(bp_index_,
                       BpIndex::Build(tree_.get(), epoch_, observer));
  bp_version_ = structure_version_;
  if (feed_synopsis) {
    NOK_ASSIGN_OR_RETURN(synopsis_, synopsis_builder.Finish(epoch_));
    synopsis_version_ = structure_version_;
    synopsis_from_sidecar_ = false;
  }
  return Status::OK();
}

bool DocumentStore::TrySynopsisSidecar() {
  if (options_.dir.empty() || structure_version_ != 0 ||
      !FileExists(options_.dir + "/" + kSynopsisFile)) {
    return false;
  }
  auto file = OpenComponent(kSynopsisFile, /*create=*/false);
  if (!file.ok()) return false;
  auto loaded = PathSynopsis::LoadFrom(file.ValueOrDie().get());
  if (loaded.ok() && loaded.ValueOrDie()->epoch() == epoch_ &&
      loaded.ValueOrDie()->node_count() == tree_->node_count()) {
    synopsis_ = std::move(loaded).ValueOrDie();
    synopsis_version_ = structure_version_;
    synopsis_from_sidecar_ = true;
    return true;
  }
  // Stale or damaged sidecar (the CRC rejects torn writes): the caller
  // rebuilds from the page chain; `nokq verify` pass 5 reports details.
  return false;
}

Status DocumentStore::EnsureSynopsis() {
  if (!options_.use_synopsis) return Status::OK();
  if (synopsis_ != nullptr && synopsis_version_ == structure_version_) {
    return Status::OK();
  }
  synopsis_.reset();
  synopsis_from_sidecar_ = false;
  if (TrySynopsisSidecar()) return Status::OK();
  NOK_ASSIGN_OR_RETURN(synopsis_, PathSynopsis::Build(tree_.get(), epoch_));
  synopsis_version_ = structure_version_;
  return Status::OK();
}

Status DocumentStore::PersistSynopsisSidecar() {
  if (options_.dir.empty() || options_.read_only ||
      wal_writer_ != nullptr || synopsis_ == nullptr) {
    // WAL handles keep the synopsis in-memory only: the sidecar write is
    // not transaction-captured, so it must not join a WAL commit.
    return Status::OK();
  }
  NOK_ASSIGN_OR_RETURN(auto file,
                       OpenComponent(kSynopsisFile, /*create=*/true));
  return synopsis_->SaveTo(file.get());
}

Status DocumentStore::PersistBpSidecar() {
  if (options_.dir.empty() || options_.read_only ||
      wal_writer_ != nullptr || bp_index_ == nullptr) {
    // WAL handles keep the BP tier in-memory only: the sidecar write is
    // not transaction-captured, so it must not join a WAL commit.
    return Status::OK();
  }
  NOK_ASSIGN_OR_RETURN(auto file, OpenComponent(kBpFile, /*create=*/true));
  return bp_index_->SaveTo(file.get());
}

Result<size_t> DocumentStore::EstimateValueCount(const Slice& value,
                                                 size_t cap) {
  size_t count = 0;
  const std::string key = index_keys::ValueKey(value);
  BTreeIterator it = value_index_->NewIterator();
  NOK_RETURN_IF_ERROR(it.Seek(Slice(key)));
  while (it.Valid() && it.key() == Slice(key)) {
    ++count;
    if (cap != 0 && count >= cap) break;
    NOK_RETURN_IF_ERROR(it.Next());
  }
  return count;
}

}  // namespace nok
