#include "encoding/path_synopsis.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/coding.h"
#include "encoding/string_store.h"

namespace nok {
namespace {

constexpr size_t kSynopsisRecordSize = 2 + 8 + 4;  // tag, count, parent+1.
// A trie can never have more nodes than the document, but a corrupt
// sidecar can claim anything; cap before allocating.
constexpr uint32_t kMaxPaths = 1u << 28;

}  // namespace

void PathSynopsis::Builder::Open(TagId tag) {
  ++opens_;
  const uint32_t level =
      static_cast<uint32_t>(stack_.size()) + 1;
  std::vector<uint32_t>* siblings =
      stack_.empty() ? &roots_ : &trie_[stack_.back()].children;
  uint32_t found = ~uint32_t{0};
  for (const uint32_t c : *siblings) {
    if (trie_[c].tag == tag) {
      found = c;
      break;
    }
  }
  if (found == ~uint32_t{0}) {
    found = static_cast<uint32_t>(trie_.size());
    TrieNode node;
    node.tag = tag;
    node.level = level;
    trie_.push_back(std::move(node));
    // `siblings` may dangle after the push; re-derive it.
    (stack_.empty() ? roots_ : trie_[stack_.back()].children)
        .push_back(found);
  }
  ++trie_[found].count;
  stack_.push_back(found);
}

void PathSynopsis::Builder::Close() {
  if (stack_.empty()) {
    unbalanced_ = true;
    return;
  }
  stack_.pop_back();
}

Result<std::unique_ptr<PathSynopsis>> PathSynopsis::Builder::Finish() {
  if (unbalanced_ || !stack_.empty()) {
    return Status::Corruption("path synopsis: unbalanced open/close events");
  }
  auto synopsis = std::unique_ptr<PathSynopsis>(new PathSynopsis());
  synopsis->node_count_ = opens_;
  synopsis->nodes_.reserve(trie_.size());
  // Flatten the trie to preorder with an explicit stack (document depth
  // is unbounded; the `parts` generator recurses deep).
  struct Frame {
    uint32_t trie;
    uint32_t out;
    size_t next_child;
  };
  std::vector<Frame> frames;
  const auto emit = [&](uint32_t t, int32_t parent) {
    PathNode node;
    node.tag = trie_[t].tag;
    node.count = trie_[t].count;
    node.level = trie_[t].level;
    node.parent = parent;
    synopsis->nodes_.push_back(node);
    return static_cast<uint32_t>(synopsis->nodes_.size() - 1);
  };
  for (const uint32_t root : roots_) {
    frames.push_back({root, emit(root, -1), 0});
    while (!frames.empty()) {
      const Frame top = frames.back();
      const std::vector<uint32_t>& kids = trie_[top.trie].children;
      if (top.next_child < kids.size()) {
        ++frames.back().next_child;
        const uint32_t child = kids[top.next_child];
        frames.push_back(
            {child, emit(child, static_cast<int32_t>(top.out)), 0});
      } else {
        synopsis->nodes_[top.out].subtree_end =
            static_cast<uint32_t>(synopsis->nodes_.size());
        frames.pop_back();
      }
    }
  }
  NOK_RETURN_IF_ERROR(synopsis->Validate());
  return synopsis;
}

Result<std::unique_ptr<PathSynopsis>> PathSynopsis::Build(StringStore* tree) {
  Builder builder;
  uint64_t symbols = 0;
  NOK_RETURN_IF_ERROR(tree->VisitSymbols([&](bool is_open, TagId tag) {
    if (is_open) {
      builder.Open(tag);
    } else {
      builder.Close();
    }
    ++symbols;
  }));
  if (symbols != 2 * tree->node_count()) {
    return Status::Corruption(
        "path synopsis: page chain disagrees with the meta node count (" +
        std::to_string(symbols) + " symbols, expected " +
        std::to_string(2 * tree->node_count()) + ")");
  }
  return builder.Finish();
}

Status PathSynopsis::Validate() {
  // Recompute levels and subtree spans from the parent links while
  // checking that the node order really is a preorder forest: a node's
  // parent must be on the currently-open ancestor chain.
  std::vector<uint32_t> open;
  uint64_t total = 0;
  min_level_ = 0;
  max_level_ = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    PathNode& node = nodes_[i];
    if (node.tag == kInvalidTag) {
      return Status::Corruption("path synopsis: invalid tag at path node " +
                                std::to_string(i));
    }
    if (node.count == 0) {
      return Status::Corruption("path synopsis: zero count at path node " +
                                std::to_string(i));
    }
    const int32_t parent = node.parent;
    if (parent >= static_cast<int32_t>(i)) {
      return Status::Corruption("path synopsis: parent not before child");
    }
    while (!open.empty() &&
           (parent < 0 ||
            open.back() != static_cast<uint32_t>(parent))) {
      nodes_[open.back()].subtree_end = static_cast<uint32_t>(i);
      open.pop_back();
    }
    if (parent >= 0 &&
        (open.empty() || open.back() != static_cast<uint32_t>(parent))) {
      return Status::Corruption("path synopsis: parent not an open ancestor");
    }
    node.level = parent < 0 ? 1 : nodes_[static_cast<size_t>(parent)].level + 1;
    if (min_level_ == 0 || node.level < min_level_) min_level_ = node.level;
    if (node.level > max_level_) max_level_ = node.level;
    total += node.count;
    open.push_back(static_cast<uint32_t>(i));
  }
  while (!open.empty()) {
    nodes_[open.back()].subtree_end = static_cast<uint32_t>(nodes_.size());
    open.pop_back();
  }
  if (total != node_count_) {
    return Status::Corruption(
        "path synopsis: path counts sum to " + std::to_string(total) +
        ", expected " + std::to_string(node_count_) + " nodes");
  }
  return Status::OK();
}

std::string PathSynopsis::EncodePayload() const {
  std::string payload;
  payload.reserve(4 + nodes_.size() * kSynopsisRecordSize);
  PutFixed32(&payload, static_cast<uint32_t>(nodes_.size()));
  for (const PathNode& node : nodes_) {
    PutFixed16(&payload, node.tag);
    PutFixed64(&payload, node.count);
    PutFixed32(&payload, static_cast<uint32_t>(node.parent + 1));
  }
  return payload;
}

Result<std::unique_ptr<PathSynopsis>> PathSynopsis::DecodePayload(
    std::string_view payload, uint64_t node_count) {
  if (payload.size() < 4) {
    return Status::Corruption("synopsis sidecar: truncated payload");
  }
  const uint32_t path_count = DecodeFixed32(payload.data());
  if (path_count > kMaxPaths) {
    return Status::Corruption("synopsis sidecar: implausible path count");
  }
  if (payload.size() !=
      4 + static_cast<size_t>(path_count) * kSynopsisRecordSize) {
    return Status::Corruption("synopsis sidecar: payload size mismatch");
  }
  auto synopsis = std::unique_ptr<PathSynopsis>(new PathSynopsis());
  synopsis->node_count_ = node_count;
  synopsis->nodes_.resize(path_count);
  for (size_t i = 0; i < path_count; ++i) {
    const char* rec = payload.data() + 4 + i * kSynopsisRecordSize;
    PathNode& node = synopsis->nodes_[i];
    node.tag = DecodeFixed16(rec);
    node.count = DecodeFixed64(rec + 2);
    const uint32_t parent_plus_1 = DecodeFixed32(rec + 10);
    if (parent_plus_1 > path_count) {
      return Status::Corruption("synopsis sidecar: parent out of range");
    }
    node.parent = static_cast<int32_t>(parent_plus_1) - 1;
  }
  NOK_RETURN_IF_ERROR(synopsis->Validate());
  return synopsis;
}

void PathSynopsis::CollectChildren(uint32_t parent, TagId tag, bool wildcard,
                                   std::vector<uint32_t>* out) const {
  uint32_t j = parent == kVirtualRoot ? 0 : parent + 1;
  const uint32_t end = parent == kVirtualRoot
                           ? static_cast<uint32_t>(nodes_.size())
                           : nodes_[parent].subtree_end;
  while (j < end) {
    if (wildcard || nodes_[j].tag == tag) out->push_back(j);
    j = nodes_[j].subtree_end;
  }
}

void PathSynopsis::CollectDescendants(uint32_t parent, TagId tag,
                                      bool wildcard,
                                      std::vector<uint32_t>* out) const {
  const uint32_t begin = parent == kVirtualRoot ? 0 : parent + 1;
  const uint32_t end = parent == kVirtualRoot
                           ? static_cast<uint32_t>(nodes_.size())
                           : nodes_[parent].subtree_end;
  for (uint32_t j = begin; j < end; ++j) {
    if (wildcard || nodes_[j].tag == tag) out->push_back(j);
  }
}

uint64_t PathSynopsis::TotalCount(const std::vector<uint32_t>& set) const {
  uint64_t total = 0;
  for (const uint32_t i : set) {
    total += i == kVirtualRoot ? 1 : nodes_[i].count;
  }
  return total;
}

uint64_t PathSynopsis::DescendantCount(uint32_t node) const {
  if (node == kVirtualRoot) return node_count_;
  uint64_t total = 0;
  for (uint32_t j = node + 1; j < nodes_[node].subtree_end; ++j) {
    total += nodes_[j].count;
  }
  return total;
}

}  // namespace nok
