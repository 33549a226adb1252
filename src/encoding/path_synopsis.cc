#include "encoding/path_synopsis.h"

#include <algorithm>
#include <utility>

namespace nok {

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
    if (synopsis->min_level_ == 0 || node.level < synopsis->min_level_) {
      synopsis->min_level_ = node.level;
    }
    synopsis->max_level_ = std::max(synopsis->max_level_, node.level);
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
