#include "encoding/bp_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "encoding/string_store.h"

namespace nok {
namespace {

// SWAR lane constants for 4x16-bit equality probing (the classic
// zero-halfword detector: (x - kLaneLow) & ~x & kLaneHigh).
constexpr uint64_t kLaneLow = 0x0001000100010001ull;
constexpr uint64_t kLaneHigh = 0x8000800080008000ull;

}  // namespace

Result<std::unique_ptr<BpIndex>> BpIndex::Build(
    StringStore* tree, const std::function<void(bool, TagId)>& observer) {
  auto index = std::unique_ptr<BpIndex>(new BpIndex());
  index->node_count_ = tree->node_count();
  index->n_bits_ = 2 * index->node_count_;
  index->bits_.assign(static_cast<size_t>((index->n_bits_ + 63) / 64), 0);
  index->tags_.reserve(static_cast<size_t>(index->node_count_));
  uint64_t pos = 0;
  NOK_RETURN_IF_ERROR(tree->VisitSymbols([&](bool is_open, TagId tag) {
    if (is_open) {
      if (pos < index->n_bits_) {
        index->bits_[pos >> 6] |= uint64_t{1} << (pos & 63);
      }
      index->tags_.push_back(tag);
    }
    observer(is_open, tag);
    ++pos;
  }));
  if (pos != index->n_bits_ || index->tags_.size() != index->node_count_) {
    return Status::Corruption(
        "bp index: page chain disagrees with the meta node count (" +
        std::to_string(index->tags_.size()) + " opens, " +
        std::to_string(pos) + " symbols, expected " +
        std::to_string(index->node_count_) + " nodes)");
  }
  NOK_RETURN_IF_ERROR(index->BuildSupport());
  return index;
}

Result<std::unique_ptr<BpIndex>> BpIndex::FromParens(std::string_view parens,
                                                     std::vector<TagId> tags) {
  auto index = std::unique_ptr<BpIndex>(new BpIndex());
  index->n_bits_ = parens.size();
  if (index->n_bits_ % 2 != 0) {
    return Status::InvalidArgument("bp index: odd parenthesis count");
  }
  index->node_count_ = index->n_bits_ / 2;
  index->bits_.assign(static_cast<size_t>((index->n_bits_ + 63) / 64), 0);
  for (uint64_t i = 0; i < index->n_bits_; ++i) {
    const char c = parens[static_cast<size_t>(i)];
    if (c == '(') {
      index->bits_[i >> 6] |= uint64_t{1} << (i & 63);
    } else if (c != ')') {
      return Status::InvalidArgument("bp index: expected '(' or ')'");
    }
  }
  if (tags.empty()) {
    tags.assign(static_cast<size_t>(index->node_count_), TagId{1});
  }
  if (tags.size() != index->node_count_) {
    return Status::InvalidArgument("bp index: tag count != node count");
  }
  index->tags_ = std::move(tags);
  NOK_RETURN_IF_ERROR(index->BuildSupport());
  return index;
}

Status BpIndex::BuildSupport() {
  const size_t nwords = bits_.size();
  // Any garbage bit past bit_count() would poison the popcount-based
  // rank/select answers.
  if (n_bits_ % 64 != 0 && nwords > 0 &&
      (bits_.back() & (~uint64_t{0} << (n_bits_ % 64))) != 0) {
    return Status::Corruption("bp index: nonzero bits past the bit count");
  }
  word_excess_.assign(nwords + 1, 0);
  tree_leaves_ = 1;
  while (tree_leaves_ < (nwords == 0 ? size_t{1} : nwords)) tree_leaves_ <<= 1;
  tree_min_.assign(2 * tree_leaves_, kMinSentinel);
  select_sample_.clear();
  select_sample_.reserve(static_cast<size_t>(node_count_ / 64) + 1);
  // open_path[d] is the open node at depth d + 1 with its children seen
  // so far; every kChildSampleRate-th child is paired with its parent.
  struct OpenNode {
    uint64_t pos;
    uint64_t children;
  };
  std::vector<OpenNode> open_path;
  std::vector<std::pair<uint64_t, uint64_t>> sampled;  // (parent, child)
  // Ranks and child indexes are 32-bit, as Dewey components are.
  if (node_count_ > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("bp index: too many nodes");
  }
  child_index_.clear();
  child_index_.reserve(static_cast<size_t>(node_count_));
  int64_t e = 0;
  uint64_t ones = 0;
  for (size_t w = 0; w < nwords; ++w) {
    word_excess_[w] = e;
    int64_t wmin = kMinSentinel;
    const uint64_t word = bits_[w];
    const uint32_t nb = WordBits(w);
    for (uint32_t i = 0; i < nb; ++i) {
      if ((word >> i) & 1u) {
        const uint64_t pos = (w << 6) + i;
        if (ones % 64 == 0) select_sample_.push_back(pos);
        const size_t depth = static_cast<size_t>(e);
        uint64_t child = 0;
        if (depth > 0) {
          OpenNode& parent = open_path[depth - 1];
          if (parent.children != 0 &&
              parent.children % kChildSampleRate == 0) {
            sampled.emplace_back(parent.pos, pos);
          }
          child = parent.children++;
        }
        child_index_.push_back(static_cast<uint32_t>(child));
        if (open_path.size() <= depth) open_path.resize(depth + 1);
        open_path[depth] = OpenNode{pos, 0};
        ++ones;
        ++e;
      } else {
        --e;
      }
      if (e < 0) {
        return Status::Corruption("bp index: unbalanced parentheses");
      }
      if (e < wmin) wmin = e;
    }
    tree_min_[tree_leaves_ + w] = wmin;
  }
  word_excess_[nwords] = e;
  if (e != 0) {
    return Status::Corruption("bp index: unbalanced parentheses");
  }
  if (ones != node_count_) {
    return Status::Corruption("bp index: open count != node count");
  }
  for (size_t i = tree_leaves_ - 1; i >= 1; --i) {
    const int64_t left = tree_min_[2 * i];
    const int64_t right = tree_min_[2 * i + 1];
    tree_min_[i] = left < right ? left : right;
  }
  // Nested wide parents interleave their samples; group them by parent.
  // Each parent's samples were produced in document order, so the pair
  // sort keeps them ascending.
  std::sort(sampled.begin(), sampled.end());
  child_samples_ = ChildSamples{};
  for (const auto& [parent, child] : sampled) {
    if (child_samples_.parents.empty() ||
        child_samples_.parents.back() != parent) {
      child_samples_.parents.push_back(parent);
      child_samples_.offsets.push_back(child_samples_.samples.size());
    }
    child_samples_.samples.push_back(child);
  }
  if (!child_samples_.parents.empty()) {
    child_samples_.offsets.push_back(child_samples_.samples.size());
  }
  // Counting sort of the preorder ranks by tag: a stable pass in rank
  // order keeps each tag's run ascending.
  const TagId max_tag =
      tags_.empty() ? 0 : *std::max_element(tags_.begin(), tags_.end());
  tag_offsets_.assign(static_cast<size_t>(max_tag) + 2, 0);
  for (const TagId tag : tags_) ++tag_offsets_[static_cast<size_t>(tag) + 1];
  std::partial_sum(tag_offsets_.begin(), tag_offsets_.end(),
                   tag_offsets_.begin());
  tag_ranks_.resize(tags_.size());
  std::vector<uint32_t> next(tag_offsets_.begin(), tag_offsets_.end() - 1);
  for (size_t r = 0; r < tags_.size(); ++r) {
    tag_ranks_[next[tags_[r]]++] = static_cast<uint32_t>(r);
  }
  return Status::OK();
}

std::span<const uint32_t> BpIndex::RanksWithTag(TagId tag) const {
  if (size_t{tag} + 1 >= tag_offsets_.size()) return {};
  return {tag_ranks_.data() + tag_offsets_[tag],
          tag_ranks_.data() + tag_offsets_[size_t{tag} + 1]};
}

std::vector<LocatedNode> BpIndex::LocateRanks(std::span<const uint32_t> ranks,
                                              uint64_t* steps) const {
  std::vector<LocatedNode> out;
  out.reserve(ranks.size());
  // path[d] is the preorder rank of the last hit's ancestor-or-self at
  // depth d + 1; path[0] is always the root.
  std::vector<uint64_t> path = {0};
  for (const uint32_t rank : ranks) {
    const uint64_t pos = Select1(rank);
    ++*steps;
    const size_t depth = static_cast<size_t>(Excess(pos));
    // The previous hit's levels above this one may be shared.
    const size_t shared = std::min(path.size(), depth - 1);
    path.resize(depth);
    path[depth - 1] = rank;
    uint64_t up = pos;
    for (size_t d = depth - 1; d > 1; --d) {
      up = *Enclose(up);
      ++*steps;
      const uint64_t up_rank = Rank1(up);
      if (d <= shared && path[d - 1] == up_rank) break;
      path[d - 1] = up_rank;
    }
    std::vector<uint32_t> components(depth);
    for (size_t d = 0; d < depth; ++d) {
      components[d] = child_index_[static_cast<size_t>(path[d])];
    }
    out.push_back(LocatedNode{DeweyId(std::move(components)), pos});
  }
  return out;
}

std::optional<uint64_t> BpIndex::Locate(const DeweyId& id) const {
  const std::vector<uint32_t>& components = id.components();
  if (components.empty() || components[0] != 0 || node_count_ == 0) {
    return std::nullopt;
  }
  uint64_t pos = 0;
  for (size_t depth = 1; depth < components.size(); ++depth) {
    std::optional<uint64_t> child = FirstChild(pos);
    uint64_t index = 0;
    if (child.has_value()) {
      if (auto jump = JumpToChild(pos, components[depth], &index)) {
        child = jump;
      }
    }
    while (child.has_value() && index < components[depth]) {
      child = FollowingSibling(*child);
      ++index;
    }
    if (!child.has_value()) return std::nullopt;
    pos = *child;
  }
  return pos;
}

uint64_t BpIndex::Rank1(uint64_t pos) const {
  const uint64_t w = pos >> 6;
  uint64_t rank = static_cast<uint64_t>(
      (word_excess_[static_cast<size_t>(w)] + static_cast<int64_t>(w << 6)) /
      2);
  const uint32_t r = static_cast<uint32_t>(pos & 63);
  if (r != 0) {
    rank += static_cast<uint64_t>(std::popcount(
        bits_[static_cast<size_t>(w)] & (~uint64_t{0} >> (64 - r))));
  }
  return rank;
}

uint64_t BpIndex::Select1(uint64_t rank) const {
  const uint64_t p = select_sample_[static_cast<size_t>(rank >> 6)];
  uint64_t need = rank & 63;  // Opens to skip strictly after p.
  if (need == 0) return p;
  size_t w = static_cast<size_t>(p >> 6);
  const uint32_t sh = static_cast<uint32_t>(p & 63) + 1;
  uint64_t word = sh == 64 ? 0 : (bits_[w] & (~uint64_t{0} << sh));
  for (;;) {
    const uint64_t c = static_cast<uint64_t>(std::popcount(word));
    if (c >= need) break;
    need -= c;
    ++w;
    word = bits_[w];
  }
  for (uint64_t i = 1; i < need; ++i) word &= word - 1;
  return (static_cast<uint64_t>(w) << 6) +
         static_cast<uint64_t>(std::countr_zero(word));
}

uint64_t BpIndex::FindClose(uint64_t pos) const {
  if (!IsOpen(pos)) return kNpos;
  int64_t e = Excess(pos);
  const int64_t target = e - 1;
  const size_t w = static_cast<size_t>(pos >> 6);
  {
    const uint64_t word = bits_[w];
    const uint32_t nb = WordBits(w);
    for (uint32_t i = static_cast<uint32_t>(pos & 63) + 1; i < nb; ++i) {
      e += ((word >> i) & 1u) ? 1 : -1;
      if (e == target) return (static_cast<uint64_t>(w) << 6) + i;
    }
  }
  const size_t fw = FwdMinSearch(w, target);
  if (fw == kNoWord) return kNpos;  // Unreachable on validated bits.
  int64_t e2 = word_excess_[fw];
  const uint64_t word = bits_[fw];
  const uint32_t nb = WordBits(fw);
  for (uint32_t i = 0; i < nb; ++i) {
    e2 += ((word >> i) & 1u) ? 1 : -1;
    if (e2 == target) return (static_cast<uint64_t>(fw) << 6) + i;
  }
  return kNpos;  // Unreachable: fw's min excess covers the target.
}

std::optional<uint64_t> BpIndex::Enclose(uint64_t pos) const {
  if (!IsOpen(pos)) return std::nullopt;
  const int64_t depth = Excess(pos);
  if (depth <= 1) return std::nullopt;
  const int64_t target = depth - 2;
  const size_t w = static_cast<size_t>(pos >> 6);
  {
    // Walk the start word backwards: E(j) = E(j+1) - step(j+1).
    int64_t e = depth;
    uint64_t jp1 = pos;
    const uint64_t wstart = static_cast<uint64_t>(w) << 6;
    const uint64_t word = bits_[w];
    while (jp1 > wstart) {
      e -= ((word >> (jp1 & 63)) & 1u) ? 1 : -1;
      --jp1;
      if (e == target) return jp1 + 1;
    }
  }
  const size_t bw = w == 0 ? kNoWord : BwdMinSearch(w, target);
  if (bw == kNoWord) {
    // Only the virtual position -1 (excess 0) matches: the parent is the
    // root open at position 0.
    if (target == 0) return uint64_t{0};
    return std::nullopt;  // Unreachable on validated bits.
  }
  int64_t e2 = word_excess_[bw];
  int64_t best = -1;
  const uint64_t word = bits_[bw];
  const uint32_t nb = WordBits(bw);
  for (uint32_t i = 0; i < nb; ++i) {
    e2 += ((word >> i) & 1u) ? 1 : -1;
    if (e2 == target) {
      best = static_cast<int64_t>((static_cast<uint64_t>(bw) << 6) + i);
    }
  }
  if (best < 0) return std::nullopt;  // Unreachable: bw's min covers target.
  return static_cast<uint64_t>(best) + 1;
}

std::optional<uint64_t> BpIndex::JumpToChild(uint64_t parent, uint64_t k,
                                             uint64_t* child) const {
  if (k < kChildSampleRate) return std::nullopt;
  const std::vector<uint64_t>& parents = child_samples_.parents;
  const auto it = std::lower_bound(parents.begin(), parents.end(), parent);
  if (it == parents.end() || *it != parent) return std::nullopt;
  const size_t i = static_cast<size_t>(it - parents.begin());
  const uint64_t first = child_samples_.offsets[i];
  const uint64_t count = child_samples_.offsets[i + 1] - first;
  const uint64_t j = std::min(k / kChildSampleRate, count);  // >= 1.
  *child = j * kChildSampleRate;
  return child_samples_.samples[static_cast<size_t>(first + j - 1)];
}

std::optional<uint64_t> BpIndex::NextOpenWithTag(
    uint64_t pos, TagId tag, uint64_t* blocks_skipped, uint64_t end) const {
  // Ranks of the opens before `end`: [0, rank_end).
  const uint64_t rank_end = end < n_bits_ ? Rank1(end) : node_count_;
  uint64_t r = Rank1(pos + 1);  // Preorder rank of the next open, if any.
  while (r < rank_end) {
    if ((r & 63) == 0 && r + 64 <= rank_end && !BlockHasTag(r, tag)) {
      r += 64;
      if (blocks_skipped != nullptr) ++*blocks_skipped;
      continue;
    }
    uint64_t stop = (r | 63) + 1;
    if (stop > rank_end) stop = rank_end;
    for (; r < stop; ++r) {
      if (tags_[static_cast<size_t>(r)] == tag) return Select1(r);
    }
  }
  return std::nullopt;
}

size_t BpIndex::FwdMinSearch(size_t from_word, int64_t target) const {
  size_t node = tree_leaves_ + from_word;
  for (;;) {
    while ((node & 1u) != 0) {
      if (node == 1) return kNoWord;
      node >>= 1;
    }
    ++node;  // Right sibling: covers words strictly after the current span.
    if (tree_min_[node] <= target) break;
  }
  while (node < tree_leaves_) {
    node <<= 1;
    if (tree_min_[node] > target) ++node;
  }
  return node - tree_leaves_;
}

size_t BpIndex::BwdMinSearch(size_t from_word, int64_t target) const {
  size_t node = tree_leaves_ + from_word;
  for (;;) {
    while (node > 1 && (node & 1u) == 0) node >>= 1;
    if (node <= 1) return kNoWord;
    --node;  // Left sibling: covers words strictly before the current span.
    if (tree_min_[node] <= target) break;
  }
  while (node < tree_leaves_) {
    node = 2 * node + 1;
    if (tree_min_[node] > target) --node;
  }
  return node - tree_leaves_;
}

bool BpIndex::BlockHasTag(uint64_t rank, TagId tag) const {
  const uint64_t pattern = kLaneLow * static_cast<uint64_t>(tag);
  const TagId* base = tags_.data() + rank;
  for (int k = 0; k < 16; ++k) {
    uint64_t chunk;
    std::memcpy(&chunk, base + 4 * k, sizeof(chunk));
    const uint64_t x = chunk ^ pattern;
    if (((x - kLaneLow) & ~x & kLaneHigh) != 0) return true;
  }
  return false;
}

uint64_t BpIndex::MemoryBytes() const {
  return bits_.size() * sizeof(uint64_t) + tags_.size() * sizeof(TagId) +
         word_excess_.size() * sizeof(int64_t) +
         tree_min_.size() * sizeof(int64_t) +
         select_sample_.size() * sizeof(uint64_t) +
         child_samples_.MemoryBytes() + TagSelectBytes();
}

uint64_t BpIndex::TagSelectBytes() const {
  return (tag_offsets_.size() + tag_ranks_.size() + child_index_.size()) *
         sizeof(uint32_t);
}

}  // namespace nok
