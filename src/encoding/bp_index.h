// In-memory balanced-parentheses structural index — the second navigation
// tier beside the paged string cursor (Arroyuelo et al., "Fast In-Memory
// XPath Search over Compressed Text and Tree Indexes").
//
// The document topology is re-encoded as a balanced-parentheses bitvector:
// one open bit (1) and one close bit (0) per node, in document order —
// 2 bits per node, versus the paged string's 3 bytes.  On top of the raw
// bits sit o(n) support structures, all rebuilt in O(n) at load time:
//
//   word_excess_  excess (opens minus closes) at the start of every
//                 64-bit word; doubles as rank support, since
//                 rank1(64w) = (word_excess_[w] + 64w) / 2;
//   tree_min_     a perfect binary segment tree over the per-word minimum
//                 excess, driving findclose (forward search for
//                 excess(i) - 1) and enclose (backward search for
//                 excess(i) - 2) in O(log(n/64)) word probes;
//   select_sample_  the bit position of every 64th open, making select1
//                 a sample lookup plus a short popcount walk;
//   child_samples_  for every node with more than 64 children, the open
//                 position of its children 64, 128, ... (JumpToChild), so
//                 reaching child k costs one jump plus at most 63
//                 FOLLOWING-SIBLING steps however wide the parent is;
//   tags_         the TagId of every node in preorder, scanned four
//                 lanes at a time (SWAR) by NextOpenWithTag so 64-node
//                 blocks without the tag are skipped in 16 word compares
//                 — no BufferPool traffic at all;
//   tag_ranks_    every node's preorder rank grouped by TagId, and
//   child_index_  every node's index among its siblings: the store's
//                 tag-name index (LocateTag), and the rank -> node step
//                 of its value probes (LocateRanks).
//
// FIRST-CHILD and FOLLOWING-SIBLING are O(1)-ish (a findclose), and —
// unlike the paged cursor — PARENT is cheap too (an enclose).
//
// The index is never persisted: DocumentStore builds it by one scan of
// the page chain on every open and after every structural update, and
// the path synopsis rides that scan (Build's observer).
//
// Thread safety: a BpIndex is immutable after construction; every method
// is const and touches no shared mutable state, so any number of threads
// may navigate one instance concurrently.  Versioning against the store
// is the owner's job: DocumentStore drops the instance at each
// structural update.

#ifndef NOKXML_ENCODING_BP_INDEX_H_
#define NOKXML_ENCODING_BP_INDEX_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/dewey.h"
#include "encoding/tag_dictionary.h"

namespace nok {

class StringStore;

/// A node found on a BP index: its Dewey ID and the bit position of its
/// open parenthesis in that index.  Index probes return these, so a
/// caller navigates from the hit without finding it again.
struct LocatedNode {
  DeweyId dewey = DeweyId::Root();
  uint64_t pos = 0;
};

/// Immutable balanced-parentheses index over one document's topology.
class BpIndex {
 public:
  /// Returned by FindClose on a position that is not an open bit (callers
  /// that respect the contract never see it).
  static constexpr uint64_t kNpos = ~uint64_t{0};

  /// Builds the index in one sequential scan of the paged string
  /// (chain-order page decodes; the only time the BufferPool is touched).
  /// `observer` sees every (is_open, tag) symbol of the same scan —
  /// DocumentStore rides it to build the path synopsis without a second
  /// pass over the page chain.
  static Result<std::unique_ptr<BpIndex>> Build(
      StringStore* tree, const std::function<void(bool, TagId)>& observer);

  /// Builds from a parenthesis string like "(()())" — unit tests and
  /// golden fixtures.  `tags` gives the preorder TagIds and may be empty
  /// (all nodes get kInvalidTag + 1 = 1).
  static Result<std::unique_ptr<BpIndex>> FromParens(std::string_view parens,
                                                     std::vector<TagId> tags);

  // -------------------------------------------------------------------
  // Shape.

  uint64_t node_count() const { return node_count_; }
  uint64_t bit_count() const { return n_bits_; }
  /// In-memory footprint of bits + tags + support structures.
  uint64_t MemoryBytes() const;
  /// Bytes of the tag-probe arrays (rank lists, child indexes).
  uint64_t TagSelectBytes() const;

  /// Children are sampled at this stride (see JumpToChild).
  static constexpr uint64_t kChildSampleRate = 64;

  /// The sampled-child table, as flat arrays sorted by parent position:
  /// the children of parents[i] numbered kChildSampleRate * (j + 1) open
  /// at samples[offsets[i] + j], for offsets[i] + j < offsets[i + 1].
  /// Only parents with more than kChildSampleRate children appear; with
  /// none, all three arrays are empty.
  struct ChildSamples {
    std::vector<uint64_t> parents;  ///< Open positions, ascending.
    std::vector<uint64_t> offsets;  ///< parents.size() + 1 entries.
    std::vector<uint64_t> samples;  ///< Open positions of sampled children.

    uint64_t MemoryBytes() const {
      return (parents.size() + offsets.size() + samples.size()) *
             sizeof(uint64_t);
    }
    bool operator==(const ChildSamples&) const = default;
  };
  const ChildSamples& child_samples() const { return child_samples_; }

  // -------------------------------------------------------------------
  // Succinct primitives.  Positions are bit indexes in [0, bit_count());
  // node positions are open bits.  The root open is position 0.

  /// True if the bit at pos is an open parenthesis.
  bool IsOpen(uint64_t pos) const {
    return (bits_[pos >> 6] >> (pos & 63)) & 1u;
  }

  /// Number of open bits strictly before pos (pos may equal bit_count()).
  /// For an open position this is the node's 0-based preorder rank.
  uint64_t Rank1(uint64_t pos) const;

  /// Position of the rank-th open bit (0-based; rank < node_count()).
  uint64_t Select1(uint64_t rank) const;

  /// Excess (opens minus closes) after processing bits [0, pos].  For an
  /// open position this is the node's depth (root = 1).
  int64_t Excess(uint64_t pos) const {
    return 2 * static_cast<int64_t>(Rank1(pos + 1)) -
           static_cast<int64_t>(pos) - 1;
  }

  /// Matching close bit of the open at pos (kNpos if pos is not open).
  uint64_t FindClose(uint64_t pos) const;

  /// Open bit of the tightest enclosing node (parent), or nullopt for a
  /// depth-1 node.
  std::optional<uint64_t> Enclose(uint64_t pos) const;

  /// TagId of the node whose open bit is at pos.
  TagId TagAt(uint64_t pos) const { return tags_[Rank1(pos)]; }

  /// TagId of the node with the given preorder rank.
  TagId TagAtRank(uint64_t rank) const { return tags_[rank]; }

  /// The preorder ranks of the nodes tagged `tag`, ascending (document
  /// order); empty for a tag no node carries.
  std::span<const uint32_t> RanksWithTag(TagId tag) const;

  /// The nodes with the given preorder ranks (ascending, each <
  /// node_count()), in that order, each with its Dewey ID and open-bit
  /// position: a Select1 per rank, and Enclose only up to the previous
  /// rank's path.  Adds the Select1 and Enclose calls made to *steps.
  std::vector<LocatedNode> LocateRanks(std::span<const uint32_t> ranks,
                                       uint64_t* steps) const;

  /// The nodes tagged `tag`, in document order (LocateRanks of
  /// RanksWithTag).
  std::vector<LocatedNode> LocateTag(TagId tag, uint64_t* steps) const {
    return LocateRanks(RanksWithTag(tag), steps);
  }

  /// The open-bit position of the node with Dewey ID `id`, or nullopt if
  /// no node has it: per level a FirstChild, a JumpToChild to the sampled
  /// child at or before the wanted one, and at most kChildSampleRate - 1
  /// FOLLOWING-SIBLING steps, so O(depth) whatever the fanout.
  std::optional<uint64_t> Locate(const DeweyId& id) const;

  // -------------------------------------------------------------------
  // Tree steps (the TreeCursor vocabulary).

  int Depth(uint64_t pos) const { return static_cast<int>(Excess(pos)); }

  std::optional<uint64_t> FirstChild(uint64_t pos) const {
    const uint64_t next = pos + 1;
    if (next < n_bits_ && IsOpen(next)) return next;
    return std::nullopt;
  }

  std::optional<uint64_t> FollowingSibling(uint64_t pos) const {
    const uint64_t after = FindClose(pos) + 1;
    if (after < n_bits_ && IsOpen(after)) return after;
    return std::nullopt;
  }

  std::optional<uint64_t> Parent(uint64_t pos) const { return Enclose(pos); }

  /// Sampled child jump: the open position of the last sampled child of
  /// `parent` at or before child index k (0-based), with that child's
  /// index in *child — child kChildSampleRate * floor(k /
  /// kChildSampleRate) when `parent` has it.  nullopt when k is below the
  /// sample rate or `parent` has no more than kChildSampleRate children.
  /// One binary search over the wide parents; the caller steps right the
  /// remaining k - *child siblings.
  std::optional<uint64_t> JumpToChild(uint64_t parent, uint64_t k,
                                      uint64_t* child) const;

  /// Next open bit strictly after pos (any tag / level), or nullopt.
  std::optional<uint64_t> NextOpen(uint64_t pos) const {
    const uint64_t rank = Rank1(pos + 1);
    if (rank >= node_count_) return std::nullopt;
    return Select1(rank);
  }

  /// Fused NextOpen + tag filter: the next open strictly after pos whose
  /// tag equals `tag`.  Scans the preorder tag array four lanes per word;
  /// aligned 64-node blocks with no matching lane are dismissed in 16
  /// word compares and counted into *blocks_skipped (when non-null).
  /// `end` bounds the scan: only opens before bit position `end` are
  /// considered, and no tag at or past it is read — a subtree scan
  /// passes the subtree's FindClose.
  std::optional<uint64_t> NextOpenWithTag(uint64_t pos, TagId tag,
                                          uint64_t* blocks_skipped,
                                          uint64_t end = kNpos) const;

 private:
  BpIndex() = default;

  /// Validates balance and rebuilds word_excess_ / tree_min_ /
  /// select_sample_ / child_samples_ / child_index_ from bits_, and the
  /// rank lists from tags_.
  Status BuildSupport();

  /// Bits actually present in word w (the last word may be partial).
  uint32_t WordBits(uint64_t w) const {
    const uint64_t start = w << 6;
    return static_cast<uint32_t>(n_bits_ - start < 64 ? n_bits_ - start : 64);
  }

  /// Leftmost word strictly after `from_word` whose min excess is <=
  /// target, or kNoWord.
  size_t FwdMinSearch(size_t from_word, int64_t target) const;

  /// Rightmost word strictly before `from_word` whose min excess is <=
  /// target, or kNoWord.
  size_t BwdMinSearch(size_t from_word, int64_t target) const;

  /// True if any of tags_[rank, rank+64) equals tag (SWAR, 16 compares).
  bool BlockHasTag(uint64_t rank, TagId tag) const;

  static constexpr size_t kNoWord = ~size_t{0};
  /// Sentinel for segment-tree leaves past the last word; excess is
  /// non-negative, so any real minimum is below this.
  static constexpr int64_t kMinSentinel =
      std::numeric_limits<int64_t>::max() / 2;

  std::vector<uint64_t> bits_;        ///< LSB-first parenthesis bits.
  std::vector<TagId> tags_;           ///< Preorder TagIds, size node_count_.
  uint64_t n_bits_ = 0;               ///< 2 * node_count_.
  uint64_t node_count_ = 0;

  std::vector<int64_t> word_excess_;  ///< Excess at the start of each word.
  std::vector<int64_t> tree_min_;     ///< Segment tree over word minima.
  size_t tree_leaves_ = 1;            ///< Leaf count (power of two).
  std::vector<uint64_t> select_sample_;  ///< Position of every 64th open.
  ChildSamples child_samples_;
  /// Tag t's ranks are tag_ranks_[tag_offsets_[t], tag_offsets_[t + 1]).
  std::vector<uint32_t> tag_offsets_;
  std::vector<uint32_t> tag_ranks_;   ///< Preorder ranks grouped by tag.
  std::vector<uint32_t> child_index_; ///< Sibling index, by preorder rank.
};

}  // namespace nok

#endif  // NOKXML_ENCODING_BP_INDEX_H_
