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
//   tags_         the TagId of every node in preorder, scanned four
//                 lanes at a time (SWAR) by NextOpenWithTag so 64-node
//                 blocks without the tag are skipped in 16 word compares
//                 — no BufferPool traffic at all.
//
// FIRST-CHILD and FOLLOWING-SIBLING are O(1)-ish (a findclose), and —
// unlike the paged cursor — PARENT is cheap too (an enclose).
//
// Thread safety: a BpIndex is immutable after construction; every method
// is const and touches no shared mutable state, so any number of threads
// may navigate one instance concurrently.  Versioning against the store
// is the owner's job: DocumentStore keys the in-memory instance to
// structure_version() and the persisted sidecar to epoch() (see
// DESIGN.md section 14).
//
// Sidecar format (*.bpx), all integers little-endian fixed-width:
//
//   +0   magic "NOKBPIDX"           (8 bytes)
//   +8   format version, currently 1 (4 bytes)
//   +12  epoch the index was built against (8 bytes)
//   +20  node count n                (8 bytes)
//   +28  CRC-32C of bytes [12, 28) + the payload (4 bytes), so a flipped
//        epoch or node-count byte is detected, not just payload damage
//   +32  payload: ceil(2n/64) bit words (8 bytes each, LSB-first bits),
//        then n TagIds (2 bytes each, preorder)

#ifndef NOKXML_ENCODING_BP_INDEX_H_
#define NOKXML_ENCODING_BP_INDEX_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/tag_dictionary.h"
#include "storage/file.h"

namespace nok {

class StringStore;

/// Immutable balanced-parentheses index over one document's topology.
class BpIndex {
 public:
  /// Returned by FindClose on a position that is not an open bit (callers
  /// that respect the contract never see it).
  static constexpr uint64_t kNpos = ~uint64_t{0};

  /// Builds the index in one sequential scan of the paged string
  /// (chain-order page decodes; the only time the BufferPool is touched).
  /// `epoch` stamps the result for sidecar versioning.  `observer`, when
  /// non-null, sees every (is_open, tag) symbol of the same scan —
  /// DocumentStore rides it to rebuild the path synopsis without a
  /// second pass over the page chain.
  static Result<std::unique_ptr<BpIndex>> Build(
      StringStore* tree, uint64_t epoch,
      const std::function<void(bool, TagId)>& observer = nullptr);

  /// Builds from a parenthesis string like "(()())" — unit tests and
  /// golden fixtures.  `tags` gives the preorder TagIds and may be empty
  /// (all nodes get kInvalidTag + 1 = 1).
  static Result<std::unique_ptr<BpIndex>> FromParens(std::string_view parens,
                                                     std::vector<TagId> tags,
                                                     uint64_t epoch);

  /// Serializes to the checksummed sidecar byte format described above.
  std::string Serialize() const;

  /// Parses and validates a serialized sidecar (magic, version, shape,
  /// CRC-32C) and rebuilds the in-memory support structures.
  static Result<std::unique_ptr<BpIndex>> Deserialize(std::string_view bytes);

  /// Writes the serialized form at offset 0 of `file`, truncating any
  /// previous content, and syncs.
  Status SaveTo(File* file) const;

  /// Reads and Deserializes a whole sidecar file.
  static Result<std::unique_ptr<BpIndex>> LoadFrom(File* file);

  // -------------------------------------------------------------------
  // Shape.

  uint64_t node_count() const { return node_count_; }
  uint64_t bit_count() const { return n_bits_; }
  /// Store epoch the index was built against.
  uint64_t epoch() const { return epoch_; }
  /// Re-stamps the epoch (DocumentStore::Flush: the topology is
  /// unchanged, the generation advanced; navigation state is untouched).
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  /// In-memory footprint of bits + tags + support structures.
  uint64_t MemoryBytes() const;

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
  std::optional<uint64_t> NextOpenWithTag(uint64_t pos, TagId tag,
                                          uint64_t* blocks_skipped) const;

 private:
  BpIndex() = default;

  /// Validates balance and rebuilds word_excess_ / tree_min_ /
  /// select_sample_ from bits_.
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
  uint64_t epoch_ = 0;

  std::vector<int64_t> word_excess_;  ///< Excess at the start of each word.
  std::vector<int64_t> tree_min_;     ///< Segment tree over word minima.
  size_t tree_leaves_ = 1;            ///< Leaf count (power of two).
  std::vector<uint64_t> select_sample_;  ///< Position of every 64th open.
};

}  // namespace nok

#endif  // NOKXML_ENCODING_BP_INDEX_H_
