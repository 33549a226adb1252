// Dewey IDs (Section 4.1 of the paper).
//
// The Dewey ID of a node encodes the path of child indexes from the root:
// the root is "0" and the i-th child (0-based) of a node d is "d.i".
// Dewey IDs are derived for free during a pre-order traversal, which is
// why the paper uses them to connect the structure store with the value
// store without materializing node ids in the tree string.
//
// The binary encoding is one big-endian 32-bit word per component, so
// byte-wise comparison of encodings orders IDs first by document order of
// the common path and then by depth — and ancestorship is exactly the
// proper-prefix relation.

#ifndef NOKXML_ENCODING_DEWEY_H_
#define NOKXML_ENCODING_DEWEY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace nok {

/// A Dewey ID: a non-empty vector of child indexes, root-first.
class DeweyId {
 public:
  /// The root's ID ("0").
  static DeweyId Root() { return DeweyId({0}); }

  explicit DeweyId(std::vector<uint32_t> components)
      : components_(std::move(components)) {}

  /// ID of this node's child at 0-based index i.
  DeweyId Child(uint32_t i) const {
    std::vector<uint32_t> c = components_;
    c.push_back(i);
    return DeweyId(std::move(c));
  }

  /// Advances this ID to its following sibling in place (increments the
  /// last component).  The matcher's sibling loops use this instead of
  /// rebuilding the component vector through components()/Child().
  void NextSibling() { ++components_.back(); }

  /// ID of the parent, or nullopt for the root.
  std::optional<DeweyId> Parent() const {
    if (components_.size() <= 1) return std::nullopt;
    return DeweyId(std::vector<uint32_t>(components_.begin(),
                                         components_.end() - 1));
  }

  /// The ancestor k levels up (k = 0 returns *this); nullopt if the ID is
  /// not deep enough.
  std::optional<DeweyId> Ancestor(size_t k) const {
    if (k >= components_.size()) return std::nullopt;
    return DeweyId(std::vector<uint32_t>(
        components_.begin(),
        components_.end() - static_cast<std::ptrdiff_t>(k)));
  }

  /// Number of components (root = 1); equals the node's level.
  size_t depth() const { return components_.size(); }

  const std::vector<uint32_t>& components() const { return components_; }

  /// True iff this is a proper ancestor of other.
  bool IsAncestorOf(const DeweyId& other) const;

  /// Document-order comparison (<0, 0, >0); an ancestor sorts before its
  /// descendants.
  int Compare(const DeweyId& other) const;

  /// Big-endian binary encoding (4 bytes per component).
  std::string Encode() const;
  static Result<DeweyId> Decode(const Slice& data);

  /// "0.2.1" display form (Example in Section 4.1).
  std::string ToString() const;

  bool operator==(const DeweyId& other) const {
    return components_ == other.components_;
  }
  bool operator<(const DeweyId& other) const { return Compare(other) < 0; }

 private:
  std::vector<uint32_t> components_;
};

/// Dewey IDs of the nodes of a document-order (preorder) walk, derived
/// from each node's level alone (the root is level 1).
class DeweyCounter {
 public:
  /// Components of the next node in document order, at `level` >= 1.
  /// The reference is valid until the next call.
  const std::vector<uint32_t>& Next(size_t level) {
    if (next_child_.size() < level + 2) next_child_.resize(level + 2, 0);
    path_.resize(level);
    path_[level - 1] = next_child_[level]++;
    next_child_[level + 1] = 0;
    return path_;
  }

 private:
  std::vector<uint32_t> path_;
  /// Per level: children seen so far under the current parent.
  std::vector<uint32_t> next_child_;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_DEWEY_H_
