#include "nok/structural_join.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"

namespace nok {

bool IsRelated(const NodeMatch& outer, const NodeMatch& inner, Axis axis) {
  if (inner.virtual_root) return false;  // Related as an inner to nothing.
  switch (axis) {
    case Axis::kDescendant:
      return outer.virtual_root || outer.dewey.IsAncestorOf(inner.dewey);
    case Axis::kFollowing:
      if (outer.virtual_root) return false;  // Nothing follows the root.
      return outer.dewey.Compare(inner.dewey) < 0 &&
             !outer.dewey.IsAncestorOf(inner.dewey);
    case Axis::kPreceding:
      if (outer.virtual_root) return false;  // Nothing precedes the root.
      return inner.dewey.Compare(outer.dewey) < 0 &&
             !inner.dewey.IsAncestorOf(outer.dewey);
    default:
      NOK_CHECK(false) << "structural joins handle global axes only";
      return false;
  }
}

bool HasRelatedInner(const NodeMatch& outer,
                     const std::vector<NodeMatch>& inners, Axis axis) {
  if (inners.empty()) return false;
  switch (axis) {
    case Axis::kDescendant: {
      if (outer.virtual_root) return !inners.back().virtual_root;
      // Descendants of an outer form a contiguous document-order block
      // right after it; the first inner past the outer decides.
      auto it = std::upper_bound(inners.begin(), inners.end(), outer,
                                 DocOrderLess<NodeMatch>);
      return it != inners.end() && IsRelated(outer, *it, axis);
    }
    case Axis::kFollowing:
      // The document-order-last inner starts last: the canonical witness.
      return IsRelated(outer, inners.back(), axis);
    case Axis::kPreceding:
      // Inners before the outer either precede it or are its ancestors
      // (at most depth-many), so a scan from the front stops fast.
      for (const NodeMatch& inner : inners) {
        if (!DocOrderLess(inner, outer)) break;
        if (IsRelated(outer, inner, axis)) return true;
      }
      return false;
    default:
      NOK_CHECK(false) << "structural joins handle global axes only";
      return false;
  }
}

bool HasRelatedOuter(const std::vector<NodeMatch>& outers,
                     const NodeMatch& inner, Axis axis) {
  switch (axis) {
    case Axis::kDescendant: {
      if (outers.empty()) return false;
      if (outers.front().virtual_root) return true;
      // Outermost outers are disjoint subtrees in document order, so a
      // binary search compares each probe with the inner's prefix of the
      // probe's length.  A probe that is a prefix of the inner, or that
      // the inner is a prefix of, decides: no other outer can contain it.
      const std::vector<uint32_t>& path = inner.dewey.components();
      size_t lo = 0, hi = outers.size();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        const std::vector<uint32_t>& c = outers[mid].dewey.components();
        const auto n = static_cast<std::ptrdiff_t>(
            std::min(c.size(), path.size()));
        const auto diff = std::mismatch(c.begin(), c.begin() + n,
                                        path.begin());
        if (diff.first == c.begin() + n) return c.size() < path.size();
        if (*diff.first < *diff.second) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return false;
    }
    // An outer has the inner on one axis iff the inner has the outer on
    // the mirrored one.
    case Axis::kFollowing:
      return HasRelatedInner(inner, outers, Axis::kPreceding);
    case Axis::kPreceding:
      return HasRelatedInner(inner, outers, Axis::kFollowing);
    default:
      NOK_CHECK(false) << "structural joins handle global axes only";
      return false;
  }
}

}  // namespace nok
