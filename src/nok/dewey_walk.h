// The prefix-cached Dewey walk: Dewey ID -> node position over any
// navigation tier, the one routine both tiers use to resolve index hits
// and trunk ancestors (executor.cc).
//
// A tier supplies, in terms of its own position type Pos:
//
//   Root()                          the document root;
//   FirstChild(pos)                 Result<std::optional<Pos>>;
//   FollowingSibling(pos)           Result<std::optional<Pos>>;
//   JumpToChild(parent, k, &step)   moves *step (a child of `parent`)
//                                   right to a sampled child at or before
//                                   child k and returns true, or returns
//                                   false when no sample lies ahead;
//   dewey_path()                    the cached root..node path, a
//                                   std::vector<PathStep<Pos>>*.
//
// Cost.  Sorted IDs share one left-to-right sweep per level: equal
// components are reused, an ID that is a prefix of the cached path (a
// trunk ancestor of the previous node) is answered from the cache without
// disturbing it, and at the first divergence the walk continues rightward
// from the cached sibling.  A tier whose JumpToChild samples every 64th
// child (BpIndex) bounds a cold walk by about 65 steps per level, so one
// ID costs O(depth) whatever the fanout; a tier without samples (the
// paged store) pays the sibling distance.  A jump counts as one step.

#ifndef NOKXML_NOK_DEWEY_WALK_H_
#define NOKXML_NOK_DEWEY_WALK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/dewey.h"

namespace nok {

/// One level of a cached root..node path.
template <typename Pos>
struct PathStep {
  uint32_t component;  ///< Child index: the Dewey component.
  Pos pos;
};

/// The position of `dewey`'s node, resuming from the tier's cached path
/// (see the file comment).  Tree steps are added to *steps.
template <typename Nav>
Result<typename Nav::Pos> WalkTo(Nav* nav, const DeweyId& dewey,
                                 uint64_t* steps) {
  using Pos = typename Nav::Pos;
  const auto& comp = dewey.components();
  if (comp.empty() || comp[0] != 0) {
    return Status::InvalidArgument("bad Dewey ID " + dewey.ToString());
  }
  std::vector<PathStep<Pos>>& cached = *nav->dewey_path();
  size_t keep = 0;
  while (keep < cached.size() && keep < comp.size() &&
         cached[keep].component == comp[keep]) {
    ++keep;
  }
  if (keep == comp.size()) {
    // An ancestor (or the node) of the cached path: keep the deeper
    // levels, the next sorted ID resumes from them.
    return cached[keep - 1].pos;
  }
  const bool resume_sideways = keep < cached.size() && keep > 0 &&
                               cached[keep].component < comp[keep];
  cached.resize(keep + (resume_sideways ? 1 : 0));
  if (cached.empty()) {
    cached.push_back(PathStep<Pos>{0, nav->Root()});
    ++*steps;
  }
  for (;;) {
    PathStep<Pos>& last = cached.back();
    const size_t level = cached.size();  // 1-based depth reached.
    std::optional<Pos> next;
    if (last.component < comp[level - 1]) {
      // Jump to the nearest sampled sibling, then walk right.
      if (level > 1 &&
          nav->JumpToChild(cached[level - 2].pos, comp[level - 1], &last)) {
        ++*steps;
        continue;
      }
      ++*steps;
      NOK_ASSIGN_OR_RETURN(next, nav->FollowingSibling(last.pos));
      if (next.has_value()) {
        last.pos = *next;
        ++last.component;
        continue;
      }
    } else if (level == comp.size()) {
      return last.pos;  // Arrived.
    } else {
      ++*steps;
      NOK_ASSIGN_OR_RETURN(next, nav->FirstChild(last.pos));
      if (next.has_value()) {
        cached.push_back(PathStep<Pos>{0, *next});
        continue;
      }
    }
    return Status::Corruption("index references missing node " +
                              dewey.ToString());
  }
}

}  // namespace nok

#endif  // NOKXML_NOK_DEWEY_WALK_H_
