#include "streaming/stream_matcher.h"

#include <algorithm>

#include "common/logging.h"
#include "nok/logical_matcher.h"
#include "nok/nok_partition.h"
#include "nok/tree_cursor.h"
#include "nok/xpath_parser.h"
#include "xml/escape.h"

namespace nok {

namespace {

// ---------------------------------------------------------------------------
// Buffered subtree + cursor.

/// One buffered subtree node.
struct BufNode {
  std::string name;
  std::string value;
  int parent = -1;
  std::vector<int> children;
  DeweyId dewey = DeweyId::Root();
};

/// A buffered candidate subtree (node 0 is the subtree root).
struct BufTree {
  std::vector<BufNode> nodes;
};

/// Cursor over a BufTree for the NoK matcher.
class BufferedCursor {
 public:
  using NodeT = int;

  explicit BufferedCursor(const BufTree* tree) : tree_(tree) {}

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    const BufNode& n = tree_->nodes[static_cast<size_t>(node)];
    if (n.children.empty()) return std::optional<NodeT>();
    return std::optional<NodeT>(n.children[0]);
  }

  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    const BufNode& n = tree_->nodes[static_cast<size_t>(node)];
    if (n.parent < 0) return std::optional<NodeT>();
    const auto& siblings =
        tree_->nodes[static_cast<size_t>(n.parent)].children;
    auto it = std::find(siblings.begin(), siblings.end(), node);
    NOK_CHECK(it != siblings.end());
    ++it;
    if (it == siblings.end()) return std::optional<NodeT>();
    return std::optional<NodeT>(*it);
  }

  Result<bool> Matches(const NodeT& node, const PatternNode& pattern) {
    const BufNode& n = tree_->nodes[static_cast<size_t>(node)];
    return MatchesConstraints(
        pattern, /*is_virtual_root=*/false, n.name,
        [&]() -> Result<std::optional<std::string>> {
          if (n.value.empty()) return std::optional<std::string>();
          return std::optional<std::string>(n.value);
        });
  }

 private:
  const BufTree* tree_;
};

/// Designation vector for a standalone subtree: collect only the
/// returning node (plus the root, which the matcher's bindings expect).
std::vector<bool> SubtreeDesignated(const NokTree& sub) {
  std::vector<bool> designated(sub.nodes.size(), false);
  designated[0] = true;
  if (sub.returning_node >= 0) {
    designated[static_cast<size_t>(sub.returning_node)] = true;
  }
  return designated;
}

// ---------------------------------------------------------------------------
// Shared stream-walking state: depth + absolute Dewey derivation.

struct DeweyTracker {
  std::vector<uint32_t> next_child{0};
  std::vector<uint32_t> path;

  /// Called on every open; returns the node's absolute Dewey ID.
  DeweyId OnOpen() {
    const size_t depth = path.size() + 1;
    if (next_child.size() <= depth + 1) next_child.resize(depth + 2, 0);
    path.push_back(next_child[depth]++);
    next_child[depth + 1] = 0;
    return DeweyId(std::vector<uint32_t>(path));
  }

  void OnClose() { path.pop_back(); }

  size_t depth() const { return path.size(); }
};

// ---------------------------------------------------------------------------
// Buffer builder shared by both modes.

/// Accumulates one subtree from the stream; the caller feeds events while
/// inside the subtree.
struct BufferBuilder {
  BufTree tree;
  std::vector<int> stack;

  void Open(const std::string& name, DeweyId dewey) {
    const int index = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes[static_cast<size_t>(index)].name = name;
    tree.nodes[static_cast<size_t>(index)].dewey = std::move(dewey);
    if (!stack.empty()) {
      tree.nodes[static_cast<size_t>(index)].parent = stack.back();
      tree.nodes[static_cast<size_t>(stack.back())].children.push_back(
          index);
    }
    stack.push_back(index);
  }

  void Text(const std::string& text) {
    NOK_CHECK(!stack.empty());
    AppendTextChunk(&tree.nodes[static_cast<size_t>(stack.back())].value,
                    text);
  }

  /// Returns true when the subtree is complete.
  bool Close() {
    tree.nodes[static_cast<size_t>(stack.back())].value = TrimWhitespace(
        tree.nodes[static_cast<size_t>(stack.back())].value);
    stack.pop_back();
    return stack.empty();
  }
};

/// Collects the returning matches out of a successful sub-match.
void CollectReturning(const NokTree& sub, const BufTree& buffer,
                      const NokMatcher<BufferedCursor>::MatchLists& lists,
                      std::vector<DeweyId>* out) {
  if (sub.returning_node < 0) return;
  for (int node : lists[static_cast<size_t>(sub.returning_node)]) {
    out->push_back(buffer.nodes[static_cast<size_t>(node)].dewey);
  }
}

/// Name-test check without value constraints (cheap pre-filter).
bool TagTest(const PatternNode& pattern, const std::string& name) {
  return pattern.wildcard || pattern.tag == name;
}

// ---------------------------------------------------------------------------
// Rooted mode.

Result<std::vector<DeweyId>> RunRooted(const NokPartition& partition,
                                       SaxSource* source,
                                       StreamRunStats* stats) {
  const NokTree& tree = partition.trees[0];
  NOK_CHECK(tree.root_is_doc_root);
  if (tree.nodes[0].children.size() != 1) {
    return Status::NotSupported(
        "streaming expects a single step below the document root");
  }
  const int p1 = tree.nodes[0].children[0];
  const NokNode& first = tree.nodes[static_cast<size_t>(p1)];
  if (first.pattern->predicate.active()) {
    return Status::NotSupported(
        "streaming cannot evaluate a value predicate on the document root "
        "(the value is only complete at end of stream)");
  }
  const bool returning_is_root = tree.returning_node == p1;

  // Frontier machinery over first's children (one level of Algorithm 1).
  const size_t n = first.children.size();
  std::vector<NokTree> subs;
  std::vector<char> sub_has_returning(n, 0);
  for (size_t i = 0; i < n; ++i) {
    subs.push_back(ExtractNokSubtree(tree, first.children[i]));
    sub_has_returning[i] = subs[i].returning_node >= 0;
  }
  std::vector<int> indegree(n, 0);
  for (auto [a, b] : first.sibling_order) {
    ++indegree[static_cast<size_t>(b)];
  }
  std::vector<char> active(n, 0), satisfied(n, 0);
  for (size_t i = 0; i < n; ++i) active[i] = indegree[i] == 0;
  size_t remaining = n;
  // A returning child that must precede a sibling keeps only the results
  // a later sibling confirms: results[begin, end) of each such match wait
  // for the end of the stream.
  SiblingConfirmation order(first, sub_has_returning);
  struct Span {
    size_t child;
    uint64_t sibling;
    size_t begin, end;
  };
  std::vector<Span> spans;
  uint64_t sibling = 0;

  std::vector<DeweyId> results;
  DeweyTracker dewey;
  StreamEvent event;
  bool root_matches = false;
  bool buffering = false;
  BufferBuilder buffer;

  for (;;) {
    NOK_RETURN_IF_ERROR(source->Next(&event));
    if (event.kind == StreamEvent::Kind::kEnd) break;
    ++stats->events;
    switch (event.kind) {
      case StreamEvent::Kind::kOpen: {
        DeweyId id = dewey.OnOpen();
        if (dewey.depth() == 1) {
          root_matches = TagTest(*first.pattern, event.name);
        } else if (root_matches) {
          if (!buffering && dewey.depth() == 2) {
            buffering = true;
          }
          if (buffering) {
            buffer.Open(event.name, std::move(id));
          }
        }
        break;
      }
      case StreamEvent::Kind::kText: {
        if (buffering) buffer.Text(event.text);
        break;
      }
      case StreamEvent::Kind::kClose: {
        if (buffering && buffer.Close()) {
          // One second-level subtree is complete: run the frontier step.
          buffering = false;
          ++stats->candidates;
          stats->peak_buffered_nodes = std::max(
              stats->peak_buffered_nodes, buffer.tree.nodes.size());
          BufferedCursor cursor(&buffer.tree);
          std::vector<size_t> newly_active;
          for (size_t i = 0; i < n; ++i) {
            if (!active[i]) continue;
            const bool retain = sub_has_returning[i] != 0 || order.rescan(i);
            if (satisfied[i] && !retain) continue;
            NokMatcher<BufferedCursor> matcher(&subs[i], &cursor,
                                               SubtreeDesignated(subs[i]));
            NokMatcher<BufferedCursor>::MatchLists lists(
                subs[i].nodes.size());
            NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(0, &lists));
            if (!ok) continue;
            const size_t begin = results.size();
            CollectReturning(subs[i], buffer.tree, lists, &results);
            if (order.needed()) {
              order.Matched(i, sibling);
              if (order.deferred(i)) {
                spans.push_back(Span{i, sibling, begin, results.size()});
              }
            }
            if (!satisfied[i]) {
              satisfied[i] = 1;
              --remaining;
              for (auto [a, b] : first.sibling_order) {
                if (static_cast<size_t>(a) == i &&
                    --indegree[static_cast<size_t>(b)] == 0) {
                  newly_active.push_back(static_cast<size_t>(b));
                }
              }
            }
            if (!retain) active[i] = 0;
          }
          for (size_t b : newly_active) active[b] = 1;
          buffer = BufferBuilder{};
          ++sibling;
        }
        dewey.OnClose();
        break;
      }
      case StreamEvent::Kind::kEnd:
        break;
    }
  }

  if (!root_matches || remaining > 0) {
    return std::vector<DeweyId>{};
  }
  std::vector<char> drop(spans.empty() ? 0 : results.size(), 0);
  for (const Span& span : spans) {
    if (order.Confirmed(span.child, span.sibling)) continue;
    std::fill(drop.begin() + static_cast<std::ptrdiff_t>(span.begin),
              drop.begin() + static_cast<std::ptrdiff_t>(span.end), 1);
  }
  EraseMarked(drop, &results);
  if (returning_is_root) {
    results.clear();
    results.push_back(DeweyId::Root());
  }
  std::sort(results.begin(), results.end(),
            [](const DeweyId& a, const DeweyId& b) {
              return a.Compare(b) < 0;
            });
  results.erase(std::unique(results.begin(), results.end()),
                results.end());
  return results;
}

// ---------------------------------------------------------------------------
// Locate mode.

Result<std::vector<DeweyId>> RunLocate(const NokPartition& partition,
                                       SaxSource* source,
                                       StreamRunStats* stats) {
  const NokTree& target = partition.trees[1];
  const PatternNode& root_pattern = *target.nodes[0].pattern;
  const std::vector<bool> designated = SubtreeDesignated(target);

  std::vector<DeweyId> results;
  DeweyTracker dewey;
  StreamEvent event;
  bool buffering = false;
  BufferBuilder buffer;

  for (;;) {
    NOK_RETURN_IF_ERROR(source->Next(&event));
    if (event.kind == StreamEvent::Kind::kEnd) break;
    ++stats->events;
    switch (event.kind) {
      case StreamEvent::Kind::kOpen: {
        DeweyId id = dewey.OnOpen();
        if (!buffering && TagTest(root_pattern, event.name)) {
          buffering = true;
        }
        if (buffering) buffer.Open(event.name, std::move(id));
        break;
      }
      case StreamEvent::Kind::kText:
        if (buffering) buffer.Text(event.text);
        break;
      case StreamEvent::Kind::kClose: {
        if (buffering) {
          if (buffer.Close()) {
            buffering = false;
            stats->peak_buffered_nodes = std::max(
                stats->peak_buffered_nodes, buffer.tree.nodes.size());
            // Match every candidate inside the buffer (including nested
            // occurrences of the target tag).
            BufferedCursor cursor(&buffer.tree);
            for (size_t c = 0; c < buffer.tree.nodes.size(); ++c) {
              if (!TagTest(root_pattern, buffer.tree.nodes[c].name)) {
                continue;
              }
              ++stats->candidates;
              NokMatcher<BufferedCursor> matcher(&target, &cursor,
                                                 designated);
              NokMatcher<BufferedCursor>::MatchLists lists(
                  target.nodes.size());
              NOK_ASSIGN_OR_RETURN(
                  bool ok, matcher.Match(static_cast<int>(c), &lists));
              if (ok) {
                CollectReturning(target, buffer.tree, lists, &results);
              }
            }
            buffer = BufferBuilder{};
          }
        }
        dewey.OnClose();
        break;
      }
      case StreamEvent::Kind::kEnd:
        break;
    }
  }
  std::sort(results.begin(), results.end(),
            [](const DeweyId& a, const DeweyId& b) {
              return a.Compare(b) < 0;
            });
  results.erase(std::unique(results.begin(), results.end()),
                results.end());
  return results;
}

}  // namespace

Result<std::vector<DeweyId>> EvaluateStreaming(const std::string& xpath,
                                               SaxSource* source,
                                               StreamRunStats* stats) {
  StreamRunStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = StreamRunStats{};

  NOK_ASSIGN_OR_RETURN(auto pattern, ParseXPath(xpath));
  if (HasPositionalPredicate(pattern)) {
    return Status::NotSupported(
        "streaming evaluation does not cover positional predicates");
  }
  const NokPartition partition = PartitionPattern(pattern);

  if (partition.trees.size() == 1) {
    return RunRooted(partition, source, stats);
  }
  if (partition.trees.size() == 2 && partition.trees[0].nodes.size() == 1 &&
      partition.trees[0].root_is_doc_root && partition.arcs.size() == 1 &&
      partition.arcs[0].axis == Axis::kDescendant &&
      partition.returning_tree == 1) {
    return RunLocate(partition, source, stats);
  }
  return Status::NotSupported(
      "streaming evaluation covers one NoK pattern tree (rooted, or below "
      "a single leading '//')");
}

Result<std::vector<DeweyId>> EvaluateStreaming(const std::string& xpath,
                                               const std::string& xml,
                                               StreamRunStats* stats) {
  SaxSource source(xml);
  return EvaluateStreaming(xpath, &source, stats);
}

}  // namespace nok
