#include "nok/xpath_parser.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace nok {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& input) : input_(input) {}

  Result<PatternTree> Parse() {
    PatternTree tree;
    PatternNode* context = tree.root();
    SkipWs();
    if (Peek() != '/') {
      return Error("a path expression must start with '/' or '//'");
    }
    while (true) {
      SkipWs();
      if (pos_ >= input_.size()) break;
      Axis axis = Axis::kChild;
      NOK_RETURN_IF_ERROR(ParseAxisSeparator(&axis));
      NOK_ASSIGN_OR_RETURN(context, ParseStep(context, axis));
      SkipWs();
      if (pos_ >= input_.size()) break;
      if (Peek() != '/') {
        return Error("unexpected trailing input");
      }
    }
    if (context->is_doc_root) {
      return Error("empty path expression");
    }
    tree.set_returning(context);
    tree.Renumber();
    return tree;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(pos_) + " of \"" + input_ +
                              "\")");
  }

  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeToken(const char* token) {
    SkipWs();
    const size_t len = strlen(token);
    if (input_.compare(pos_, len, token) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// Parses '/' or '//' into an axis.
  Status ParseAxisSeparator(Axis* axis) {
    SkipWs();
    if (Peek() != '/') return Error("expected '/' or '//'");
    ++pos_;
    if (Peek() == '/') {
      ++pos_;
      *axis = Axis::kDescendant;
    } else {
      *axis = Axis::kChild;
    }
    return Status::OK();
  }

  /// Parses a NameTest into *name / *wildcard.
  Status ParseNameTest(std::string* name, bool* wildcard) {
    SkipWs();
    *wildcard = false;
    if (Peek() == '*') {
      ++pos_;
      *wildcard = true;
      name->clear();
      return Status::OK();
    }
    std::string prefix;
    if (Peek() == '@') {
      ++pos_;
      prefix = "@";
    }
    if (pos_ >= input_.size() ||
        !(std::isalpha(static_cast<unsigned char>(Peek())) ||
          Peek() == '_')) {
      return Error("expected a name test");
    }
    const size_t start = pos_;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    *name = prefix + input_.substr(start, pos_ - start);
    return Status::OK();
  }

  /// Parses an optional explicit axis specifier; *axis is updated when
  /// one is present.  *is_parent / *is_preceding_sibling flag the two
  /// axes handled by rewriting (Section 2 of the paper reduces every
  /// XPath axis to {self, child, descendant, following}).
  Status ParseAxisSpec(Axis* axis, bool* is_parent,
                       bool* is_preceding_sibling) {
    *is_parent = false;
    *is_preceding_sibling = false;
    if (ConsumeToken("child::")) {
      *axis = Axis::kChild;
    } else if (ConsumeToken("descendant::")) {
      *axis = Axis::kDescendant;
    } else if (ConsumeToken("following-sibling::")) {
      *axis = Axis::kFollowingSibling;
    } else if (ConsumeToken("following::")) {
      *axis = Axis::kFollowing;
    } else if (ConsumeToken("preceding::")) {
      *axis = Axis::kPreceding;
    } else if (ConsumeToken("preceding-sibling::")) {
      *is_preceding_sibling = true;
    } else if (ConsumeToken("parent::")) {
      *is_parent = true;
    }
    return Status::OK();
  }

  /// parent::name rewrite: the context's parent in the pattern tree must
  /// satisfy the name test.  Two cases (both from the Section 2 axis
  /// reduction):
  ///   * context came via a child edge — its pattern parent IS the
  ///     subject parent: unify the name test with that node and continue
  ///     from it;
  ///   * context came via a descendant edge — interpose the named node:
  ///     p//x becomes p//name/x, continuing from the new node.
  Result<PatternNode*> RewriteParentStep(PatternNode* context,
                                         const std::string& name,
                                         bool wildcard) {
    PatternNode* parent = context->parent;
    if (parent == nullptr) {
      return Error("parent:: step above the document root");
    }
    switch (context->incoming) {
      case Axis::kChild:
      case Axis::kFollowingSibling: {
        if (wildcard) return parent;
        if (parent->is_doc_root) {
          return Error("parent:: step names the document root");
        }
        if (parent->wildcard) {
          parent->wildcard = false;
          parent->tag = name;
          return parent;
        }
        if (parent->tag != name) {
          return Status::NotSupported(
              "parent:: name test contradicts the pattern parent (" +
              parent->tag + " vs " + name + "): the query is empty");
        }
        return parent;
      }
      case Axis::kDescendant: {
        // p//x  ->  p//name/x.
        auto inserted = std::make_unique<PatternNode>();
        inserted->tag = name;
        inserted->wildcard = wildcard;
        inserted->incoming = Axis::kDescendant;
        inserted->parent = parent;
        PatternNode* raw = inserted.get();
        // Move `context` under the new node.
        for (auto& child : parent->children) {
          if (child.get() == context) {
            context->incoming = Axis::kChild;
            context->parent = raw;
            raw->children.push_back(std::move(child));
            child = std::move(inserted);
            return raw;
          }
        }
        return Status::Internal("context not found under its parent");
      }
      case Axis::kFollowing:
      case Axis::kPreceding:
        return Status::NotSupported(
            "parent:: after a following::/preceding:: step is not in the "
            "supported rewrite fragment");
    }
    return Status::Internal("unreachable axis");
  }

  /// Parses a comparison operator; kNone if none present.
  ValueOp ParseCmpOp() {
    SkipWs();
    if (ConsumeToken("!=")) return ValueOp::kNe;
    if (ConsumeToken("<=")) return ValueOp::kLe;
    if (ConsumeToken(">=")) return ValueOp::kGe;
    if (ConsumeToken("=")) return ValueOp::kEq;
    if (ConsumeToken("<")) return ValueOp::kLt;
    if (ConsumeToken(">")) return ValueOp::kGt;
    return ValueOp::kNone;
  }

  /// Parses a quoted string or number literal.
  Status ParseLiteral(std::string* literal) {
    SkipWs();
    const char quote = Peek();
    if (quote == '"' || quote == '\'') {
      ++pos_;
      const size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != quote) ++pos_;
      if (pos_ >= input_.size()) return Error("unterminated literal");
      *literal = input_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    // Number.
    const size_t start = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    bool digits = false;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(Peek())) ||
            Peek() == '.')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(Peek()));
      ++pos_;
    }
    if (!digits) return Error("expected a literal");
    *literal = input_.substr(start, pos_ - start);
    return Status::OK();
  }

  /// Creates a step node for (axis, nametest) relative to context and
  /// returns it.  A following-sibling step attaches to context's parent
  /// with an order constraint; other axes attach below context.
  Result<PatternNode*> AttachStep(PatternNode* context, Axis axis,
                                  std::string name, bool wildcard) {
    auto node = std::make_unique<PatternNode>();
    node->tag = std::move(name);
    node->wildcard = wildcard;
    PatternNode* raw = node.get();
    if (axis == Axis::kFollowingSibling) {
      PatternNode* parent = context->parent;
      if (parent == nullptr || context->is_doc_root) {
        return Error("following-sibling:: has no sibling context");
      }
      // The sibling hangs under the context's subject parent.  Below the
      // document root, //x/following-sibling::y is //*[x ⊲ y] exactly (an
      // x with a sibling is never the root element), so x's parent is
      // interposed as with parent::*.  Under any other `//` or a
      // following/preceding edge the subject parent is no pattern node.
      if (context->incoming == Axis::kDescendant && parent->is_doc_root) {
        NOK_ASSIGN_OR_RETURN(parent, RewriteParentStep(context, "", true));
      } else if (context->incoming != Axis::kChild &&
                 context->incoming != Axis::kFollowingSibling) {
        return Status::NotSupported(
            "sibling step after a //, following:: or preceding:: step "
            "below an element: the pattern-tree rewrite cannot express "
            "its subject parent");
      }
      // Locate context among parent's children.
      int context_index = -1;
      for (size_t i = 0; i < parent->children.size(); ++i) {
        if (parent->children[i].get() == context) {
          context_index = static_cast<int>(i);
          break;
        }
      }
      NOK_CHECK(context_index >= 0);
      node->incoming = Axis::kChild;  // Tree edge; order adds the ⊲ arc.
      node->parent = parent;
      parent->children.push_back(std::move(node));
      parent->sibling_order.emplace_back(
          context_index, static_cast<int>(parent->children.size() - 1));
    } else {
      node->incoming = axis;
      node->parent = context;
      context->children.push_back(std::move(node));
    }
    return raw;
  }

  /// Parses one step (with optional axis spec and predicates).
  Result<PatternNode*> ParseStep(PatternNode* context, Axis axis) {
    bool is_parent = false, is_preceding_sibling = false;
    NOK_RETURN_IF_ERROR(
        ParseAxisSpec(&axis, &is_parent, &is_preceding_sibling));
    std::string name;
    bool wildcard = false;
    NOK_RETURN_IF_ERROR(ParseNameTest(&name, &wildcard));
    PatternNode* node = nullptr;
    if (is_parent) {
      NOK_ASSIGN_OR_RETURN(node, RewriteParentStep(context, name,
                                                   wildcard));
    } else if (is_preceding_sibling) {
      // Mirror of following-sibling: attach to the parent with the order
      // constraint reversed (new node strictly before the context).
      NOK_ASSIGN_OR_RETURN(node, AttachStep(context,
                                            Axis::kFollowingSibling,
                                            std::move(name), wildcard));
      PatternNode* parent = node->parent;
      NOK_CHECK(!parent->sibling_order.empty());
      auto& last = parent->sibling_order.back();
      std::swap(last.first, last.second);
    } else {
      NOK_ASSIGN_OR_RETURN(node, AttachStep(context, axis,
                                            std::move(name), wildcard));
    }
    SkipWs();
    while (Peek() == '[') {
      ++pos_;
      NOK_RETURN_IF_ERROR(ParsePredicate(node));
      SkipWs();
      if (Peek() != ']') return Error("expected ']'");
      ++pos_;
      SkipWs();
    }
    return node;
  }

  /// Parses the inside of one predicate applied to node.
  Status ParsePredicate(PatternNode* node) {
    SkipWs();
    if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      // Positional predicate [n]: the context node must be the n-th
      // sibling passing this step's name test.
      const size_t start = pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
      SkipWs();
      if (Peek() != ']') {
        return Error("expected ']' after a positional predicate");
      }
      char* end = nullptr;
      const std::string digits = input_.substr(start, pos_ - start);
      const long n = strtol(digits.c_str(), &end, 10);
      if (end != digits.c_str() + digits.size() || n < 1 ||
          n > 1 << 20) {
        return Error("positional predicate out of range");
      }
      if (node->position > 0) {
        return Status::NotSupported(
            "multiple positional predicates on one step");
      }
      node->position = static_cast<int>(n);
      return Status::OK();
    }
    if (Peek() == '.') {
      // Either a self value test [. = lit] or a relative path [.//a].
      const size_t dot = pos_;
      ++pos_;
      SkipWs();
      if (Peek() != '/') {
        const ValueOp op = ParseCmpOp();
        if (op == ValueOp::kNone) {
          return Error("expected a comparison after '.'");
        }
        if (node->predicate.active()) {
          return Status::NotSupported(
              "multiple value predicates on one step");
        }
        node->predicate.op = op;
        return ParseLiteral(&node->predicate.operand);
      }
      pos_ = dot + 1;  // Re-parse from the '/' of './/a' or './a'.
    }
    // Relative path predicate.
    PatternNode* context = node;
    for (;;) {
      Axis axis = Axis::kChild;
      SkipWs();
      if (Peek() == '/') {
        NOK_RETURN_IF_ERROR(ParseAxisSeparator(&axis));
      }
      NOK_ASSIGN_OR_RETURN(context, ParseStep(context, axis));
      SkipWs();
      if (Peek() == '/') continue;
      break;
    }
    const ValueOp op = ParseCmpOp();
    if (op != ValueOp::kNone) {
      if (context->predicate.active()) {
        return Status::NotSupported(
            "multiple value predicates on one step");
      }
      context->predicate.op = op;
      NOK_RETURN_IF_ERROR(ParseLiteral(&context->predicate.operand));
    }
    return Status::OK();
  }

  const std::string& input_;
  size_t pos_ = 0;
};

void CountAxes(const PatternNode* node, AxisStats* stats) {
  for (const auto& child : node->children) {
    switch (child->incoming) {
      case Axis::kChild:
        ++stats->child_steps;
        break;
      case Axis::kDescendant:
        ++stats->descendant_steps;
        break;
      case Axis::kFollowing:
      case Axis::kPreceding:
        ++stats->following_steps;
        break;
      case Axis::kFollowingSibling:
        ++stats->following_sibling_steps;
        break;
    }
    if (child->predicate.active()) ++stats->value_predicates;
    CountAxes(child.get(), stats);
  }
  stats->following_sibling_steps +=
      static_cast<int>(node->sibling_order.size());
}

}  // namespace

Result<PatternTree> ParseXPath(const std::string& expression) {
  Parser parser(expression);
  return parser.Parse();
}

Result<AxisStats> CollectAxisStats(const std::string& expression) {
  NOK_ASSIGN_OR_RETURN(auto tree, ParseXPath(expression));
  AxisStats stats;
  CountAxes(tree.root(), &stats);
  return stats;
}

}  // namespace nok
