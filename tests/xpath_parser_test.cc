#include <gtest/gtest.h>

#include "nok/xpath_parser.h"

namespace nok {
namespace {

Result<PatternTree> Parse(const std::string& s) { return ParseXPath(s); }

TEST(XPathParserTest, SimplePath) {
  auto tree = Parse("/a/b/c");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* root = tree->root();
  EXPECT_TRUE(root->is_doc_root);
  ASSERT_EQ(root->children.size(), 1u);
  const PatternNode* a = root->children[0].get();
  EXPECT_EQ(a->tag, "a");
  EXPECT_EQ(a->incoming, Axis::kChild);
  const PatternNode* b = a->children[0].get();
  const PatternNode* c = b->children[0].get();
  EXPECT_TRUE(c->is_returning);
  EXPECT_EQ(tree->returning(), c);
  EXPECT_EQ(tree->size(), 4);
}

TEST(XPathParserTest, DescendantAxes) {
  auto tree = Parse("//b//c");
  ASSERT_TRUE(tree.ok());
  const PatternNode* b = tree->root()->children[0].get();
  EXPECT_EQ(b->incoming, Axis::kDescendant);
  EXPECT_EQ(b->children[0]->incoming, Axis::kDescendant);
}

TEST(XPathParserTest, PredicatesWithValues) {
  auto tree = Parse("/bib/book[author/last=\"Stevens\"][price<100]");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* book = tree->root()->children[0]->children[0].get();
  EXPECT_TRUE(book->is_returning);
  ASSERT_EQ(book->children.size(), 2u);
  const PatternNode* author = book->children[0].get();
  EXPECT_EQ(author->tag, "author");
  ASSERT_EQ(author->children.size(), 1u);
  const PatternNode* last = author->children[0].get();
  EXPECT_EQ(last->predicate.op, ValueOp::kEq);
  EXPECT_EQ(last->predicate.operand, "Stevens");
  const PatternNode* price = book->children[1].get();
  EXPECT_EQ(price->predicate.op, ValueOp::kLt);
  EXPECT_EQ(price->predicate.operand, "100");
}

TEST(XPathParserTest, AllComparisonOperators) {
  struct Case {
    const char* expr;
    ValueOp op;
  };
  const Case cases[] = {
      {"/a[b=\"x\"]", ValueOp::kEq},  {"/a[b!=\"x\"]", ValueOp::kNe},
      {"/a[b<5]", ValueOp::kLt},      {"/a[b<=5]", ValueOp::kLe},
      {"/a[b>5]", ValueOp::kGt},      {"/a[b>=5]", ValueOp::kGe},
  };
  for (const Case& c : cases) {
    auto tree = Parse(c.expr);
    ASSERT_TRUE(tree.ok()) << c.expr;
    const PatternNode* a = tree->root()->children[0].get();
    EXPECT_EQ(a->children[0]->predicate.op, c.op) << c.expr;
  }
}

TEST(XPathParserTest, SelfValuePredicate) {
  auto tree = Parse("/a/b[.=\"hello\"]");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* b = tree->root()->children[0]->children[0].get();
  EXPECT_EQ(b->predicate.op, ValueOp::kEq);
  EXPECT_EQ(b->predicate.operand, "hello");
  EXPECT_TRUE(b->children.empty());
}

TEST(XPathParserTest, AttributesAndWildcards) {
  auto tree = Parse("/a/*[@year=\"1994\"]");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* star = tree->root()->children[0]->children[0].get();
  EXPECT_TRUE(star->wildcard);
  const PatternNode* attr = star->children[0].get();
  EXPECT_EQ(attr->tag, "@year");
  EXPECT_EQ(attr->predicate.operand, "1994");
}

TEST(XPathParserTest, ExplicitAxisSpecifiers) {
  auto tree = Parse("/a/child::b/descendant::c/following::d");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  const PatternNode* b = a->children[0].get();
  EXPECT_EQ(b->incoming, Axis::kChild);
  const PatternNode* c = b->children[0].get();
  EXPECT_EQ(c->incoming, Axis::kDescendant);
  const PatternNode* d = c->children[0].get();
  EXPECT_EQ(d->incoming, Axis::kFollowing);
  EXPECT_TRUE(d->is_returning);
}

TEST(XPathParserTest, FollowingSiblingBecomesOrderConstraint) {
  auto tree = Parse("/a/b/following-sibling::c");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  ASSERT_EQ(a->children.size(), 2u);
  EXPECT_EQ(a->children[0]->tag, "b");
  EXPECT_EQ(a->children[1]->tag, "c");
  ASSERT_EQ(a->sibling_order.size(), 1u);
  EXPECT_EQ(a->sibling_order[0], std::make_pair(0, 1));
  EXPECT_TRUE(a->children[1]->is_returning);
}

TEST(XPathParserTest, NestedPredicatePaths) {
  auto tree = Parse("/a[b/c/d=\"x\"][e//f]/g");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  ASSERT_EQ(a->children.size(), 3u);
  EXPECT_EQ(a->children[0]->tag, "b");
  EXPECT_EQ(a->children[0]->children[0]->children[0]->predicate.operand,
            "x");
  EXPECT_EQ(a->children[1]->children[0]->incoming, Axis::kDescendant);
  EXPECT_EQ(a->children[2]->tag, "g");
  EXPECT_TRUE(a->children[2]->is_returning);
}

TEST(XPathParserTest, DotSlashPredicates) {
  auto tree = Parse("/a[.//b]");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  EXPECT_EQ(a->children[0]->incoming, Axis::kDescendant);
}

TEST(XPathParserTest, WhitespaceTolerated) {
  auto tree = Parse("  /a / b [ c = \"x y\" ] ");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* b = tree->root()->children[0]->children[0].get();
  EXPECT_EQ(b->children[0]->predicate.operand, "x y");
}

class ParserErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserErrors, RejectedWithCleanStatus) {
  auto tree = Parse(GetParam());
  ASSERT_FALSE(tree.ok()) << GetParam();
  // Malformed input must surface as a typed Status (parse error, or
  // not-supported for recognized-but-unimplemented syntax) with a
  // message — never a crash, a success, or a bare untyped error.
  EXPECT_TRUE(tree.status().IsParseError() ||
              tree.status().IsNotSupported())
      << GetParam() << ": " << tree.status().ToString();
  EXPECT_FALSE(tree.status().message().empty()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrors,
    ::testing::Values("", "a/b", "/", "//", "/a[", "/a[b", "/a[b=]",
                      "/a[b=\"x]", "/a]", "/a/b[=\"x\"]", "/a trailing",
                      "/a[b=\"x\"][b=\"y\"]extra", "/a[.]",
                      // Unterminated predicates.
                      "/a[b=\"x\"", "/a[b<", "/a[b][c",
                      // Empty steps and paths.
                      "/a//", "/a/", "//[b]", "/a/[b]",
                      // Bad or unsupported axis names.
                      "/a/ancestor::b", "/a/self::b", "/a/bogus::b",
                      "/a/::b",
                      // Stray brackets.
                      "]", "/a[]", "/a[b]]", "/a]b"));

TEST(AxisStatsTest, CountsAxes) {
  auto stats = CollectAxisStats("/a/b[c//d]/following::e");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->child_steps, 3);       // a, b, c.
  EXPECT_EQ(stats->descendant_steps, 1);  // d.
  EXPECT_EQ(stats->following_steps, 1);   // e.
  EXPECT_EQ(stats->total_structural(), 5);
}

TEST(AxisStatsTest, ValuePredicatesCounted) {
  auto stats = CollectAxisStats("/a[b=\"x\"][c<3]");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->value_predicates, 2);
}

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Rewritten axes (Section 2 reduction): parent:: and preceding-sibling::.

namespace nok {
namespace {

TEST(XPathParserTest, PrecedingSiblingReversesOrderConstraint) {
  auto tree = ParseXPath("/a/b/preceding-sibling::c");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  ASSERT_EQ(a->children.size(), 2u);
  EXPECT_EQ(a->children[0]->tag, "b");
  EXPECT_EQ(a->children[1]->tag, "c");
  ASSERT_EQ(a->sibling_order.size(), 1u);
  // c (index 1) must come before b (index 0).
  EXPECT_EQ(a->sibling_order[0], std::make_pair(1, 0));
  EXPECT_TRUE(a->children[1]->is_returning);
}

TEST(XPathParserTest, SiblingAfterRootDescendantInterposesParent) {
  // //x/following-sibling::y  ==  //*[x ⊲ y], returning y.
  auto tree = ParseXPath("//x/following-sibling::y");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* root = tree->root();
  ASSERT_EQ(root->children.size(), 1u);
  const PatternNode* parent = root->children[0].get();
  EXPECT_TRUE(parent->wildcard);
  EXPECT_EQ(parent->incoming, Axis::kDescendant);
  ASSERT_EQ(parent->children.size(), 2u);
  EXPECT_EQ(parent->children[0]->tag, "x");
  EXPECT_EQ(parent->children[0]->incoming, Axis::kChild);
  EXPECT_EQ(parent->children[1]->tag, "y");
  EXPECT_TRUE(parent->children[1]->is_returning);
  ASSERT_EQ(parent->sibling_order.size(), 1u);
  EXPECT_EQ(parent->sibling_order[0], std::make_pair(0, 1));
}

TEST(XPathParserTest, SiblingAfterGlobalStepIsNotSupported) {
  // The sibling's subject parent is a's descendant or a's child (after
  // //), or unrelated to a (after following::/preceding::): no one
  // pattern node stands for it.
  for (const char* query : {"/a/following::b/preceding-sibling::c",
                            "/a/preceding::b/following-sibling::c",
                            "/a//b/following-sibling::c",
                            "/a[.//x/following-sibling::y]",
                            "/a//b[preceding-sibling::c]"}) {
    auto tree = ParseXPath(query);
    ASSERT_FALSE(tree.ok()) << query;
    EXPECT_TRUE(tree.status().IsNotSupported()) << query;
  }
}

TEST(XPathParserTest, ExplicitAxisDirectlyAfterDoubleSlash) {
  // `//` composes with child:: and descendant:: into one descendant
  // step; before any other axis it is NotSupported, never dropped.
  for (const char* query : {"/a//child::b", "/a//descendant::b"}) {
    auto tree = ParseXPath(query);
    ASSERT_TRUE(tree.ok()) << query << ": " << tree.status().ToString();
    const PatternNode* b = tree->root()->children[0]->children[0].get();
    EXPECT_EQ(b->tag, "b") << query;
    EXPECT_EQ(b->incoming, Axis::kDescendant) << query;
  }
  for (const char* query :
       {"/bib/book//following-sibling::author",
        "/b//b//preceding-sibling::c/e", "/a[.//following-sibling::b]",
        "/a//parent::b", "/a//following::b", "/a//preceding::b"}) {
    auto tree = ParseXPath(query);
    ASSERT_FALSE(tree.ok()) << query;
    EXPECT_TRUE(tree.status().IsNotSupported()) << query;
  }
}

TEST(XPathParserTest, ParentAfterChildUnifiesWithPatternParent) {
  // /a/b/parent::a/c  ==  /a[b]/c.
  auto tree = ParseXPath("/a/b/parent::a/c");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  EXPECT_EQ(a->tag, "a");
  ASSERT_EQ(a->children.size(), 2u);
  EXPECT_EQ(a->children[0]->tag, "b");
  EXPECT_EQ(a->children[1]->tag, "c");
  EXPECT_TRUE(a->children[1]->is_returning);
}

TEST(XPathParserTest, ParentWildcardAndConflicts) {
  auto wildcard = ParseXPath("/a/b/parent::*");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_TRUE(wildcard->returning()->tag == "a");

  // Naming a different parent is an unsatisfiable query.
  auto conflict = ParseXPath("/a/b/parent::z");
  EXPECT_TRUE(conflict.status().IsNotSupported());

  // parent:: of a top-level step would name the document root.
  auto above = ParseXPath("/a/parent::x");
  EXPECT_FALSE(above.ok());
}

TEST(XPathParserTest, ParentAfterDescendantBelowAMatchingElement) {
  // x's parent could be p itself: the p//n/x rewrite would miss it.
  for (const char* query : {"/bib//book/parent::bib", "/a//b/parent::*",
                            "/*//b/parent::c", "/a[.//b/parent::a]"}) {
    auto tree = ParseXPath(query);
    ASSERT_FALSE(tree.ok()) << query;
    EXPECT_TRUE(tree.status().IsNotSupported()) << query;
  }
}

TEST(XPathParserTest, ParentAfterDescendantInterposesNode) {
  // /a//b/parent::c/d  ==  /a//c[b]/d.
  auto tree = ParseXPath("/a//b/parent::c/d");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const PatternNode* a = tree->root()->children[0].get();
  ASSERT_EQ(a->children.size(), 1u);
  const PatternNode* c = a->children[0].get();
  EXPECT_EQ(c->tag, "c");
  EXPECT_EQ(c->incoming, Axis::kDescendant);
  ASSERT_EQ(c->children.size(), 2u);
  EXPECT_EQ(c->children[0]->tag, "b");
  EXPECT_EQ(c->children[0]->incoming, Axis::kChild);
  EXPECT_EQ(c->children[1]->tag, "d");
  EXPECT_TRUE(c->children[1]->is_returning);
}

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Value-predicate evaluation semantics (pattern_tree.cc).

namespace nok {
namespace {

ValuePredicate Pred(ValueOp op, const char* operand) {
  ValuePredicate p;
  p.op = op;
  p.operand = operand;
  return p;
}

TEST(ValuePredicateTest, EqualityIsExactString) {
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kEq, "65.95"), "65.95"));
  EXPECT_FALSE(EvalValuePredicate(Pred(ValueOp::kEq, "65.95"), "65.950"));
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kNe, "a"), "b"));
}

TEST(ValuePredicateTest, NumericOrderingWhenBothParse) {
  // "9" < "10" numerically even though "10" < "9" lexicographically.
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kLt, "10"), "9"));
  EXPECT_FALSE(EvalValuePredicate(Pred(ValueOp::kGt, "10"), "9"));
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kLe, "65.95"), "65.95"));
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kGe, "65.95"), "65.95"));
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kLt, "100"), "65.95"));
  EXPECT_FALSE(EvalValuePredicate(Pred(ValueOp::kLt, "-5"), "-2"));
}

TEST(ValuePredicateTest, LexicographicFallback) {
  // Non-numeric operands compare as strings.
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kLt, "banana"), "apple"));
  EXPECT_FALSE(EvalValuePredicate(Pred(ValueOp::kLt, "apple"), "banana"));
  // Mixed numeric/non-numeric also falls back to strings.
  EXPECT_TRUE(EvalValuePredicate(Pred(ValueOp::kLt, "x10"), "10x"));
}

TEST(ValuePredicateTest, InactivePredicateAlwaysTrue) {
  ValuePredicate none;
  EXPECT_FALSE(none.active());
  EXPECT_TRUE(EvalValuePredicate(none, "anything"));
}

}  // namespace
}  // namespace nok
