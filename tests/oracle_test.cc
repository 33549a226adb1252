// Tests for the brute-force oracle itself: hand-computed answers on one
// tiny fixed document, covering every axis and predicate combination the
// supported grammar can produce.  The oracle anchors every differential
// test in the repo, so its own answers are pinned here by hand — no
// engine output is consulted.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tests/oracle.h"
#include "xml/dom.h"

namespace nok {
namespace {

// Dewey map (attributes are children, in attribute-then-element order):
//   r                 0
//     a (id="1")      0.0
//       @id           0.0.0
//       b "x"         0.0.1
//       c "5"         0.0.2
//     b "y"           0.1
//     a               0.2
//       b "x"         0.2.0
//       b "z"         0.2.1
//       d             0.2.2
//         b "deep"    0.2.2.0
//     c "9"           0.3
constexpr const char* kDoc =
    "<r>"
    "<a id=\"1\"><b>x</b><c>5</c></a>"
    "<b>y</b>"
    "<a><b>x</b><b>z</b><d><b>deep</b></d></a>"
    "<c>9</c>"
    "</r>";

class OracleFixedDoc : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tree = DomTree::Parse(kDoc);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).ValueOrDie();
  }

  std::vector<std::string> Eval(const std::string& xpath) {
    auto r = OracleEvaluateDewey(xpath, tree_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status().ToString();
    if (!r.ok()) return {"<error>"};
    std::vector<std::string> out;
    for (const DeweyId& id : *r) out.push_back(id.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

  using V = std::vector<std::string>;
  DomTree tree_;
};

TEST_F(OracleFixedDoc, ChildAxis) {
  EXPECT_EQ(Eval("/r"), (V{"0"}));
  EXPECT_EQ(Eval("/r/a"), (V{"0.0", "0.2"}));
  EXPECT_EQ(Eval("/r/a/b"), (V{"0.0.1", "0.2.0", "0.2.1"}));
  EXPECT_EQ(Eval("/b"), (V{}));  // The root element is r, not b.
  EXPECT_EQ(Eval("/r/d"), (V{}));
}

TEST_F(OracleFixedDoc, DescendantAxis) {
  EXPECT_EQ(Eval("//b"),
            (V{"0.0.1", "0.1", "0.2.0", "0.2.1", "0.2.2.0"}));
  EXPECT_EQ(Eval("/r//b"),
            (V{"0.0.1", "0.1", "0.2.0", "0.2.1", "0.2.2.0"}));
  EXPECT_EQ(Eval("//d//b"), (V{"0.2.2.0"}));
  EXPECT_EQ(Eval("//d/b"), (V{"0.2.2.0"}));
  EXPECT_EQ(Eval("//a//b"),
            (V{"0.0.1", "0.2.0", "0.2.1", "0.2.2.0"}));
}

TEST_F(OracleFixedDoc, Wildcard) {
  EXPECT_EQ(Eval("/r/*"), (V{"0.0", "0.1", "0.2", "0.3"}));
  // Nodes with a c child: r (0.3) and the first a (0.0.2).
  EXPECT_EQ(Eval("//*[c]"), (V{"0", "0.0"}));
}

TEST_F(OracleFixedDoc, StructuralBranches) {
  EXPECT_EQ(Eval("//a[c]"), (V{"0.0"}));
  EXPECT_EQ(Eval("//a[d]"), (V{"0.2"}));
  EXPECT_EQ(Eval("//a[b][c]"), (V{"0.0"}));
  EXPECT_EQ(Eval("//a[d/b]"), (V{"0.2"}));
  EXPECT_EQ(Eval("//a[x]"), (V{}));
}

TEST_F(OracleFixedDoc, ValuePredicates) {
  EXPECT_EQ(Eval("//a[b=\"x\"]"), (V{"0.0", "0.2"}));
  EXPECT_EQ(Eval("//a[b=\"z\"]"), (V{"0.2"}));
  EXPECT_EQ(Eval("//b[.=\"y\"]"), (V{"0.1"}));
  EXPECT_EQ(Eval("//b[.!=\"x\"]"), (V{"0.1", "0.2.1", "0.2.2.0"}));
  // Numeric comparison: c values are 5 (0.0.2) and 9 (0.3).
  EXPECT_EQ(Eval("//c[.<7]"), (V{"0.0.2"}));
  EXPECT_EQ(Eval("//c[.>=5]"), (V{"0.0.2", "0.3"}));
  EXPECT_EQ(Eval("//c[.>9]"), (V{}));
  EXPECT_EQ(Eval("//c[.<=9]"), (V{"0.0.2", "0.3"}));
  // Elements without direct text never satisfy a value predicate.
  EXPECT_EQ(Eval("//a[.=\"x\"]"), (V{}));
}

TEST_F(OracleFixedDoc, AttributePredicates) {
  EXPECT_EQ(Eval("//a[@id=\"1\"]"), (V{"0.0"}));
  EXPECT_EQ(Eval("//a[@id]"), (V{"0.0"}));
  EXPECT_EQ(Eval("//a[@id=\"2\"]"), (V{}));
  // Attribute nodes are addressable children (first among siblings).
  EXPECT_EQ(Eval("//a/@id"), (V{"0.0.0"}));
}

TEST_F(OracleFixedDoc, PositionalPredicates) {
  EXPECT_EQ(Eval("/r/a[1]"), (V{"0.0"}));
  EXPECT_EQ(Eval("/r/a[2]"), (V{"0.2"}));
  EXPECT_EQ(Eval("/r/a[3]"), (V{}));
  // Position counts only like-named siblings...
  EXPECT_EQ(Eval("//b[1]"), (V{"0.0.1", "0.1", "0.2.0", "0.2.2.0"}));
  EXPECT_EQ(Eval("//b[2]"), (V{"0.2.1"}));
  // ...while the wildcard counts every sibling (attributes included:
  // a's children are @id, b, c, so *[2] is its b).
  EXPECT_EQ(Eval("/r/*[2]"), (V{"0.1"}));
  EXPECT_EQ(Eval("/r/a/*[2]"), (V{"0.0.1", "0.2.1"}));
  // The root element is position 1.
  EXPECT_EQ(Eval("/r[1]"), (V{"0"}));
  EXPECT_EQ(Eval("/r[2]"), (V{}));
  // Positional composes with value and structural predicates.
  EXPECT_EQ(Eval("//a[b=\"x\"][2]"), (V{"0.2"}));
  EXPECT_EQ(Eval("//a[2][d]"), (V{"0.2"}));
}

TEST_F(OracleFixedDoc, SiblingOrderArcs) {
  // b before a later d sibling: only the two b's under the second a.
  EXPECT_EQ(Eval("/r/a/b[following-sibling::d]"), (V{"0.2.0", "0.2.1"}));
  // b with an earlier a sibling: r's own b child.
  EXPECT_EQ(Eval("/r/b[preceding-sibling::a]"), (V{"0.1"}));
  EXPECT_EQ(Eval("/r/a/d[following-sibling::b]"), (V{}));
  // Chained order arcs on one sibling group.
  EXPECT_EQ(Eval("//a[b/following-sibling::d]"), (V{"0.2"}));
  // Below the document root a // context's sibling step interposes the
  // subject parent (//*[b ⊲ d]), so these are XPath's answers.
  EXPECT_EQ(Eval("//b[following-sibling::d]"), (V{"0.2.0", "0.2.1"}));
  EXPECT_EQ(Eval("//d/preceding-sibling::b"), (V{"0.2.0", "0.2.1"}));
}

TEST_F(OracleFixedDoc, FollowingPrecedingAxes) {
  // c nodes with a b anywhere after them: only the c inside the first a.
  EXPECT_EQ(Eval("//c[following::b]"), (V{"0.0.2"}));
  // b nodes entirely after some c (the c inside the first a).
  EXPECT_EQ(Eval("//b[preceding::c]"),
            (V{"0.1", "0.2.0", "0.2.1", "0.2.2.0"}));
  // An ancestor does not precede its descendants.
  EXPECT_EQ(Eval("//b[preceding::r]"), (V{}));
  EXPECT_EQ(Eval("//b[following::r]"), (V{}));
}

TEST_F(OracleFixedDoc, ParentAxisRewrite) {
  EXPECT_EQ(Eval("//b/parent::a"), (V{"0.0", "0.2"}));
  EXPECT_EQ(Eval("//b/parent::d"), (V{"0.2.2"}));
  EXPECT_EQ(Eval("//c/parent::r"), (V{"0"}));
}

TEST_F(OracleFixedDoc, ReturningNodeMidPattern) {
  // The returning node is the last trunk step even with deep branches.
  EXPECT_EQ(Eval("//a[d/b]/b"), (V{"0.2.0", "0.2.1"}));
  EXPECT_EQ(Eval("//a/b[.=\"x\"]"), (V{"0.0.1", "0.2.0"}));
}

}  // namespace
}  // namespace nok
