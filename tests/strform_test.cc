#include <gtest/gtest.h>

#include "strform/parser.h"
#include "strform/string_formula.h"

namespace strdb {
namespace {

// Helper: parse-or-die.
StringFormula P(const std::string& text) {
  Result<StringFormula> r = ParseStringFormula(text);
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return *r;
}

bool Holds(const StringFormula& f, const std::vector<std::string>& vars,
           const std::vector<std::string>& strings) {
  Result<bool> r = f.AcceptsStrings(vars, strings);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() && *r;
}

// The paper's x =s y: ([x,y]l x=y)* . [x,y]l(x=y=ε)  (Example 2).
const char kEquality[] =
    "([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)";

TEST(ParserTest, ParsesAtomic) {
  Result<StringFormula> r = ParseStringFormula("[x,z]r(z = 'a' | y = 'b')");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kind(), StringFormula::Kind::kAtomic);
  EXPECT_EQ(r->atom().dir, Dir::kRight);
  EXPECT_EQ(r->atom().transposed, (std::vector<std::string>{"x", "z"}));
}

TEST(ParserTest, ParsesEmptyTranspose) {
  Result<StringFormula> r = ParseStringFormula("[]l(x = ~)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->atom().transposed.empty());
}

TEST(ParserTest, PrecedenceStarBeforeConcatBeforeUnion) {
  StringFormula f = P("[x]l(true)* . [x]l(x = ~) + lambda");
  EXPECT_EQ(f.kind(), StringFormula::Kind::kUnion);
  EXPECT_EQ(f.Left().kind(), StringFormula::Kind::kConcat);
  EXPECT_EQ(f.Left().Left().kind(), StringFormula::Kind::kStar);
}

TEST(ParserTest, JuxtapositionIsConcatenation) {
  StringFormula f = P("[x]l(x = 'a') [x]l(x = 'b')");
  EXPECT_EQ(f.kind(), StringFormula::Kind::kConcat);
}

TEST(ParserTest, PowerSugar) {
  StringFormula f = P("[x]l(true)^3");
  // φ^3 = ((λ.φ).φ).φ — three atomic occurrences.
  EXPECT_EQ(f.WordsUpTo(5).size(), 1u);
  EXPECT_EQ(f.WordsUpTo(5)[0].size(), 3u);
}

TEST(ParserTest, ChainedEqualityInWindow) {
  StringFormula f = P("[x,y,z]l(x = y = z = ~)");
  std::set<std::string> vars = f.atom().window.Vars();
  EXPECT_EQ(vars.size(), 3u);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseStringFormula("[x]q(true)").ok());
  EXPECT_FALSE(ParseStringFormula("[x]l(x =)").ok());
  EXPECT_FALSE(ParseStringFormula("[x]l(true) extra").ok());
  EXPECT_FALSE(ParseStringFormula("").ok());
}

// A transpose names each tape once.  [x,x]l(x = x = ~) used to parse,
// and over U = {("a")} at l = 1 the window semantics accepted ("a")
// while the Thm 3.1 automaton rejected it.
TEST(ParserTest, RejectsAVariableTransposedTwice) {
  for (const char* text :
       {"[x,x]l(x = x = ~)", "[x,y,x]r(true)", "[y]l(true) . [x,y,y]l(y = ~)"}) {
    Result<StringFormula> r = ParseStringFormula(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(r.status().message().find("appears twice in transpose"),
              std::string::npos)
        << r.status();
  }
  Result<StringFormula> r = ParseStringFormula("[x,y,x]r(true)");
  EXPECT_NE(r.status().message().find("'x'"), std::string::npos)
      << r.status();
  EXPECT_TRUE(ParseStringFormula("[x,y]l(x = y = ~) . [x]l(x = ~)").ok());
}

TEST(ParserTest, PrintParseRoundTrip) {
  for (const char* text :
       {kEquality, "[x,z]r(z = 'a' | y = 'b') . [x]l(x = 'c' & y = 'b')",
        "([u]l(u = 'b') . [u]l(u = 'a'))*",
        "lambda + [x]l(!(x = y))"}) {
    StringFormula once = P(text);
    StringFormula twice = P(once.ToString());
    EXPECT_EQ(once.ToString(), twice.ToString()) << text;
  }
}

TEST(StringFormulaTest, DirectionClassification) {
  StringFormula uni = P(kEquality);
  EXPECT_TRUE(uni.IsUnidirectional());
  EXPECT_TRUE(uni.IsRightRestricted());
  // Example 4 (manifold) transposes y right: y is bidirectional.
  StringFormula man =
      P("([x,y]l(x = y))* . ([y]l(y = ~)) . ([y]r(!(y = ~)))* . ([y]r(y = ~))");
  EXPECT_FALSE(man.IsUnidirectional());
  EXPECT_TRUE(man.IsRightRestricted());
  EXPECT_EQ(man.BidirectionalVars(), (std::set<std::string>{"y"}));
}

TEST(StringFormulaTest, VarsSorted) {
  StringFormula f = P("[z]l(true) . [a]l(a = z)");
  EXPECT_EQ(f.Vars(), (std::vector<std::string>{"a", "z"}));
}

// --- direct semantics (truth definition 9) --------------------------------

TEST(SemanticsTest, LambdaHoldsEverywhere) {
  StringFormula f = StringFormula::Lambda();
  EXPECT_TRUE(Holds(f, {"x"}, {"abc"}));
  EXPECT_TRUE(Holds(f, {"x"}, {""}));
}

TEST(SemanticsTest, EqualityFormula) {
  StringFormula eq = P(kEquality);
  EXPECT_TRUE(Holds(eq, {"x", "y"}, {"abab", "abab"}));
  EXPECT_TRUE(Holds(eq, {"x", "y"}, {"", ""}));
  EXPECT_FALSE(Holds(eq, {"x", "y"}, {"ab", "ba"}));
  EXPECT_FALSE(Holds(eq, {"x", "y"}, {"ab", "aba"}));
  EXPECT_FALSE(Holds(eq, {"x", "y"}, {"aba", "ab"}));
}

TEST(SemanticsTest, PrefixViaUnterminatedEquality) {
  // Without the final ε-check the star only verifies a common prefix: it
  // holds for any pair (can stop after 0 iterations).
  StringFormula f = P("([x,y]l(x = y))*");
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"ab", "ba"}));
}

TEST(SemanticsTest, Example1FirstComponentIsAbc) {
  // From query example 1: y spells a, b, c and is exhausted.
  StringFormula f = P(
      "[y]l(y = 'a') . [y]l(y = 'b') . [y]l(y = 'c') . [y]l(y = ~)");
  EXPECT_TRUE(Holds(f, {"y"}, {"abc"}));
  EXPECT_FALSE(Holds(f, {"y"}, {"abcd"}));
  EXPECT_FALSE(Holds(f, {"y"}, {"ab"}));
  EXPECT_FALSE(Holds(f, {"y"}, {"abd"}));
}

// Example 4: x is a manifold of y (x = y^m for some m >= 0; the paper's
// formula allows m = 0 exactly when x = ε... here we check the paper's
// exact formula).
const char kManifold[] =
    "(([x,y]l(x = y))* . [y]l(y = ~) . ([y]r(!(y = ~)))* . [y]r(y = ~))* "
    ". ([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)";

TEST(SemanticsTest, Example4Manifold) {
  StringFormula f = P(kManifold);
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"abab", "ab"}));
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"ababab", "ab"}));
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"ab", "ab"}));
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"", ""}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"aba", "ab"}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"abba", "ab"}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"ab", "abab"}));
}

// Example 5: x is a shuffle of y and z.
const char kShuffle[] =
    "(([x,y]l(x = y)) + ([x,z]l(x = z)))* . [x,y,z]l(x = ~ & y = ~ & z = ~)";

TEST(SemanticsTest, Example5Shuffle) {
  StringFormula f = P(kShuffle);
  EXPECT_TRUE(Holds(f, {"x", "y", "z"}, {"aabb", "ab", "ab"}));
  EXPECT_TRUE(Holds(f, {"x", "y", "z"}, {"abab", "aa", "bb"}));
  EXPECT_TRUE(Holds(f, {"x", "y", "z"}, {"ab", "ab", ""}));
  EXPECT_FALSE(Holds(f, {"x", "y", "z"}, {"abb", "ab", "ab"}));
  EXPECT_FALSE(Holds(f, {"x", "y", "z"}, {"ba", "a", "a"}));
}

// Example 11: x ∈ {a^n b^n c^n} with a bidirectional counter string y.
// (Σ = {a,b,c} here.)
const char kAnBnCn[] =
    "([x,y]l(x = 'a' & !(y = ~)))* . [y]l(y = ~) . "
    "([x]l(true) . [y]r(x = 'b' & !(y = ~)))* . [y]r(y = ~) . "
    "([x,y]l(x = 'c' & !(y = ~)))* . [x,y]l(x = ~ & y = ~)";

TEST(SemanticsTest, Example11AnBnCnWithCounter) {
  StringFormula f = P(kAnBnCn);
  // y must be a counter of length n; use a^n as the witness.
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"abc", "a"}));
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"aabbcc", "aa"}));
  EXPECT_TRUE(Holds(f, {"x", "y"}, {"", ""}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"aabbc", "aa"}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"abc", "aa"}));
  EXPECT_FALSE(Holds(f, {"x", "y"}, {"acb", "a"}));
}

TEST(SemanticsTest, NonInitialAlignmentsSupported) {
  // Definition 9 is stated for arbitrary alignments: start mid-string.
  StringFormula f = P("[x]l(x = 'c') . [x]l(x = ~)");
  Alignment a;
  ASSERT_TRUE(a.SetRow(0, "abc", 2).ok());  // window on 'b', next is 'c'
  Assignment theta;
  ASSERT_TRUE(theta.Bind("x", 0).ok());
  Result<bool> r = f.Satisfies(a, theta);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(SemanticsTest, UnboundVariableFails) {
  StringFormula f = P("[x]l(true)");
  Alignment a0 = Alignment::Initial({"a"});
  Assignment theta;  // x unbound
  EXPECT_FALSE(f.Satisfies(a0, theta).ok());
}

// --- word enumeration ------------------------------------------------------

TEST(WordsTest, UnionEnumeratesBoth) {
  StringFormula f = P("[x]l(x = 'a') + [x]l(x = 'b')");
  EXPECT_EQ(f.WordsUpTo(3).size(), 2u);
}

TEST(WordsTest, StarEnumeratesByLength) {
  StringFormula f = P("([x]l(true))*");
  // λ, φ, φφ, φφφ.
  EXPECT_EQ(f.WordsUpTo(3).size(), 4u);
}

TEST(WordsTest, FigureSixStyleLanguage) {
  // L(φ) from the paper's worked example after definition 9:
  // [x,z]r(ψ1) . ([x]l(ψ2) + [z]l(ψ3)) has exactly two words.
  StringFormula f = P(
      "[x,z]r(z = 'a' | y = 'b') . "
      "([x]l(x = 'c' & y = 'b') + [z]l(x = 'c'))");
  std::vector<FormulaWord> words = f.WordsUpTo(10);
  EXPECT_EQ(words.size(), 2u);
  for (const FormulaWord& w : words) EXPECT_EQ(w.size(), 2u);
}

TEST(SizeTest, CountsNodes) {
  EXPECT_EQ(P("[x]l(true)").Size(), 1);
  EXPECT_EQ(P("([x]l(true))*").Size(), 2);
  EXPECT_EQ(P("[x]l(true) . [x]l(true) + lambda").Size(), 5);
}

}  // namespace
}  // namespace strdb
