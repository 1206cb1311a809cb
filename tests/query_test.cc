#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "calculus/query.h"
#include "core/metrics.h"

namespace strdb {
namespace {

Database MakeDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.Put("R1", 1, {{"ab"}, {"ba"}}).ok());
  EXPECT_TRUE(db.Put("R3", 1, {{"a"}, {"bb"}}).ok());
  EXPECT_TRUE(db.Put("Pairs", 2, {{"ab", "ab"}, {"ab", "ba"}}).ok());
  return db;
}

// The paper's §4 running query, end to end with *inferred* safety.
TEST(QueryTest, ConcatenationEndToEnd) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->outputs(), (std::vector<std::string>{"x"}));

  // W(db) = max(R1) + max(R3)-ish: the inferred bound must cover the
  // longest concatenation (4) without needing the 4096 cap.
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_GE(*w, 4);

  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->tuples(),
            (std::set<Tuple>{{"aba"}, {"abbb"}, {"baa"}, {"babb"}}));
}

TEST(QueryTest, HeadlessQueryUsesAscendingFreeVars) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("Pairs(x,y)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->outputs(), (std::vector<std::string>{"x", "y"}));
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->size(), 2);
}

TEST(QueryTest, HeadReordersColumns) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("y, x | Pairs(x,y)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->Contains({"ba", "ab"}));  // (y, x) order
}

TEST(QueryTest, HeadValidation) {
  Database db = MakeDb();
  EXPECT_FALSE(Query::Parse("x | Pairs(x,y)", db.alphabet()).ok());
  EXPECT_FALSE(Query::Parse("x, z | Pairs(x,y)", db.alphabet()).ok());
  EXPECT_FALSE(Query::Parse("x, x | Pairs(x,x)", db.alphabet()).ok());
}

// §5's pair of manifold queries: safety inferred, not assumed.
TEST(QueryTest, ManifoldSafeDirectionExecutes) {
  Database db = MakeDb();
  const char* manifold =
      "(([x,y]l(x = y))* . [y]l(y = ~) . ([y]r(!(y = ~)))* . [y]r(y = ~))* "
      ". ([x,y]l(x = y))* . [x,y]l(x = y = ~)";
  // y | ∃x: R1(x) ∧ (x manifold of y): x bound by the database limits y.
  std::string text =
      std::string("y | exists x: R1(x) & ") + manifold;
  Result<Query> q = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Divisor-strings of "ab" and "ba": exactly themselves (and note ε is
  // excluded since x ≠ ε here).
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"ab"}, {"ba"}}));
}

TEST(QueryTest, ManifoldUnsafeDirectionRejected) {
  Database db = MakeDb();
  const char* manifold =
      "(([y,x]l(y = x))* . [x]l(x = ~) . ([x]r(!(x = ~)))* . [x]r(x = ~))* "
      ". ([y,x]l(y = x))* . [y,x]l(y = x = ~)";
  // y | ∃x: R1(x) ∧ (y manifold of x): infinitely many y — unsafe.
  std::string text = std::string("y | exists x: R1(x) & ") + manifold;
  Result<Query> q = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
  // The escape hatch still works: explicit truncation.
  Result<StringRelation> bounded = q->ExecuteTruncated(db, 4);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_TRUE(bounded->Contains({"abab"}));
}

TEST(QueryTest, GuardedNegationIsSafe) {
  Database db = MakeDb();
  // R1(x) ∧ ¬(x starts with 'a'): the negation only filters, so the
  // query is certified and the plan is a difference, not a
  // Σ*-complement.
  Result<Query> q = Query::Parse(
      "R1(x) & !([x]l(x = 'a'))", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"ba"}}));
}

TEST(QueryTest, GuardedNegationAntiJoin) {
  Database db = MakeDb();
  // Strings of R1 that are not in R3.
  Result<Query> q = Query::Parse("R1(x) & !R3(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->size(), 2);  // neither ab nor ba is in R3
}

TEST(QueryTest, NegationNotDomainIndependent) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("!R1(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  EXPECT_FALSE(w.ok());
  // Explicitly truncated evaluation remains available (the ⟦φ⟧^l
  // semantics).
  Result<StringRelation> bounded = q->ExecuteTruncated(db, 2);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->size(), 7 - 2);  // Σ^{<=2} minus the two R1 strings
}

TEST(QueryTest, PureRelationalQueryTruncation) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse("R1(x) & R3(x)", db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<StringRelation> answer = q->Execute(db);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
}

TEST(QueryTest, InferenceGrowsWithDatabase) {
  // The limit function must depend on db (the paper's point against
  // constant safety bounds): a longer string in R1 must raise W.
  Database small = MakeDb();
  Database big(Alphabet::Binary());
  ASSERT_TRUE(big.Put("R1", 1, {{"abababab"}}).ok());
  ASSERT_TRUE(big.Put("R3", 1, {{"a"}}).ok());
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      small.alphabet());
  ASSERT_TRUE(q.ok());
  Result<int> w_small = q->InferTruncation(small);
  Result<int> w_big = q->InferTruncation(big);
  ASSERT_TRUE(w_small.ok() && w_big.ok());
  EXPECT_GT(*w_big, *w_small);
  Result<StringRelation> answer = q->Execute(big);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->tuples(), (std::set<Tuple>{{"abababab" "a"}}));
}

// Definition 3.2 (domain independence) observed directly: for a safe
// query the answer stabilises at the inferred W — larger truncations
// change nothing.
TEST(QueryTest, AnswerStabilisesAtInferredTruncation) {
  Database db = MakeDb();
  Result<Query> q = Query::Parse(
      "x | exists y, z: R1(y) & R3(z) & "
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      db.alphabet());
  ASSERT_TRUE(q.ok());
  Result<int> w = q->InferTruncation(db);
  ASSERT_TRUE(w.ok());
  // Evaluate well below the cap to keep Σ-materialisation impossible:
  // the plan is generator-driven, so larger l only *could* add tuples.
  Result<StringRelation> at_w = q->ExecuteTruncated(db, std::min(*w, 12));
  Result<StringRelation> beyond = q->ExecuteTruncated(db, std::min(*w, 12) + 3);
  ASSERT_TRUE(at_w.ok() && beyond.ok());
  EXPECT_EQ(at_w->tuples(), beyond->tuples());
  // And *below* the limit the answer is genuinely truncated.
  Result<StringRelation> below = q->ExecuteTruncated(db, 2);
  ASSERT_TRUE(below.ok());
  EXPECT_LT(below->size(), at_w->size());
}

// A member query whose needle is 'b' followed by the bits of `id`,
// least significant first; the top bit is always 1, so distinct ids
// give distinct texts.  About 10 KB compiled, so a few hundred of them
// overflow the compiled-query cache.
std::string MemberText(int id) {
  std::string out = "x | M(x) & ([x]l(true))* . [x]l(x = 'b')";
  for (; id > 0; id >>= 1) {
    out += std::string(" . [x]l(x = '") + (id & 1 ? 'b' : 'a') + "')";
  }
  return out;
}

// The compiled-query cache's instruments.
const Gauge& CacheBytes() {
  return *MetricsRegistry::Global().GetGauge(
      "calculus.query_cache.bytes_in_use");
}
int64_t CacheCount(const std::string& what) {
  return MetricsRegistry::Global()
      .GetCounter("calculus.query_cache." + what)
      ->value();
}

TEST(QueryCacheTest, NeverExceedsItsByteBound) {
  const Alphabet sigma = Alphabet::Binary();
  const int64_t evictions_before = CacheCount("evictions");
  for (int id = 0; id < 5000; ++id) {
    ASSERT_TRUE(Query::Parse(MemberText(id), sigma).ok()) << id;
    ASSERT_GT(CacheBytes().value(), 0) << id;
    ASSERT_LE(CacheBytes().value(), Query::kCacheMaxBytes) << id;
  }
  EXPECT_GT(CacheCount("evictions"), evictions_before);
}

TEST(QueryCacheTest, ConcurrentParsesWhileEvicting) {
  const Alphabet sigma = Alphabet::Binary();
  // 300 texts of ~10 KB each: well over the 1 MiB bound, so the threads
  // keep evicting each other's entries.
  constexpr int kTexts = 300;
  std::vector<std::string> want(kTexts);
  for (int id = 0; id < kTexts; ++id) {
    Result<Query> q = Query::Compile(MemberText(id), sigma);
    ASSERT_TRUE(q.ok()) << q.status();
    want[static_cast<size_t>(id)] = q->formula().ToString();
  }
  const int64_t evictions_before = CacheCount("evictions");
  std::vector<std::thread> threads;
  std::vector<int> wrong(8, 0);
  std::vector<int64_t> peak(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2 * kTexts; ++i) {
        // Neighbouring threads overlap on most texts, in shifted order.
        int id = (i * 7 + t * 37) % kTexts;
        Result<Query> q = Query::Parse(MemberText(id), sigma);
        if (!q.ok() ||
            q->formula().ToString() != want[static_cast<size_t>(id)] ||
            q->outputs() != std::vector<std::string>{"x"}) {
          ++wrong[static_cast<size_t>(t)];
        }
        peak[static_cast<size_t>(t)] =
            std::max(peak[static_cast<size_t>(t)], CacheBytes().value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong, std::vector<int>(8, 0));
  EXPECT_GT(CacheCount("evictions"), evictions_before);
  for (int64_t p : peak) EXPECT_LE(p, Query::kCacheMaxBytes);
}

// The cached half of the inference is database-independent: the same
// cached Query must follow max(R, db) as the catalog grows.
TEST(QueryCacheTest, CachedInferenceFollowsLongerStrings) {
  Database db = MakeDb();
  const std::string text =
      "x | exists y: R1(y) & ([x,y]l(x = y))* . [x]l(x = ~)";
  Result<Query> q = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(q.ok()) << q.status();
  Result<int> before = q->InferTruncation(db);
  ASSERT_TRUE(before.ok()) << before.status();

  ASSERT_TRUE(db.InsertTuples("R1", {{"abababab"}}).ok());
  const int64_t hits_before = CacheCount("hits");
  Result<Query> again = Query::Parse(text, db.alphabet());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(CacheCount("hits"), hits_before + 1);
  Result<Query> fresh = Query::Compile(text, db.alphabet());
  ASSERT_TRUE(fresh.ok());
  for (const Query* cached : {&*q, &*again}) {
    Result<int> after = cached->InferTruncation(db);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_GT(*after, *before);
    EXPECT_EQ(*after, *fresh->InferTruncation(db));
    Result<StringRelation> answer = cached->Execute(db);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->Contains({"abababa"}));  // a prefix of the new string
  }
}

// Splitting the inference kept its error order: the query's shape is
// judged first, then each relation is looked up, then the limitation
// analysis speaks.
TEST(QueryCacheTest, InferenceErrorsKeepTheirOrder) {
  Database db = MakeDb();
  Result<Query> shape = Query::Parse("x | Nope(x) | R1(x)", db.alphabet());
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(shape->InferTruncation(db).status().code(),
            StatusCode::kInvalidArgument);
  // The unsafe manifold direction (see ManifoldUnsafeDirectionRejected)
  // over a relation the catalog lacks: NotFound wins.
  Result<Query> missing = Query::Parse(
      "y | exists x: Nope(x) & "
      "(([y,x]l(y = x))* . [x]l(x = ~) . ([x]r(!(x = ~)))* . [x]r(x = ~))* "
      ". ([y,x]l(y = x))* . [y,x]l(y = x = ~)",
      db.alphabet());
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->InferTruncation(db).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace strdb
