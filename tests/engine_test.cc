// The execution engine's contract: whatever plan the rewriter and
// planner come up with, Engine::Execute agrees with the naïve
// tree-walking EvalAlgebra on every expression — property-tested on
// random expressions over random databases — and the supporting pieces
// (thread pool, artifact cache, rewrite passes, explain output) behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calculus/eval.h"
#include "calculus/query.h"
#include "core/budget.h"
#include "core/metrics.h"
#include "core/thread_pool.h"
#include "engine/cache.h"
#include "engine/cost.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "engine/rewrite.h"
#include "fsa/accept.h"
#include "fsa/compile.h"
#include "fsa/serialize.h"
#include "relational/algebra.h"
#include "relational/stats.h"
#include "strform/parser.h"
#include "testing/generators.h"
#include "testing/random_source.h"

namespace strdb {
namespace {

using testgen::FsaPool;
using testgen::RngSource;

Fsa Compile(const std::string& text, const Alphabet& alphabet,
            const std::vector<std::string>& vars) {
  Result<StringFormula> f = ParseStringFormula(text);
  EXPECT_TRUE(f.ok()) << f.status();
  Result<Fsa> r = CompileStringFormula(*f, alphabet, vars);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

// Appends a tape the machine disregards (pinned to ⊢, never moved) —
// what a compiled formula does with a variable it never mentions.
Fsa WithDisregardedTape(const Fsa& fsa) {
  Fsa out(fsa.alphabet(), fsa.num_tapes() + 1);
  while (out.num_states() < fsa.num_states()) out.AddState();
  out.SetStart(fsa.start());
  for (int s = 0; s < fsa.num_states(); ++s) {
    if (fsa.IsFinal(s)) out.SetFinal(s);
  }
  for (Transition t : fsa.transitions()) {
    t.read.push_back(kLeftEnd);
    t.move.push_back(kStay);
    EXPECT_TRUE(out.AddTransition(std::move(t)).ok());
  }
  return out;
}

Database MakeDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.Put("R1", 1, {{"ab"}, {"ba"}}).ok());
  EXPECT_TRUE(db.Put("R3", 1, {{"a"}, {"bb"}}).ok());
  EXPECT_TRUE(db.Put("Pairs", 2, {{"ab", "ab"}, {"ab", "ba"}, {"", ""}}).ok());
  EXPECT_TRUE(db.Put("Const", 1, {{"ab"}}).ok());
  return db;
}

const EvalOptions kOpts{.truncation = 4, .max_tuples = 100000,
                        .max_steps = 10'000'000};

// E8: π1 σ_A(Σ* × R1 × R3), the §4 concatenation showcase.
AlgebraExpr ConcatQuery(const Alphabet& alphabet) {
  Fsa concat = Compile(
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = ~ & y = ~ & z = ~)",
      alphabet, {"x", "y", "z"});
  AlgebraExpr body = AlgebraExpr::Product(
      AlgebraExpr::SigmaStar(),
      AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                           AlgebraExpr::Relation("R3", 1)));
  Result<AlgebraExpr> sel = AlgebraExpr::Select(body, concat);
  EXPECT_TRUE(sel.ok()) << sel.status();
  Result<AlgebraExpr> query = AlgebraExpr::Project(*sel, {0});
  EXPECT_TRUE(query.ok());
  return *query;
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> touched(997);
    pool.ParallelFor(997, [&touched](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        touched[static_cast<size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&called](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- artifact cache --------------------------------------------------------

TEST(ArtifactCacheTest, SpecializationIsMemoised) {
  Alphabet sigma = Alphabet::Binary();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)", sigma,
                   {"x", "y"});
  ArtifactCache cache;
  std::string base = SerializeFsa(eq);
  std::string key1, key2;
  bool hit1 = true, hit2 = false;
  Result<std::shared_ptr<const Fsa>> first =
      cache.GetSpecialized(base, eq, 0, "ab", &key1, &hit1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(hit1);
  Result<std::shared_ptr<const Fsa>> second =
      cache.GetSpecialized(base, eq, 0, "ab", &key2, &hit2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit2);
  EXPECT_EQ(key1, key2);
  EXPECT_EQ(first->get(), second->get());  // the same compiled artifact
  // A different binding is a different artifact.
  std::string key3;
  bool hit3 = true;
  ASSERT_TRUE(cache.GetSpecialized(base, eq, 0, "ba", &key3, &hit3).ok());
  EXPECT_FALSE(hit3);
  EXPECT_NE(key3, key1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(ArtifactCacheTest, GeneratedSetsRoundTrip) {
  ArtifactCache cache;
  EXPECT_EQ(cache.GetGenerated("k"), nullptr);
  ArtifactCache::GeneratedSet set = {{"a"}, {"ab"}};
  cache.PutGenerated("k", set);
  auto got = cache.GetGenerated("k");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, set);
  cache.Clear();
  EXPECT_EQ(cache.GetGenerated("k"), nullptr);
}

TEST(ArtifactCacheTest, ByteBoundHoldsAndEvictsLeastRecentlyUsed) {
  ArtifactCache::GeneratedSet payload;
  for (int i = 0; i < 32; ++i) {
    payload.insert({std::string(32, 'a' + (i % 2)), std::to_string(i)});
  }
  int64_t cost = ArtifactCache::GeneratedCost(payload);
  // Room for roughly three payloads.
  ArtifactCache cache(3 * cost + 3 * 64);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.PutGenerated("k" + std::to_string(i), payload).ok());
    EXPECT_LE(cache.stats().bytes_in_use, cache.max_bytes());
  }
  ArtifactCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.entries, 3);
  // The oldest keys are gone, the newest survives.
  EXPECT_EQ(cache.GetGenerated("k0"), nullptr);
  EXPECT_NE(cache.GetGenerated("k19"), nullptr);
  // Touching an entry protects it from the next eviction wave.
  ASSERT_NE(cache.GetGenerated("k17"), nullptr);
  ASSERT_TRUE(cache.PutGenerated("fresh", payload).ok());
  EXPECT_NE(cache.GetGenerated("k17"), nullptr);
}

TEST(ArtifactCacheTest, OversizeArtifactIsReturnedButNotRetained) {
  ArtifactCache::GeneratedSet payload;
  for (int i = 0; i < 64; ++i) payload.insert({std::string(64, 'x') + std::to_string(i)});
  ArtifactCache cache(/*max_bytes=*/128);  // smaller than the payload
  Result<std::shared_ptr<const ArtifactCache::GeneratedSet>> put =
      cache.PutGenerated("big", payload);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(**put, payload);  // the caller still gets the artifact
  EXPECT_EQ(cache.GetGenerated("big"), nullptr);
  EXPECT_EQ(cache.stats().bytes_in_use, 0);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ArtifactCacheTest, ColdInsertsChargeTheBudget) {
  ArtifactCache cache;
  ArtifactCache::GeneratedSet payload = {{"aaaa"}, {"bbbb"}};
  ResourceLimits limits;
  limits.max_cached_bytes = 1;  // any cold artifact busts it
  ResourceBudget budget(limits);
  Result<std::shared_ptr<const ArtifactCache::GeneratedSet>> put =
      cache.PutGenerated("k", payload, &budget);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kResourceExhausted);
  // A hit is free: cache the artifact without a budget, then re-fetch.
  ASSERT_TRUE(cache.PutGenerated("k", payload).ok());
  EXPECT_NE(cache.GetGenerated("k"), nullptr);
}

// Regression: the put paths used to charge the budget *before*
// InsertLocked, which can reject the entry (oversize, or a concurrent
// miss on the same key raced us to the insert) — the charged bytes were
// then never resident and never refunded, so a long-lived admission
// account drifted upward until it falsely exhausted.  The account must
// only ever hold bytes that are actually resident in the cache.
TEST(ArtifactCacheTest, RejectedInsertsRefundTheBudget) {
  ArtifactCache::GeneratedSet payload = {{"aaaa"}, {"bbbb"}};
  // Oversize: returned to the caller, not retained, fully refunded.
  {
    ArtifactCache tiny(/*max_bytes=*/16);
    ResourceBudget budget;
    auto put = tiny.PutGenerated("big", payload, &budget);
    ASSERT_TRUE(put.ok()) << put.status();
    EXPECT_EQ(tiny.stats().bytes_in_use, 0);
    EXPECT_EQ(budget.cached_bytes_used(), 0);
  }
  // Duplicate key: the incumbent wins, the loser's charge is refunded.
  {
    ArtifactCache cache;
    ResourceBudget budget;
    ASSERT_TRUE(cache.PutGenerated("k", payload, &budget).ok());
    int64_t after_first = budget.cached_bytes_used();
    EXPECT_EQ(after_first, cache.stats().bytes_in_use);
    ASSERT_TRUE(cache.PutGenerated("k", payload, &budget).ok());
    EXPECT_EQ(budget.cached_bytes_used(), after_first);  // not doubled
    EXPECT_EQ(cache.stats().entries, 1);
  }
}

// The concurrent version, against a shared admission account: N threads
// race identical puts; exactly one insert wins per key, so the account
// must end up holding exactly the resident bytes — and return to zero
// once those are released — no matter how the races resolve.
TEST(ArtifactCacheTest, ConcurrentPutsLeaveTheGlobalAccountBalanced) {
  ArtifactCache cache;
  ResourceBudget account;  // unlimited; plays the server's global account
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &account] {
      for (int key = 0; key < kKeys; ++key) {
        ArtifactCache::GeneratedSet payload = {
            {"key" + std::to_string(key)}, {"payload"}};
        auto put = cache.PutGenerated("shared-" + std::to_string(key),
                                      std::move(payload), &account);
        ASSERT_TRUE(put.ok()) << put.status();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // One resident entry per key; the account holds exactly those bytes,
  // not the (kThreads - 1) losing charges per key.
  EXPECT_EQ(cache.stats().entries, kKeys);
  EXPECT_EQ(account.cached_bytes_used(), cache.stats().bytes_in_use);

  // Releasing what is resident brings the global account back to zero.
  account.Release(0, 0, cache.stats().bytes_in_use);
  EXPECT_EQ(account.cached_bytes_used(), 0);
}

// --- rewrites --------------------------------------------------------------

TEST(RewriteTest, PushdownPullsDisregardedFactorsOut) {
  Database db = MakeDb();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   db.alphabet(), {"x", "y"});
  // σ_A(Pairs × R1) where A disregards R1's column entirely.
  Fsa padded = WithDisregardedTape(eq);
  Result<AlgebraExpr> sel = AlgebraExpr::Select(
      AlgebraExpr::Product(AlgebraExpr::Relation("Pairs", 2),
                           AlgebraExpr::Relation("R1", 1)),
      padded);
  ASSERT_TRUE(sel.ok()) << sel.status();
  RewriteOptions only_pushdown;
  only_pushdown.specialize_constants = false;
  only_pushdown.reorder_products = false;
  only_pushdown.common_subexpressions = false;
  Result<AlgebraExpr> rewritten = RewriteExpr(*sel, db, only_pushdown);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  // The selection now reads only Pairs' two tapes; R1 joins outside it.
  // The column order is unchanged, so no π restores it.
  ASSERT_EQ(rewritten->kind(), AlgebraExpr::Kind::kProduct);
  EXPECT_EQ(rewritten->arity(), sel->arity());
  ASSERT_EQ(rewritten->Left().kind(), AlgebraExpr::Kind::kSelect);
  EXPECT_EQ(rewritten->Left().fsa().num_tapes(), 2);
  EXPECT_EQ(rewritten->Left().Left().ToString(), "Pairs");
  EXPECT_EQ(rewritten->Right().ToString(), "R1");
  Result<StringRelation> before = EvalAlgebra(*sel, db, kOpts);
  Result<StringRelation> after = EvalAlgebra(*rewritten, db, kOpts);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->tuples(), after->tuples());
}

TEST(RewriteTest, SpecializeFoldsSingleTupleRelations) {
  Database db = MakeDb();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   db.alphabet(), {"x", "y"});
  // σ_eq(Const × R1) with Const = {("ab")}: Lemma 3.1 folds the constant
  // into the machine.
  Result<AlgebraExpr> sel = AlgebraExpr::Select(
      AlgebraExpr::Product(AlgebraExpr::Relation("Const", 1),
                           AlgebraExpr::Relation("R1", 1)),
      eq);
  ASSERT_TRUE(sel.ok()) << sel.status();
  RewriteOptions only_specialize;
  only_specialize.pushdown_selections = false;
  only_specialize.reorder_products = false;
  only_specialize.common_subexpressions = false;
  Result<AlgebraExpr> rewritten = RewriteExpr(*sel, db, only_specialize);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(rewritten->kind(), AlgebraExpr::Kind::kProject);
  Result<StringRelation> before = EvalAlgebra(*sel, db, kOpts);
  Result<StringRelation> after = EvalAlgebra(*rewritten, db, kOpts);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->tuples(), after->tuples());
  EXPECT_EQ(after->tuples(),
            std::set<Tuple>({{"ab", "ab"}}));
}

TEST(RewriteTest, PreservesFiniteEvaluabilityAndArity) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  ASSERT_TRUE(query.IsFinitelyEvaluable());
  Result<AlgebraExpr> rewritten = RewriteExpr(query, db);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(rewritten->arity(), query.arity());
  EXPECT_TRUE(rewritten->IsFinitelyEvaluable());
}

TEST(RewriteTest, ReorderPutsSmallFactorsFirst) {
  Database db = MakeDb();
  // Σ^2 (7 strings) × R1 (2 tuples): reordering must put R1 first and
  // restore the column order with a projection.
  AlgebraExpr prod = AlgebraExpr::Product(AlgebraExpr::SigmaL(2),
                                          AlgebraExpr::Relation("R1", 1));
  StatsCatalog stats;
  CostPlannerContext ctx;
  ctx.db = &db;
  ctx.stats = &stats;
  ctx.truncation = kOpts.truncation;
  RewriteOptions only_reorder;
  only_reorder.pushdown_selections = false;
  only_reorder.specialize_constants = false;
  only_reorder.common_subexpressions = false;
  only_reorder.cost_planner = &ctx;
  Result<AlgebraExpr> rewritten = RewriteExpr(prod, db, only_reorder);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->kind(), AlgebraExpr::Kind::kProject);
  EXPECT_EQ(rewritten->Left().Left().kind(), AlgebraExpr::Kind::kRelation);
  Result<StringRelation> before = EvalAlgebra(prod, db, kOpts);
  Result<StringRelation> after = EvalAlgebra(*rewritten, db, kOpts);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->tuples(), after->tuples());
  // Without a planner context the product keeps its written order.
  only_reorder.cost_planner = nullptr;
  rewritten = RewriteExpr(prod, db, only_reorder);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->kind(), AlgebraExpr::Kind::kProduct);
}

// --- engine end-to-end -----------------------------------------------------

TEST(EngineTest, ConcatQueryMatchesNaiveEvaluator) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  ExecStats stats;
  Result<StringRelation> via_engine = engine.Execute(query, db, kOpts, &stats);
  Result<StringRelation> naive = EvalAlgebra(query, db, kOpts);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(via_engine->tuples(), naive->tuples());
  EXPECT_NE(stats.plan.find("gen-select"), std::string::npos) << stats.plan;
  EXPECT_GT(stats.wall_ns, 0);
}

TEST(EngineTest, RepeatedExecutionHitsTheArtifactCache) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  ExecStats cold, warm;
  ASSERT_TRUE(engine.Execute(query, db, kOpts, &cold).ok());
  ASSERT_TRUE(engine.Execute(query, db, kOpts, &warm).ok());
  EXPECT_GT(cold.cache_misses, 0);
  EXPECT_GT(warm.cache_hits, 0);
  // Steady state: every artifact the query needs is already compiled.
  EXPECT_EQ(warm.cache_misses, 0);
}

TEST(EngineTest, ExplainShowsTheOptimisedPlan) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  Result<std::string> plan = engine.Explain(query, db, kOpts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("project"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("gen-select"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("scan R1"), std::string::npos) << *plan;
}

TEST(EngineTest, SharedSubtreesEvaluateOnce) {
  Database db = MakeDb();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   db.alphabet(), {"x", "y"});
  // Two structurally identical selections built independently: CSE must
  // unify them into one shared plan node.
  Result<AlgebraExpr> a =
      AlgebraExpr::Select(AlgebraExpr::Relation("Pairs", 2), Fsa(eq));
  Result<AlgebraExpr> b =
      AlgebraExpr::Select(AlgebraExpr::Relation("Pairs", 2), Fsa(eq));
  ASSERT_TRUE(a.ok() && b.ok());
  AlgebraExpr prod = AlgebraExpr::Product(*a, *b);
  Engine engine;
  Result<std::string> plan = engine.Explain(prod, db, kOpts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("shared, evaluated once"), std::string::npos) << *plan;
  Result<StringRelation> via_engine = engine.Execute(prod, db, kOpts);
  Result<StringRelation> naive = EvalAlgebra(prod, db, kOpts);
  ASSERT_TRUE(via_engine.ok() && naive.ok());
  EXPECT_EQ(via_engine->tuples(), naive->tuples());
}

TEST(EngineTest, FilterSelectParallelMatchesSerial) {
  Database db(Alphabet::Binary());
  RngSource rng(7);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) {
    tuples.push_back({rng.String(db.alphabet(), 0, 4),
                      rng.String(db.alphabet(), 0, 4)});
  }
  ASSERT_TRUE(db.Put("Big", 2, std::move(tuples)).ok());
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   db.alphabet(), {"x", "y"});
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("Big", 2), eq);
  ASSERT_TRUE(sel.ok());
  EngineOptions parallel_opts;
  parallel_opts.num_threads = 4;
  parallel_opts.parallel_threshold = 1;
  Engine parallel_engine(parallel_opts);
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  Engine serial_engine(serial_opts);
  Result<StringRelation> p = parallel_engine.Execute(*sel, db, kOpts);
  Result<StringRelation> s = serial_engine.Execute(*sel, db, kOpts);
  ASSERT_TRUE(p.ok() && s.ok()) << p.status() << s.status();
  EXPECT_EQ(p->tuples(), s->tuples());
  Result<StringRelation> naive = EvalAlgebra(*sel, db, kOpts);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(p->tuples(), naive->tuples());
}

// --- engine ≡ naïve on random expressions ----------------------------------
//
// Generators live in src/testing (shared with the strdb_conformance
// driver and the libFuzzer entries); these are local names for them.

FsaPool MakePool(const Alphabet& sigma) { return testgen::MakeFsaPool(sigma); }

Database RandomDb(RngSource& rng, const Alphabet& sigma) {
  return testgen::RandomDatabase(rng, sigma);
}

AlgebraExpr RandomExpr(RngSource& rng, const FsaPool& pool, int depth) {
  return testgen::RandomAlgebraExpr(rng, pool, depth);
}

TEST(EngineTest, MatchesNaiveEvaluatorOnRandomExpressions) {
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = MakePool(sigma);
  RngSource rng(20260805);
  EvalOptions opts;
  opts.truncation = 2;
  opts.max_tuples = 20000;
  opts.max_steps = 5'000'000;
  Engine engine;               // all optimisations on
  EngineOptions plain_opts;
  plain_opts.enable_rewrites = false;
  plain_opts.enable_cache = false;
  Engine plain_engine(plain_opts);  // pure lowering + execution
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = RandomDb(rng, sigma);
    AlgebraExpr expr = RandomExpr(rng, pool, 4);
    Result<StringRelation> naive = EvalAlgebra(expr, db, opts);
    Result<StringRelation> opt = engine.Execute(expr, db, opts);
    Result<StringRelation> plain = plain_engine.Execute(expr, db, opts);
    if (!naive.ok()) {
      // A budget error must surface on every route.
      EXPECT_FALSE(opt.ok()) << trial << ": " << expr.ToString();
      EXPECT_FALSE(plain.ok()) << trial << ": " << expr.ToString();
      continue;
    }
    ASSERT_TRUE(opt.ok()) << trial << ": " << expr.ToString() << "\n"
                          << opt.status();
    ASSERT_TRUE(plain.ok()) << trial << ": " << expr.ToString() << "\n"
                            << plain.status();
    EXPECT_EQ(opt->tuples(), naive->tuples())
        << trial << ": " << expr.ToString();
    EXPECT_EQ(plain->tuples(), naive->tuples())
        << trial << ": " << expr.ToString();
    // Rewrites must not lose finite evaluability along the way.
    Result<AlgebraExpr> rewritten = RewriteExpr(expr, db);
    ASSERT_TRUE(rewritten.ok());
    EXPECT_EQ(rewritten->arity(), expr.arity());
    if (expr.IsFinitelyEvaluable()) {
      EXPECT_TRUE(rewritten->IsFinitelyEvaluable())
          << trial << ": " << expr.ToString();
    }
    ++checked;
  }
  // The acceptance bar: at least 100 successfully cross-checked cases.
  EXPECT_GE(checked, 100);
}

// --- resource governance ---------------------------------------------------

TEST(EngineTest, CacheStaysBoundedUnderQueryChurn) {
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = MakePool(sigma);
  RngSource rng(42);
  EvalOptions opts;
  opts.truncation = 2;
  opts.max_tuples = 20000;
  opts.max_steps = 5'000'000;
  EngineOptions engine_opts;
  engine_opts.cache_max_bytes = 16 << 10;  // 16 KiB: forces churn
  Engine engine(engine_opts);
  int64_t checked = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Database db = RandomDb(rng, sigma);
    AlgebraExpr expr = RandomExpr(rng, pool, 3);
    Result<StringRelation> via_engine = engine.Execute(expr, db, opts);
    Result<StringRelation> naive = EvalAlgebra(expr, db, opts);
    // The byte bound is an invariant, not a steady state: it must hold
    // after every single query.
    ArtifactCache::Stats stats = engine.cache().stats();
    ASSERT_LE(stats.bytes_in_use, engine_opts.cache_max_bytes) << trial;
    ASSERT_LE(stats.peak_bytes, engine_opts.cache_max_bytes) << trial;
    EXPECT_EQ(via_engine.ok(), naive.ok()) << trial << ": " << expr.ToString();
    if (!via_engine.ok() || !naive.ok()) continue;
    EXPECT_EQ(via_engine->tuples(), naive->tuples())
        << trial << ": " << expr.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 800);
  // The workload overflowed the bound (otherwise this test shrank to a
  // no-op) and the counters saw it.
  ArtifactCache::Stats stats = engine.cache().stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("engine.cache.evictions")
                ->value(),
            0);
}

TEST(EngineTest, BudgetExhaustionReturnsTypedErrorWithPartialStats) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  ResourceLimits limits;
  limits.max_steps = 5;  // far below what the generator needs
  ResourceBudget budget(limits);
  EvalOptions opts = kOpts;
  opts.budget = &budget;
  ExecStats stats;
  Result<StringRelation> out = engine.Execute(query, db, opts, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status().ToString().find("query budget"), std::string::npos);
  // The degraded query is still observable: partial stats and the
  // annotated plan survive the failure.
  EXPECT_GT(stats.wall_ns, 0);
  EXPECT_GT(stats.budget_steps_used, 0);
  EXPECT_FALSE(stats.plan.empty());
  EXPECT_NE(stats.ToString().find("budget["), std::string::npos);
}

TEST(EngineTest, RowBudgetTripsOnIntermediateResults) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  ResourceLimits limits;
  limits.max_rows = 2;  // R1 x R3 alone produces 4 rows
  ResourceBudget budget(limits);
  EvalOptions opts = kOpts;
  opts.budget = &budget;
  Result<StringRelation> out = engine.Execute(query, db, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status().ToString().find("rows"), std::string::npos);
}

TEST(EngineTest, BudgetedRunsNeverReturnWrongTuples) {
  // The budget property: a budgeted execution either errors or returns
  // exactly the unbudgeted answer — never a silently truncated relation.
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = MakePool(sigma);
  RngSource rng(77);
  EvalOptions opts;
  opts.truncation = 2;
  opts.max_tuples = 20000;
  opts.max_steps = 5'000'000;
  Engine engine;
  const int64_t step_limits[] = {1, 10, 100, 1000, 10000};
  const int64_t row_limits[] = {1, 5, 50, 500, 0};
  int completed = 0, exhausted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Database db = RandomDb(rng, sigma);
    AlgebraExpr expr = RandomExpr(rng, pool, 3);
    Result<StringRelation> reference = EvalAlgebra(expr, db, opts);
    if (!reference.ok()) continue;
    ResourceLimits limits;
    limits.max_steps = step_limits[rng.Range(0, 4)];
    limits.max_rows = row_limits[rng.Range(0, 4)];
    ResourceBudget budget(limits);
    EvalOptions budgeted = opts;
    budgeted.budget = &budget;
    Result<StringRelation> out = engine.Execute(expr, db, budgeted);
    if (out.ok()) {
      EXPECT_EQ(out->tuples(), reference->tuples())
          << trial << ": " << expr.ToString();
      ++completed;
    } else {
      EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
          << trial << ": " << out.status().ToString();
      ++exhausted;
    }
  }
  // The limit grid actually exercised both outcomes.
  EXPECT_GT(completed, 0);
  EXPECT_GT(exhausted, 0);
}

TEST(EngineTest, NaiveEvaluatorHonoursTheBudgetToo) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  ResourceLimits limits;
  limits.max_steps = 5;
  ResourceBudget budget(limits);
  EvalOptions opts = kOpts;
  opts.budget = &budget;
  Result<StringRelation> out = EvalAlgebra(query, db, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// --- relation statistics ---------------------------------------------------

// Statistics of the relation the codec tests encode.
RelationStats CodecSampleStats() {
  Result<StringRelation> rel = StringRelation::Create(
      2, {{"a", ""}, {"ab", "b"}, {"", "ba"}, {"bb", "bb"}});
  return ComputeRelationStats(*rel);
}

TEST(RelationStatsTest, CodecRoundTripIsByteExact) {
  RelationStats stats = CodecSampleStats();
  std::string encoded = EncodeRelationStats(stats);
  Result<RelationStats> decoded = DecodeRelationStats(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(*decoded == stats);
  EXPECT_EQ(EncodeRelationStats(*decoded), encoded);
  EXPECT_FALSE(DecodeRelationStats("not a stats blob").ok());
  EXPECT_FALSE(DecodeRelationStats("").ok());
}

// What the version 1 encoder wrote for CodecSampleStats' relation: it
// also kept each column's maximum length, a length histogram and a
// prefix set.
constexpr const char* kVersionOneText =
    "rstats 1 2 4\n"
    "col 5 2\n"
    "hist 1 1 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "freq 2 97 2 98 3\n"
    "pfx 0 4 0: 1:a 2:ab 2:bb\n"
    "col 5 2\n"
    "hist 1 1 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "freq 2 97 1 98 4\n"
    "pfx 0 4 0: 1:b 2:ba 2:bb\n";

TEST(RelationStatsTest, DecodesVersionOneText) {
  Result<RelationStats> decoded = DecodeRelationStats(kVersionOneText);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const RelationStats want = CodecSampleStats();
  EXPECT_EQ(decoded->rows, want.rows);
  ASSERT_EQ(decoded->columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(decoded->columns[c].total_chars, want.columns[c].total_chars);
    EXPECT_EQ(decoded->columns[c].char_freq, want.columns[c].char_freq);
  }
}

TEST(RelationStatsTest, RejectsOutOfRangeAndNegativeNumbers) {
  const std::string hist = "hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n";
  for (const std::string& text : std::vector<std::string>{
           "rstats 1 1 99999999999999999999999",
           "rstats 1 1 -7\ncol 0 0\n" + hist + "freq 0\npfx 0 0\n",
           "rstats 1 1 1\ncol -1 0\n" + hist + "freq 0\npfx 0 0\n",
           "rstats 2 1 -7\ncol 0\nfreq 0\n",
           "rstats 2 1 1\ncol -1\nfreq 0\n",
           "rstats 2 1 1\ncol 1\nfreq 1 97 -1\n",
           "rstats 2 1 1\ncol 1\nfreq 1 97 9223372036854775808\n",
           "rstats 2 -1 0\n"}) {
    Result<RelationStats> decoded = DecodeRelationStats(text);
    ASSERT_FALSE(decoded.ok()) << text;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

// Empty when `text` fails to decode with kInvalidArgument or decodes to
// statistics whose encoding is a decode→encode fixpoint; else what
// went wrong.
std::string RejectedOrFixpoint(const std::string& text) {
  try {
    Result<RelationStats> decoded = DecodeRelationStats(text);
    if (!decoded.ok()) {
      return decoded.status().code() == StatusCode::kInvalidArgument
                 ? ""
                 : "rejected with " + decoded.status().ToString();
    }
    const std::string encoded = EncodeRelationStats(*decoded);
    Result<RelationStats> again = DecodeRelationStats(encoded);
    if (!again.ok() || !(*again == *decoded) ||
        EncodeRelationStats(*again) != encoded) {
      return "re-encoding is no fixpoint: " + encoded;
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
}

TEST(RelationStatsTest, EveryCutAndByteFlipIsRejectedOrAFixpoint) {
  for (const std::string& text : {std::string(kVersionOneText),
                                  EncodeRelationStats(CodecSampleStats())}) {
    for (size_t cut = 0; cut < text.size(); ++cut) {
      std::string why = RejectedOrFixpoint(text.substr(0, cut));
      ASSERT_EQ(why, "") << "cut at " << cut << " of\n" << text;
    }
    for (size_t pos = 0; pos < text.size(); ++pos) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string flipped = text;
        if (flipped[pos] == static_cast<char>(byte)) continue;
        flipped[pos] = static_cast<char>(byte);
        std::string why = RejectedOrFixpoint(flipped);
        ASSERT_EQ(why, "") << "byte " << byte << " at " << pos << " of\n"
                           << text;
      }
    }
  }
}

// --- cost-based planner ----------------------------------------------------

TEST(PlannerTest, DpOrdersFactorsAscendingAndKeepsTies) {
  CostModel model;
  EXPECT_EQ(DpOrderFactors({100, 1, 10}, model), (std::vector<int>{1, 2, 0}));
  // Exact ties must reconstruct the identity: a plan reorder the cost
  // model cannot justify is pure churn.
  EXPECT_EQ(DpOrderFactors({5, 5, 5}, model), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(DpOrderFactors({7}, model), (std::vector<int>{0}));
  EXPECT_EQ(DpOrderFactors({}, model), (std::vector<int>{}));
}

TEST(PlannerTest, PermuteTapesAcceptsPermutedTuples) {
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = testgen::MakeFsaPool(sigma);
  Result<Fsa> swapped = PermuteTapes(pool.prefix2, {1, 0});
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  const std::vector<std::string> words = {"", "a", "b", "ab", "ba", "aab"};
  for (const std::string& x : words) {
    for (const std::string& y : words) {
      Result<bool> fwd = Accepts(pool.prefix2, {x, y});
      Result<bool> rev = Accepts(*swapped, {y, x});
      ASSERT_TRUE(fwd.ok() && rev.ok());
      EXPECT_EQ(*fwd, *rev) << "x=" << x << " y=" << y;
    }
  }
}

TEST(PlannerTest, EstimateRowsIsFiniteWithAndWithoutStats) {
  Database db = MakeDb();
  AlgebraExpr product = AlgebraExpr::Product(
      AlgebraExpr::Relation("R1", 1),
      AlgebraExpr::Product(AlgebraExpr::Relation("Pairs", 2),
                           AlgebraExpr::SigmaStar()));
  StatsMap stats;
  for (const auto& [name, rel] : db.relations()) {
    stats[name] = ComputeRelationStats(rel);
  }
  CostPlannerContext bare;
  bare.db = &db;
  bare.truncation = 2;
  CostPlannerContext with_stats = bare;
  with_stats.stored_stats = &stats;
  for (const CostPlannerContext* ctx : {&bare, &with_stats}) {
    double est = EstimateRows(product, *ctx);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 0);
  }
  // With exact statistics the scan estimates are exact.
  EXPECT_DOUBLE_EQ(
      EstimateRows(AlgebraExpr::Relation("Pairs", 2), with_stats), 3.0);
}

TEST(EngineTest, CostPlannerAgreesWithWrittenOrderAndNaive) {
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = testgen::MakeFsaPool(sigma);
  RngSource rand(20260807);
  Engine cost;
  EngineOptions written_order_options;
  written_order_options.rewrites.reorder_products = false;
  Engine written_order(written_order_options);
  EvalOptions opts;
  opts.truncation = 2;
  opts.max_tuples = 20000;
  opts.max_steps = 5'000'000;
  for (int trial = 0; trial < 100; ++trial) {
    Database db = testgen::RandomDatabase(rand, sigma);
    if (trial % 2 == 0) {
      // Skew P so the DP order actually deviates from the written one.
      std::vector<Tuple> bulk;
      for (int i = 0; i < 40; ++i) {
        bulk.push_back(testgen::RandomTuple(rand, sigma, 2, 3));
      }
      ASSERT_TRUE(db.InsertTuples("P", std::move(bulk)).ok());
    }
    AlgebraExpr expr = testgen::RandomAlgebraExpr(rand, pool, 4);
    Result<StringRelation> naive = EvalAlgebra(expr, db, opts);
    Result<StringRelation> costed = cost.Execute(expr, db, opts);
    Result<StringRelation> plain = written_order.Execute(expr, db, opts);
    if (!naive.ok()) {
      EXPECT_FALSE(costed.ok()) << trial << ": " << expr.ToString();
      EXPECT_FALSE(plain.ok()) << trial << ": " << expr.ToString();
      continue;
    }
    ASSERT_TRUE(costed.ok()) << trial << ": " << costed.status();
    ASSERT_TRUE(plain.ok()) << trial << ": " << plain.status();
    EXPECT_EQ(costed->tuples(), naive->tuples())
        << trial << ": " << expr.ToString();
    EXPECT_EQ(plain->tuples(), naive->tuples())
        << trial << ": " << expr.ToString();
  }
}

// The est= values of an explained plan, in print order.
std::vector<std::string> PlanEstimates(const std::string& plan) {
  std::vector<std::string> out;
  for (size_t pos = plan.find("est="); pos != std::string::npos;
       pos = plan.find("est=", pos + 4)) {
    const size_t end = plan.find_first_of(",)", pos);
    out.push_back(plan.substr(pos + 4, end - pos - 4));
  }
  return out;
}

TEST(EngineTest, StaleStatisticsNeverChangeAnswers) {
  Alphabet sigma = Alphabet::Binary();
  FsaPool pool = testgen::MakeFsaPool(sigma);
  RngSource rand(7);
  Engine engine;
  EvalOptions opts;
  opts.truncation = 2;
  opts.max_tuples = 20000;
  opts.max_steps = 5'000'000;
  int estimates_moved = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Database db = testgen::RandomDatabase(rand, sigma);
    // Statistics from a catalog that has since lost most of P: wildly
    // wrong cardinalities, which may change the plan but never the rows.
    Database stale(db);
    std::vector<Tuple> extra;
    for (int i = 0; i < 50; ++i) {
      extra.push_back(testgen::RandomTuple(rand, sigma, 2, 3));
    }
    ASSERT_TRUE(stale.InsertTuples("P", std::move(extra)).ok());
    StatsMap stale_stats;
    for (const auto& [name, rel] : stale.relations()) {
      stale_stats[name] = ComputeRelationStats(rel);
    }
    AlgebraExpr expr = testgen::RandomAlgebraExpr(rand, pool, 3);
    Result<StringRelation> fresh = engine.Execute(expr, db, opts);
    EvalOptions with_stale = opts;
    with_stale.stats = &stale_stats;
    Result<StringRelation> misled = engine.Execute(expr, db, with_stale);
    ASSERT_EQ(fresh.ok(), misled.ok()) << trial << ": " << expr.ToString();
    if (fresh.ok()) {
      EXPECT_EQ(misled->tuples(), fresh->tuples())
          << trial << ": " << expr.ToString();
    }
    Result<std::string> fresh_plan = engine.Explain(expr, db, opts);
    Result<std::string> stale_plan = engine.Explain(expr, db, with_stale);
    ASSERT_EQ(fresh_plan.ok(), stale_plan.ok()) << trial;
    if (fresh_plan.ok() &&
        PlanEstimates(*fresh_plan) != PlanEstimates(*stale_plan)) {
      ++estimates_moved;
    }
  }
  // The supplied map wins over the engine's own statistics, so the stale
  // cardinalities must reach at least one estimate.
  EXPECT_GT(estimates_moved, 0);
}

TEST(EngineTest, ExplainAnnotatesEstimatedAndActualRows) {
  Database db = MakeDb();
  AlgebraExpr query = ConcatQuery(db.alphabet());
  Engine engine;
  ExecStats stats;
  Result<StringRelation> out = engine.Execute(query, db, kOpts, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(stats.plan.find("est="), std::string::npos) << stats.plan;
  EXPECT_NE(stats.plan.find("act="), std::string::npos) << stats.plan;
  ASSERT_FALSE(stats.operators.empty());
  for (const ExecStats::EstActRow& row : stats.operators) {
    EXPECT_TRUE(std::isfinite(row.est)) << row.op;
    EXPECT_GE(row.est, 0) << row.op;
    EXPECT_GE(row.act, 0) << row.op;
  }
}

// Sums the `self=` of every operator line of an executed plan (a shared
// node's repeated line once) and returns it with the root's `time=`.
std::pair<double, double> SelfSumAndRootTime(const std::string& plan) {
  auto field = [](const std::string& line, const std::string& name) {
    size_t at = line.find(" " + name + "=");
    EXPECT_NE(at, std::string::npos) << name << ": " << line;
    return at == std::string::npos
               ? 0.0
               : std::strtod(line.c_str() + at + name.size() + 2, nullptr);
  };
  std::istringstream in(plan);
  std::string line;
  double self_sum = 0;
  double root = -1;
  while (std::getline(in, line)) {
    if (line.find("time=") == std::string::npos) continue;
    if (root < 0) root = field(line, "time");
    if (line.find("(shared, evaluated once)") != std::string::npos) continue;
    self_sum += field(line, "self");
  }
  return {self_sum, root};
}

TEST(EngineTest, SelfTimesSumToTheRootTime) {
  Database db = MakeDb();
  Fsa eq = Compile("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)",
                   db.alphabet(), {"x", "y"});
  // A product of two equal selections: the second reads the first's
  // memoised result, which must cost it nothing.
  Result<AlgebraExpr> a =
      AlgebraExpr::Select(AlgebraExpr::Relation("Pairs", 2), Fsa(eq));
  Result<AlgebraExpr> b =
      AlgebraExpr::Select(AlgebraExpr::Relation("Pairs", 2), Fsa(eq));
  ASSERT_TRUE(a.ok() && b.ok());
  for (const AlgebraExpr& query :
       {AlgebraExpr::Product(*a, *b), ConcatQuery(db.alphabet())}) {
    Engine engine;
    ExecStats stats;
    ASSERT_TRUE(engine.Execute(query, db, kOpts, &stats).ok());
    auto [self_sum, root] = SelfSumAndRootTime(stats.plan);
    ASSERT_GT(root, 0) << stats.plan;
    EXPECT_NEAR(self_sum, root, 0.02 * root) << stats.plan;
  }
}

// An atom lowers to the operators its semantics needs: a scan, a π only
// to reorder or drop columns, a σ only where a variable repeats, and a
// ↓l only when the truncation is below max(R, db).
TEST(EngineTest, AtomsLowerToTheirScans) {
  Database db = MakeDb();
  struct Shape {
    const char* text;
    int truncation;  // -1 = inferred
    const char* plan;
  };
  for (const Shape& shape : std::vector<Shape>{
           {"x | R1(x)", -1, "scan R1"},
           {"x, y | Pairs(x, y)", -1, "scan Pairs"},
           {"y, x | Pairs(x, y)", -1, "project[1,0] > scan Pairs"},
           {"x, y | Pairs(y, x)", -1, "project[1,0] > scan Pairs"},
           {"y, x | Pairs(y, x)", -1, "scan Pairs"},
           {"x | exists y: Pairs(x, y)", -1, "project[0] > scan Pairs"},
           {"x | Pairs(x, x)", -1, "project[0] > filter-select > scan Pairs"},
           {"x, y | R1(x) & R3(y)", -1, "product > scan R1 > scan R3"},
           {"x | R1(x)", 1, "restrict > scan R1"},
           {"x | R1(x)", 2, "scan R1"},
       }) {
    Result<Query> q = Query::Compile(shape.text, db.alphabet());
    ASSERT_TRUE(q.ok()) << q.status();
    Result<std::string> plan =
        shape.truncation < 0 ? q->ExplainPlan(db)
                             : q->ExplainTruncated(db, shape.truncation);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // One operator per line, without a σ's automaton size, joined with
    // " > ".
    std::string ops;
    std::istringstream in(*plan);
    std::string line;
    while (std::getline(in, line)) {
      size_t begin = line.find_first_not_of(' ');
      size_t end = std::min(line.find("  (", begin), line.find("[fsa:"));
      ops += (ops.empty() ? "" : " > ") + line.substr(begin, end - begin);
    }
    EXPECT_EQ(ops, shape.plan) << shape.text << " at " << shape.truncation;
  }
}

// A guarded negation tests its guard's tuples and never enumerates
// Σ^{<=l}: over a W holding a 20-character string (so the inferred l is
// 20) both negations answer under a row budget of 4·|W|, with no
// generator or domain in the plan.  Without the rewrite the negated σ
// generated the 2^20 - 1 strings of Σ^{<=20} that start with `a`.
TEST(EngineTest, GuardedNegationNeverEnumeratesTheDomain) {
  Database db(Alphabet::Binary());
  const std::vector<Tuple> w = {
      {"abba"}, {"bab"}, {"bbbb"}, {"aaaaaaaaaabbbbbbbbbb"}};
  ASSERT_TRUE(db.Put("W", 1, w).ok());
  for (const char* text :
       {"x | W(x) & !([x]l(x = 'a'))",
        "x | W(x) & !(([x]l(true))* . [x]l(x = 'a') . [x]l(x = 'b'))"}) {
    Result<Query> q = Query::Compile(text, db.alphabet());
    ASSERT_TRUE(q.ok()) << q.status();
    Result<int> l = q->InferTruncation(db);
    ASSERT_TRUE(l.ok()) << l.status();
    ASSERT_EQ(*l, 20);
    Result<std::string> plan = q->ExplainPlan(db);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->find("gen-select"), std::string::npos) << *plan;
    EXPECT_EQ(plan->find("domain"), std::string::npos) << *plan;
    QueryOptions options;
    options.limits.max_rows = 4 * static_cast<int64_t>(w.size());
    Result<StringRelation> answer = q->Execute(db, options);
    ASSERT_TRUE(answer.ok()) << text << ": " << answer.status();
    // The calculus evaluator's answer: only W's tuples can satisfy the
    // guard, so ⟦φ⟧^l is the tuples of W at which φ holds.
    CalcEvalOptions calc;
    calc.truncation = *l;
    std::set<Tuple> expected;
    for (const Tuple& t : w) {
      Result<bool> holds = HoldsAt(q->formula(), db, {{"x", t[0]}}, calc);
      ASSERT_TRUE(holds.ok()) << holds.status();
      if (*holds) expected.insert(t);
    }
    EXPECT_EQ(answer->tuples(), expected) << text;
    EXPECT_FALSE(expected.empty()) << text;
    EXPECT_LT(expected.size(), w.size()) << text;
  }
}

}  // namespace
}  // namespace strdb
