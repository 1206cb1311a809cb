// Differential tests for the compiled acceptance kernel (fsa/kernel):
// the kernel must agree with AcceptsWithStats — the Theorem 3.3
// reference oracle — on accept/reject verdicts and on typed error
// codes, across random automata (one-way and two-way), the §2 compiled
// formulae, endmarker/empty-string edges, budget exhaustion and the
// configuration-space overflow guard.
#include "fsa/kernel.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/budget.h"
#include "engine/engine.h"
#include "fsa/accept.h"
#include "fsa/compile.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "strform/parser.h"
#include "testing/corpus.h"
#include "testing/generators.h"
#include "testing/random_source.h"

namespace strdb {
namespace {

using testgen::HasBackwardMove;
using testgen::RngSource;

// The shared structure-aware generator (src/testing), pinned to this
// suite's historical sweep: 1-3 tapes, 2-6 states, 3-12 transitions.
Fsa RandomFsa(RngSource& rng, const Alphabet& sigma, bool one_way_only) {
  testgen::FsaGenOptions options;
  options.one_way_only = one_way_only;
  return testgen::RandomFsa(rng, sigma, options);
}

// The headline property: >= 1000 random (automaton, tuple) pairs,
// including empty strings and both movement classes, with one scratch
// reused across every trial.
TEST(KernelDifferentialTest, AgreesWithOracleOnRandomAutomataAndTuples) {
  Alphabet sigma = Alphabet::Binary();
  RngSource rng(20260805);
  AcceptScratch scratch;
  int one_way_trials = 0;
  int two_way_trials = 0;
  int accepts = 0;
  constexpr int kAutomata = 300;
  constexpr int kTuplesPer = 4;
  for (int trial = 0; trial < kAutomata; ++trial) {
    Fsa fsa = RandomFsa(rng, sigma, /*one_way_only=*/trial % 2 == 0);
    Result<AcceptKernel> kernel = AcceptKernel::Compile(fsa);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    EXPECT_EQ(kernel->one_way(), !HasBackwardMove(fsa));
    (kernel->one_way() ? one_way_trials : two_way_trials) += kTuplesPer;
    for (int rep = 0; rep < kTuplesPer; ++rep) {
      std::vector<std::string> tuple;
      for (int i = 0; i < fsa.num_tapes(); ++i) {
        tuple.push_back(rng.String(sigma, 0, 4));
      }
      Result<AcceptStats> oracle = AcceptsWithStats(fsa, tuple);
      Result<AcceptStats> fast = scratch.Accept(*kernel, tuple);
      ASSERT_TRUE(oracle.ok());
      ASSERT_TRUE(fast.ok());
      ASSERT_EQ(oracle->accepted, fast->accepted)
          << "trial " << trial << " rep " << rep << "\n"
          << fsa.ToString();
      if (oracle->accepted) ++accepts;
    }
  }
  // Both movement classes and both verdicts must actually be covered.
  EXPECT_GE(one_way_trials, 300);
  EXPECT_GE(two_way_trials, 300);
  EXPECT_GE(one_way_trials + two_way_trials, 1000);
  EXPECT_GT(accepts, 20);
}

// The §2 workhorse formulae, on structured tuples the random sweep is
// unlikely to produce.
TEST(KernelDifferentialTest, AgreesWithOracleOnCompiledFormulae) {
  Alphabet sigma = Alphabet::Binary();
  const char* texts[] = {
      "([x,y]l(x = y))* . [x,y]l(x = y = ~)",
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
      "(([x,y]l(x = y))* . [y]l(y = ~) . ([y]r(!(y = ~)))* . [y]r(y = ~))* "
      ". ([x,y]l(x = y))* . [x,y]l(x = y = ~)",
  };
  RngSource rng(42);
  AcceptScratch scratch;
  for (const char* text : texts) {
    Result<StringFormula> f = ParseStringFormula(text);
    ASSERT_TRUE(f.ok()) << text;
    Result<Fsa> fsa = CompileStringFormula(*f, sigma);
    ASSERT_TRUE(fsa.ok()) << text;
    Result<AcceptKernel> kernel = AcceptKernel::Compile(*fsa);
    ASSERT_TRUE(kernel.ok());
    EXPECT_EQ(kernel->one_way(), !HasBackwardMove(*fsa)) << text;
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<std::string> tuple;
      std::string w = rng.String(sigma, 0, 5);
      tuple.push_back(w);
      // Half the reps feed correlated tuples (equal / doubled strings)
      // so accepting paths are exercised, not just rejections.
      for (int i = 1; i < fsa->num_tapes(); ++i) {
        tuple.push_back(rep % 2 == 0 ? w : rng.String(sigma, 0, 5));
      }
      Result<AcceptStats> oracle = AcceptsWithStats(*fsa, tuple);
      Result<AcceptStats> fast = scratch.Accept(*kernel, tuple);
      ASSERT_TRUE(oracle.ok());
      ASSERT_TRUE(fast.ok());
      EXPECT_EQ(oracle->accepted, fast->accepted) << text;
    }
  }
  // The manifold formula must have exercised the two-way path.
}

// Endmarker edges: machines that decide everything while scanning ⊢/⊣,
// including on the all-empty tuple, where positions 0 and |w|+1 are the
// only ones that exist.
TEST(KernelDifferentialTest, EndmarkerAndEmptyStringEdges) {
  Alphabet sigma = Alphabet::Binary();
  AcceptScratch scratch;
  // Accepts iff both strings are empty: step both heads off ⊢, demand
  // ⊣⊣, and only then reach the (exit-free) final state — under the
  // paper's stuck acceptance an early final state would accept
  // everything.
  Fsa both_empty(sigma, 2);
  int saw_left = both_empty.AddState();
  int accept_state = both_empty.AddState();
  both_empty.SetFinal(accept_state);
  ASSERT_TRUE(both_empty.AddTransitionSpec(0, saw_left, "<<", "++").ok());
  ASSERT_TRUE(
      both_empty.AddTransitionSpec(saw_left, accept_state, ">>", "00").ok());
  // A two-way variant of the same language: bounce the head off ⊣ back
  // onto ⊢ before accepting.
  Fsa bounce(sigma, 1);
  int mid = bounce.AddState();
  int fin = bounce.AddState();
  bounce.SetFinal(fin);
  ASSERT_TRUE(bounce.AddTransitionSpec(0, mid, "<", "+").ok());
  ASSERT_TRUE(bounce.AddTransitionSpec(mid, fin, ">", "-").ok());

  const std::vector<std::vector<std::string>> pairs = {
      {"", ""}, {"", "a"}, {"a", ""}, {"ab", "ab"}};
  for (const auto& tuple : pairs) {
    Result<AcceptKernel> kernel = AcceptKernel::Compile(both_empty);
    ASSERT_TRUE(kernel.ok());
    Result<AcceptStats> oracle = AcceptsWithStats(both_empty, tuple);
    Result<AcceptStats> fast = scratch.Accept(*kernel, tuple);
    ASSERT_TRUE(oracle.ok() && fast.ok());
    EXPECT_EQ(oracle->accepted, fast->accepted);
    EXPECT_EQ(oracle->accepted, tuple[0].empty() && tuple[1].empty());
  }
  Result<AcceptKernel> kernel = AcceptKernel::Compile(bounce);
  ASSERT_TRUE(kernel.ok());
  EXPECT_FALSE(kernel->one_way());
  for (const char* raw : {"", "a", "ba"}) {
    std::string w(raw);
    Result<AcceptStats> oracle = AcceptsWithStats(bounce, {w});
    Result<AcceptStats> fast = scratch.Accept(*kernel, {w});
    ASSERT_TRUE(oracle.ok() && fast.ok());
    EXPECT_EQ(oracle->accepted, fast->accepted);
    EXPECT_EQ(fast->accepted, w.empty());  // ⊣ sits at position 1 only for ε
  }
}

// Typed-error parity: bad arity and foreign characters are
// kInvalidArgument from both deciders, batch calls report them per
// tuple, and verdict slots stay meaningful for the OK tuples.
TEST(KernelDifferentialTest, InvalidInputsMatchOracleTyping) {
  Alphabet sigma = Alphabet::Binary();
  Result<StringFormula> f =
      ParseStringFormula("([x,y]l(x = y))* . [x,y]l(x = y = ~)");
  ASSERT_TRUE(f.ok());
  Result<Fsa> fsa = CompileStringFormula(*f, sigma);
  ASSERT_TRUE(fsa.ok());
  Result<AcceptKernel> kernel = AcceptKernel::Compile(*fsa);
  ASSERT_TRUE(kernel.ok());
  AcceptScratch scratch;

  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"ab"}, std::vector<std::string>{"ab", "xz"}}) {
    Result<AcceptStats> oracle = AcceptsWithStats(*fsa, bad);
    Result<AcceptStats> fast = scratch.Accept(*kernel, bad);
    ASSERT_FALSE(oracle.ok());
    ASSERT_FALSE(fast.ok());
    EXPECT_EQ(oracle.status().code(), fast.status().code());
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
  }

  std::vector<std::string> good = {"ab", "ab"};
  std::vector<std::string> bad = {"ab", "qq"};
  std::vector<const std::vector<std::string>*> batch = {&good, &bad, &good};
  AcceptBatchResult out = AcceptBatch(*kernel, batch, &scratch);
  ASSERT_EQ(out.statuses.size(), 3u);
  EXPECT_TRUE(out.statuses[0].ok());
  EXPECT_EQ(out.statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.statuses[2].ok());
  EXPECT_EQ(out.accepted[0], 1);
  EXPECT_EQ(out.accepted[2], 1);
  EXPECT_GT(out.configurations_visited, 0);
}

// Budget exhaustion surfaces as the same typed error from both
// deciders.
TEST(KernelDifferentialTest, BudgetExhaustionIsTypedIdentically) {
  Alphabet sigma = Alphabet::Binary();
  Result<StringFormula> f =
      ParseStringFormula("([x,y]l(x = y))* . [x,y]l(x = y = ~)");
  ASSERT_TRUE(f.ok());
  Result<Fsa> fsa = CompileStringFormula(*f, sigma);
  ASSERT_TRUE(fsa.ok());
  Result<AcceptKernel> kernel = AcceptKernel::Compile(*fsa);
  ASSERT_TRUE(kernel.ok());
  AcceptScratch scratch;

  std::string w(64, 'a');
  ResourceLimits limits;
  limits.max_steps = 3;
  ResourceBudget oracle_budget(limits);
  ResourceBudget kernel_budget(limits);
  AcceptOptions oracle_opts;
  oracle_opts.budget = &oracle_budget;
  AcceptOptions kernel_opts;
  kernel_opts.budget = &kernel_budget;
  Result<AcceptStats> oracle = AcceptsWithStats(*fsa, {w, w}, oracle_opts);
  Result<AcceptStats> fast = scratch.Accept(*kernel, {w, w}, kernel_opts);
  ASSERT_FALSE(oracle.ok());
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fast.status().code(), StatusCode::kResourceExhausted);
}

// Regression for the stride-multiplication overflow: many tapes × long
// strings used to wrap int64 and index out of bounds; now both the
// oracle and the kernel refuse with kResourceExhausted.
TEST(OverflowRegressionTest, AdversarialTapeLengthsAreRefusedTyped) {
  Alphabet sigma = Alphabet::Binary();
  constexpr int kTapes = 4;
  Fsa fsa(sigma, kTapes);
  fsa.SetFinal(0);
  // Π(|w_i|+2) = 65536^4 = 2^64 overflows the int64 index space.
  std::vector<std::string> huge(kTapes, std::string(65534, 'a'));

  Result<AcceptStats> oracle = AcceptsWithStats(fsa, huge);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);

  Result<AcceptKernel> kernel = AcceptKernel::Compile(fsa);
  ASSERT_TRUE(kernel.ok());
  AcceptScratch scratch;
  Result<AcceptStats> fast = scratch.Accept(*kernel, huge);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kResourceExhausted);

  // Sanity: the same machine still decides reasonable inputs.
  std::vector<std::string> small(kTapes, "ab");
  Result<AcceptStats> ok = scratch.Accept(*kernel, small);
  ASSERT_TRUE(ok.ok());
  Result<AcceptStats> oracle_ok = AcceptsWithStats(fsa, small);
  ASSERT_TRUE(oracle_ok.ok());
  EXPECT_EQ(ok->accepted, oracle_ok->accepted);
}

// One scratch across different kernels and alternating tuple shapes:
// stale per-tuple state (strides, rank rows, slot maps, bitmap epochs)
// must never leak between runs.
TEST(KernelScratchTest, ReuseAcrossKernelsAndShapesStaysCorrect) {
  Alphabet sigma = Alphabet::Binary();
  RngSource rng(7);
  AcceptScratch scratch;
  std::vector<std::pair<Fsa, AcceptKernel>> machines;
  for (int i = 0; i < 6; ++i) {
    Fsa fsa = RandomFsa(rng, sigma, i % 2 == 0);
    Result<AcceptKernel> kernel = AcceptKernel::Compile(fsa);
    ASSERT_TRUE(kernel.ok());
    machines.emplace_back(std::move(fsa), std::move(kernel).value());
  }
  for (int round = 0; round < 50; ++round) {
    auto& [fsa, kernel] = machines[static_cast<size_t>(round) % machines.size()];
    std::vector<std::string> tuple;
    for (int i = 0; i < fsa.num_tapes(); ++i) {
      tuple.push_back(rng.String(sigma, 0, round % 7));
    }
    Result<AcceptStats> oracle = AcceptsWithStats(fsa, tuple);
    Result<AcceptStats> fast = scratch.Accept(kernel, tuple);
    ASSERT_TRUE(oracle.ok() && fast.ok());
    ASSERT_EQ(oracle->accepted, fast->accepted) << "round " << round;
  }
}

// A one-way machine with more states than a 64-bit state set can hold:
// the bitset fast path must step aside and the multi-word slot fallback
// must still match the oracle everywhere around the length threshold.
TEST(KernelDifferentialTest, WideOneWayAutomatonUsesFallbackCorrectly) {
  Alphabet sigma = Alphabet::Binary();
  Fsa chain(sigma, 1);
  constexpr int kChain = 70;  // > 64 states
  while (chain.num_states() < kChain) chain.AddState();
  ASSERT_TRUE(chain.AddTransitionSpec(0, 1, "<", "+").ok());
  for (int s = 1; s + 1 < kChain; ++s) {
    ASSERT_TRUE(chain.AddTransitionSpec(s, s + 1, "a", "+").ok());
    ASSERT_TRUE(chain.AddTransitionSpec(s, s + 1, "b", "+").ok());
  }
  chain.SetFinal(kChain - 1);

  Result<AcceptKernel> kernel = AcceptKernel::Compile(chain);
  ASSERT_TRUE(kernel.ok());
  EXPECT_TRUE(kernel->one_way());
  EXPECT_GT(kernel->num_states(), 64);

  RngSource rng(31);
  AcceptScratch scratch;
  int accepts = 0;
  for (int len = kChain - 4; len <= kChain; ++len) {
    for (int rep = 0; rep < 8; ++rep) {
      std::string w = rng.String(sigma, len, len);
      Result<AcceptStats> oracle = AcceptsWithStats(chain, {w});
      Result<AcceptStats> fast = scratch.Accept(*kernel, {w});
      ASSERT_TRUE(oracle.ok() && fast.ok());
      ASSERT_EQ(oracle->accepted, fast->accepted) << "len " << len;
      if (fast->accepted) ++accepts;
    }
  }
  // The chain accepts exactly the lengths that reach (and get stuck in)
  // the final state, so both verdicts must occur across the sweep.
  EXPECT_GT(accepts, 0);
  EXPECT_LT(accepts, 5 * 8);
}

// Engine-level parity: a σ_A filter served by the kernel tier returns
// the naive evaluator's relation, and its acceptor is compiled once then
// hit in the cache.
TEST(KernelEngineTest, FilterSelectMatchesNaiveThenHitsTheCache) {
  Alphabet sigma = Alphabet::Binary();
  Database db(sigma);
  RngSource rng(99);
  std::vector<Tuple> triples;
  for (int i = 0; i < 64; ++i) {
    std::string y = rng.String(sigma, 0, 4);
    std::string z = rng.String(sigma, 0, 4);
    triples.push_back({rng.Coin() ? y + z : rng.String(sigma, 0, 8), y, z});
  }
  ASSERT_TRUE(db.Put("Triples", 3, std::move(triples)).ok());
  // The §4 concatenation tester x = y·z guesses its split point, so the
  // DFA tier refuses it and the kernel serves it.
  Result<StringFormula> f = ParseStringFormula(testgen::kConcatText);
  ASSERT_TRUE(f.ok());
  Result<Fsa> concat = CompileStringFormula(*f, sigma);
  ASSERT_TRUE(concat.ok());
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("Triples", 3), *concat);
  ASSERT_TRUE(sel.ok());
  EvalOptions opts;
  opts.truncation = 10;

  Engine engine;
  ExecStats cold;
  Result<StringRelation> fast = engine.Execute(*sel, db, opts, &cold);
  Result<StringRelation> naive = EvalAlgebra(*sel, db, opts);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(fast->tuples(), naive->tuples());
  EXPECT_GT(fast->size(), 0);
  EXPECT_GT(cold.cache_misses, 0);

  // Second run: the compiled acceptor is an artifact-cache hit.
  ExecStats warm;
  ASSERT_TRUE(engine.Execute(*sel, db, opts, &warm).ok());
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_EQ(warm.cache_misses, 0);
}

}  // namespace
}  // namespace strdb
