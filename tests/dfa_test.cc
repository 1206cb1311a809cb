// Differential tests for the DFA codegen tier (fsa/dfa + fsa/codegen):
// the determinised, minimised, bytecode-compiled chain must agree with
// the Theorem 3.3 reference oracle AND the CSR kernel on every verdict
// and typed error it is willing to produce, refuse exactly the machines
// outside its applicability class (two-way, nondeterministic head
// schedules), survive the textbook 2^n subset blowup behind its caps,
// and give identical answers from the scalar and the batch interpreters.
#include "fsa/codegen/program.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/budget.h"
#include "core/metrics.h"
#include "fsa/accept.h"
#include "fsa/compile.h"
#include "fsa/dfa/dfa.h"
#include "fsa/kernel.h"
#include "strform/parser.h"
#include "testing/corpus.h"
#include "testing/generators.h"
#include "testing/random_source.h"

namespace strdb {
namespace {

using testgen::HasBackwardMove;
using testgen::RngSource;

Fsa CompileText(const char* text, const Alphabet& sigma) {
  Result<StringFormula> f = ParseStringFormula(text);
  EXPECT_TRUE(f.ok()) << text;
  Result<Fsa> fsa = CompileStringFormula(*f, sigma);
  EXPECT_TRUE(fsa.ok()) << text;
  return *fsa;
}

// The §2 corpus splits cleanly across the applicability line: the
// equality scanners are move-deterministic and must compile; the
// concatenation/shuffle testers guess a split point (heads fan out over
// distinct position vectors) and the manifold machine is two-way — all
// three must be refused with kUnimplemented, the engine's signal to
// stay on the CSR kernel.
TEST(DfaCompileTest, CorpusSplitsAcrossApplicability) {
  Alphabet sigma = Alphabet::Binary();
  for (const char* text : {testgen::kEqualityText, testgen::kEquality3Text}) {
    Fsa fsa = CompileText(text, sigma);
    Result<DfaProgram> p = DfaProgram::Compile(fsa);
    ASSERT_TRUE(p.ok()) << text << ": " << p.status();
    EXPECT_GT(p->num_states(), 0);
    EXPECT_LE(p->build_stats().states_after_min,
              p->build_stats().states_before_min);
  }
  for (const char* text : {testgen::kConcatText, testgen::kShuffleText,
                           testgen::kManifoldText}) {
    Fsa fsa = CompileText(text, sigma);
    Result<DfaProgram> p = DfaProgram::Compile(fsa);
    ASSERT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.status().code(), StatusCode::kUnimplemented) << text;
  }
}

// Three-way parity on the compilable corpus machines: oracle, kernel
// and DFA (scalar) on correlated and random tuples.
TEST(DfaDifferentialTest, CorpusMachinesAgreeWithOracleAndKernel) {
  Alphabet sigma = Alphabet::Binary();
  RngSource rng(7);
  AcceptScratch kscratch;
  DfaScratch dscratch;
  int accepts = 0;
  for (const char* text : {testgen::kEqualityText, testgen::kEquality3Text}) {
    Fsa fsa = CompileText(text, sigma);
    Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
    ASSERT_TRUE(dfa.ok());
    Result<AcceptKernel> kernel = AcceptKernel::Compile(fsa);
    ASSERT_TRUE(kernel.ok());
    for (int rep = 0; rep < 60; ++rep) {
      std::vector<std::string> tuple;
      std::string w = rng.String(sigma, 0, 6);
      tuple.push_back(w);
      for (int i = 1; i < fsa.num_tapes(); ++i) {
        tuple.push_back(rep % 2 == 0 ? w : rng.String(sigma, 0, 6));
      }
      Result<AcceptStats> oracle = AcceptsWithStats(fsa, tuple);
      Result<AcceptStats> fast = kscratch.Accept(*kernel, tuple);
      Result<AcceptStats> chain = dfa->Accept(tuple, &dscratch);
      ASSERT_TRUE(oracle.ok() && fast.ok() && chain.ok());
      ASSERT_EQ(oracle->accepted, chain->accepted) << text << " on rep " << rep;
      ASSERT_EQ(fast->accepted, chain->accepted) << text << " on rep " << rep;
      if (chain->accepted) ++accepts;
    }
  }
  EXPECT_GT(accepts, 30);  // the correlated half must actually accept
}

// The membership NFA is the classic subset-construction showcase; the
// DFA must agree with the oracle on matches, near-misses and ε.
TEST(DfaDifferentialTest, MemberPatternAgreesWithOracle) {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = testgen::MakeMember(sigma, "abab");
  Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
  ASSERT_TRUE(dfa.ok()) << dfa.status();
  DfaScratch scratch;
  RngSource rng(11);
  int accepts = 0;
  for (int rep = 0; rep < 200; ++rep) {
    std::string w = rng.String(sigma, 0, 12);
    if (rep % 4 == 0) w += "abab";  // force accepting paths
    Result<AcceptStats> oracle = AcceptsWithStats(fsa, {w});
    Result<AcceptStats> chain = dfa->Accept({w}, &scratch);
    ASSERT_TRUE(oracle.ok() && chain.ok());
    ASSERT_EQ(oracle->accepted, chain->accepted) << "\"" << w << "\"";
    if (oracle->accepted) ++accepts;
  }
  // Agreement alone is vacuous if both sides reject everything — the
  // machine once silently did exactly that by never stepping off ⊢.
  EXPECT_GE(accepts, 50);  // at least the forced-suffix quarter
}

// Random one-way sweep: every machine the tier accepts must agree with
// the oracle; refusals must carry one of the two sanctioned codes.  The
// generator's distribution must actually land a healthy share of
// machines inside the applicability class for the tier to be worth it.
TEST(DfaDifferentialTest, RandomOneWayMachinesAgreeWithOracle) {
  Alphabet sigma = Alphabet::Binary();
  RngSource rng(20260807);
  DfaScratch scratch;
  int compiled = 0;
  int refused = 0;
  for (int trial = 0; trial < 400; ++trial) {
    testgen::FsaGenOptions options;
    options.one_way_only = true;
    Fsa fsa = testgen::RandomFsa(rng, sigma, options);
    Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
    if (!dfa.ok()) {
      ++refused;
      EXPECT_TRUE(dfa.status().code() == StatusCode::kUnimplemented ||
                  dfa.status().code() == StatusCode::kResourceExhausted)
          << dfa.status();
      continue;
    }
    ++compiled;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<std::string> tuple;
      for (int i = 0; i < fsa.num_tapes(); ++i) {
        tuple.push_back(rng.String(sigma, 0, 5));
      }
      Result<AcceptStats> oracle = AcceptsWithStats(fsa, tuple);
      Result<AcceptStats> chain = dfa->Accept(tuple, &scratch);
      ASSERT_TRUE(oracle.ok() && chain.ok());
      ASSERT_EQ(oracle->accepted, chain->accepted)
          << "trial " << trial << " rep " << rep << "\n"
          << fsa.ToString();
    }
  }
  EXPECT_GT(compiled, 50);
  EXPECT_GT(refused, 0);
}

// Two-way machines have no synchronized-chain form; refusal must be
// typed kUnimplemented (never a crash, never a wrong verdict).
TEST(DfaCompileTest, TwoWayMachinesRefused) {
  Alphabet sigma = Alphabet::Binary();
  Fsa bounce(sigma, 1);
  int mid = bounce.AddState();
  int fin = bounce.AddState();
  bounce.SetFinal(fin);
  ASSERT_TRUE(bounce.AddTransitionSpec(0, mid, "<", "+").ok());
  ASSERT_TRUE(bounce.AddTransitionSpec(mid, fin, ">", "-").ok());
  Result<DfaProgram> p = DfaProgram::Compile(bounce);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kUnimplemented);
}

// The 2^n blowup family pins the cap: n = 18 must be refused at the
// default 4096-state cap with kResourceExhausted (the engine's silent
// fallback signal), small n must compile and stay correct, and a
// deliberately tiny cap must trip even on small machines.
TEST(DfaCompileTest, SubsetBlowupTripsTheCap) {
  Alphabet sigma = Alphabet::Binary();

  Fsa big = testgen::MakeBlowup(sigma, 18);
  Result<DfaProgram> refused = DfaProgram::Compile(big);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  Fsa small = testgen::MakeBlowup(sigma, 4);
  Result<DfaProgram> ok = DfaProgram::Compile(small);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_GT(ok->build_stats().states_before_min, 16);
  DfaScratch scratch;
  RngSource rng(3);
  for (int rep = 0; rep < 120; ++rep) {
    std::string w = rng.String(sigma, 0, 10);
    Result<AcceptStats> oracle = AcceptsWithStats(small, {w});
    Result<AcceptStats> chain = ok->Accept({w}, &scratch);
    ASSERT_TRUE(oracle.ok() && chain.ok());
    ASSERT_EQ(oracle->accepted, chain->accepted) << "\"" << w << "\"";
  }

  DfaBuildOptions tiny;
  tiny.max_states = 2;
  Result<DfaProgram> capped = DfaProgram::Compile(small, tiny);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);

  DfaBuildOptions thin;
  thin.max_table_bytes = 64;
  Result<DfaProgram> starved = DfaProgram::Compile(small, thin);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
}

// Batch and scalar interpreters are two executions of the same row
// table and must never disagree — including across the lane-refill
// boundary (more tuples than lanes) and on per-tuple typed errors.
TEST(DfaBatchTest, BatchMatchesScalar) {
  Alphabet sigma = Alphabet::Binary();
  RngSource rng(99);
  DfaScratch scratch;
  for (const char* text : {testgen::kEqualityText, testgen::kEquality3Text}) {
    Fsa fsa = CompileText(text, sigma);
    Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
    ASSERT_TRUE(dfa.ok());
    std::vector<std::vector<std::string>> tuples;
    for (int t = 0; t < 300; ++t) {
      std::vector<std::string> tuple;
      std::string w = rng.String(sigma, 0, 8);
      tuple.push_back(w);
      for (int i = 1; i < fsa.num_tapes(); ++i) {
        tuple.push_back(t % 2 == 0 ? w : rng.String(sigma, 0, 8));
      }
      tuples.push_back(std::move(tuple));
    }
    tuples[17][0] = "qqq";  // foreign characters: per-tuple error
    tuples[230].pop_back();  // arity error past the first refill
    std::vector<const std::vector<std::string>*> ptrs;
    for (const auto& t : tuples) ptrs.push_back(&t);
    AcceptBatchResult batch = AcceptBatch(*dfa, ptrs, &scratch);
    ASSERT_EQ(batch.statuses.size(), tuples.size());
    for (size_t t = 0; t < tuples.size(); ++t) {
      Result<AcceptStats> one = dfa->Accept(tuples[t], &scratch);
      if (!one.ok()) {
        EXPECT_EQ(one.status().code(), batch.statuses[t].code()) << t;
        continue;
      }
      ASSERT_TRUE(batch.statuses[t].ok()) << t << ": " << batch.statuses[t];
      EXPECT_EQ(batch.accepted[t] != 0, one->accepted) << t;
    }
  }
}

// Budget exhaustion is a typed per-tuple error from both interpreters,
// and verdicts produced before the budget ran dry stay valid.
TEST(DfaBatchTest, BudgetExhaustionIsTypedAndPartial) {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = CompileText(testgen::kEqualityText, sigma);
  Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
  ASSERT_TRUE(dfa.ok());
  DfaScratch scratch;

  ResourceLimits limits;
  limits.max_steps = 4;
  ResourceBudget budget(limits);
  AcceptOptions options;
  options.budget = &budget;
  std::string w(64, 'a');
  Result<AcceptStats> starved = dfa->Accept({w, w}, &scratch, options);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  ResourceBudget batch_budget(limits);
  AcceptOptions batch_options;
  batch_options.budget = &batch_budget;
  std::vector<std::string> t0 = {w, w};
  std::vector<std::string> t1 = {w, w};
  std::vector<const std::vector<std::string>*> ptrs = {&t0, &t1};
  AcceptBatchResult out = AcceptBatch(*dfa, ptrs, &scratch, batch_options);
  ASSERT_FALSE(out.statuses[0].ok());
  ASSERT_FALSE(out.statuses[1].ok());
  EXPECT_EQ(out.statuses[0].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.statuses[1].code(), StatusCode::kResourceExhausted);

  // A roomy budget decides both and charges the actual chain steps.
  ResourceLimits roomy;
  roomy.max_steps = 100000;
  ResourceBudget fine(roomy);
  AcceptOptions fine_options;
  fine_options.budget = &fine;
  AcceptBatchResult good = AcceptBatch(*dfa, ptrs, &scratch, fine_options);
  EXPECT_TRUE(good.statuses[0].ok() && good.statuses[1].ok());
  EXPECT_EQ(good.accepted[0], 1);
  EXPECT_GT(fine.steps_used(), 0);
}

// Invalid inputs carry the same code (and message) as the kernel, so
// the engine can swap tiers without changing what callers observe.
TEST(DfaDifferentialTest, InvalidInputsMatchKernelTyping) {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = CompileText(testgen::kEqualityText, sigma);
  Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
  Result<AcceptKernel> kernel = AcceptKernel::Compile(fsa);
  ASSERT_TRUE(dfa.ok() && kernel.ok());
  DfaScratch dscratch;
  AcceptScratch kscratch;
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"ab"}, std::vector<std::string>{"ab", "xz"},
        std::vector<std::string>{"ab", "ab", "ab"}}) {
    Result<AcceptStats> fast = kscratch.Accept(*kernel, bad);
    Result<AcceptStats> chain = dfa->Accept(bad, &dscratch);
    ASSERT_FALSE(fast.ok());
    ASSERT_FALSE(chain.ok());
    EXPECT_EQ(fast.status().code(), chain.status().code());
    EXPECT_EQ(fast.status().message(), chain.status().message());
  }
}

// Minimisation must collapse the pre-collapse + refinement fixpoint:
// the blowup family's interned subsets encode the full a/b window but
// its language ("an 'a' with ≥ n trailing characters") only needs a
// countdown, so the minimal DFA is far below the subset count.
TEST(DfaCompileTest, MinimisationShrinksAndStatsAreVisible) {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = testgen::MakeBlowup(sigma, 4);
  Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
  ASSERT_TRUE(dfa.ok());
  const DfaBuildStats& stats = dfa->build_stats();
  EXPECT_GT(stats.states_before_min, 0);
  EXPECT_GT(stats.num_keys, 0);
  EXPECT_LT(stats.states_after_min, stats.states_before_min);
  EXPECT_EQ(dfa->num_states(), stats.states_after_min);

  int64_t before = MetricsRegistry::Global()
                       .GetCounter("fsa.dfa.compiles")
                       ->value();
  Result<DfaProgram> again = DfaProgram::Compile(fsa);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("fsa.dfa.compiles")->value(),
            before + 1);
}

// Concurrent compiles of the same machine from many threads (the TSan
// leg's target): DfaProgram is built independently per thread and each
// copy must be internally consistent.
TEST(DfaCompileTest, ConcurrentCompileAndRunIsRaceFree) {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = CompileText(testgen::kEquality3Text, sigma);
  Result<DfaProgram> shared = DfaProgram::Compile(fsa);
  ASSERT_TRUE(shared.ok());
  const DfaProgram& program = *shared;
  std::vector<std::thread> threads;
  std::vector<int> verdicts(8, -1);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&program, &fsa, &verdicts, i, &sigma] {
      // Half the threads recompile, all of them execute the shared
      // program through their own scratch.
      if (i % 2 == 0) {
        Result<DfaProgram> own = DfaProgram::Compile(fsa);
        ASSERT_TRUE(own.ok());
      }
      DfaScratch scratch;
      RngSource rng(1000 + i);
      int accepted = 0;
      for (int rep = 0; rep < 50; ++rep) {
        std::string w = rng.String(sigma, 0, 5);
        std::vector<std::string> tuple = {w, w, w};
        Result<AcceptStats> r = program.Accept(tuple, &scratch);
        ASSERT_TRUE(r.ok());
        if (r->accepted) ++accepted;
      }
      verdicts[static_cast<size_t>(i)] = accepted;
    });
  }
  for (auto& t : threads) t.join();
  for (int v : verdicts) EXPECT_EQ(v, 50);  // x=y=z tuples all accept
}

}  // namespace
}  // namespace strdb
