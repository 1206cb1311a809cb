// The σ_A acceptance path (fsa/acceptor): Compile picks the DFA tier,
// then the CSR kernel, then the Theorem 3.3 BFS, and on every tier one
// AcceptBatch call reproduces per-tuple AcceptsWithStats — verdicts on
// good tuples, error codes on arity mismatches, foreign characters and
// exhausted budgets.
#include "fsa/acceptor.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/budget.h"
#include "fsa/accept.h"
#include "fsa/compile.h"
#include "strform/parser.h"
#include "testing/corpus.h"
#include "testing/random_source.h"

namespace strdb {
namespace {

using testgen::RngSource;
using Strings = std::vector<std::string>;

std::shared_ptr<const Fsa> CompileText(const char* text,
                                       const Alphabet& sigma) {
  Result<StringFormula> f = ParseStringFormula(text);
  EXPECT_TRUE(f.ok()) << f.status();
  Result<Fsa> fsa = CompileStringFormula(*f, sigma);
  EXPECT_TRUE(fsa.ok()) << fsa.status();
  return std::make_shared<const Fsa>(*std::move(fsa));
}

// Accepts iff tape 0 equals tape 1; tapes 2.. stay on ⊢.  With a
// 62-letter alphabet, 12 tapes put (|Σ|+2)^k past int64, so the kernel
// refuses the machine while its configuration space stays small.
std::shared_ptr<const Fsa> WideEquality(const Alphabet& sigma, int tapes) {
  const std::string idle(static_cast<size_t>(tapes - 2), '<');
  const std::string still(static_cast<size_t>(tapes - 2), '0');
  Fsa fsa(sigma, tapes);
  int accept = fsa.AddState();
  fsa.SetFinal(accept);
  EXPECT_TRUE(fsa.AddTransitionSpec(0, 0, "<<" + idle, "++" + still).ok());
  for (Sym s = 0; s < sigma.size(); ++s) {
    std::string pair(2, sigma.CharOf(s));
    EXPECT_TRUE(fsa.AddTransitionSpec(0, 0, pair + idle, "++" + still).ok());
  }
  EXPECT_TRUE(
      fsa.AddTransitionSpec(0, accept, ">>" + idle, "00" + still).ok());
  return std::make_shared<const Fsa>(std::move(fsa));
}

// One AcceptBatch over `tuples` against AcceptsWithStats per tuple.
// `limits` (when non-zero) bound a fresh budget for each per-tuple run
// and a single budget for the whole batch.
void ExpectBatchMatchesPerTuple(const Fsa& fsa, const Acceptor& acceptor,
                                const std::vector<Strings>& tuples,
                                int64_t max_steps = 0) {
  std::vector<const Strings*> ptrs;
  for (const Strings& t : tuples) ptrs.push_back(&t);
  ResourceLimits limits;
  limits.max_steps = max_steps;
  ResourceBudget batch_budget(limits);
  AcceptOptions batch_options;
  if (max_steps > 0) batch_options.budget = &batch_budget;
  AcceptBatchResult batch = acceptor.AcceptBatch(ptrs, batch_options);
  ASSERT_EQ(batch.statuses.size(), tuples.size());
  ASSERT_EQ(batch.accepted.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ResourceBudget budget(limits);
    AcceptOptions options;
    if (max_steps > 0) options.budget = &budget;
    Result<AcceptStats> one = AcceptsWithStats(fsa, tuples[i], options);
    if (!one.ok()) {
      EXPECT_EQ(batch.statuses[i].code(), one.status().code())
          << "tuple " << i << ": " << one.status();
      continue;
    }
    ASSERT_TRUE(batch.statuses[i].ok()) << "tuple " << i << ": "
                                        << batch.statuses[i];
    EXPECT_EQ(batch.accepted[i] != 0, one->accepted) << "tuple " << i;
  }
}

// Random tuples of `arity` over `sigma`, half of them with every column
// equal (so accepting paths of equality-style machines are exercised),
// followed by an arity mismatch and a foreign character.
std::vector<Strings> MixedBatch(const Alphabet& sigma, int arity,
                                RngSource& rng) {
  std::vector<Strings> tuples;
  for (int i = 0; i < 80; ++i) {
    std::string w = rng.String(sigma, 0, 6);
    Strings t;
    for (int c = 0; c < arity; ++c) {
      t.push_back(i % 2 == 0 ? w : rng.String(sigma, 0, 6));
    }
    tuples.push_back(std::move(t));
  }
  tuples.push_back(Strings(static_cast<size_t>(arity) + 1, ""));
  Strings foreign(static_cast<size_t>(arity), "");
  foreign[0] = "a~";
  tuples.push_back(std::move(foreign));
  return tuples;
}

// Tuples long enough that three search steps never decide them.
std::vector<Strings> LongBatch(const Alphabet& sigma, int arity) {
  const std::string w(16, sigma.CharOf(0));
  std::vector<Strings> tuples;
  for (int i = 0; i < 5; ++i) {
    Strings t(static_cast<size_t>(arity), "");
    t[0] = w;
    t[1] = w;
    if (arity > 2 && i % 2 == 0) t[2] = w;
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(AcceptorTest, EqualityRunsOnTheDfaTier) {
  Alphabet sigma = Alphabet::Binary();
  std::shared_ptr<const Fsa> eq = CompileText(testgen::kEqualityText, sigma);
  Acceptor acceptor = Acceptor::Compile(eq);
  EXPECT_EQ(acceptor.tier(), Acceptor::Tier::kDfa);
  EXPECT_GT(acceptor.MemoryCost(), 0);
  RngSource rng(1);
  ExpectBatchMatchesPerTuple(*eq, acceptor, MixedBatch(sigma, 2, rng));
  ExpectBatchMatchesPerTuple(*eq, acceptor, LongBatch(sigma, 2),
                             /*max_steps=*/3);
}

TEST(AcceptorTest, ConcatTesterRunsOnTheKernelTier) {
  Alphabet sigma = Alphabet::Binary();
  std::shared_ptr<const Fsa> concat =
      CompileText(testgen::kConcatText, sigma);
  Acceptor acceptor = Acceptor::Compile(concat);
  EXPECT_EQ(acceptor.tier(), Acceptor::Tier::kKernel);
  RngSource rng(2);
  std::vector<Strings> tuples = MixedBatch(sigma, 3, rng);
  // Genuine concatenations, so the kernel's accepting path runs too.
  for (int i = 0; i < 20; ++i) {
    std::string y = rng.String(sigma, 0, 4);
    std::string z = rng.String(sigma, 0, 4);
    tuples.push_back({y + z, y, z});
  }
  ExpectBatchMatchesPerTuple(*concat, acceptor, tuples);
  ExpectBatchMatchesPerTuple(*concat, acceptor, LongBatch(sigma, 3),
                             /*max_steps=*/3);
}

TEST(AcceptorTest, ThirtyThreeTapesFallToTheBfsTier) {
  // (|Σ|+2)^33 = 4^33 overflows int64: the kernel refuses the read-key
  // packing, and the DFA tier's move masks stop at 8 tapes.
  Alphabet sigma = Alphabet::Binary();
  auto fsa = std::make_shared<const Fsa>(sigma, 33);
  Acceptor acceptor = Acceptor::Compile(fsa);
  EXPECT_EQ(acceptor.tier(), Acceptor::Tier::kBfs);
  // Any 33-tuple's configuration space has at least 2^33 points, so only
  // inputs the BFS refuses before searching are run here: arity, a
  // foreign character, and a space past the int64 index range.
  Strings foreign(33, "");
  foreign[7] = "c";
  std::vector<Strings> tuples = {Strings(32, ""), foreign,
                                 Strings(33, "ab")};
  ExpectBatchMatchesPerTuple(*fsa, acceptor, tuples);
  AcceptBatchResult batch =
      acceptor.AcceptBatch(std::vector<const Strings*>{&tuples[2]});
  EXPECT_EQ(batch.statuses[0].code(), StatusCode::kResourceExhausted);
}

TEST(AcceptorTest, BfsTierDecidesLikeTheReference) {
  Result<Alphabet> sigma = Alphabet::Create(
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789");
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  std::shared_ptr<const Fsa> fsa = WideEquality(*sigma, 12);
  Acceptor acceptor = Acceptor::Compile(fsa);
  ASSERT_EQ(acceptor.tier(), Acceptor::Tier::kBfs);
  RngSource rng(3);
  std::vector<Strings> tuples;
  for (int i = 0; i < 40; ++i) {
    Strings t(12, "");
    t[0] = rng.String(*sigma, 0, 3);
    t[1] = i % 2 == 0 ? t[0] : rng.String(*sigma, 0, 3);
    tuples.push_back(std::move(t));
  }
  tuples.push_back(Strings(11, ""));
  Strings foreign(12, "");
  foreign[1] = "~";
  tuples.push_back(std::move(foreign));
  ExpectBatchMatchesPerTuple(*fsa, acceptor, tuples);
  ExpectBatchMatchesPerTuple(*fsa, acceptor, LongBatch(*sigma, 12),
                             /*max_steps=*/3);
}

}  // namespace
}  // namespace strdb
