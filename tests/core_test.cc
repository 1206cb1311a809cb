#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/alphabet.h"
#include "core/budget.h"
#include "core/metrics.h"
#include "core/result.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/thread_pool.h"

namespace strdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid-argument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not-found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "already-exists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "out-of-range");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  STRDB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r = DoublePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  Result<int> r = DoublePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(AlphabetTest, CreateRejectsTiny) {
  EXPECT_FALSE(Alphabet::Create("a").ok());
  EXPECT_FALSE(Alphabet::Create("aa").ok());
  EXPECT_TRUE(Alphabet::Create("ab").ok());
}

TEST(AlphabetTest, CreateRejectsReservedChars) {
  EXPECT_FALSE(Alphabet::Create("a<").ok());
  EXPECT_FALSE(Alphabet::Create("a>").ok());
  EXPECT_FALSE(Alphabet::Create("a b").ok());
}

TEST(AlphabetTest, DnaRoundTrip) {
  Alphabet dna = Alphabet::Dna();
  EXPECT_EQ(dna.size(), 4);
  Result<std::vector<Sym>> enc = dna.Encode("gattaca");
  ASSERT_TRUE(enc.ok());
  Result<std::string> dec = dna.Decode(*enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, "gattaca");
}

TEST(AlphabetTest, EncodeRejectsForeign) {
  Alphabet dna = Alphabet::Dna();
  EXPECT_FALSE(dna.Encode("gattaca!").ok());
  EXPECT_FALSE(dna.Contains("xyz"));
  EXPECT_TRUE(dna.Contains("acgt"));
  EXPECT_TRUE(dna.Contains(""));
}

TEST(AlphabetTest, SymOfAndCharOf) {
  Alphabet bin = Alphabet::Binary();
  Result<Sym> a = bin.SymOf('a');
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(bin.CharOf(*a), 'a');
  EXPECT_FALSE(bin.SymOf('z').ok());
  EXPECT_EQ(bin.CharOf(kLeftEnd), '<');
  EXPECT_EQ(bin.CharOf(kRightEnd), '>');
}

TEST(AlphabetTest, StringsOfLength) {
  Alphabet bin = Alphabet::Binary();
  EXPECT_EQ(bin.StringsOfLength(0), std::vector<std::string>{""});
  EXPECT_EQ(bin.StringsOfLength(2).size(), 4u);
  EXPECT_EQ(bin.StringsUpTo(3).size(), 1u + 2u + 4u + 8u);
}

TEST(AlphabetTest, TapeSymbolsIncludesEndmarkers) {
  Alphabet bin = Alphabet::Binary();
  std::vector<Sym> syms = bin.TapeSymbols();
  EXPECT_EQ(syms.size(), 4u);
  EXPECT_EQ(syms[2], kLeftEnd);
  EXPECT_EQ(syms[3], kRightEnd);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, RangeInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.Range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, StringUsesAlphabet) {
  Rng rng(9);
  Alphabet dna = Alphabet::Dna();
  std::string s = rng.String(dna, 50);
  EXPECT_EQ(s.size(), 50u);
  EXPECT_TRUE(dna.Contains(s));
}

// --- ThreadPool exception safety -----------------------------------------

TEST(ThreadPoolStressTest, ParallelForRethrowsFirstChunkException) {
  ThreadPool pool(4);
  std::atomic<int64_t> covered{0};
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&covered](int64_t begin, int64_t end) {
                         covered += end - begin;
                         if (begin == 0) throw std::runtime_error("chunk boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(covered.load(), 1000);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForCallersAreIndependent) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int64_t kN = 5000;
  std::vector<std::atomic<int64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      pool.ParallelFor(kN, [&sums, c](int64_t begin, int64_t end) {
        int64_t s = 0;
        for (int64_t i = begin; i < end; ++i) s += i;
        sums[static_cast<size_t>(c)] += s;
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[static_cast<size_t>(c)].load(), kN * (kN - 1) / 2);
  }
}

// --- Metrics --------------------------------------------------------------

TEST(MetricsTest, CounterAndGauge) {
  Counter c;
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5);
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(MetricsTest, HistogramRecordsAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
  for (int64_t v : {0, 1, 2, 3, 100, 1000}) h.Record(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 1106);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  // Quantiles are bucket upper bounds: p100 lands in [512, 1024).
  EXPECT_GE(h.Quantile(1.0), 1000);
  EXPECT_LE(h.Quantile(0.0), 1);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndDumpsJson) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(c, reg.GetCounter("test.registry.counter"));
  c->Increment(3);
  reg.GetGauge("test.registry.gauge")->Set(-2);
  reg.GetHistogram("test.registry.hist")->Record(7);
  std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"test.registry.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.gauge\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsTest, DumpJsonEscapesHostileNames) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Instrument names flow straight into the dump as JSON keys; anything
  // a caller can put in a std::string must come out escaped, not as
  // broken JSON.
  reg.GetCounter("hostile \"quoted\"\\back\nnew\tline\x01" "end")->Increment(9);
  std::string json = reg.DumpJson();
  EXPECT_NE(
      json.find("\"hostile \\\"quoted\\\"\\\\back\\nnew\\tline\\u0001end\": 9"),
      std::string::npos)
      << json;
  // No raw control character may survive inside a JSON string; the only
  // ones in the dump are the pretty-printer's structural newlines.
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (in_string) {
      EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20u) << "at byte " << i;
    }
  }
}

TEST(MetricsTest, HistogramIsThreadSafeUnderConcurrentRecords) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(i % 128);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.max(), 127);
}

// --- ResourceBudget -------------------------------------------------------

TEST(ResourceBudgetTest, UnlimitedByDefault) {
  ResourceBudget budget;
  EXPECT_TRUE(budget.ChargeSteps(1 << 20).ok());
  EXPECT_TRUE(budget.ChargeRows(1 << 20).ok());
  EXPECT_TRUE(budget.ChargeCachedBytes(1 << 20).ok());
  EXPECT_TRUE(budget.CheckDeadline().ok());
  EXPECT_EQ(budget.steps_used(), 1 << 20);
}

TEST(ResourceBudgetTest, StepsExhaustion) {
  ResourceLimits limits;
  limits.max_steps = 100;
  ResourceBudget budget(limits);
  EXPECT_TRUE(budget.ChargeSteps(100).ok());
  Status s = budget.ChargeSteps(1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("steps"), std::string::npos);
}

TEST(ResourceBudgetTest, RowsAndBytesExhaustion) {
  ResourceLimits limits;
  limits.max_rows = 10;
  limits.max_cached_bytes = 1024;
  ResourceBudget budget(limits);
  EXPECT_TRUE(budget.ChargeRows(10).ok());
  EXPECT_EQ(budget.ChargeRows(1).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.ChargeCachedBytes(1024).ok());
  EXPECT_EQ(budget.ChargeCachedBytes(1).code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceBudgetTest, DeadlineExpires) {
  ResourceLimits limits;
  limits.deadline_ms = 1;
  ResourceBudget budget(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status s = budget.CheckDeadline();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("deadline"), std::string::npos);
}

TEST(ResourceBudgetTest, ChargingIsThreadSafe) {
  ResourceLimits limits;
  limits.max_steps = 100000;
  ResourceBudget budget(limits);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30000;  // kThreads * kPerThread spills over
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!budget.ChargeSteps(1).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.steps_used(), int64_t{kThreads} * kPerThread);
  EXPECT_GT(failures.load(), 0);
}

// --- hierarchical ResourceBudget -------------------------------------------

TEST(ResourceBudgetHierarchyTest, ChildMirrorsChargesAndReleasesOnDeath) {
  ResourceBudget parent;  // unlimited admission account
  {
    ResourceBudget child(ResourceLimits{}, &parent);
    EXPECT_TRUE(child.ChargeSteps(10).ok());
    EXPECT_TRUE(child.ChargeRows(4).ok());
    EXPECT_TRUE(child.ChargeCachedBytes(256).ok());
    EXPECT_EQ(parent.steps_used(), 10);
    EXPECT_EQ(parent.rows_used(), 4);
    EXPECT_EQ(parent.cached_bytes_used(), 256);
  }
  EXPECT_EQ(parent.steps_used(), 0);
  EXPECT_EQ(parent.rows_used(), 0);
  EXPECT_EQ(parent.cached_bytes_used(), 0);
}

TEST(ResourceBudgetHierarchyTest, ParentVerdictNamesItsScope) {
  ResourceLimits global;
  global.max_steps = 100;
  ResourceBudget parent(global, nullptr, "server");
  ResourceBudget child(ResourceLimits{}, &parent);
  EXPECT_TRUE(child.ChargeSteps(100).ok());
  Status s = child.ChargeSteps(1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("server budget"), std::string::npos);
}

TEST(ResourceBudgetHierarchyTest, ChildDeathRestoresParentHeadroom) {
  ResourceLimits global;
  global.max_steps = 100;
  ResourceBudget parent(global);
  {
    ResourceBudget child(ResourceLimits{}, &parent);
    EXPECT_TRUE(child.ChargeSteps(100).ok());
    EXPECT_FALSE(ResourceBudget(ResourceLimits{}, &parent)
                     .ChargeSteps(1)
                     .ok());  // account full while the child lives
  }
  ResourceBudget next(ResourceLimits{}, &parent);
  EXPECT_TRUE(next.ChargeSteps(100).ok());  // in-flight usage handed back
}

// The server invariant, exercised the way the dispatcher does it: many
// concurrent sessions each opening short-lived child budgets against
// one global parent.  Run under TSan this doubles as a data-race check
// on the charge/release paths; the assertions check no charge is lost
// or double-counted.
TEST(ResourceBudgetHierarchyTest, ConcurrentChildrenBalanceToZero) {
  ResourceLimits global;
  global.max_steps = 100;  // far below per-child demand: rejections happen
  ResourceBudget parent(global, nullptr, "server");
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 50;
  std::atomic<int64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&parent, &rejected] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        ResourceBudget child(ResourceLimits{}, &parent);
        for (int i = 0; i < 40; ++i) {
          if (!child.ChargeSteps(5).ok()) {
            ++rejected;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every child released exactly what it mirrored (including the
  // overshooting charge): the global account is back at baseline.
  EXPECT_EQ(parent.steps_used(), 0);
  EXPECT_EQ(parent.rows_used(), 0);
  // 8 threads racing 200-step demands against a 100-step account: some
  // children must have been turned away.
  EXPECT_GT(rejected.load(), 0);
}

TEST(ResourceBudgetHierarchyTest, ExplicitReleaseUndoesAdmissionCharge) {
  ResourceLimits global;
  global.max_rows = 10;
  ResourceBudget parent(global);
  EXPECT_TRUE(parent.ChargeRows(10).ok());
  // Charge-then-check means the rejected charge still lands (there are
  // no rollback paths); the holder releases everything it charged,
  // overshoot included, and the account returns to empty.
  EXPECT_FALSE(parent.ChargeRows(1).ok());
  EXPECT_EQ(parent.rows_used(), 11);
  parent.Release(0, 11, 0);
  EXPECT_EQ(parent.rows_used(), 0);
  EXPECT_TRUE(parent.ChargeRows(10).ok());
}

TEST(ResourceBudgetHierarchyTest, ParentDeadlineNotInheritedByForwarding) {
  ResourceLimits global;
  global.deadline_ms = 1;  // long-lived parent whose uptime exceeds it
  ResourceBudget parent(global, nullptr, "server");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ResourceBudget child(ResourceLimits{}, &parent);
  // Each charge is larger than the amortised deadline-check interval,
  // so if forwarding consulted the parent's clock every one of these
  // would fail; forwarded charges check max_steps, never the deadline.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(child.ChargeSteps(10000).ok()) << i;
  }
  // Charged directly, the parent still enforces its own deadline.
  Status direct = parent.ChargeSteps(10000);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(direct.ToString().find("deadline"), std::string::npos);
}

}  // namespace
}  // namespace strdb
