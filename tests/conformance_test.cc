// Self-test of the differential conformance harness: a harness that
// "finds no bugs" is only evidence if it provably finds planted ones.
// Two deliberately broken implementations are planted through the
// protected seams of the real targets — a kernel that flips verdicts
// and a WAL that loses committed bytes behind recovery's back — and the
// harness must catch each, shrink it, and write a replayable
// reproducer.  The shrinker's own contract (strict size reduction,
// idempotence on minimal cases) and the reproducer format round-trip
// are covered here too.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "calculus/query.h"
#include "core/result.h"
#include "fsa/accept.h"
#include "fsa/kernel.h"
#include "testing/differential.h"
#include "testing/mem_env.h"
#include "testing/random_source.h"
#include "testing/targets.h"

namespace strdb {
namespace {

using testgen::AllTargets;
using testgen::ConformanceOptions;
using testgen::ConformanceReport;
using testgen::DiffTarget;
using testgen::FindTarget;
using testgen::FormatReproducer;
using testgen::KernelDiffTarget;
using testgen::MemEnv;
using testgen::ParseReproducer;
using testgen::ReplayReproducer;
using testgen::Reproducer;
using testgen::RngSource;
using testgen::ShrinkCase;
using testgen::StorageRecoverTarget;
using testgen::TranslationDiffTarget;

// A kernel that lies whenever the first tape is nonempty.  Small cases
// with an all-empty tuple still agree, so the shrinker has a real floor
// to find rather than "everything diverges".
class PlantedKernelTarget : public KernelDiffTarget {
 protected:
  Result<AcceptStats> FastVerdict(const AcceptKernel& kernel,
                                  const Tuple& tuple) const override {
    Result<AcceptStats> real = KernelDiffTarget::FastVerdict(kernel, tuple);
    if (real.ok() && !tuple.empty() && !tuple[0].empty()) {
      AcceptStats lie = *real;
      lie.accepted = !lie.accepted;
      return lie;
    }
    return real;
  }
};

// A filesystem that silently loses the tail of the live WAL between
// crash and recovery — exactly the data loss the committed-prefix
// oracle exists to notice.
class PlantedTornWalTarget : public StorageRecoverTarget {
 protected:
  void CorruptBeforeRecovery(MemEnv* env,
                             const std::string& dir) const override {
    int64_t gen = 0;
    std::string current = env->FileContents(dir + "/CURRENT");
    if (!current.empty()) {
      gen = std::strtoll(current.c_str(), nullptr, 10);
    }
    std::string wal_path = dir + "/wal-" + std::to_string(gen);
    std::string wal = env->FileContents(wal_path);
    if (wal.size() > 1) {
      Status s = env->SetFileContents(wal_path, wal.substr(0, wal.size() / 2));
      ASSERT_TRUE(s.ok()) << s;
    }
  }
};

// A translation that drops the π reordering an atom's columns into
// ascending variable order, so R(y, x) reads as R(x, y): the first cut
// of the atom lowering had exactly this bug.  Only the calculus
// evaluator can see it; both algebra routes evaluate the broken output.
class PlantedTranslationTarget : public TranslationDiffTarget {
 protected:
  Result<AlgebraExpr> Algebra(const Query& query) const override {
    return DropAtomReorders(query.plan());
  }

 private:
  static Result<AlgebraExpr> DropAtomReorders(const AlgebraExpr& e) {
    using Kind = AlgebraExpr::Kind;
    // π over ↓l R keeping every column: the atom's reorder.
    if (e.kind() == Kind::kProject && e.arity() == e.Left().arity() &&
        e.Left().kind() == Kind::kRestrict &&
        e.Left().Left().kind() == Kind::kRelation) {
      return e.Left();
    }
    return MapChildren(e, DropAtomReorders);
  }
};

ConformanceOptions Options(uint64_t seed, int64_t runs) {
  ConformanceOptions options;
  options.seed = seed;
  options.runs = runs;
  options.repro_dir = ::testing::TempDir() + "strdb_conformance";
  return options;
}

TEST(ConformanceTest, PlantedKernelBugIsCaughtShrunkAndReproducible) {
  PlantedKernelTarget planted;
  Result<ConformanceReport> report = RunConformance(planted, Options(1, 200));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->divergences, 1) << report->ToString();
  EXPECT_NE(report->summary.find("kernel disagrees"), std::string::npos)
      << report->summary;
  EXPECT_LE(report->size_after_shrink, report->size_before_shrink);

  // The reproducer file is self-contained: parsing it and replaying the
  // embedded case against the planted kernel re-triggers the bug.
  ASSERT_FALSE(report->repro_path.empty());
  std::FILE* f = std::fopen(report->repro_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << report->repro_path;
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  Result<Reproducer> repro = ParseReproducer(text);
  ASSERT_TRUE(repro.ok()) << repro.status();
  EXPECT_EQ(repro->target, "kernel");
  EXPECT_EQ(repro->seed, report->case_seed);
  Result<DiffTarget::CasePtr> c = planted.Deserialize(repro->case_text);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE(planted.Run(**c).has_value())
      << "shrunk reproducer no longer diverges";
}

TEST(ConformanceTest, PlantedTornWalIsCaught) {
  PlantedTornWalTarget planted;
  Result<ConformanceReport> report = RunConformance(planted, Options(1, 500));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->divergences, 1)
      << "silent WAL truncation went unnoticed: " << report->ToString();
  EXPECT_NE(report->summary.find("committed prefix"), std::string::npos)
      << report->summary;
  EXPECT_LE(report->size_after_shrink, report->size_before_shrink);

  // The minimised case must still diverge when replayed directly
  // against the planted implementation.
  ASSERT_FALSE(report->repro_path.empty());
  std::FILE* f = std::fopen(report->repro_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << report->repro_path;
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  Result<Reproducer> repro = ParseReproducer(text);
  ASSERT_TRUE(repro.ok()) << repro.status();
  EXPECT_EQ(repro->target, "storage");
  Result<DiffTarget::CasePtr> c = planted.Deserialize(repro->case_text);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE(planted.Run(**c).has_value())
      << "shrunk reproducer no longer diverges";
}

TEST(ConformanceTest, PlantedTranslationBugIsCaughtAndShrunk) {
  PlantedTranslationTarget planted;
  Result<ConformanceReport> report = RunConformance(planted, Options(1, 500));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->divergences, 1)
      << "a dropped atom reorder went unnoticed: " << report->ToString();
  EXPECT_NE(report->summary.find("differs from the calculus evaluator"),
            std::string::npos)
      << report->summary;
  EXPECT_LT(report->size_after_shrink, report->size_before_shrink)
      << report->ToString();

  // The minimised case still diverges under the planted translation and
  // agrees under the real one.
  ASSERT_FALSE(report->repro_path.empty());
  std::FILE* f = std::fopen(report->repro_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << report->repro_path;
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  Result<Reproducer> repro = ParseReproducer(text);
  ASSERT_TRUE(repro.ok()) << repro.status();
  EXPECT_EQ(repro->target, "translation");
  Result<DiffTarget::CasePtr> c = planted.Deserialize(repro->case_text);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_TRUE(planted.Run(**c).has_value())
      << "shrunk reproducer no longer diverges";
  EXPECT_FALSE(TranslationDiffTarget().Run(**c).has_value())
      << repro->case_text;
}

TEST(ConformanceTest, ShrinkerStrictlyReducesAndIsIdempotent) {
  PlantedKernelTarget planted;
  // Find a diverging case the honest way, then shrink it by hand.
  RngSource rand(7);
  DiffTarget::CasePtr diverging;
  for (int i = 0; i < 500 && diverging == nullptr; ++i) {
    DiffTarget::CasePtr c = planted.Generate(rand);
    if (planted.Run(*c).has_value()) diverging = std::move(c);
  }
  ASSERT_NE(diverging, nullptr);
  int64_t original = planted.CaseSize(*diverging);

  int64_t steps = 0;
  DiffTarget::CasePtr small =
      ShrinkCase(planted, std::move(diverging), 2000, &steps);
  ASSERT_NE(small, nullptr);
  int64_t shrunk = planted.CaseSize(*small);
  EXPECT_LE(shrunk, original);
  EXPECT_TRUE(planted.Run(*small).has_value())
      << "shrinking lost the divergence";

  // Idempotence: the minimal case cannot shrink further.
  DiffTarget::CasePtr again = ShrinkCase(planted, std::move(small), 2000);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(planted.CaseSize(*again), shrunk);
}

TEST(ConformanceTest, ShrinkingANonDivergentCaseIsANoOp) {
  const DiffTarget* kernel = FindTarget("kernel");
  ASSERT_NE(kernel, nullptr);
  RngSource rand(3);
  DiffTarget::CasePtr c = kernel->Generate(rand);
  ASSERT_FALSE(kernel->Run(*c).has_value());
  int64_t size = kernel->CaseSize(*c);
  DiffTarget::CasePtr out = ShrinkCase(*kernel, std::move(c), 100);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(kernel->CaseSize(*out), size);
}

TEST(ConformanceTest, ReproducerFormatRoundTrips) {
  const DiffTarget* kernel = FindTarget("kernel");
  ASSERT_NE(kernel, nullptr);
  RngSource rand(11);
  DiffTarget::CasePtr c = kernel->Generate(rand);
  std::string file = FormatReproducer("kernel", 11, kernel->Serialize(*c));
  Result<ConformanceReport> replay = ReplayReproducer(file);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->target, "kernel");
  EXPECT_EQ(replay->divergences, 0);

  Result<Reproducer> parsed = ParseReproducer(file);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->target, "kernel");
  EXPECT_EQ(parsed->seed, 11u);
  EXPECT_EQ(parsed->case_text, kernel->Serialize(*c));

  EXPECT_FALSE(ParseReproducer("not a reproducer\n").ok());
  EXPECT_FALSE(
      ReplayReproducer(FormatReproducer("no-such-target", 1, "x\n")).ok());
}

TEST(ConformanceTest, CaseSerializationRoundTripsForEveryTarget) {
  for (const DiffTarget* target : AllTargets()) {
    RngSource rand(42);
    for (int i = 0; i < 25; ++i) {
      DiffTarget::CasePtr c = target->Generate(rand);
      std::string text = target->Serialize(*c);
      Result<DiffTarget::CasePtr> back = target->Deserialize(text);
      ASSERT_TRUE(back.ok())
          << target->name() << " case " << i << ": " << back.status();
      EXPECT_EQ(target->Serialize(**back), text)
          << target->name() << " case " << i;
    }
  }
}

TEST(ConformanceTest, RealTargetsAgreeOnASmokeSweep) {
  for (const DiffTarget* target : AllTargets()) {
    ConformanceOptions options;
    options.seed = 20260805;
    options.runs = 300;
    Result<ConformanceReport> report = RunConformance(*target, options);
    ASSERT_TRUE(report.ok()) << target->name() << ": " << report.status();
    EXPECT_EQ(report->divergences, 0)
        << target->name() << ": " << report->ToString();
  }
}

}  // namespace
}  // namespace strdb
