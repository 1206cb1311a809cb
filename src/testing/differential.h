#ifndef STRDB_TESTING_DIFFERENTIAL_H_
#define STRDB_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/result.h"
#include "testing/random_source.h"

namespace strdb {
namespace testgen {

// One observed disagreement between a pair of oracles.
struct Divergence {
  std::string summary;
};

// A differential target couples four implementations of one equivalence
// under test (kernel vs Theorem 3.3 reference, engine vs naïve
// evaluator, serializer round-trip, catalog crash-recovery) with the
// machinery a fuzzing loop needs around it: structure-aware generation,
// a replayable text serialization, and strictly-size-reducing shrink
// candidates.  All four built-in targets live in testing/targets.h; the
// conformance CLI and the libFuzzer entry points drive them through
// this interface, so both front-ends get identical coverage.
//
// Contract for Run(): nullopt = the implementations agree on this case
// (including agreeing on typed errors); a Divergence = a real bug in
// one of them.  Run must be deterministic in the case alone — that is
// what makes reproducer files replayable.
class DiffTarget {
 public:
  struct Case {
    virtual ~Case() = default;
  };
  using CasePtr = std::unique_ptr<Case>;

  virtual ~DiffTarget() = default;

  virtual std::string name() const = 0;
  virtual CasePtr Generate(RandomSource& rand) const = 0;
  virtual std::optional<Divergence> Run(const Case& c) const = 0;
  virtual std::string Serialize(const Case& c) const = 0;
  virtual Result<CasePtr> Deserialize(const std::string& text) const = 0;
  // Candidate reductions of `c`, in preference order.  Candidates need
  // not be strictly smaller — the shrink loop discards any that are not.
  virtual std::vector<CasePtr> ShrinkCandidates(const Case& c) const = 0;
  // The size the shrinker minimises (states + transitions + tuple
  // bytes + ops, per target).  Must be >= 0.
  virtual int64_t CaseSize(const Case& c) const = 0;
};

// Greedy shrinking: repeatedly adopt the first strictly-smaller
// candidate that still diverges, until none does (or `max_steps` Run
// calls were spent).  Returns the minimised case; `steps` (optional)
// receives the number of Run calls used.  The result is guaranteed to
// still diverge; on an input that does not diverge the input is
// returned unchanged.  Idempotent: shrinking a minimal case returns it
// unchanged.
DiffTarget::CasePtr ShrinkCase(const DiffTarget& target,
                               DiffTarget::CasePtr start, int64_t max_steps,
                               int64_t* steps = nullptr);

struct ConformanceOptions {
  uint64_t seed = 1;
  int64_t runs = 1000;
  // Where reproducer files are written ("" = don't write files).
  std::string repro_dir;
  bool shrink = true;
  // Run-call budget of the shrink loop.
  int64_t max_shrink_steps = 2000;
};

struct ConformanceReport {
  std::string target;
  int64_t runs = 0;
  int64_t divergences = 0;
  // Populated for the first divergence (the driver stops there: one
  // minimised, written-out bug at a time beats a flood).
  uint64_t case_seed = 0;
  int64_t size_before_shrink = 0;
  int64_t size_after_shrink = 0;
  int64_t shrink_steps = 0;
  std::string repro_path;
  std::string summary;

  std::string ToString() const;
};

// Runs `options.runs` generated cases against the target.  On the
// first divergence: shrinks it, serializes it as a reproducer file
// under `options.repro_dir` and stops.  A report with divergences == 0
// means every case agreed.
Result<ConformanceReport> RunConformance(const DiffTarget& target,
                                         const ConformanceOptions& options);

// --- reproducer files -------------------------------------------------------
//
//   strdbrepro 1
//   target <name>
//   seed <case seed>
//   <target-specific case text>
//
// The file is self-contained: `seed` documents provenance, but replay
// deserializes the case text — a shrunk case no longer corresponds to
// any seed.

std::string FormatReproducer(const std::string& target_name, uint64_t seed,
                             const std::string& case_text);

struct Reproducer {
  std::string target;
  uint64_t seed = 0;
  std::string case_text;
};
Result<Reproducer> ParseReproducer(const std::string& file_text);

// Parses `file_text`, finds the named target in the registry and runs
// the embedded case once.  report.divergences is 1 if the bug still
// reproduces, else 0.
Result<ConformanceReport> ReplayReproducer(const std::string& file_text);

// The built-in target registry (kernel, dfa, engine, roundtrip,
// storage, pager, planner, server, query_cache).
// Pointers are to process-lifetime singletons.
const std::vector<const DiffTarget*>& AllTargets();
// nullptr when no target has that name.
const DiffTarget* FindTarget(const std::string& name);

}  // namespace testgen
}  // namespace strdb

#endif  // STRDB_TESTING_DIFFERENTIAL_H_
