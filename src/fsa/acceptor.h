#ifndef STRDB_FSA_ACCEPTOR_H_
#define STRDB_FSA_ACCEPTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fsa/accept.h"
#include "fsa/codegen/program.h"
#include "fsa/fsa.h"
#include "fsa/kernel.h"

namespace strdb {

// The σ_A acceptance path: an automaton compiled once to the fastest
// decider it admits.  Compile tries the tiers in order and keeps the
// first that takes the machine:
//
//   * kDfa    — DfaProgram (fsa/codegen): one-way, move-deterministic
//               machines within the subset caps, run by the 64-lane
//               batch interpreter;
//   * kKernel — AcceptKernel (fsa/kernel): every machine whose packed
//               read-key space fits int64;
//   * kBfs    — the Theorem 3.3 configuration-graph BFS
//               (AcceptsWithStats), which defines acceptance.
//
// A refusal only routes the machine to the next tier, so Compile never
// fails.  Every tier agrees with the BFS on verdicts and error codes;
// step statistics count each tier's own search steps.
//
// Immutable after Compile and safe to share across threads: the engine
// caches one per automaton, refused tiers included.  Per-tuple scratch
// is thread-local inside AcceptBatch.
class Acceptor {
 public:
  enum class Tier : uint8_t { kDfa, kKernel, kBfs };

  static Acceptor Compile(std::shared_ptr<const Fsa> fsa);

  Tier tier() const {
    return dfa_ != nullptr      ? Tier::kDfa
           : kernel_ != nullptr ? Tier::kKernel
                                : Tier::kBfs;
  }

  // Estimated resident bytes of the compiled tier, for ArtifactCache
  // accounting.  The BFS tier compiles nothing: it runs on the automaton.
  int64_t MemoryCost() const;

  // Decides every tuple, each under the AcceptsWithStats contract:
  // accepted[i] holds tuple i's verdict iff statuses[i] is OK.
  AcceptBatchResult AcceptBatch(
      std::span<const std::vector<std::string>* const> tuples,
      const AcceptOptions& options = {}) const;

 private:
  Acceptor() = default;

  // Exactly one tier is set.
  std::unique_ptr<const DfaProgram> dfa_;
  std::unique_ptr<const AcceptKernel> kernel_;
  std::shared_ptr<const Fsa> fsa_;
};

}  // namespace strdb

#endif  // STRDB_FSA_ACCEPTOR_H_
