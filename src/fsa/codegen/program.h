#ifndef STRDB_FSA_CODEGEN_PROGRAM_H_
#define STRDB_FSA_CODEGEN_PROGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/budget.h"
#include "core/result.h"
#include "fsa/accept.h"
#include "fsa/dfa/dfa.h"
#include "fsa/fsa.h"

namespace strdb {

class DfaScratch;

// The compiled form of a determinised one-way product automaton
// (fsa/dfa): the DFA's dense rows lowered to a threaded-code program the
// acceptance loops execute instead of interpreting transitions.
//
//   * bytecode  — one instruction per DFA state: OP_ROW (advance through
//     the state's dense row over the read-key alphabet) or OP_HALT (the
//     absorbing accept/dead states).  The scalar interpreter dispatches
//     with computed gotos on GCC/Clang (a switch elsewhere), so each
//     step is a key fold, one row load, a move-mask position update and
//     an indirect jump — no per-transition matching at all.
//   * batch     — AcceptBatch advances up to 64 tuples per dispatch
//     round against the same row table, structure-of-arrays: per round
//     it gathers each lane's read key from per-tape rank rows, gathers
//     the (state, key) row, and applies the packed move mask to every
//     head.  Finished lanes retire and refill from the pending tuples;
//     an AVX2 build runs the round 8 lanes per instruction with
//     hardware gathers, with a scalar tail for the remainder.
//
// Error contract matches the kernel and the reference BFS:
// kInvalidArgument on arity/alphabet mismatch, kResourceExhausted when
// the budget runs out or the Π(|w_i|+2)·|Q| guard overflows int64 (the
// chain never materialises that space, but parity with the other tiers
// keeps differential sweeps three-way comparable).  Step statistics
// count chain steps, which differ from BFS statistics by design.
//
// Immutable after Compile; safe to share across threads.  Per-tuple
// mutable state lives in a caller-owned DfaScratch (one per thread).
class DfaProgram {
 public:
  // Determinise + minimise + lower.  Refusals are typed (see BuildDfa):
  // kUnimplemented for two-way machines or nondeterministic head
  // schedules, kResourceExhausted past the subset/byte caps.
  static Result<DfaProgram> Compile(const Fsa& fsa,
                                    const DfaBuildOptions& options = {});

  int num_tapes() const { return k_; }
  int num_states() const { return num_states_; }
  int32_t num_keys() const { return num_keys_; }
  const Alphabet& alphabet() const { return alphabet_; }
  const DfaBuildStats& build_stats() const { return stats_; }

  // Estimated resident bytes, for ArtifactCache accounting.
  int64_t MemoryCost() const;

  // Decides acceptance of one tuple via the scalar threaded interpreter.
  Result<AcceptStats> Accept(const std::vector<std::string>& strings,
                             DfaScratch* scratch,
                             const AcceptOptions& options = {}) const;

 private:
  DfaProgram() : alphabet_(Alphabet::Binary()) {}

  friend class DfaScratch;
  friend struct DfaBatchRunner;

  Alphabet alphabet_;
  int k_ = 0;
  int radix_ = 0;
  int32_t num_keys_ = 0;
  std::vector<int32_t> pow_;
  int16_t char_rank_[256];
  int source_states_ = 0;

  int num_states_ = 0;
  int32_t start_ = 0;
  int32_t accept_ = 0;
  int32_t dead_ = 0;
  std::vector<uint32_t> rows_;  // (move_mask << 24) | next, state-major
  std::vector<uint8_t> op_;     // per state: 0 = OP_ROW, 1 = OP_HALT
  DfaBuildStats stats_;
};

// Reusable per-thread scratch: rank rows for the scalar path plus the
// lane arrays of the batch path.  Buffers grow on demand and are
// retained across tuples and batches.  Not thread safe.
class DfaScratch {
 public:
  DfaScratch() = default;
  DfaScratch(const DfaScratch&) = delete;
  DfaScratch& operator=(const DfaScratch&) = delete;

 private:
  friend class DfaProgram;
  friend struct DfaBatchRunner;

  // Encodes one tuple's tapes as rank rows (⊢, chars, ⊣) at
  // ranks_[rank_off_[i]..], mirroring AcceptScratch's layout, and runs
  // the arity/alphabet/overflow checks shared with the kernel.
  Status Prepare(const DfaProgram& program,
                 const std::vector<std::string>& strings);

  std::vector<int32_t> ranks_;
  std::vector<int32_t> rank_off_;

  // Batch state (structure-of-arrays, lane-major within each tape).
  std::vector<int32_t> lane_state_;
  std::vector<int32_t> lane_pos_;    // k × lanes
  std::vector<int32_t> lane_base_;   // k × lanes: rank-row offsets
  std::vector<int32_t> lane_tuple_;
  std::vector<int32_t> tuple_roff_;  // per (tuple, tape) rank offsets
};

// Batch acceptance through the 64-lane interpreter: one verdict (or
// typed error) per tuple plus aggregated chain statistics.
AcceptBatchResult AcceptBatch(
    const DfaProgram& program,
    std::span<const std::vector<std::string>* const> tuples,
    DfaScratch* scratch, const AcceptOptions& options = {});

}  // namespace strdb

#endif  // STRDB_FSA_CODEGEN_PROGRAM_H_
