#ifndef STRDB_FSA_KERNEL_H_
#define STRDB_FSA_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/budget.h"
#include "core/result.h"
#include "fsa/accept.h"
#include "fsa/fsa.h"

namespace strdb {

class AcceptScratch;

// A per-automaton acceptance kernel, compiled once (and cached by the
// engine) and then run against many input tuples.  Compilation flattens
// the Fsa into a CSR layout — transitions grouped per state, sorted by a
// packed *read key* so the configuration step is a binary-search lookup
// instead of a try-every-transition scan — and classifies the automaton:
//
//   * one-way   — every move vector is in {0,+1}^k.  Acceptance runs as a
//                 bitset NFA state-set simulation over the synchronized
//                 scan: reached position vectors each carry a |Q|-bit
//                 state set, and no Π(|w_i|+2)·|Q| configuration space is
//                 ever materialised.  This is the Hopcroft/Ullman one-way
//                 correspondence turned into a fast path: most compiled
//                 window formulas never move a head left.
//   * two-way   — the general Theorem 3.3 BFS, but over a word-packed
//                 visited bitmap with lazy epoch clearing and a vector
//                 frontier, so a warm batch run allocates nothing per
//                 tuple.
//
// The kernel itself is immutable after Compile and safe to share across
// threads; all per-tuple mutable state lives in an AcceptScratch that the
// caller owns (one per thread).  Results agree with AcceptsWithStats —
// the reference oracle — on accept/reject and on error *codes*; step
// statistics may differ because the search order differs.
class AcceptKernel {
 public:
  // Compiles `fsa`.  Fails with kResourceExhausted only when the packed
  // read-key space (|Σ|+2)^k overflows int64 — automata with that many
  // tapes are far beyond anything the BFS could run either.
  static Result<AcceptKernel> Compile(const Fsa& fsa);

  bool one_way() const { return one_way_; }
  int num_tapes() const { return num_tapes_; }
  int num_states() const { return num_states_; }
  int num_transitions() const { return static_cast<int>(tr_to_.size()); }
  const Alphabet& alphabet() const { return alphabet_; }

  // Estimated resident bytes, for ArtifactCache accounting.
  int64_t MemoryCost() const;

 private:
  // The CSR run of transitions leaving `state` on read key `key`,
  // as [*t0, *t1).  Hot path of both acceptance loops: a dense-table
  // lookup when compiled, otherwise a search of the sorted row (linear
  // for short rows, binary beyond).
  void MatchRange(int32_t state, int64_t key, int32_t* t0,
                  int32_t* t1) const {
    if (key_space_ != 0) {
      size_t base = static_cast<size_t>(state) *
                        static_cast<size_t>(key_space_) +
                    static_cast<size_t>(key);
      *t0 = lookup_begin_[base];
      *t1 = *t0 + lookup_cnt_[base];
      return;
    }
    const int64_t* kb = tr_key_.data() + row_begin_[static_cast<size_t>(state)];
    const int64_t* ke =
        tr_key_.data() + row_begin_[static_cast<size_t>(state) + 1];
    const int64_t* lo;
    if (ke - kb > 16) {
      lo = std::lower_bound(kb, ke, key);
    } else {
      lo = kb;
      while (lo != ke && *lo < key) ++lo;
    }
    const int64_t* hi = lo;
    while (hi != ke && *hi == key) ++hi;
    *t0 = static_cast<int32_t>(lo - tr_key_.data());
    *t1 = static_cast<int32_t>(hi - tr_key_.data());
  }

  AcceptKernel(Alphabet alphabet, int num_tapes)
      : alphabet_(std::move(alphabet)), num_tapes_(num_tapes) {}

  friend class AcceptScratch;

  Alphabet alphabet_;
  int num_tapes_ = 0;
  int num_states_ = 0;
  int start_ = 0;
  bool one_way_ = true;
  // Read-key packing: symbol ranks are char ids in [0,|Σ|), then
  // ⊢ = |Σ|, ⊣ = |Σ|+1; a configuration's key is Σ rank_i · radix^i.
  int radix_ = 0;
  std::vector<int64_t> pow_;          // radix^i, one per tape
  int16_t char_rank_[256];            // byte -> rank, -1 = not in Σ
  std::vector<uint8_t> is_final_;     // per state
  // CSR: transitions() regrouped per `from` state and sorted by read
  // key; row_begin_[s]..row_begin_[s+1] index the flat arrays below.
  std::vector<int32_t> row_begin_;
  std::vector<int64_t> tr_key_;
  std::vector<int32_t> tr_to_;
  std::vector<int8_t> tr_move_;       // flat, num_tapes entries per transition
  // Dense (state, key) → CSR run, materialised when |Q|·radix^k is
  // small (the usual case: few states, tiny alphabet): the hot loop
  // replaces the key search with two array loads.  Empty (key_space_
  // == 0) when the product would be large; the search is the fallback.
  int64_t key_space_ = 0;             // radix^k, 0 = table not built
  std::vector<int32_t> lookup_begin_;
  std::vector<uint16_t> lookup_cnt_;
  // One-way bitset stepping (|Q| ≤ 64 with the dense table built):
  // transitions are regrouped by (read key, move vector) into per-state
  // successor masks, so one slot expansion ORs whole state sets instead
  // of matching transitions state by state.  Each key's groups sit
  // contiguously at key_group_begin_[key] .. key_group_begin_[key+1);
  // group entry e carries its move id (group_m_), the states with any
  // row (group_mask_), and per-state successor sets/counts at
  // succ_mask_/succ_cnt_[e·|Q| + state].  Only (key, move) pairs that
  // occur get an entry, so the tables stay small and cache resident.
  bool bitset_mode_ = false;
  int num_moves_ = 0;                 // distinct move vectors
  int zero_move_ = -1;                // id of the all-zero move, -1 if none
  std::vector<int8_t> move_vec_;      // flat, num_tapes per move id
  std::vector<int32_t> key_group_begin_;
  std::vector<int32_t> group_m_;
  std::vector<uint64_t> group_mask_;
  std::vector<uint64_t> succ_mask_;
  std::vector<uint16_t> succ_cnt_;
  std::vector<uint64_t> key_nonempty_;  // per key: states with any transition
  uint64_t final_mask_ = 0;
};

// Reusable per-thread scratch for kernel runs.  All buffers grow on
// demand and are retained across tuples, kernels and queries; dedup
// state is invalidated by epoch stamping (two-way path) or cheap
// truncation (one-way path), so a warm batch evaluation performs no
// per-tuple allocation.  Not thread safe: use one instance per thread.
class AcceptScratch {
 public:
  AcceptScratch() = default;
  AcceptScratch(const AcceptScratch&) = delete;
  AcceptScratch& operator=(const AcceptScratch&) = delete;

  // Decides acceptance of one tuple.  Same contract as AcceptsWithStats:
  // kInvalidArgument on arity/alphabet errors, kResourceExhausted when
  // the budget runs out or the configuration space exceeds the int64
  // index range, otherwise the accept/reject verdict with search stats.
  Result<AcceptStats> Accept(const AcceptKernel& kernel,
                             const std::vector<std::string>& strings,
                             const AcceptOptions& options = {});

 private:
  Status Prepare(const AcceptKernel& kernel,
                 const std::vector<std::string>& strings);
  Result<AcceptStats> RunOneWay(const AcceptKernel& kernel,
                                const AcceptOptions& options);
  Result<AcceptStats> RunOneWayBitset(const AcceptKernel& kernel,
                                      const AcceptOptions& options);
  Result<AcceptStats> RunTwoWay(const AcceptKernel& kernel,
                                const AcceptOptions& options);

  // --- per-tuple input layout (both paths) ---
  // Tape i occupies ranks_[rank_off_[i] .. rank_off_[i+1]): the rank of
  // ⊢, each input character, then ⊣ — so position p scans
  // ranks_[rank_off_[i] + p] with no bounds dispatch in the inner loop.
  std::vector<int32_t> ranks_;
  std::vector<int32_t> rank_off_;
  std::vector<int64_t> stride_;    // mixed-radix position strides
  int64_t per_state_ = 0;          // Π(|w_i|+2)
  int64_t total_ = 0;              // per_state_ · |Q|
  std::vector<int64_t> tr_delta_;  // per transition: Σ stride_i · move_i
  std::vector<int64_t> move_delta_;  // per move vector (bitset mode)
  std::vector<int32_t> cur_pos_;   // the configuration being expanded

  // --- two-way path: epoch-stamped visited bitmap + flat frontier ---
  std::vector<uint64_t> visited_words_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  std::vector<int32_t> frontier_state_;
  std::vector<int32_t> frontier_pos_;  // flat, num_tapes per entry

  // --- one-way path: position-vector slots with |Q|-bit state sets ---
  // slot s covers one reached position vector: its positions at
  // slot_pos_[s·k ..], its pending/done state sets at
  // {pending_,done_}bits_[s·words_per_set ..].  Position vector → slot
  // id resolves through an epoch-stamped direct array indexed by the
  // encoded position when Π(|w_i|+2) is small (one load, no probing),
  // and through an epoch-stamped open-addressing table sized to the
  // number of *reached* slots beyond that, so lookups never allocate
  // per node and a new tuple resets by bumping the epoch, not clearing.
  struct SlotEntry {
    int64_t key = 0;
    uint32_t epoch = 0;
    int32_t slot = 0;
  };
  // Finds or creates the slot for encoded position `poskey`; on create,
  // positions are base_pos (+ moves, when non-null) and the state sets
  // are set_words fresh zero words.
  int32_t SlotOf(int64_t poskey, int k, const int32_t* base_pos,
                 const int8_t* moves, size_t set_words);
  // Starts a new tuple: picks the lookup structure for `per_state`
  // encoded positions, bumps the epoch and truncates the slot arrays.
  void ResetSlots(int64_t per_state);
  void GrowSlotTable();
  bool slot_direct_ = false;
  // Direct map: poskey -> (epoch << 32 | slot), packed so one lookup
  // touches one cache line even when the array spills out of L2.
  std::vector<uint64_t> slot_lookup_;
  std::vector<SlotEntry> slot_table_;  // probing: power-of-two capacity
  size_t slot_count_ = 0;              // live probe entries this epoch
  uint32_t slot_epoch_ = 0;
  std::vector<int32_t> slot_pos_;
  std::vector<int64_t> slot_key_;
  std::vector<uint64_t> pending_bits_;
  std::vector<uint64_t> done_bits_;
  std::vector<uint8_t> slot_queued_;
  std::vector<int32_t> worklist_;
};

// Batch acceptance, tuple by tuple through one reused `scratch`.
AcceptBatchResult AcceptBatch(
    const AcceptKernel& kernel,
    std::span<const std::vector<std::string>* const> tuples,
    AcceptScratch* scratch, const AcceptOptions& options = {});

}  // namespace strdb

#endif  // STRDB_FSA_KERNEL_H_
