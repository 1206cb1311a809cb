#include "fsa/codegen/program.h"

#include <algorithm>
#include <cstring>

#include "core/metrics.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace strdb {

namespace {

// Lanes per dispatch round of the batch path.  64 keeps the SoA arrays
// within one page and gives the AVX2 path eight full 8-lane rounds.
constexpr int kLanes = 64;

// Rank-arena offsets are int32 so the batch path can gather with 32-bit
// indices; tuples past this many encoded symbols take the scalar path.
constexpr int64_t kMaxArenaRanks = int64_t{1} << 30;

inline Status SpaceExhausted() {
  return Status::ResourceExhausted(
      "configuration space exceeds int64 index range");
}

struct DfaMetrics {
  Counter* compiles;
  Counter* compile_failures;
  Counter* batch_rows;
  Histogram* states_before;
  Histogram* states_after;
  static const DfaMetrics& Get() {
    static const DfaMetrics m = {
        MetricsRegistry::Global().GetCounter("fsa.dfa.compiles"),
        MetricsRegistry::Global().GetCounter("fsa.dfa.compile_failures"),
        MetricsRegistry::Global().GetCounter("fsa.dfa.batch_rows"),
        MetricsRegistry::Global().GetHistogram("fsa.dfa.states_before_min"),
        MetricsRegistry::Global().GetHistogram("fsa.dfa.states_after_min"),
    };
    return m;
  }
};

}  // namespace

// Friend of DfaProgram/DfaScratch: hosts the interpreter loops so the
// hot code can touch the packed fields directly.
struct DfaBatchRunner {
  // Advances one chain until it halts or `step_cap` steps elapse.
  // Returns steps taken; the caller distinguishes "halted" from
  // "paused for budget accounting" by op_[*state_io].
  template <int KT>
  static int64_t RunChain(const DfaProgram& p, const int32_t* ranks,
                          const int32_t* roff, int32_t* state_io,
                          int32_t* pos, int64_t step_cap) {
    const int k = KT > 0 ? KT : p.k_;
    const uint32_t* rows = p.rows_.data();
    const uint8_t* ops = p.op_.data();
    const int32_t* pow = p.pow_.data();
    const int32_t num_keys = p.num_keys_;
    int32_t state = *state_io;
    int64_t steps = 0;
#if defined(__GNUC__)
    // Threaded dispatch: the state's opcode indexes a label table, so
    // the loop is key fold → row load → mask update → indirect jump.
    static const void* const kJump[2] = {&&op_row, &&op_halt};
    goto* kJump[ops[state]];
  op_row: {
    if (steps >= step_cap) goto op_halt;
    int32_t key = 0;
    for (int i = 0; i < k; ++i) {
      key += ranks[roff[i] + pos[i]] * pow[i];
    }
    const uint32_t e = rows[static_cast<size_t>(state) *
                                static_cast<size_t>(num_keys) +
                            static_cast<size_t>(key)];
    const uint32_t m = e >> 24;
    state = static_cast<int32_t>(e & 0xFFFFFFu);
    for (int i = 0; i < k; ++i) {
      pos[i] += static_cast<int32_t>((m >> i) & 1u);
    }
    ++steps;
    goto* kJump[ops[state]];
  }
  op_halt:;
#else
    while (ops[state] == 0 && steps < step_cap) {
      int32_t key = 0;
      for (int i = 0; i < k; ++i) {
        key += ranks[roff[i] + pos[i]] * pow[i];
      }
      const uint32_t e = rows[static_cast<size_t>(state) *
                                  static_cast<size_t>(num_keys) +
                              static_cast<size_t>(key)];
      const uint32_t m = e >> 24;
      state = static_cast<int32_t>(e & 0xFFFFFFu);
      for (int i = 0; i < k; ++i) {
        pos[i] += static_cast<int32_t>((m >> i) & 1u);
      }
      ++steps;
    }
#endif
    *state_io = state;
    return steps;
  }

  static int64_t RunChainK(const DfaProgram& p, const int32_t* ranks,
                           const int32_t* roff, int32_t* state_io,
                           int32_t* pos, int64_t step_cap) {
    switch (p.k_) {
      case 1:
        return RunChain<1>(p, ranks, roff, state_io, pos, step_cap);
      case 2:
        return RunChain<2>(p, ranks, roff, state_io, pos, step_cap);
      case 3:
        return RunChain<3>(p, ranks, roff, state_io, pos, step_cap);
      default:
        return RunChain<0>(p, ranks, roff, state_io, pos, step_cap);
    }
  }

  // One dispatch round over `active` lanes: gather each lane's read key
  // from its rank rows, gather the (state, key) row, apply the packed
  // move mask to every head.  Lanes already in a halt state execute
  // their absorbing self-loop harmlessly; the caller retires them
  // between rounds.
  static void Round(const DfaProgram& p, const int32_t* ranks,
                    int32_t* state, int32_t* pos, const int32_t* base,
                    int active) {
    const int k = p.k_;
    const uint32_t* rows = p.rows_.data();
    const int32_t* pow = p.pow_.data();
    const int32_t num_keys = p.num_keys_;
    int l = 0;
#if defined(__AVX2__)
    for (; l + 8 <= active; l += 8) {
      __m256i key = _mm256_setzero_si256();
      for (int i = 0; i < k; ++i) {
        const __m256i idx = _mm256_add_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(base + i * kLanes + l)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(pos + i * kLanes + l)));
        const __m256i r = _mm256_i32gather_epi32(ranks, idx, 4);
        key = _mm256_add_epi32(
            key, _mm256_mullo_epi32(r, _mm256_set1_epi32(pow[i])));
      }
      __m256i st = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(state + l));
      const __m256i ridx = _mm256_add_epi32(
          _mm256_mullo_epi32(st, _mm256_set1_epi32(num_keys)), key);
      const __m256i e = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(rows), ridx, 4);
      st = _mm256_and_si256(e, _mm256_set1_epi32(0xFFFFFF));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + l), st);
      const __m256i m = _mm256_srli_epi32(e, 24);
      for (int i = 0; i < k; ++i) {
        const __m256i bit =
            _mm256_and_si256(_mm256_srli_epi32(m, i), _mm256_set1_epi32(1));
        __m256i* pp = reinterpret_cast<__m256i*>(pos + i * kLanes + l);
        _mm256_storeu_si256(
            pp, _mm256_add_epi32(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                        pos + i * kLanes + l)),
                    bit));
      }
    }
#endif
    // Portable lane loop (and the AVX2 scalar tail): contiguous SoA
    // arrays, no cross-lane dependencies, so the compiler may vectorise.
    for (; l < active; ++l) {
      int32_t key = 0;
      for (int i = 0; i < k; ++i) {
        key += ranks[base[i * kLanes + l] + pos[i * kLanes + l]] * pow[i];
      }
      const uint32_t e = rows[static_cast<size_t>(state[l]) *
                                  static_cast<size_t>(num_keys) +
                              static_cast<size_t>(key)];
      state[l] = static_cast<int32_t>(e & 0xFFFFFFu);
      const uint32_t m = e >> 24;
      for (int i = 0; i < k; ++i) {
        pos[i * kLanes + l] += static_cast<int32_t>((m >> i) & 1u);
      }
    }
  }

  static AcceptBatchResult RunBatch(
      const DfaProgram& p,
      std::span<const std::vector<std::string>* const> tuples,
      DfaScratch* scratch, const AcceptOptions& options);
};

Result<DfaProgram> DfaProgram::Compile(const Fsa& fsa,
                                       const DfaBuildOptions& options) {
  const DfaMetrics& metrics = DfaMetrics::Get();
  Result<Dfa> built = BuildDfa(fsa, options);
  if (!built.ok()) {
    metrics.compile_failures->Increment();
    return built.status();
  }
  Dfa& dfa = *built;
  // The batch path indexes the row table with 32-bit lane arithmetic.
  if (static_cast<int64_t>(dfa.rows.size()) > (int64_t{1} << 30)) {
    metrics.compile_failures->Increment();
    return Status::ResourceExhausted("DFA row table exceeds the byte cap");
  }
  DfaProgram p;
  p.alphabet_ = dfa.alphabet;
  p.k_ = dfa.num_tapes;
  p.radix_ = dfa.radix;
  p.num_keys_ = dfa.num_keys;
  p.pow_ = std::move(dfa.pow);
  std::memcpy(p.char_rank_, dfa.char_rank, sizeof(p.char_rank_));
  p.source_states_ = dfa.source_states;
  p.num_states_ = dfa.num_states;
  p.start_ = dfa.start;
  p.accept_ = dfa.accept_state;
  p.dead_ = dfa.dead_state;
  p.rows_ = std::move(dfa.rows);
  p.stats_ = dfa.stats;
  p.op_.assign(static_cast<size_t>(p.num_states_), 0);
  p.op_[static_cast<size_t>(p.accept_)] = 1;
  p.op_[static_cast<size_t>(p.dead_)] = 1;
  // Termination invariant the interpreters rely on: a row that does not
  // advance any head must jump to a halt state, so every chain ends
  // within Σ(|w_i|+1) + 1 steps.
  for (int32_t s = 0; s < p.num_states_; ++s) {
    if (p.op_[static_cast<size_t>(s)] != 0) continue;
    const size_t row = static_cast<size_t>(s) *
                       static_cast<size_t>(p.num_keys_);
    for (int32_t key = 0; key < p.num_keys_; ++key) {
      const uint32_t e = p.rows_[row + static_cast<size_t>(key)];
      const int32_t nx = static_cast<int32_t>(e & 0xFFFFFFu);
      if ((e >> 24) == 0 && p.op_[static_cast<size_t>(nx)] == 0) {
        return Status::Internal(
            "DFA row neither advances a head nor halts");
      }
    }
  }
  metrics.compiles->Increment();
  metrics.states_before->Record(p.stats_.states_before_min);
  metrics.states_after->Record(p.stats_.states_after_min);
  return p;
}

int64_t DfaProgram::MemoryCost() const {
  return static_cast<int64_t>(sizeof(DfaProgram)) +
         static_cast<int64_t>(rows_.size()) * 4 +
         static_cast<int64_t>(op_.size()) +
         static_cast<int64_t>(pow_.size()) * 4;
}

Status DfaScratch::Prepare(const DfaProgram& program,
                           const std::vector<std::string>& strings) {
  const int k = program.k_;
  if (static_cast<int>(strings.size()) != k) {
    return Status::InvalidArgument("input arity differs from tape count");
  }
  const int sigma = program.alphabet_.size();
  rank_off_.assign(static_cast<size_t>(k) + 1, 0);
  size_t total_ranks = 0;
  for (int i = 0; i < k; ++i) {
    total_ranks += strings[static_cast<size_t>(i)].size() + 2;
  }
  ranks_.resize(total_ranks);
  int32_t off = 0;
  for (int i = 0; i < k; ++i) {
    const std::string& w = strings[static_cast<size_t>(i)];
    rank_off_[static_cast<size_t>(i)] = off;
    int32_t* row = ranks_.data() + off;
    row[0] = sigma;  // ⊢
    for (size_t j = 0; j < w.size(); ++j) {
      const int16_t rank =
          program.char_rank_[static_cast<unsigned char>(w[j])];
      if (rank < 0) {
        return Status::InvalidArgument(
            std::string("string contains character '") + w[j] +
            "' outside the alphabet");
      }
      row[j + 1] = rank;
    }
    row[w.size() + 1] = sigma + 1;  // ⊣
    off += static_cast<int32_t>(w.size()) + 2;
  }
  rank_off_[static_cast<size_t>(k)] = off;
  // The chain never materialises the configuration space, but the other
  // tiers refuse tuples whose space overflows int64 — keep the codes in
  // parity so the differential sweeps stay three-way comparable.
  int64_t space = 1;
  for (int i = 0; i < k; ++i) {
    const int64_t radix =
        static_cast<int64_t>(strings[static_cast<size_t>(i)].size()) + 2;
    if (__builtin_mul_overflow(space, radix, &space)) {
      return SpaceExhausted();
    }
  }
  if (__builtin_mul_overflow(space,
                             static_cast<int64_t>(program.source_states_),
                             &space)) {
    return SpaceExhausted();
  }
  return Status::OK();
}

Result<AcceptStats> DfaProgram::Accept(const std::vector<std::string>& strings,
                                       DfaScratch* scratch,
                                       const AcceptOptions& options) const {
  STRDB_RETURN_IF_ERROR(scratch->Prepare(*this, strings));
  int32_t pos[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int32_t state = start_;
  int64_t total_steps = 0;
  const int32_t* ranks = scratch->ranks_.data();
  const int32_t* roff = scratch->rank_off_.data();
  // Budgeted runs pause every chunk to charge actual steps, like the
  // kernel charges actual configurations; unbudgeted runs take one
  // uninterrupted pass.
  const int64_t chunk = options.budget ? 4096 : INT64_MAX;
  for (;;) {
    const int64_t steps =
        DfaBatchRunner::RunChainK(*this, ranks, roff, &state, pos, chunk);
    total_steps += steps;
    if (options.budget != nullptr && steps > 0) {
      STRDB_RETURN_IF_ERROR(options.budget->ChargeSteps(steps));
    }
    if (op_[static_cast<size_t>(state)] != 0) break;
    if (steps == 0) {
      return Status::Internal("DFA chain paused without running");
    }
  }
  AcceptStats stats;
  stats.accepted = state == accept_;
  stats.configurations_visited = total_steps;
  stats.transitions_tried = total_steps;
  return stats;
}

AcceptBatchResult DfaBatchRunner::RunBatch(
    const DfaProgram& p,
    std::span<const std::vector<std::string>* const> tuples,
    DfaScratch* scratch, const AcceptOptions& options) {
  const size_t n = tuples.size();
  const int k = p.k_;
  AcceptBatchResult result;
  result.statuses.assign(n, Status::OK());
  result.accepted.assign(n, 0);

  // Encode every tuple into one shared rank arena up front; a tuple that
  // fails validation is marked and never admitted to a lane.  Tuples
  // past the 32-bit arena bound are deferred to the scalar path.
  std::vector<int32_t>& arena = scratch->ranks_;
  arena.clear();
  scratch->tuple_roff_.assign(n * static_cast<size_t>(k), 0);
  std::vector<size_t> deferred;
  const int sigma = p.alphabet_.size();
  for (size_t t = 0; t < n; ++t) {
    const std::vector<std::string>& strings = *tuples[t];
    if (static_cast<int>(strings.size()) != k) {
      result.statuses[t] =
          Status::InvalidArgument("input arity differs from tape count");
      continue;
    }
    int64_t space = 1;
    bool overflow = false;
    size_t need = 0;
    for (int i = 0; i < k; ++i) {
      const int64_t radix =
          static_cast<int64_t>(strings[static_cast<size_t>(i)].size()) + 2;
      need += static_cast<size_t>(radix);
      if (__builtin_mul_overflow(space, radix, &space)) overflow = true;
    }
    if (overflow ||
        __builtin_mul_overflow(space,
                               static_cast<int64_t>(p.source_states_),
                               &space)) {
      result.statuses[t] = SpaceExhausted();
      continue;
    }
    if (static_cast<int64_t>(arena.size() + need) > kMaxArenaRanks) {
      deferred.push_back(t);
      continue;
    }
    const size_t mark = arena.size();
    bool bad_char = false;
    for (int i = 0; i < k && !bad_char; ++i) {
      const std::string& w = strings[static_cast<size_t>(i)];
      scratch->tuple_roff_[t * static_cast<size_t>(k) +
                           static_cast<size_t>(i)] =
          static_cast<int32_t>(arena.size());
      arena.push_back(sigma);  // ⊢
      for (size_t j = 0; j < w.size(); ++j) {
        const int16_t rank = p.char_rank_[static_cast<unsigned char>(w[j])];
        if (rank < 0) {
          result.statuses[t] = Status::InvalidArgument(
              std::string("string contains character '") + w[j] +
              "' outside the alphabet");
          bad_char = true;
          break;
        }
        arena.push_back(rank);
      }
      arena.push_back(sigma + 1);  // ⊣
    }
    if (bad_char) arena.resize(mark);
  }

  scratch->lane_state_.assign(kLanes, 0);
  scratch->lane_tuple_.assign(kLanes, 0);
  scratch->lane_pos_.assign(static_cast<size_t>(k) * kLanes, 0);
  scratch->lane_base_.assign(static_cast<size_t>(k) * kLanes, 0);
  int32_t* state = scratch->lane_state_.data();
  int32_t* tuple_of = scratch->lane_tuple_.data();
  int32_t* pos = scratch->lane_pos_.data();
  int32_t* base = scratch->lane_base_.data();
  const int32_t* ranks = arena.data();

  size_t cursor = 0;
  Status budget_failure;
  // Pulls the next runnable tuple into `lane`.  A start state that is
  // already absorbing (empty or universal-complement machines minimise
  // to start == dead) is decided without occupying a lane, matching the
  // scalar path's zero-step verdict.
  auto admit = [&](int lane) -> bool {
    while (cursor < n) {
      const size_t t = cursor++;
      if (!result.statuses[t].ok()) continue;
      if (!deferred.empty() &&
          std::find(deferred.begin(), deferred.end(), t) != deferred.end()) {
        continue;
      }
      if (p.op_[static_cast<size_t>(p.start_)] != 0) {
        result.accepted[t] = p.start_ == p.accept_;
        continue;
      }
      state[lane] = p.start_;
      tuple_of[lane] = static_cast<int32_t>(t);
      for (int i = 0; i < k; ++i) {
        pos[i * kLanes + lane] = 0;
        base[i * kLanes + lane] =
            scratch->tuple_roff_[t * static_cast<size_t>(k) +
                                 static_cast<size_t>(i)];
      }
      return true;
    }
    return false;
  };

  int active = 0;
  while (active < kLanes && admit(active)) ++active;
  while (active > 0) {
    Round(p, ranks, state, pos, base, active);
    result.configurations_visited += active;
    result.transitions_tried += active;
    if (options.budget != nullptr) {
      budget_failure = options.budget->ChargeSteps(active);
      if (!budget_failure.ok()) break;
    }
    for (int l = 0; l < active;) {
      if (p.op_[static_cast<size_t>(state[l])] == 0) {
        ++l;
        continue;
      }
      result.accepted[static_cast<size_t>(tuple_of[l])] =
          state[l] == p.accept_;
      --active;
      if (l != active) {
        state[l] = state[active];
        tuple_of[l] = tuple_of[active];
        for (int i = 0; i < k; ++i) {
          pos[i * kLanes + l] = pos[i * kLanes + active];
          base[i * kLanes + l] = base[i * kLanes + active];
        }
      }
    }
    while (active < kLanes && admit(active)) ++active;
  }
  if (!budget_failure.ok()) {
    // In-flight lanes and everything still pending fail the same way a
    // per-tuple loop would: each remaining charge attempt is refused.
    for (int l = 0; l < active; ++l) {
      result.statuses[static_cast<size_t>(tuple_of[l])] = budget_failure;
    }
    while (cursor < n) {
      const size_t t = cursor++;
      if (result.statuses[t].ok()) result.statuses[t] = budget_failure;
    }
    for (size_t t : deferred) {
      if (result.statuses[t].ok()) result.statuses[t] = budget_failure;
    }
    deferred.clear();
  }

  // Oversized tuples run through the scalar interpreter, which re-uses
  // (and overwrites) the arena the lanes are done with.
  for (size_t t : deferred) {
    Result<AcceptStats> one = p.Accept(*tuples[t], scratch, options);
    if (!one.ok()) {
      result.statuses[t] = one.status();
      continue;
    }
    result.accepted[t] = one->accepted ? 1 : 0;
    result.configurations_visited += one->configurations_visited;
    result.transitions_tried += one->transitions_tried;
  }
  return result;
}

AcceptBatchResult AcceptBatch(
    const DfaProgram& program,
    std::span<const std::vector<std::string>* const> tuples,
    DfaScratch* scratch, const AcceptOptions& options) {
  DfaMetrics::Get().batch_rows->Increment(
      static_cast<int64_t>(tuples.size()));
  return DfaBatchRunner::RunBatch(program, tuples, scratch, options);
}

}  // namespace strdb
