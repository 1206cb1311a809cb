#include "fsa/kernel.h"

#include <algorithm>
#include <numeric>

namespace strdb {

namespace {

// Rank of a tape symbol in the packed read-key alphabet: character ids
// first, then ⊢, then ⊣.
inline int64_t RankOf(Sym s, int sigma) {
  if (s == kLeftEnd) return sigma;
  if (s == kRightEnd) return sigma + 1;
  return s;
}

inline Status SpaceExhausted() {
  return Status::ResourceExhausted(
      "configuration space exceeds int64 index range");
}

}  // namespace

Result<AcceptKernel> AcceptKernel::Compile(const Fsa& fsa) {
  AcceptKernel kernel(fsa.alphabet(), fsa.num_tapes());
  const int sigma = kernel.alphabet_.size();
  const int k = kernel.num_tapes_;
  kernel.num_states_ = fsa.num_states();
  kernel.start_ = fsa.start();
  kernel.radix_ = sigma + 2;
  kernel.pow_.resize(static_cast<size_t>(k));
  int64_t p = 1;
  for (int i = 0; i < k; ++i) {
    kernel.pow_[static_cast<size_t>(i)] = p;
    if (i + 1 < k &&
        __builtin_mul_overflow(p, static_cast<int64_t>(kernel.radix_), &p)) {
      return Status::ResourceExhausted(
          "read-key space (|Sigma|+2)^k exceeds int64 range");
    }
  }
  std::fill(kernel.char_rank_, kernel.char_rank_ + 256, int16_t{-1});
  for (Sym s = 0; s < sigma; ++s) {
    kernel.char_rank_[static_cast<unsigned char>(kernel.alphabet_.CharOf(s))] =
        s;
  }
  kernel.is_final_.resize(static_cast<size_t>(kernel.num_states_));
  for (int s = 0; s < kernel.num_states_; ++s) {
    kernel.is_final_[static_cast<size_t>(s)] = fsa.IsFinal(s) ? 1 : 0;
  }

  const std::vector<Transition>& trs = fsa.transitions();
  std::vector<int64_t> keys(trs.size());
  for (size_t t = 0; t < trs.size(); ++t) {
    int64_t key = 0;
    for (int i = 0; i < k; ++i) {
      key += RankOf(trs[t].read[static_cast<size_t>(i)], sigma) *
             kernel.pow_[static_cast<size_t>(i)];
      if (trs[t].move[static_cast<size_t>(i)] == kBack) {
        kernel.one_way_ = false;
      }
    }
    keys[t] = key;
  }
  std::vector<int32_t> order(trs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    if (trs[static_cast<size_t>(a)].from != trs[static_cast<size_t>(b)].from) {
      return trs[static_cast<size_t>(a)].from < trs[static_cast<size_t>(b)].from;
    }
    return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
  });
  kernel.row_begin_.assign(static_cast<size_t>(kernel.num_states_) + 1, 0);
  kernel.tr_key_.resize(trs.size());
  kernel.tr_to_.resize(trs.size());
  kernel.tr_move_.resize(trs.size() * static_cast<size_t>(k));
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const Transition& tr = trs[static_cast<size_t>(order[slot])];
    kernel.tr_key_[slot] = keys[static_cast<size_t>(order[slot])];
    kernel.tr_to_[slot] = tr.to;
    for (int i = 0; i < k; ++i) {
      kernel.tr_move_[slot * static_cast<size_t>(k) + static_cast<size_t>(i)] =
          tr.move[static_cast<size_t>(i)];
    }
    ++kernel.row_begin_[static_cast<size_t>(tr.from) + 1];
  }
  for (int s = 0; s < kernel.num_states_; ++s) {
    kernel.row_begin_[static_cast<size_t>(s) + 1] +=
        kernel.row_begin_[static_cast<size_t>(s)];
  }

  // Dense (state, key) lookup table, when it fits.
  constexpr int64_t kMaxLookupEntries = int64_t{1} << 18;
  int64_t key_space = 0;
  if (k > 0 && static_cast<int64_t>(trs.size()) <= UINT16_MAX &&
      !__builtin_mul_overflow(kernel.pow_[static_cast<size_t>(k) - 1],
                              static_cast<int64_t>(kernel.radix_),
                              &key_space)) {
    int64_t entries;
    if (!__builtin_mul_overflow(key_space,
                                static_cast<int64_t>(kernel.num_states_),
                                &entries) &&
        entries <= kMaxLookupEntries) {
      kernel.key_space_ = key_space;
      kernel.lookup_begin_.assign(static_cast<size_t>(entries), 0);
      kernel.lookup_cnt_.assign(static_cast<size_t>(entries), 0);
      for (int s = 0; s < kernel.num_states_; ++s) {
        int32_t t = kernel.row_begin_[static_cast<size_t>(s)];
        const int32_t end = kernel.row_begin_[static_cast<size_t>(s) + 1];
        while (t < end) {
          int32_t run = t + 1;
          while (run < end && kernel.tr_key_[static_cast<size_t>(run)] ==
                                  kernel.tr_key_[static_cast<size_t>(t)]) {
            ++run;
          }
          size_t base = static_cast<size_t>(s) * static_cast<size_t>(key_space) +
                        static_cast<size_t>(kernel.tr_key_[static_cast<size_t>(t)]);
          kernel.lookup_begin_[base] = t;
          kernel.lookup_cnt_[base] = static_cast<uint16_t>(run - t);
          t = run;
        }
      }
    }
  }

  // One-way bitset stepping tables.  Only worth building when whole
  // state sets fit one word and the per-(key, move) mask array stays
  // small; the per-state CSR walk remains as the fallback.
  constexpr int64_t kMaxMaskEntries = int64_t{1} << 20;
  if (kernel.one_way_ && kernel.num_states_ <= 64 && kernel.key_space_ != 0) {
    for (size_t t = 0; t < trs.size(); ++t) {
      const int8_t* mv = kernel.tr_move_.data() + t * static_cast<size_t>(k);
      int m = -1;
      for (int j = 0; j < kernel.num_moves_; ++j) {
        if (std::equal(mv, mv + k, kernel.move_vec_.data() +
                                       static_cast<size_t>(j) *
                                           static_cast<size_t>(k))) {
          m = j;
          break;
        }
      }
      if (m < 0) {
        kernel.move_vec_.insert(kernel.move_vec_.end(), mv, mv + k);
        ++kernel.num_moves_;
      }
    }
    for (int m = 0; m < kernel.num_moves_; ++m) {
      const int8_t* mv =
          kernel.move_vec_.data() + static_cast<size_t>(m) *
                                        static_cast<size_t>(k);
      if (std::all_of(mv, mv + k, [](int8_t d) { return d == 0; })) {
        kernel.zero_move_ = m;
        break;
      }
    }
    // Group CSR slots by (key, move id).  Only (key, move) pairs that
    // actually occur get an entry, so the hot loop walks 2-3 contiguous
    // groups per key instead of probing every move vector, and the
    // successor tables stay dense enough to live in L1.
    const size_t S = static_cast<size_t>(kernel.num_states_);
    std::vector<int64_t> gkey(trs.size());
    for (size_t t = 0; t < trs.size(); ++t) {
      const int8_t* mv = kernel.tr_move_.data() + t * static_cast<size_t>(k);
      int m = 0;
      while (!std::equal(mv, mv + k,
                         kernel.move_vec_.data() +
                             static_cast<size_t>(m) *
                                 static_cast<size_t>(k))) {
        ++m;
      }
      gkey[t] = kernel.tr_key_[t] * kernel.num_moves_ + m;
    }
    std::vector<int32_t> gorder(trs.size());
    std::iota(gorder.begin(), gorder.end(), 0);
    std::sort(gorder.begin(), gorder.end(), [&](int32_t a, int32_t b) {
      return gkey[static_cast<size_t>(a)] < gkey[static_cast<size_t>(b)];
    });
    int64_t distinct = 0;
    for (size_t i = 0; i < gorder.size(); ++i) {
      if (i == 0 || gkey[static_cast<size_t>(gorder[i])] !=
                        gkey[static_cast<size_t>(gorder[i - 1])]) {
        ++distinct;
      }
    }
    if (distinct * static_cast<int64_t>(S) <= kMaxMaskEntries) {
      kernel.bitset_mode_ = true;
      kernel.key_group_begin_.assign(static_cast<size_t>(kernel.key_space_) + 1,
                                     0);
      kernel.group_m_.reserve(static_cast<size_t>(distinct));
      kernel.group_mask_.reserve(static_cast<size_t>(distinct));
      kernel.succ_mask_.reserve(static_cast<size_t>(distinct) * S);
      kernel.succ_cnt_.reserve(static_cast<size_t>(distinct) * S);
      kernel.key_nonempty_.assign(static_cast<size_t>(kernel.key_space_), 0);
      for (size_t i = 0; i < gorder.size(); ++i) {
        const size_t t = static_cast<size_t>(gorder[i]);
        const Transition& tr = trs[static_cast<size_t>(order[t])];
        if (i == 0 || gkey[t] != gkey[static_cast<size_t>(gorder[i - 1])]) {
          kernel.group_m_.push_back(
              static_cast<int32_t>(gkey[t] % kernel.num_moves_));
          kernel.group_mask_.push_back(0);
          kernel.succ_mask_.insert(kernel.succ_mask_.end(), S, 0);
          kernel.succ_cnt_.insert(kernel.succ_cnt_.end(), S, 0);
          ++kernel.key_group_begin_[static_cast<size_t>(
              gkey[t] / kernel.num_moves_ + 1)];
        }
        const size_t e = kernel.group_mask_.size() - 1;
        kernel.group_mask_[e] |= uint64_t{1} << tr.from;
        kernel.succ_mask_[e * S + static_cast<size_t>(tr.from)] |=
            uint64_t{1} << tr.to;
        ++kernel.succ_cnt_[e * S + static_cast<size_t>(tr.from)];
        kernel.key_nonempty_[static_cast<size_t>(kernel.tr_key_[t])] |=
            uint64_t{1} << tr.from;
      }
      for (size_t key = 0; key < static_cast<size_t>(kernel.key_space_);
           ++key) {
        kernel.key_group_begin_[key + 1] += kernel.key_group_begin_[key];
      }
      for (int s = 0; s < kernel.num_states_; ++s) {
        if (kernel.is_final_[static_cast<size_t>(s)]) {
          kernel.final_mask_ |= uint64_t{1} << s;
        }
      }
    } else {
      kernel.move_vec_.clear();
      kernel.num_moves_ = 0;
      kernel.zero_move_ = -1;
    }
  }
  return kernel;
}

int64_t AcceptKernel::MemoryCost() const {
  return static_cast<int64_t>(sizeof(AcceptKernel)) +
         static_cast<int64_t>(pow_.size() * sizeof(int64_t)) +
         static_cast<int64_t>(is_final_.size()) +
         static_cast<int64_t>(row_begin_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(tr_key_.size() * sizeof(int64_t)) +
         static_cast<int64_t>(tr_to_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(tr_move_.size()) +
         static_cast<int64_t>(lookup_begin_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(lookup_cnt_.size() * sizeof(uint16_t)) +
         static_cast<int64_t>(move_vec_.size()) +
         static_cast<int64_t>(key_group_begin_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(group_m_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(group_mask_.size() * sizeof(uint64_t)) +
         static_cast<int64_t>(succ_mask_.size() * sizeof(uint64_t)) +
         static_cast<int64_t>(succ_cnt_.size() * sizeof(uint16_t)) +
         static_cast<int64_t>(key_nonempty_.size() * sizeof(uint64_t));
}

Status AcceptScratch::Prepare(const AcceptKernel& kernel,
                              const std::vector<std::string>& strings) {
  const int k = kernel.num_tapes_;
  if (static_cast<int>(strings.size()) != k) {
    return Status::InvalidArgument("input arity differs from tape count");
  }
  const int sigma = kernel.alphabet_.size();
  rank_off_.assign(static_cast<size_t>(k) + 1, 0);
  size_t total_ranks = 0;
  for (int i = 0; i < k; ++i) {
    total_ranks += strings[static_cast<size_t>(i)].size() + 2;
    rank_off_[static_cast<size_t>(i) + 1] = static_cast<int32_t>(total_ranks);
  }
  ranks_.resize(total_ranks);
  for (int i = 0; i < k; ++i) {
    int32_t* row = ranks_.data() + rank_off_[static_cast<size_t>(i)];
    const std::string& w = strings[static_cast<size_t>(i)];
    row[0] = sigma;  // ⊢
    for (size_t j = 0; j < w.size(); ++j) {
      int16_t rank = kernel.char_rank_[static_cast<unsigned char>(w[j])];
      if (rank < 0) {
        return Status::InvalidArgument(
            std::string("string contains character '") + w[j] +
            "' outside the alphabet");
      }
      row[j + 1] = rank;
    }
    row[w.size() + 1] = sigma + 1;  // ⊣
  }

  stride_.resize(static_cast<size_t>(k));
  int64_t stride = 1;
  for (int i = 0; i < k; ++i) {
    stride_[static_cast<size_t>(i)] = stride;
    int64_t radix =
        static_cast<int64_t>(strings[static_cast<size_t>(i)].size()) + 2;
    if (__builtin_mul_overflow(stride, radix, &stride)) {
      return SpaceExhausted();
    }
  }
  per_state_ = stride;
  if (__builtin_mul_overflow(per_state_,
                             static_cast<int64_t>(kernel.num_states_),
                             &total_)) {
    return SpaceExhausted();
  }

  if (!kernel.bitset_mode_) {
    // Per-transition deltas feed the per-state walks; the bitset path
    // only needs one delta per distinct move vector (below).
    const size_t trans = static_cast<size_t>(kernel.num_transitions());
    tr_delta_.resize(trans);
    for (size_t t = 0; t < trans; ++t) {
      int64_t delta = 0;
      for (int i = 0; i < k; ++i) {
        delta += stride_[static_cast<size_t>(i)] *
                 kernel.tr_move_[t * static_cast<size_t>(k) +
                                 static_cast<size_t>(i)];
      }
      tr_delta_[t] = delta;
    }
  } else {
    move_delta_.resize(static_cast<size_t>(kernel.num_moves_));
    for (int m = 0; m < kernel.num_moves_; ++m) {
      int64_t delta = 0;
      for (int i = 0; i < k; ++i) {
        delta += stride_[static_cast<size_t>(i)] *
                 kernel.move_vec_[static_cast<size_t>(m) *
                                      static_cast<size_t>(k) +
                                  static_cast<size_t>(i)];
      }
      move_delta_[static_cast<size_t>(m)] = delta;
    }
  }
  return Status::OK();
}

void AcceptScratch::ResetSlots(int64_t per_state) {
  slot_pos_.clear();
  slot_key_.clear();
  pending_bits_.clear();
  done_bits_.clear();
  slot_queued_.clear();
  worklist_.clear();
  slot_count_ = 0;
  constexpr int64_t kMaxDirectSlots = int64_t{1} << 20;
  slot_direct_ = per_state <= kMaxDirectSlots;
  if (slot_direct_) {
    if (slot_lookup_.size() < static_cast<size_t>(per_state)) {
      slot_lookup_.resize(static_cast<size_t>(per_state));
    }
  } else if (slot_table_.empty()) {
    slot_table_.resize(1024);
  }
  if (++slot_epoch_ == 0) {
    // The 32-bit epoch wrapped: all stamps are stale lies now, so reset
    // them once and restart from epoch 1.
    std::fill(slot_lookup_.begin(), slot_lookup_.end(), uint64_t{0});
    for (SlotEntry& e : slot_table_) e.epoch = 0;
    slot_epoch_ = 1;
  }
}

void AcceptScratch::GrowSlotTable() {
  std::vector<SlotEntry> old = std::move(slot_table_);
  slot_table_.assign(old.size() * 2, SlotEntry{});
  const size_t mask = slot_table_.size() - 1;
  for (const SlotEntry& e : old) {
    if (e.epoch != slot_epoch_) continue;
    uint64_t h = static_cast<uint64_t>(e.key) * 0x9e3779b97f4a7c15ULL;
    size_t idx = static_cast<size_t>(h ^ (h >> 32)) & mask;
    while (slot_table_[idx].epoch == slot_epoch_) idx = (idx + 1) & mask;
    slot_table_[idx] = e;
  }
}

int32_t AcceptScratch::SlotOf(int64_t poskey, int k, const int32_t* base_pos,
                              const int8_t* moves, size_t set_words) {
  int32_t id = static_cast<int32_t>(slot_key_.size());
  if (slot_direct_) {
    size_t di = static_cast<size_t>(poskey);
    const uint64_t entry = slot_lookup_[di];
    if ((entry >> 32) == slot_epoch_) {
      return static_cast<int32_t>(entry & 0xffffffffu);
    }
    slot_lookup_[di] = (static_cast<uint64_t>(slot_epoch_) << 32) |
                       static_cast<uint32_t>(id);
  } else {
    if ((slot_count_ + 1) * 2 > slot_table_.size()) GrowSlotTable();
    const size_t mask = slot_table_.size() - 1;
    uint64_t h = static_cast<uint64_t>(poskey) * 0x9e3779b97f4a7c15ULL;
    size_t idx = static_cast<size_t>(h ^ (h >> 32)) & mask;
    while (slot_table_[idx].epoch == slot_epoch_) {
      if (slot_table_[idx].key == poskey) return slot_table_[idx].slot;
      idx = (idx + 1) & mask;
    }
    SlotEntry& e = slot_table_[idx];
    e.key = poskey;
    e.epoch = slot_epoch_;
    e.slot = id;
    ++slot_count_;
  }
  slot_key_.push_back(poskey);
  for (int i = 0; i < k; ++i) {
    slot_pos_.push_back(base_pos[i] + (moves != nullptr ? moves[i] : 0));
  }
  pending_bits_.insert(pending_bits_.end(), set_words, 0);
  done_bits_.insert(done_bits_.end(), set_words, 0);
  slot_queued_.push_back(0);
  return id;
}

Result<AcceptStats> AcceptScratch::Accept(
    const AcceptKernel& kernel, const std::vector<std::string>& strings,
    const AcceptOptions& options) {
  STRDB_RETURN_IF_ERROR(Prepare(kernel, strings));
  if (!kernel.one_way_) return RunTwoWay(kernel, options);
  return kernel.bitset_mode_ ? RunOneWayBitset(kernel, options)
                             : RunOneWay(kernel, options);
}

Result<AcceptStats> AcceptScratch::RunTwoWay(const AcceptKernel& kernel,
                                             const AcceptOptions& options) {
  const int k = kernel.num_tapes_;
  const size_t words = static_cast<size_t>((total_ + 63) / 64);
  if (visited_words_.size() < words) {
    visited_words_.resize(words);
    visited_epoch_.resize(words);
  }
  if (++epoch_ == 0) {
    // The 32-bit epoch wrapped: all stamps are stale lies now, so reset
    // them once and restart from epoch 1.
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0u);
    epoch_ = 1;
  }
  auto test_and_set = [&](int64_t idx) {
    size_t w = static_cast<size_t>(idx >> 6);
    uint64_t bit = uint64_t{1} << (idx & 63);
    if (visited_epoch_[w] != epoch_) {
      visited_epoch_[w] = epoch_;
      visited_words_[w] = 0;
    }
    if ((visited_words_[w] & bit) != 0) return true;
    visited_words_[w] |= bit;
    return false;
  };

  frontier_state_.clear();
  frontier_pos_.clear();
  frontier_state_.reserve(64);
  frontier_state_.push_back(kernel.start_);
  frontier_pos_.insert(frontier_pos_.end(), static_cast<size_t>(k), 0);
  test_and_set(static_cast<int64_t>(kernel.start_) * per_state_);

  cur_pos_.resize(static_cast<size_t>(k));
  AcceptStats stats;
  for (size_t head = 0; head < frontier_state_.size(); ++head) {
    if (options.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options.budget->ChargeSteps(1));
    }
    ++stats.configurations_visited;
    const int32_t state = frontier_state_[head];
    // Copy the positions out: pushes below may reallocate frontier_pos_.
    std::copy_n(frontier_pos_.data() + head * static_cast<size_t>(k),
                static_cast<size_t>(k), cur_pos_.data());
    int64_t posk = 0;
    int64_t key = 0;
    for (int i = 0; i < k; ++i) {
      int32_t p = cur_pos_[static_cast<size_t>(i)];
      posk += stride_[static_cast<size_t>(i)] * p;
      key += static_cast<int64_t>(
                 ranks_[static_cast<size_t>(
                     rank_off_[static_cast<size_t>(i)] + p)]) *
             kernel.pow_[static_cast<size_t>(i)];
    }
    int32_t t0, t1;
    kernel.MatchRange(state, key, &t0, &t1);
    stats.transitions_tried += t1 - t0;
    for (int32_t ti = t0; ti < t1; ++ti) {
      size_t t = static_cast<size_t>(ti);
      int64_t next = static_cast<int64_t>(kernel.tr_to_[t]) * per_state_ +
                     posk + tr_delta_[t];
      if (test_and_set(next)) continue;
      frontier_state_.push_back(kernel.tr_to_[t]);
      const int8_t* moves =
          kernel.tr_move_.data() + t * static_cast<size_t>(k);
      for (int i = 0; i < k; ++i) {
        frontier_pos_.push_back(cur_pos_[static_cast<size_t>(i)] +
                                moves[i]);
      }
    }
    if (t0 == t1 && kernel.is_final_[static_cast<size_t>(state)]) {
      stats.accepted = true;
      return stats;
    }
  }
  stats.accepted = false;
  return stats;
}

Result<AcceptStats> AcceptScratch::RunOneWay(const AcceptKernel& kernel,
                                             const AcceptOptions& options) {
  const int k = kernel.num_tapes_;
  const size_t set_words = static_cast<size_t>((kernel.num_states_ + 63) / 64);
  ResetSlots(per_state_);

  cur_pos_.assign(static_cast<size_t>(k), 0);
  int32_t start_slot = SlotOf(0, k, cur_pos_.data(), nullptr, set_words);
  pending_bits_[static_cast<size_t>(start_slot) * set_words +
                static_cast<size_t>(kernel.start_) / 64] |=
      uint64_t{1} << (kernel.start_ % 64);
  slot_queued_[static_cast<size_t>(start_slot)] = 1;
  worklist_.push_back(start_slot);

  AcceptStats stats;
  for (size_t head = 0; head < worklist_.size(); ++head) {
    const int32_t slot = worklist_[head];
    slot_queued_[static_cast<size_t>(slot)] = 0;
    const int64_t slot_poskey = slot_key_[static_cast<size_t>(slot)];
    // The read key is a function of the position vector alone, so every
    // state sharing this slot shares one key computation.
    std::copy_n(slot_pos_.data() + static_cast<size_t>(slot) * k,
                static_cast<size_t>(k), cur_pos_.data());
    int64_t key = 0;
    for (int i = 0; i < k; ++i) {
      key += static_cast<int64_t>(
                 ranks_[static_cast<size_t>(
                     rank_off_[static_cast<size_t>(i)] +
                     cur_pos_[static_cast<size_t>(i)])]) *
             kernel.pow_[static_cast<size_t>(i)];
    }
    for (size_t w = 0; w < set_words; ++w) {
      uint64_t fresh =
          pending_bits_[static_cast<size_t>(slot) * set_words + w] &
          ~done_bits_[static_cast<size_t>(slot) * set_words + w];
      if (fresh == 0) continue;
      done_bits_[static_cast<size_t>(slot) * set_words + w] |= fresh;
      while (fresh != 0) {
        int bit = __builtin_ctzll(fresh);
        fresh &= fresh - 1;
        int32_t state = static_cast<int32_t>(w * 64 + static_cast<size_t>(bit));
        if (options.budget != nullptr) {
          STRDB_RETURN_IF_ERROR(options.budget->ChargeSteps(1));
        }
        ++stats.configurations_visited;
        int32_t t0, t1;
        kernel.MatchRange(state, key, &t0, &t1);
        stats.transitions_tried += t1 - t0;
        for (int32_t ti = t0; ti < t1; ++ti) {
          size_t t = static_cast<size_t>(ti);
          int64_t npos_key = slot_poskey + tr_delta_[t];
          // cur_pos_ (not a pointer into slot_pos_, which SlotOf may
          // reallocate) supplies the base positions.
          int32_t target =
              SlotOf(npos_key, k, cur_pos_.data(),
                     kernel.tr_move_.data() + t * static_cast<size_t>(k),
                     set_words);
          size_t tw = static_cast<size_t>(target) * set_words +
                      static_cast<size_t>(kernel.tr_to_[t]) / 64;
          uint64_t tbit = uint64_t{1} << (kernel.tr_to_[t] % 64);
          if ((done_bits_[tw] & tbit) != 0 ||
              (pending_bits_[tw] & tbit) != 0) {
            continue;
          }
          pending_bits_[tw] |= tbit;
          if (!slot_queued_[static_cast<size_t>(target)]) {
            slot_queued_[static_cast<size_t>(target)] = 1;
            worklist_.push_back(target);
          }
        }
        if (t0 == t1 && kernel.is_final_[static_cast<size_t>(state)]) {
          stats.accepted = true;
          return stats;
        }
      }
    }
  }
  stats.accepted = false;
  return stats;
}

Result<AcceptStats> AcceptScratch::RunOneWayBitset(
    const AcceptKernel& kernel, const AcceptOptions& options) {
  const int k = kernel.num_tapes_;
  const size_t num_states = static_cast<size_t>(kernel.num_states_);
  ResetSlots(per_state_);

  // |Q| ≤ 64 here, so every state set is exactly one word per slot.
  cur_pos_.assign(static_cast<size_t>(k), 0);
  int32_t start_slot = SlotOf(0, k, cur_pos_.data(), nullptr, 1);
  pending_bits_[static_cast<size_t>(start_slot)] = uint64_t{1}
                                                   << kernel.start_;
  slot_queued_[static_cast<size_t>(start_slot)] = 1;
  worklist_.push_back(start_slot);

  // Hoisted table pointers: all of these stay put while the loop runs
  // (only the slot arrays grow), which spares the compiler re-loading
  // them around every push_back.
  const int64_t* pow = kernel.pow_.data();
  const int32_t* ranks = ranks_.data();
  const int32_t* roff = rank_off_.data();
  const int32_t* kgb = kernel.key_group_begin_.data();
  const int32_t* gm = kernel.group_m_.data();
  const uint64_t* gmask = kernel.group_mask_.data();
  const uint64_t* succ = kernel.succ_mask_.data();
  const uint16_t* scnt = kernel.succ_cnt_.data();
  const uint64_t* nonempty = kernel.key_nonempty_.data();
  const int8_t* mvec = kernel.move_vec_.data();
  const int64_t* mdelta = move_delta_.data();
  const uint64_t final_mask = kernel.final_mask_;
  const int zero_move = kernel.zero_move_;

  AcceptStats stats;
  for (size_t head = 0; head < worklist_.size(); ++head) {
    const int32_t slot = worklist_[head];
    slot_queued_[static_cast<size_t>(slot)] = 0;
    uint64_t fresh = pending_bits_[static_cast<size_t>(slot)] &
                     ~done_bits_[static_cast<size_t>(slot)];
    if (fresh == 0) continue;
    const int64_t slot_poskey = slot_key_[static_cast<size_t>(slot)];
    // cur_pos_ (not a pointer into slot_pos_, which SlotOf may
    // reallocate) supplies the base positions.
    std::copy_n(slot_pos_.data() + static_cast<size_t>(slot) * k,
                static_cast<size_t>(k), cur_pos_.data());
    int64_t key = 0;
    for (int i = 0; i < k; ++i) {
      key += static_cast<int64_t>(
                 ranks[static_cast<size_t>(
                     roff[static_cast<size_t>(i)] +
                     cur_pos_[static_cast<size_t>(i)])]) *
             pow[static_cast<size_t>(i)];
    }
    const int32_t gb = kgb[static_cast<size_t>(key)];
    const int32_t ge = kgb[static_cast<size_t>(key) + 1];
    // Stationary closure first: the all-zero move vector (the only one
    // with Σ stride_i·move_i = 0, since strides are positive) keeps both
    // the position vector and the read key, so chase it to a fixpoint
    // here.  Without this, every state-only chain step would re-queue
    // the slot and pay the whole expansion preamble again.
    if (zero_move >= 0) {
      for (int32_t gi = gb; gi < ge; ++gi) {
        if (gm[static_cast<size_t>(gi)] != zero_move) continue;
        const uint64_t* rows =
            succ + static_cast<size_t>(gi) * num_states;
        const uint16_t* cnts =
            scnt + static_cast<size_t>(gi) * num_states;
        uint64_t frontier = fresh;
        while (true) {
          uint64_t f = frontier & gmask[static_cast<size_t>(gi)];
          if (f == 0) break;
          uint64_t next = 0;
          int64_t tried = 0;
          do {
            int s = __builtin_ctzll(f);
            f &= f - 1;
            next |= rows[s];
            tried += cnts[s];
          } while (f != 0);
          stats.transitions_tried += tried;
          const uint64_t add =
              next & ~(done_bits_[static_cast<size_t>(slot)] | fresh);
          if (add == 0) break;
          fresh |= add;
          frontier = add;
        }
        pending_bits_[static_cast<size_t>(slot)] |= fresh;
        break;
      }
    }
    done_bits_[static_cast<size_t>(slot)] |= fresh;
    const int visits = __builtin_popcountll(fresh);
    if (options.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options.budget->ChargeSteps(visits));
    }
    stats.configurations_visited += visits;
    // Stuck acceptance in one AND chain: a freshly visited final state
    // with no transition on this read key accepts immediately.
    if ((fresh & final_mask & ~nonempty[static_cast<size_t>(key)]) != 0) {
      stats.accepted = true;
      return stats;
    }
    for (int32_t gi = gb; gi < ge; ++gi) {
      const int m = gm[static_cast<size_t>(gi)];
      if (m == zero_move) continue;
      // Restrict to states with a transition in this group; groups
      // nobody in the set can take cost one AND.
      uint64_t f = fresh & gmask[static_cast<size_t>(gi)];
      if (f == 0) continue;
      const uint64_t* rows = succ + static_cast<size_t>(gi) * num_states;
      const uint16_t* cnts = scnt + static_cast<size_t>(gi) * num_states;
      uint64_t next = 0;
      int64_t tried = 0;
      do {
        int s = __builtin_ctzll(f);
        f &= f - 1;
        next |= rows[s];
        tried += cnts[s];
      } while (f != 0);
      stats.transitions_tried += tried;
      int32_t target =
          SlotOf(slot_poskey + mdelta[static_cast<size_t>(m)], k,
                 cur_pos_.data(),
                 mvec + static_cast<size_t>(m) * static_cast<size_t>(k), 1);
      const uint64_t fresh_target =
          next & ~done_bits_[static_cast<size_t>(target)] &
          ~pending_bits_[static_cast<size_t>(target)];
      pending_bits_[static_cast<size_t>(target)] |= next;
      if (fresh_target != 0 && !slot_queued_[static_cast<size_t>(target)]) {
        slot_queued_[static_cast<size_t>(target)] = 1;
        worklist_.push_back(target);
      }
    }
  }
  stats.accepted = false;
  return stats;
}

AcceptBatchResult AcceptBatch(
    const AcceptKernel& kernel,
    std::span<const std::vector<std::string>* const> tuples,
    AcceptScratch* scratch, const AcceptOptions& options) {
  return AcceptEach(tuples, [&](const std::vector<std::string>& tuple) {
    return scratch->Accept(kernel, tuple, options);
  });
}

}  // namespace strdb
