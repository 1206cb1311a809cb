#ifndef STRDB_CORE_LRU_H_
#define STRDB_CORE_LRU_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/metrics.h"

namespace strdb {

// Counters of one ByteLru.  hits/misses/evictions only grow; bytes and
// entries describe what is resident now.
struct LruStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t bytes_in_use = 0;
  int64_t peak_bytes = 0;
  int64_t entries = 0;
};

// Process-wide instruments a ByteLru mirrors its counters into (any may
// be null).
struct LruInstruments {
  Counter* hits = nullptr;
  Counter* misses = nullptr;
  Counter* evictions = nullptr;
  Gauge* bytes_in_use = nullptr;
  Gauge* entries = nullptr;
};

// A string-keyed LRU bounded in bytes.  Every entry carries an estimated
// byte cost, and an insert evicts from the cold end *before* the new
// cost is accounted, so bytes_in_use <= max_bytes holds at all times,
// not just between inserts.  An entry whose cost alone exceeds the bound
// is refused (counted as an eviction) for the caller to use uncached.
//
// Not thread safe: the owning cache serialises access under its own
// lock.  The engine's ArtifactCache and the compiled-query cache behind
// Query::Parse both sit on it.
template <typename V>
class ByteLru {
 public:
  ByteLru(int64_t max_bytes, LruInstruments instruments)
      : max_bytes_(max_bytes), instruments_(instruments) {}

  int64_t max_bytes() const { return max_bytes_; }
  const LruStats& stats() const { return stats_; }

  // The value under `key`, which becomes the most recently used entry,
  // or nullptr.  Counts a hit or a miss.
  const V* Find(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      Bump(&stats_.misses, instruments_.misses);
      return nullptr;
    }
    Bump(&stats_.hits, instruments_.hits);
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  // Inserts `value` under `key` at `cost` bytes.  Returns false when it
  // was not retained: oversize, or an incumbent already sits under the
  // key (a concurrent miss that inserted first; equal by construction,
  // so it is kept and refreshed).
  bool Insert(std::string key, V value, int64_t cost) {
    auto existing = index_.find(key);
    if (existing != index_.end()) {
      lru_.splice(lru_.begin(), lru_, existing->second);
      return false;
    }
    if (cost > max_bytes_) {
      Bump(&stats_.evictions, instruments_.evictions);
      return false;
    }
    while (stats_.bytes_in_use + cost > max_bytes_ && !lru_.empty()) {
      Entry& victim = lru_.back();
      Account(-victim.cost, -1);
      Bump(&stats_.evictions, instruments_.evictions);
      index_.erase(victim.key);
      lru_.pop_back();
    }
    Account(cost, 1);
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
    lru_.push_front(Entry{std::move(key), std::move(value), cost});
    index_.emplace(lru_.front().key, lru_.begin());
    return true;
  }

  // Visits every entry as fn(key, value), most recently used first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : lru_) fn(entry.key, entry.value);
  }

  // Drops every entry; the hit/miss/eviction counts are kept.
  void Clear() {
    Account(-stats_.bytes_in_use, -stats_.entries);
    index_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::string key;
    V value;
    int64_t cost = 0;
  };

  static void Bump(int64_t* stat, Counter* counter) {
    ++*stat;
    if (counter != nullptr) counter->Increment();
  }

  void Account(int64_t bytes, int64_t entries) {
    stats_.bytes_in_use += bytes;
    stats_.entries += entries;
    if (instruments_.bytes_in_use != nullptr) {
      instruments_.bytes_in_use->Add(bytes);
    }
    if (instruments_.entries != nullptr) instruments_.entries->Add(entries);
  }

  const int64_t max_bytes_;
  const LruInstruments instruments_;
  LruStats stats_;
  // Front = most recently used.  The index views the keys of the list's
  // entries, which stay put across splices.
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace strdb

#endif  // STRDB_CORE_LRU_H_
