#include "engine/cache.h"

#include <optional>
#include <utility>

#include "core/metrics.h"
#include "fsa/serialize.h"
#include "fsa/specialize.h"

namespace strdb {

namespace {

struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Gauge* bytes;
  Gauge* entries;
};

// All ArtifactCache instances report into one set of process-wide
// instruments (there is normally exactly one cache, Engine::Shared()'s).
const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return CacheMetrics{reg.GetCounter("engine.cache.hits"),
                        reg.GetCounter("engine.cache.misses"),
                        reg.GetCounter("engine.cache.evictions"),
                        reg.GetGauge("engine.cache.bytes_in_use"),
                        reg.GetGauge("engine.cache.entries")};
  }();
  return metrics;
}

}  // namespace

ArtifactCache::ArtifactCache(int64_t max_bytes)
    : max_bytes_(max_bytes > 0 ? max_bytes : kDefaultMaxBytes) {}

std::string ArtifactCache::FsaKey(const Fsa& fsa) {
  return SerializeFsa(fsa);
}

int64_t ArtifactCache::FsaCost(const Fsa& fsa) {
  // Resident footprint, not serialized size: states (finality bit +
  // per-state out-index vector) plus transitions (fixed header + one
  // read symbol and one move per tape + the out-index slot).
  int64_t per_transition =
      static_cast<int64_t>(sizeof(Transition)) +
      static_cast<int64_t>(fsa.num_tapes()) *
          static_cast<int64_t>(sizeof(Sym) + sizeof(Move)) +
      static_cast<int64_t>(sizeof(int));
  return static_cast<int64_t>(sizeof(Fsa)) +
         static_cast<int64_t>(fsa.num_states()) *
             static_cast<int64_t>(sizeof(std::vector<int>) + 1) +
         static_cast<int64_t>(fsa.num_transitions()) * per_transition;
}

int64_t ArtifactCache::GeneratedCost(const GeneratedSet& set) {
  // Red-black tree node (3 pointers + colour, rounded) + vector header
  // per tuple, string header + content per component.
  int64_t bytes = static_cast<int64_t>(sizeof(GeneratedSet));
  for (const std::vector<std::string>& tuple : set) {
    bytes += 32 + static_cast<int64_t>(sizeof(tuple));
    for (const std::string& s : tuple) {
      bytes += static_cast<int64_t>(sizeof(s) + s.capacity());
    }
  }
  return bytes;
}

Result<std::shared_ptr<const Fsa>> ArtifactCache::GetSpecialized(
    const std::string& base_key, const Fsa& base, int tape,
    const std::string& value, std::string* derived_key, bool* hit,
    ResourceBudget* budget) {
  std::string key = base_key;
  key += "\n|s";
  key += std::to_string(tape);
  key += '=';
  key += value;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      RecordHitLocked();
      TouchLocked(it->second);
      if (hit != nullptr) *hit = true;
      std::shared_ptr<const Fsa> found = it->second->fsa;
      *derived_key = std::move(key);
      return found;
    }
    RecordMissLocked();
    if (hit != nullptr) *hit = false;
  }
  // Build outside the lock; concurrent misses on the same key compute
  // twice and agree (Specialize is deterministic).
  std::vector<std::optional<std::string>> fixed(
      static_cast<size_t>(base.num_tapes()), std::nullopt);
  fixed[static_cast<size_t>(tape)] = value;
  STRDB_ASSIGN_OR_RETURN(Fsa specialized, Specialize(base, fixed));
  auto shared = std::make_shared<const Fsa>(std::move(specialized));
  int64_t cost = static_cast<int64_t>(key.size()) + FsaCost(*shared);
  STRDB_RETURN_IF_ERROR(
      InsertCharged(Entry{key, shared, nullptr, nullptr, cost}, budget));
  *derived_key = std::move(key);
  return shared;
}

std::shared_ptr<const ArtifactCache::GeneratedSet> ArtifactCache::GetGenerated(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    RecordMissLocked();
    return nullptr;
  }
  RecordHitLocked();
  TouchLocked(it->second);
  return it->second->generated;
}

Result<std::shared_ptr<const ArtifactCache::GeneratedSet>>
ArtifactCache::PutGenerated(const std::string& key, GeneratedSet set,
                            ResourceBudget* budget) {
  auto shared = std::make_shared<const GeneratedSet>(std::move(set));
  int64_t cost = static_cast<int64_t>(key.size()) + GeneratedCost(*shared);
  STRDB_RETURN_IF_ERROR(
      InsertCharged(Entry{key, nullptr, shared, nullptr, cost}, budget));
  return shared;
}

Result<std::shared_ptr<const Acceptor>> ArtifactCache::GetAcceptor(
    const std::string& fsa_key, std::shared_ptr<const Fsa> fsa, bool* hit,
    ResourceBudget* budget) {
  std::string key = fsa_key + "\n|acceptor";
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      RecordHitLocked();
      TouchLocked(it->second);
      *hit = true;
      return it->second->acceptor;
    }
    RecordMissLocked();
    *hit = false;
  }
  // Compile outside the lock; concurrent misses on the same key compile
  // twice and agree (the tier choice is deterministic).
  auto shared = std::make_shared<const Acceptor>(Acceptor::Compile(fsa));
  int64_t cost = static_cast<int64_t>(key.size()) + shared->MemoryCost();
  // A BFS-tier acceptor keeps its automaton alive.
  if (shared->tier() == Acceptor::Tier::kBfs) cost += FsaCost(*fsa);
  STRDB_RETURN_IF_ERROR(InsertCharged(
      Entry{std::move(key), nullptr, nullptr, shared, cost}, budget));
  return shared;
}

void ArtifactCache::InstallFsa(const std::string& key,
                               std::shared_ptr<const Fsa> fsa) {
  int64_t cost = static_cast<int64_t>(key.size()) + FsaCost(*fsa);
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(Entry{key, std::move(fsa), nullptr, nullptr, cost});
}

void ArtifactCache::ForEachFsa(
    const std::function<void(const std::string& key, const Fsa& fsa)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : lru_) {
    if (entry.fsa != nullptr) fn(entry.key, *entry.fsa);
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  Metrics().bytes->Add(-stats_.bytes_in_use);
  Metrics().entries->Add(-stats_.entries);
  index_.clear();
  lru_.clear();
  stats_.bytes_in_use = 0;
  stats_.entries = 0;
}

void ArtifactCache::TouchLocked(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ArtifactCache::RecordHitLocked() {
  ++stats_.hits;
  Metrics().hits->Increment();
}

void ArtifactCache::RecordMissLocked() {
  ++stats_.misses;
  Metrics().misses->Increment();
}

Status ArtifactCache::InsertCharged(Entry entry, ResourceBudget* budget) {
  const int64_t cost = entry.cost;
  if (budget != nullptr) {
    STRDB_RETURN_IF_ERROR(budget->ChargeCachedBytes(cost));
  }
  bool inserted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inserted = InsertLocked(std::move(entry));
  }
  if (!inserted && budget != nullptr) budget->Release(0, 0, cost);
  return Status::OK();
}

bool ArtifactCache::InsertLocked(Entry entry) {
  auto existing = index_.find(entry.key);
  if (existing != index_.end()) {
    // A concurrent miss on the same key beat us to the insert; keep the
    // incumbent (equal by construction) and refresh its recency.
    TouchLocked(existing->second);
    return false;
  }
  if (entry.cost > max_bytes_) {
    // Too large to ever retain under the bound; hand it back uncached so
    // the invariant bytes_in_use <= max_bytes holds unconditionally.
    ++stats_.evictions;
    Metrics().evictions->Increment();
    return false;
  }
  // Make room first: the bound must hold at all times, not just between
  // inserts, so evict before the new entry's cost is ever accounted.
  EvictUntilFitsLocked(entry.cost);
  stats_.bytes_in_use += entry.cost;
  if (stats_.bytes_in_use > stats_.peak_bytes) {
    stats_.peak_bytes = stats_.bytes_in_use;
  }
  ++stats_.entries;
  Metrics().bytes->Add(entry.cost);
  Metrics().entries->Add(1);
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key, lru_.begin());
  return true;
}

void ArtifactCache::EvictUntilFitsLocked(int64_t incoming) {
  while (stats_.bytes_in_use + incoming > max_bytes_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    stats_.bytes_in_use -= victim.cost;
    --stats_.entries;
    ++stats_.evictions;
    Metrics().bytes->Add(-victim.cost);
    Metrics().entries->Add(-1);
    Metrics().evictions->Increment();
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

}  // namespace strdb
