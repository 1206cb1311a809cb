#include "engine/cache.h"

#include <optional>
#include <utility>

#include "core/metrics.h"
#include "fsa/specialize.h"

namespace strdb {

namespace {

// All ArtifactCache instances report into one set of process-wide
// instruments (there is normally exactly one cache, Engine::Shared()'s).
LruInstruments Instruments() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  return LruInstruments{reg.GetCounter("engine.cache.hits"),
                        reg.GetCounter("engine.cache.misses"),
                        reg.GetCounter("engine.cache.evictions"),
                        reg.GetGauge("engine.cache.bytes_in_use"),
                        reg.GetGauge("engine.cache.entries")};
}

}  // namespace

ArtifactCache::ArtifactCache(int64_t max_bytes)
    : lru_(max_bytes > 0 ? max_bytes : kDefaultMaxBytes, Instruments()) {}

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
    if (const Artifact* found = lru_.Find(key)) {
      if (hit != nullptr) *hit = true;
      std::shared_ptr<const Fsa> fsa = found->fsa;
      *derived_key = std::move(key);
      return fsa;
    }
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
      InsertCharged(key, Artifact{shared, nullptr, nullptr}, cost, budget));
  *derived_key = std::move(key);
  return shared;
}

std::shared_ptr<const ArtifactCache::GeneratedSet> ArtifactCache::GetGenerated(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const Artifact* found = lru_.Find(key);
  return found != nullptr ? found->generated : nullptr;
}

Result<std::shared_ptr<const ArtifactCache::GeneratedSet>>
ArtifactCache::PutGenerated(const std::string& key, GeneratedSet set,
                            ResourceBudget* budget) {
  auto shared = std::make_shared<const GeneratedSet>(std::move(set));
  int64_t cost = static_cast<int64_t>(key.size()) + GeneratedCost(*shared);
  STRDB_RETURN_IF_ERROR(
      InsertCharged(key, Artifact{nullptr, shared, nullptr}, cost, budget));
  return shared;
}

Result<std::shared_ptr<const Acceptor>> ArtifactCache::GetAcceptor(
    const std::string& fsa_key, std::shared_ptr<const Fsa> fsa, bool* hit,
    ResourceBudget* budget) {
  std::string key = fsa_key + "\n|acceptor";
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Artifact* found = lru_.Find(key)) {
      *hit = true;
      return found->acceptor;
    }
    *hit = false;
  }
  // Compile outside the lock; concurrent misses on the same key compile
  // twice and agree (the tier choice is deterministic).
  auto shared = std::make_shared<const Acceptor>(Acceptor::Compile(fsa));
  int64_t cost = static_cast<int64_t>(key.size()) + shared->MemoryCost();
  // A BFS-tier acceptor keeps its automaton alive.
  if (shared->tier() == Acceptor::Tier::kBfs) cost += FsaCost(*fsa);
  STRDB_RETURN_IF_ERROR(InsertCharged(
      std::move(key), Artifact{nullptr, nullptr, shared}, cost, budget));
  return shared;
}

void ArtifactCache::InstallFsa(const std::string& key,
                               std::shared_ptr<const Fsa> fsa) {
  int64_t cost = static_cast<int64_t>(key.size()) + FsaCost(*fsa);
  std::lock_guard<std::mutex> lock(mu_);
  lru_.Insert(key, Artifact{std::move(fsa), nullptr, nullptr}, cost);
}

void ArtifactCache::ForEachFsa(
    const std::function<void(const std::string& key, const Fsa& fsa)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.ForEach([&](const std::string& key, const Artifact& artifact) {
    if (artifact.fsa != nullptr) fn(key, *artifact.fsa);
  });
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.stats();
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.Clear();
}

Status ArtifactCache::InsertCharged(std::string key, Artifact artifact,
                                    int64_t cost, ResourceBudget* budget) {
  if (budget != nullptr) {
    STRDB_RETURN_IF_ERROR(budget->ChargeCachedBytes(cost));
  }
  bool inserted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inserted = lru_.Insert(std::move(key), std::move(artifact), cost);
  }
  if (!inserted && budget != nullptr) budget->Release(0, 0, cost);
  return Status::OK();
}

}  // namespace strdb
