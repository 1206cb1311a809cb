#ifndef STRDB_ENGINE_CACHE_H_
#define STRDB_ENGINE_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/budget.h"
#include "core/lru.h"
#include "core/result.h"
#include "fsa/acceptor.h"
#include "fsa/fsa.h"

namespace strdb {

// Process-wide cache of compiled σ_A artifacts, keyed by *structural*
// identity: the stable fsa/serialize text of the base automaton plus the
// chain of Lemma 3.1 bindings applied to it.  Repeated selections with
// the same automaton (re-running a Query, the odometer of
// σ_A(F × (Σ*)^n) revisiting a factor value, two queries sharing a
// compiled formula) skip respecialisation and regeneration entirely.
//
// Three artifact kinds are cached:
//   * specialised automata   — Specialize(A, tape := constant);
//   * bounded generations    — EnumerateLanguage(A', max_len) results;
//   * acceptors              — Acceptor::Compile(A) for σ_A filters, with
//     the tier choice *and its refusals* inside: an automaton outside the
//     DFA tier's applicability class is classified once, and every later
//     query on it goes straight to its kernel (or BFS) tier without
//     re-running the subset construction.
// All are pure functions of their key, so the cache never changes a
// result; only budget *errors* can differ when a previously computed
// artifact is reused under a smaller step budget.
//
// Memory is bounded: each entry carries an estimated byte cost (key +
// payload), and the cache is a single LRU across all artifact kinds
// evicted strictly to stay under `max_bytes` — bytes_in_use() never
// exceeds the bound.  An artifact whose cost alone exceeds the bound is
// returned to the caller but not retained (counted as an eviction).
//
// Thread safe; hits and evictions also feed the process metrics
// registry ("engine.cache.*") so a churn workload is observable from the
// shell's `metrics` command.
class ArtifactCache {
 public:
  using Stats = LruStats;

  using GeneratedSet = std::set<std::vector<std::string>>;

  static constexpr int64_t kDefaultMaxBytes = 64ll << 20;  // 64 MiB

  explicit ArtifactCache(int64_t max_bytes = kDefaultMaxBytes);

  int64_t max_bytes() const { return lru_.max_bytes(); }

  // Estimated resident cost of the artifacts, used for LRU accounting
  // and exposed for tests.
  static int64_t FsaCost(const Fsa& fsa);
  static int64_t GeneratedCost(const GeneratedSet& set);

  // Returns Specialize(base, base tape `tape` := value), where `base` is
  // the machine identified by `base_key`; `*derived_key` receives the
  // key under which the result is cached (feed it back to specialise
  // further tapes of the result).  On a miss, the freshly built
  // artifact's cost is charged to `budget` (when given) before caching.
  Result<std::shared_ptr<const Fsa>> GetSpecialized(
      const std::string& base_key, const Fsa& base, int tape,
      const std::string& value, std::string* derived_key, bool* hit,
      ResourceBudget* budget = nullptr);

  // Returns the cached EnumerateLanguage result for `key`, or nullptr.
  std::shared_ptr<const GeneratedSet> GetGenerated(const std::string& key);
  // Caches `set` under `key`, charging its cost to `budget` (when
  // given).  Returns the shared artifact so callers keep it alive even
  // if it is immediately evicted.
  Result<std::shared_ptr<const GeneratedSet>> PutGenerated(
      const std::string& key, GeneratedSet set,
      ResourceBudget* budget = nullptr);

  // Returns Acceptor::Compile(fsa), where `fsa_key` is the automaton's
  // structural key (KeyedFsa::key(): its serialized text, stable across
  // processes, so equal machines share one cache line).  On
  // a miss, the freshly compiled artifact's cost is charged to `budget`
  // (when given) before caching.
  Result<std::shared_ptr<const Acceptor>> GetAcceptor(
      const std::string& fsa_key, std::shared_ptr<const Fsa> fsa, bool* hit,
      ResourceBudget* budget = nullptr);

  // Installs a prebuilt automaton artifact under `key`, as if a miss had
  // just computed it — the durable-storage layer uses this to warm the
  // cache from persisted automata at open time.  Normal LRU accounting
  // applies (an oversize artifact is dropped, counted as an eviction).
  void InstallFsa(const std::string& key, std::shared_ptr<const Fsa> fsa);

  // Visits every cached automaton artifact, most recently used first —
  // the persistence layer harvests these at checkpoint time.  `fn` runs
  // under the cache lock: keep it cheap and reentrancy-free.
  void ForEachFsa(
      const std::function<void(const std::string& key, const Fsa& fsa)>& fn)
      const;

  Stats stats() const;
  void Clear();

 private:
  // One artifact of any kind; exactly one payload pointer is set.
  struct Artifact {
    std::shared_ptr<const Fsa> fsa;
    std::shared_ptr<const GeneratedSet> generated;
    std::shared_ptr<const Acceptor> acceptor;
  };

  // Charges `cost` to `budget` (when given), then inserts the artifact.
  // The charge comes first so an exhausted budget never grows the cache,
  // and is refunded when the LRU does not retain the artifact (oversize,
  // or a concurrent miss on the same key inserted first), so the account
  // only ever holds bytes that are actually resident.
  Status InsertCharged(std::string key, Artifact artifact, int64_t cost,
                       ResourceBudget* budget);

  mutable std::mutex mu_;
  ByteLru<Artifact> lru_;
};

}  // namespace strdb

#endif  // STRDB_ENGINE_CACHE_H_
