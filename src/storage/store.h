#ifndef STRDB_STORAGE_STORE_H_
#define STRDB_STORAGE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/alphabet.h"
#include "core/io/env.h"
#include "core/result.h"
#include "fsa/fsa.h"
#include "relational/relation.h"
#include "relational/stats.h"
#include "relational/tuple_source.h"
#include "storage/codec.h"
#include "storage/heap.h"
#include "storage/pager.h"
#include "storage/retry.h"
#include "storage/wal.h"

namespace strdb {

// Idempotent-request identity for durable mutations: a client-chosen id
// plus a per-client sequence number that only ever increases.  The store
// remembers the highest sequence it applied for each client (persisted
// through WAL tags and snapshot kReqId ops), so a client that retries a
// request after a lost ack gets it applied exactly once.  The window is
// one seq per client, which is only sound because a client retries the
// SAME request until acked before issuing the next — StrdbClient
// enforces that.
struct ReqId {
  std::string client;  // empty = untagged request (no dedup)
  uint64_t seq = 0;

  bool valid() const { return !client.empty(); }
};

struct StoreOptions {
  // All filesystem access goes through this seam; nullptr = Env::Posix().
  // Tests substitute a FaultInjectingEnv here.
  Env* env = nullptr;
  // fsync every WAL commit (the durability contract: an OK mutation is
  // on stable storage).  Off trades the tail of the log for throughput.
  bool sync = true;
  // Transient-fault retry budget, applied to every individual I/O call.
  RetryPolicy retry;
  // Relations whose approximate in-memory footprint reaches this many
  // bytes are spilled to the paged heap format at the next Checkpoint()
  // and stay out-of-core until mutated.  0 disables spilling.
  int64_t spill_threshold_bytes = 0;
  // Buffer-pool cap for reading spilled relations back (pinned + cached
  // page bytes).
  int64_t pager_capacity_bytes = 4 << 20;
  // Background scrub cadence: every this-many milliseconds a low-
  // priority thread walks the snapshot, the WAL and every spilled heap
  // verifying CRCs, quarantining what fails (see ScrubNow).  0 disables
  // the thread; ScrubNow() stays callable either way.
  int64_t scrub_interval_ms = 0;
};

// What Open() salvaged, for the shell's transcript and for tests.
struct RecoveryReport {
  bool opened_existing = false;   // any prior state found in the directory
  bool snapshot_loaded = false;
  int64_t generation = 0;         // live snapshot/WAL generation
  int64_t wal_records_replayed = 0;
  int64_t wal_bytes_truncated = 0;
  std::string wal_tail_error;     // why the tail was cut; empty when clean
  int64_t wal_records_dropped = 0;  // intact frames dropped after a bad apply
  int64_t relations = 0;
  int64_t tuples = 0;
  int64_t automata = 0;
  int64_t io_retries = 0;         // transient faults absorbed during open
  int64_t spilled_relations = 0;  // relations recovered as paged heaps
  int64_t spilled_tuples = 0;     // their tuple total (not rescanned)
  // Relations whose heap file was missing/corrupt at open: moved aside
  // and answered with kDataLoss instead of failing the whole catalog.
  int64_t quarantined_relations = 0;
  int64_t req_clients = 0;        // idempotent-request windows recovered

  std::string ToString() const;
};

// One background/foreground scrub pass over everything the live
// generation references.
struct ScrubReport {
  int64_t pages_verified = 0;   // 16 KiB heap pages + snapshot/WAL files
  int64_t crc_failures = 0;
  int64_t heaps_scanned = 0;
  bool snapshot_ok = true;
  bool wal_ok = true;
  std::vector<std::string> quarantined;  // relation names this pass
  std::vector<std::string> errors;       // human-readable findings

  std::string ToString() const;
};

// Crash-safe persistence for the database catalog: relations and cached
// (serialized) automata.  On disk a store directory holds
//
//   CURRENT    — the live generation number g, installed atomically
//   snap-<g>   — checksummed snapshot of the whole catalog (storage/snapshot)
//   wal-<g>    — CRC-framed log of mutations since snap-<g> (storage/wal)
//
// Every mutation is committed write-ahead: the op is framed, appended
// and fsynced before it touches the in-memory catalog, so an OK return
// means durable.  Checkpoint() folds the log into a new snapshot with
// write-temp + fsync + atomic-rename, flips CURRENT, and starts a fresh
// log.  Open() replays whatever a crash left behind, truncating torn or
// corrupt WAL tails instead of failing — recovery always yields a state
// some committed prefix of mutations produced, never a partial tuple or
// an unverified automaton (the crash-point sweep in tests/storage_test.cc
// proves this for every injected fault point).
//
// Recovery and commit activity feed the process metrics registry
// ("storage.*": commits, checkpoints, recovery.replayed_records,
// recovery.truncated_bytes, io.retries, scrub.*).
//
// Thread safe: mutations serialize on an internal mutex.  db() returns a
// reference readers may use between mutations (the shell is
// single-threaded; concurrent readers must externally synchronize with
// writers).  Concurrent readers that must not synchronize with writers
// — the query server's sessions — use SnapshotDb() instead: every
// committed mutation publishes a fresh immutable copy-on-write snapshot
// under its own lock, so grabbing a snapshot never waits behind a WAL
// fsync and a query keeps one consistent catalog for its whole run no
// matter what writers commit meanwhile.
class CatalogStore {
 public:
  // Opens (creating if necessary) the store in `dir`.  `report`
  // (optional) receives what recovery found.  The alphabet must match
  // the one the store was created with.
  static Result<std::unique_ptr<CatalogStore>> Open(
      const std::string& dir, const Alphabet& alphabet,
      const StoreOptions& options = {}, RecoveryReport* report = nullptr);

  ~CatalogStore();

  const std::string& dir() const { return dir_; }
  int64_t generation() const;
  const Database& db() const { return db_; }
  // The current catalog as an immutable shared snapshot.  Cheap (one
  // shared_ptr copy under a short lock that writers only take *after*
  // commit I/O completes); the pointed-to Database never changes, so
  // readers evaluate against it lock-free for as long as they hold the
  // handle.  Never null.
  std::shared_ptr<const Database> SnapshotDb() const;
  // The spilled (out-of-core) relations as an immutable shared map,
  // published in lockstep with SnapshotDb(): a name is in exactly one of
  // the two.  Never null (empty map when nothing is spilled).
  std::shared_ptr<const PagedSet> PagedDb() const;
  // Both snapshots as one consistent pair: a checkpoint that spills a
  // relation moves it between the two atomically w.r.t. this call, so a
  // reader never sees a name in both maps or in neither.  The three-way
  // overload additionally hands out the spilled relations' statistics,
  // published in the same instant (pass nullptr to skip them).  Each is
  // computed when its relation spills and persisted as a kStats
  // snapshot side-op; inline relations have none here, because the
  // engine summarises their tuples itself.  Advisory: the cost planner
  // reads them, no query answer ever depends on them.  Never null.
  void SnapshotState(std::shared_ptr<const Database>* db,
                     std::shared_ptr<const PagedSet>* paged) const;
  void SnapshotState(std::shared_ptr<const Database>* db,
                     std::shared_ptr<const PagedSet>* paged,
                     std::shared_ptr<const StatsMap>* stats) const;
  // Buffer-pool counters for the shell/server `pager` verb.
  PagerStats pager_stats() const { return pool_->stats(); }
  int64_t pager_capacity_bytes() const { return pool_->capacity_bytes(); }
  // The pool itself, shared so a caller streaming a paged scan can keep
  // it alive past the store (ServerCore::Drain holds one).
  std::shared_ptr<BufferPool> pool() const { return pool_; }
  // Persisted automata: artifact-cache key -> SerializeFsa text.
  const std::map<std::string, std::string>& automata() const {
    return automata_;
  }

  // Catalog mutations.  Each validates against the current state,
  // commits to the WAL (append + fsync), then applies in memory.
  //
  // The `req` overloads implement idempotent retries: when `req` is
  // valid and its seq is not beyond the client's applied window, the
  // call is a no-op that reports success with `*deduped = true` — the
  // original application already committed.  Otherwise the op commits
  // with the req tag and advances the window atomically with it.
  Status PutRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples);
  Status PutRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples, const ReqId& req,
                     bool* deduped);
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples);
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples,
                      const ReqId& req, bool* deduped);
  Status DropRelation(const std::string& name);
  Status DropRelation(const std::string& name, const ReqId& req,
                      bool* deduped);
  // Persists a compiled automaton under its artifact-cache key.  A key
  // already stored with identical text is a no-op (harvesting the cache
  // repeatedly does not grow the log).
  Status InstallAutomaton(const std::string& key, const Fsa& fsa);
  Status InstallAutomatonText(const std::string& key, std::string fsa_text);

  // Folds the catalog into a new snapshot generation and starts a fresh
  // WAL.  On failure the previous generation remains live.
  Status Checkpoint();

  // One synchronous scrub pass: verifies the live snapshot's checksum,
  // re-frames the WAL against the writer's committed watermark, and
  // CRC-checks every page of every spilled heap.  A heap that fails is
  // quarantined: the file moves aside as quarantine-<file>, the relation
  // is re-materialized from whatever intact pages allow — and when that
  // is impossible it is marked lost, so queries touching it get a typed
  // kDataLoss while the rest of the catalog keeps answering.  Feeds
  // storage.scrub.{pages_verified,crc_failures,quarantines}.  Returns
  // non-OK only for infrastructure failures (store closed); corruption
  // findings live in the report.
  Status ScrubNow(ScrubReport* report = nullptr);

  // Relations currently marked lost (quarantined, unrescuable), with the
  // reason each one stopped answering.
  std::map<std::string, std::string> LostRelations() const;

  // Flushes and closes the WAL (stopping the scrub thread first).
  // Called by the destructor; exposed so callers can observe the Status.
  Status Close();

 private:
  CatalogStore(std::string dir, const Alphabet& alphabet,
               const StoreOptions& options);

  Status OpenInternal(RecoveryReport* report);
  // Write-ahead commit of one encoded op (append + fsync).  The caller
  // applies the op in memory only after this returns OK.
  Status CommitPayload(const std::string& payload);
  // Copies db_ (and the paged map) into fresh immutable snapshots and
  // installs them as the ones SnapshotDb()/PagedDb() hand out.  Called
  // with mu_ held after every successful catalog mutation.
  void PublishSnapshotLocked();
  // Pulls a spilled relation back into db_ (its heap file becomes
  // garbage, reclaimed at the next checkpoint or open).  With mu_ held.
  Status MaterializePagedLocked(const std::string& name);
  // Forgets a spilled relation and its statistics without materialising
  // (drop/replace).
  void DiscardPagedLocked(const std::string& name);
  // True (with the applied seq window advanced virtually) when `req`
  // was already applied; the caller must return success without
  // re-applying.  With mu_ held.
  bool AlreadyAppliedLocked(const ReqId& req) const;
  // Records `req` as applied.  With mu_ held, after the WAL commit.
  void RecordReqLocked(const ReqId& req);
  // Installs a lost marker for `name` (kDataLoss tuple source + lost
  // op), dropping any paged/spill state without queueing the heap file
  // as garbage (the caller already moved or lost the file).  With mu_
  // held.
  void MarkLostLocked(const std::string& name, int arity,
                      int64_t tuple_count, int max_string_length,
                      const std::string& reason);
  // Quarantines the spilled relation `name` whose heap file `file`
  // failed its CRC walk: moves the file aside, tries to rescue the
  // relation back into memory (durably, via a WAL put), else marks it
  // lost.  Returns what happened for the scrub report.
  enum class QuarantineOutcome { kStale, kRescued, kLost };
  QuarantineOutcome QuarantineHeap(const std::string& name,
                                   const std::string& file,
                                   const std::string& reason);
  void ScrubThreadMain();

  std::string SnapPath(int64_t gen) const;
  std::string WalPath(int64_t gen) const;

  const std::string dir_;
  const StoreOptions options_;
  Env* const env_;
  // Shared with every PagedHeap view handed out through snapshots, so
  // the pool cannot die while a streaming scan still holds page pins.
  std::shared_ptr<BufferPool> pool_;

  mutable std::mutex mu_;
  int64_t generation_ = 0;
  Database db_;
  std::map<std::string, std::string> automata_;
  // Spilled relations: open heap views plus the kSpill ops that re-
  // describe them in the next snapshot.  Keys mirror each other and are
  // disjoint from db_'s relation names.
  PagedSet paged_;
  std::map<std::string, CatalogOp> spill_ops_;
  // Quarantined-and-unrescued relations: their kLost ops ride every
  // snapshot until a put/drop supersedes them.  Keys are disjoint from
  // both db_ and spill_ops_; paged_ holds a kDataLoss source under the
  // same name so readers get a typed error instead of a vanished name.
  std::map<std::string, CatalogOp> lost_ops_;
  // Idempotent-request window: client id -> highest applied seq.
  std::map<std::string, uint64_t> applied_reqs_;
  // Statistics of spilled relations: every key is also a key of
  // spill_ops_.  Computed by the checkpoint that spills the relation,
  // persisted as kStats snapshot side-ops, erased wherever the relation
  // stops being spilled.  A spilled relation with no entry (undecodable
  // op) plans from its heap's tuple count.
  StatsMap stats_;
  // Heap files whose relation was dropped/replaced/materialised since
  // the last checkpoint: still referenced by the live snapshot, deleted
  // only after the next generation flip stops referencing them.
  std::vector<std::string> garbage_heaps_;
  std::unique_ptr<WalWriter> wal_;
  int64_t io_retries_ = 0;

  // The published snapshot, behind its own mutex so readers never
  // contend with mu_ (which writers hold across commit fsyncs).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Database> snapshot_;
  std::shared_ptr<const PagedSet> paged_snapshot_;
  std::shared_ptr<const StatsMap> stats_snapshot_;

  // Background scrubber plumbing.
  std::thread scrub_thread_;
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
};

}  // namespace strdb

#endif  // STRDB_STORAGE_STORE_H_
