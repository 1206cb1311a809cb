#ifndef STRDB_SERVER_CATALOG_H_
#define STRDB_SERVER_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/result.h"
#include "relational/relation.h"
#include "storage/store.h"

namespace strdb {

// The one catalog a process serves, shared by every session (the shell
// is the degenerate single-session case).  Two jobs:
//
//  1. Writer serialization: rel/insert/drop (and the durable session
//     verbs) serialize on an internal mutex, routed through a
//     CatalogStore — WAL commit before apply, exactly as before — once
//     a durable session is open, and through an in-memory Database
//     otherwise.
//
//  2. Snapshot isolation for readers: Snapshot() returns an immutable
//     shared handle to the current catalog.  Every committed mutation
//     publishes a fresh copy-on-write Database, so a query evaluates
//     one consistent catalog for its whole run while writers commit
//     freely — readers never block the writer and never observe a
//     half-applied mutation.  Grabbing a snapshot is a pointer copy
//     under a short lock that is never held across I/O.
//
// Durable-session lifecycle mirrors the shell's historical behaviour:
// OpenDurable shadows the in-memory catalog with the recovered store
// (and warms the engine's artifact cache from the persisted automata);
// CloseDurable copies the store's catalog back to memory and keeps
// serving.
class SharedCatalog {
 public:
  explicit SharedCatalog(Alphabet alphabet);

  const Alphabet& alphabet() const { return alphabet_; }

  // The current catalog as an immutable snapshot.  Never null; never
  // waits behind writer I/O.
  std::shared_ptr<const Database> Snapshot() const;

  // The catalog and its spilled-relation set as one consistent pair
  // (never null; the paged set is empty unless a durable store with a
  // spill threshold is attached).  A checkpoint that spills a relation
  // moves it between the two atomically w.r.t. this call.
  void SnapshotState(std::shared_ptr<const Database>* db,
                     std::shared_ptr<const PagedSet>* paged) const;
  // Same, plus the statistics of the spilled relations, published in
  // lockstep by the attached store (never null; empty without a durable
  // store, which is the only place relations spill).  In-memory
  // relations have no entry: the engine summarises them itself.  Pass
  // nullptr to skip.
  void SnapshotState(std::shared_ptr<const Database>* db,
                     std::shared_ptr<const PagedSet>* paged,
                     std::shared_ptr<const StatsMap>* stats) const;

  // Options the next OpenDurable passes to CatalogStore::Open (spill
  // threshold, buffer-pool cap).  Takes effect at open, not on a live
  // store.
  void set_store_options(const StoreOptions& options);

  // Buffer-pool counters and capacity of the attached store's pager,
  // plus the number of currently spilled relations.  False when no
  // durable session is open.
  bool PagerStatus(PagerStats* stats, int64_t* capacity_bytes,
                   size_t* spilled) const;

  // Catalog mutations (durable once OpenDurable has run).
  Status PutRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples);
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples);
  Status DropRelation(const std::string& name);

  // Idempotent-retry variants: when `req` is valid and already inside
  // the applied window, the call is a success no-op with `*deduped =
  // true`.  Durable sessions persist the window through the store (WAL
  // tags + snapshot kReqId ops); memory-only catalogs keep it in
  // process, so a client retrying over one server lifetime still
  // dedups either way.
  Status PutRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples, const ReqId& req,
                     bool* deduped);
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples,
                      const ReqId& req, bool* deduped);
  Status DropRelation(const std::string& name, const ReqId& req,
                      bool* deduped);

  // Relations the durable store has quarantined (name -> reason); empty
  // when none or when no store is attached.
  std::map<std::string, std::string> LostRelations() const;

  // One synchronous scrub pass over the attached store (see
  // CatalogStore::ScrubNow).  kInvalidArgument without a durable
  // session.
  Status ScrubNow(ScrubReport* report);

  bool durable() const;
  // The open store's directory ("" when not durable).
  std::string durable_dir() const;

  // Attaches a CatalogStore over `dir` (creating it if necessary),
  // replays its WAL and warms the engine artifact cache from the
  // persisted automata.  `report` (optional) receives what recovery
  // found; `warmed` (optional) the number of automata installed.
  Status OpenDurable(const std::string& dir, RecoveryReport* report,
                     int* warmed);

  // Harvests the engine's compiled automata into the store and folds
  // the WAL into a fresh snapshot generation.  Out-params (each
  // optional) feed the shell's transcript.
  Status CheckpointDurable(int* persisted, int64_t* generation,
                           size_t* relations);

  // Detaches the store; the catalog stays available in memory.
  Status CloseDurable();

 private:
  // Rebuilds the published in-memory snapshot from db_ (writer lock
  // held).  Only used while no store is attached — the store publishes
  // its own snapshots.
  void PublishLocked();

  const Alphabet alphabet_;

  // In-memory half of AlreadyApplied/Record for the non-durable path.
  // With mu_ held.
  bool AlreadyAppliedLocked(const ReqId& req) const;
  void RecordReqLocked(const ReqId& req);

  mutable std::mutex mu_;  // serializes writers (including store I/O)
  Database db_;            // the catalog while no store is attached
  StoreOptions store_options_;  // applied at the next OpenDurable
  std::unique_ptr<CatalogStore> store_;
  // Idempotent-request window while no store is attached (the store
  // keeps its own, durably).
  std::map<std::string, uint64_t> applied_reqs_;

  // Reader-side state, behind its own short-hold lock (never held
  // across I/O): the published in-memory snapshot and, when a store is
  // attached, the store pointer readers pull snapshots from.  Open and
  // close republish both fields before the store object itself is
  // created/destroyed, so readers never touch a dying store.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Database> snapshot_;
  CatalogStore* live_store_ = nullptr;
};

}  // namespace strdb

#endif  // STRDB_SERVER_CATALOG_H_
