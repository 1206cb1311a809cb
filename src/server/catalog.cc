#include "server/catalog.h"

#include <utility>

#include "engine/engine.h"
#include "fsa/serialize.h"

namespace strdb {

SharedCatalog::SharedCatalog(Alphabet alphabet)
    : alphabet_(std::move(alphabet)), db_(alphabet_) {
  snapshot_ = std::make_shared<const Database>(db_);
}

std::shared_ptr<const Database> SharedCatalog::Snapshot() const {
  // snapshot_mu_ is only ever held for pointer swaps and this read, so
  // a reader grabbing its snapshot never queues behind a WAL fsync the
  // writer is sitting in (the writer holds mu_, not snapshot_mu_,
  // across I/O).  The store's SnapshotDb() makes the same guarantee on
  // its side.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return live_store_ != nullptr ? live_store_->SnapshotDb() : snapshot_;
}

void SharedCatalog::SnapshotState(
    std::shared_ptr<const Database>* db,
    std::shared_ptr<const PagedSet>* paged) const {
  SnapshotState(db, paged, nullptr);
}

void SharedCatalog::SnapshotState(
    std::shared_ptr<const Database>* db,
    std::shared_ptr<const PagedSet>* paged,
    std::shared_ptr<const StatsMap>* stats) const {
  static const std::shared_ptr<const PagedSet> kEmptyPaged =
      std::make_shared<const PagedSet>();
  static const std::shared_ptr<const StatsMap> kEmptyStats =
      std::make_shared<const StatsMap>();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (live_store_ != nullptr) {
    live_store_->SnapshotState(db, paged, stats);
    return;
  }
  *db = snapshot_;
  *paged = kEmptyPaged;
  if (stats != nullptr) *stats = kEmptyStats;
}

void SharedCatalog::set_store_options(const StoreOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  store_options_ = options;
}

bool SharedCatalog::PagerStatus(PagerStats* stats, int64_t* capacity_bytes,
                                size_t* spilled) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (live_store_ == nullptr) return false;
  if (stats != nullptr) *stats = live_store_->pager_stats();
  if (capacity_bytes != nullptr) {
    *capacity_bytes = live_store_->pager_capacity_bytes();
  }
  if (spilled != nullptr) *spilled = live_store_->PagedDb()->size();
  return true;
}

void SharedCatalog::PublishLocked() {
  auto fresh = std::make_shared<const Database>(db_);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(fresh);
}

Status SharedCatalog::PutRelation(const std::string& name, int arity,
                                  std::vector<Tuple> tuples) {
  return PutRelation(name, arity, std::move(tuples), ReqId{}, nullptr);
}

Status SharedCatalog::PutRelation(const std::string& name, int arity,
                                  std::vector<Tuple> tuples, const ReqId& req,
                                  bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    return store_->PutRelation(name, arity, std::move(tuples), req, deduped);
  }
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  STRDB_RETURN_IF_ERROR(db_.Put(name, arity, std::move(tuples)));
  RecordReqLocked(req);
  PublishLocked();
  return Status::OK();
}

Status SharedCatalog::InsertTuples(const std::string& name,
                                   std::vector<Tuple> tuples) {
  return InsertTuples(name, std::move(tuples), ReqId{}, nullptr);
}

Status SharedCatalog::InsertTuples(const std::string& name,
                                   std::vector<Tuple> tuples,
                                   const ReqId& req, bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    return store_->InsertTuples(name, std::move(tuples), req, deduped);
  }
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  STRDB_RETURN_IF_ERROR(db_.InsertTuples(name, std::move(tuples)));
  RecordReqLocked(req);
  PublishLocked();
  return Status::OK();
}

Status SharedCatalog::DropRelation(const std::string& name) {
  return DropRelation(name, ReqId{}, nullptr);
}

Status SharedCatalog::DropRelation(const std::string& name, const ReqId& req,
                                   bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) return store_->DropRelation(name, req, deduped);
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  STRDB_RETURN_IF_ERROR(db_.Remove(name));
  RecordReqLocked(req);
  PublishLocked();
  return Status::OK();
}

bool SharedCatalog::AlreadyAppliedLocked(const ReqId& req) const {
  if (!req.valid()) return false;
  auto it = applied_reqs_.find(req.client);
  return it != applied_reqs_.end() && it->second >= req.seq;
}

void SharedCatalog::RecordReqLocked(const ReqId& req) {
  if (!req.valid()) return;
  uint64_t& cur = applied_reqs_[req.client];
  if (req.seq > cur) cur = req.seq;
}

std::map<std::string, std::string> SharedCatalog::LostRelations() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr) return {};
  return store_->LostRelations();
}

Status SharedCatalog::ScrubNow(ScrubReport* report) {
  // Deliberately not under mu_: a scrub pass is bulk I/O, and the store
  // takes its own locks in the phases that need them.  The store_
  // pointer only changes under mu_, so guard the read alone.
  CatalogStore* store = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store = store_.get();
    if (store == nullptr) {
      return Status::InvalidArgument("no durable session; nothing to scrub");
    }
  }
  return store->ScrubNow(report);
}

bool SharedCatalog::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ != nullptr;
}

std::string SharedCatalog::durable_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ != nullptr ? store_->dir() : std::string();
}

Status SharedCatalog::OpenDurable(const std::string& dir,
                                  RecoveryReport* report, int* warmed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    return Status::InvalidArgument("a durable session is already open ('" +
                                   store_->dir() + "'); close it first");
  }
  auto opened = CatalogStore::Open(dir, alphabet_, store_options_, report);
  if (!opened.ok()) return opened.status();
  store_ = std::move(*opened);
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    live_store_ = store_.get();
  }

  // Warm the engine's artifact cache from the persisted automata, so the
  // first query after a restart skips recompilation.
  int count = 0;
  for (const auto& [key, text] : store_->automata()) {
    Result<Fsa> fsa = DeserializeFsa(alphabet_, text);
    if (!fsa.ok()) continue;  // recovery already verified; belt and braces
    Engine::Shared().cache().InstallFsa(
        key, std::make_shared<const Fsa>(std::move(*fsa)));
    ++count;
  }
  if (warmed != nullptr) *warmed = count;
  return Status::OK();
}

Status SharedCatalog::CheckpointDurable(int* persisted, int64_t* generation,
                                        size_t* relations) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument("no durable session; run 'open DIR' first");
  }
  // Harvest the engine's compiled automata so the next open can warm
  // from disk.  Collect first: ForEachFsa runs under the cache lock and
  // persistence does real I/O.
  std::vector<std::pair<std::string, std::string>> artifacts;
  Engine::Shared().cache().ForEachFsa(
      [&](const std::string& key, const Fsa& fsa) {
        artifacts.emplace_back(key, SerializeFsa(fsa));
      });
  int count = 0;
  for (auto& [key, text] : artifacts) {
    STRDB_RETURN_IF_ERROR(store_->InstallAutomatonText(key, std::move(text)));
    ++count;
  }
  STRDB_RETURN_IF_ERROR(store_->Checkpoint());
  if (persisted != nullptr) *persisted = count;
  if (generation != nullptr) *generation = store_->generation();
  if (relations != nullptr) {
    // Spilled relations are still relations: the count reflects the
    // whole catalog, wherever each relation lives.
    *relations = store_->db().relations().size() + store_->PagedDb()->size();
  }
  return Status::OK();
}

Status SharedCatalog::CloseDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument("no durable session to close");
  }
  db_ = store_->db();  // keep working on the catalog, now in memory only
  // Spilled relations live only in the store's heap files: pull them
  // back in memory before detaching, or they would vanish from the
  // in-memory catalog.  A read failure keeps the session open — except
  // for relations the scrubber already quarantined: their data is gone
  // by definition, and wedging shutdown on them would turn one bad heap
  // into an unclosable store.
  std::map<std::string, std::string> lost = store_->LostRelations();
  for (const auto& [name, source] : *store_->PagedDb()) {
    if (lost.count(name) > 0) continue;  // quarantined: nothing to copy
    Result<StringRelation> rel = source->Materialize();
    if (!rel.ok()) {
      db_ = Database(alphabet_);  // discard the half-built copy
      return Status::DataLoss("cannot close: spilled relation '" + name +
                              "' is unreadable: " +
                              rel.status().ToString());
    }
    std::vector<Tuple> tuples(rel->tuples().begin(), rel->tuples().end());
    STRDB_RETURN_IF_ERROR(db_.Put(name, rel->arity(), std::move(tuples)));
  }
  // Point readers back at the in-memory snapshot *before* the store
  // dies: a reader only dereferences live_store_ under snapshot_mu_, so
  // once this block completes none can still be inside the store.
  {
    auto fresh = std::make_shared<const Database>(db_);
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    snapshot_ = std::move(fresh);
    live_store_ = nullptr;
  }
  Status closed = store_->Close();
  store_.reset();
  return closed;
}

}  // namespace strdb
