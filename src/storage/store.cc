#include "storage/store.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "core/io/crc32.h"
#include "core/metrics.h"
#include "fsa/serialize.h"
#include "storage/codec.h"
#include "storage/snapshot.h"

namespace strdb {

namespace {

struct StoreMetrics {
  Counter* commits;
  Counter* checkpoints;
  Counter* recoveries;
  Counter* replayed_records;
  Counter* truncated_bytes;
  Counter* scrub_passes;
  Counter* scrub_pages_verified;
  Counter* scrub_crc_failures;
  Counter* scrub_quarantines;
};

const StoreMetrics& Metrics() {
  static const StoreMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return StoreMetrics{
        reg.GetCounter("storage.commits"),
        reg.GetCounter("storage.checkpoints"),
        reg.GetCounter("storage.recoveries"),
        reg.GetCounter("storage.recovery.replayed_records"),
        reg.GetCounter("storage.recovery.truncated_bytes"),
        reg.GetCounter("storage.scrub.passes"),
        reg.GetCounter("storage.scrub.pages_verified"),
        reg.GetCounter("storage.scrub.crc_failures"),
        reg.GetCounter("storage.scrub.quarantines"),
    };
  }();
  return metrics;
}

// Parses the CURRENT file: a single decimal generation number.
Result<int64_t> ParseCurrent(const std::string& content) {
  int64_t value = 0;
  bool any = false;
  for (char c : content) {
    if (c == '\n') break;
    if (c < '0' || c > '9') {
      return Status::DataLoss("CURRENT file is corrupt: '" + content + "'");
    }
    value = value * 10 + (c - '0');
    any = true;
    if (value > (int64_t{1} << 40)) {
      return Status::DataLoss("CURRENT file generation out of range");
    }
  }
  if (!any) return Status::DataLoss("CURRENT file is empty");
  return value;
}

int64_t CountTuples(const Database& db) {
  int64_t n = 0;
  for (const auto& [name, rel] : db.relations()) n += rel.size();
  return n;
}

// Rough in-memory footprint of a relation, the quantity the spill
// threshold compares against: string payloads plus container overhead.
int64_t ApproxBytes(const StringRelation& rel) {
  int64_t bytes = 0;
  for (const Tuple& t : rel.tuples()) {
    bytes += 32;
    for (const std::string& s : t) {
      bytes += 32 + static_cast<int64_t>(s.size());
    }
  }
  return bytes;
}

// Stand-in for a quarantined relation: keeps the name (and the shape
// the snapshot recorded) in the catalog, but every read is a typed
// kDataLoss — the failure stays scoped to this relation instead of
// taking the whole store down.
class LostTupleSource : public TupleSource {
 public:
  LostTupleSource(std::string name, int arity, int64_t tuple_count,
                  int max_string_length, std::string reason)
      : name_(std::move(name)),
        arity_(arity),
        tuple_count_(tuple_count),
        max_string_length_(max_string_length),
        reason_(std::move(reason)) {}

  int arity() const override { return arity_; }
  int64_t tuple_count() const override { return tuple_count_; }
  int max_string_length() const override { return max_string_length_; }

  Status Scan(const std::function<Status(std::vector<Tuple>&)>&)
      const override {
    return Status::DataLoss("relation '" + name_ +
                            "' is quarantined: " + reason_);
  }

 private:
  std::string name_;
  int arity_;
  int64_t tuple_count_;
  int max_string_length_;
  std::string reason_;
};

// CRC-walks the raw bytes of a paged file.  Returns the number of pages
// verified before the first failure; `why` is set (and false returned)
// on any bad page or ragged size.
bool VerifyPagedBytes(const std::string& content, int64_t* pages_ok,
                      std::string* why) {
  *pages_ok = 0;
  if (content.size() % static_cast<size_t>(kPageSize) != 0) {
    *why = "file size " + std::to_string(content.size()) +
           " is not a whole number of pages";
    return false;
  }
  int64_t pages = static_cast<int64_t>(content.size()) / kPageSize;
  for (int64_t i = 0; i < pages; ++i) {
    const char* page = content.data() + i * kPageSize;
    const unsigned char* t =
        reinterpret_cast<const unsigned char*>(page + kPagePayload);
    uint32_t stated = static_cast<uint32_t>(t[0]) |
                      (static_cast<uint32_t>(t[1]) << 8) |
                      (static_cast<uint32_t>(t[2]) << 16) |
                      (static_cast<uint32_t>(t[3]) << 24);
    if (Crc32(page, static_cast<size_t>(kPagePayload)) != stated) {
      *why = "page " + std::to_string(i) + " checksum mismatch";
      return false;
    }
    ++*pages_ok;
  }
  return true;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream out;
  out << "recovered generation " << generation << ": " << relations
      << " relation(s), " << tuples << " tuple(s), " << automata
      << " cached automaton(a)";
  if (snapshot_loaded) out << "; snapshot loaded";
  out << "; wal: " << wal_records_replayed << " record(s) replayed";
  if (wal_bytes_truncated > 0) {
    out << ", " << wal_bytes_truncated << " torn byte(s) truncated ("
        << wal_tail_error << ")";
  }
  if (wal_records_dropped > 0) {
    out << ", " << wal_records_dropped << " intact record(s) dropped";
  }
  if (spilled_relations > 0) {
    out << "; " << spilled_relations << " spilled relation(s) ("
        << spilled_tuples << " tuple(s)) recovered as paged heaps";
  }
  if (quarantined_relations > 0) {
    out << "; " << quarantined_relations
        << " relation(s) quarantined (heap missing/corrupt)";
  }
  if (req_clients > 0) {
    out << "; " << req_clients << " request-id window(s)";
  }
  if (io_retries > 0) out << "; " << io_retries << " transient I/O retry(ies)";
  return out.str();
}

std::string ScrubReport::ToString() const {
  std::ostringstream out;
  out << "scrub: " << pages_verified << " page(s) verified across "
      << heaps_scanned << " heap(s)";
  if (!snapshot_ok) out << "; snapshot FAILED";
  if (!wal_ok) out << "; wal FAILED";
  if (crc_failures > 0) out << "; " << crc_failures << " crc failure(s)";
  for (const std::string& name : quarantined) {
    out << "; quarantined '" << name << "'";
  }
  for (const std::string& err : errors) out << "; " << err;
  return out.str();
}

CatalogStore::CatalogStore(std::string dir, const Alphabet& alphabet,
                           const StoreOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Posix()),
      db_(alphabet) {
  BufferPoolOptions pool_options;
  pool_options.env = env_;
  pool_options.capacity_bytes = options.pager_capacity_bytes;
  pool_ = std::make_shared<BufferPool>(pool_options);
}

CatalogStore::~CatalogStore() { Close(); }

std::string CatalogStore::SnapPath(int64_t gen) const {
  return dir_ + "/snap-" + std::to_string(gen);
}

std::string CatalogStore::WalPath(int64_t gen) const {
  return dir_ + "/wal-" + std::to_string(gen);
}

int64_t CatalogStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::shared_ptr<const Database> CatalogStore::SnapshotDb() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const PagedSet> CatalogStore::PagedDb() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return paged_snapshot_;
}

void CatalogStore::SnapshotState(std::shared_ptr<const Database>* db,
                                 std::shared_ptr<const PagedSet>* paged) const {
  SnapshotState(db, paged, nullptr);
}

void CatalogStore::SnapshotState(std::shared_ptr<const Database>* db,
                                 std::shared_ptr<const PagedSet>* paged,
                                 std::shared_ptr<const StatsMap>* stats) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  *db = snapshot_;
  *paged = paged_snapshot_;
  if (stats != nullptr) *stats = stats_snapshot_;
}

void CatalogStore::PublishSnapshotLocked() {
  // Copy outside snapshot_mu_ so readers grabbing the previous snapshot
  // only ever wait behind a pointer swap, never behind the copy.
  auto fresh = std::make_shared<const Database>(db_);
  auto fresh_paged = std::make_shared<const PagedSet>(paged_);
  auto fresh_stats = std::make_shared<const StatsMap>(stats_);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(fresh);
  paged_snapshot_ = std::move(fresh_paged);
  stats_snapshot_ = std::move(fresh_stats);
}

Status CatalogStore::MaterializePagedLocked(const std::string& name) {
  auto it = paged_.find(name);
  if (it == paged_.end()) {
    return Status::Internal("relation '" + name + "' is not paged");
  }
  STRDB_ASSIGN_OR_RETURN(StringRelation rel, it->second->Materialize());
  STRDB_RETURN_IF_ERROR(db_.Put(name, std::move(rel)));
  DiscardPagedLocked(name);
  return Status::OK();
}

void CatalogStore::DiscardPagedLocked(const std::string& name) {
  auto it = spill_ops_.find(name);
  if (it != spill_ops_.end()) {
    // The live snapshot still references the file; it only becomes
    // removable once the next checkpoint's snapshot stops mentioning it.
    garbage_heaps_.push_back(it->second.file);
    spill_ops_.erase(it);
  }
  // A lost relation has no file to garbage-collect (it was moved aside
  // when quarantined); dropping or replacing it just clears the marker.
  lost_ops_.erase(name);
  paged_.erase(name);
  stats_.erase(name);
}

bool CatalogStore::AlreadyAppliedLocked(const ReqId& req) const {
  if (!req.valid()) return false;
  auto it = applied_reqs_.find(req.client);
  return it != applied_reqs_.end() && it->second >= req.seq;
}

void CatalogStore::RecordReqLocked(const ReqId& req) {
  if (!req.valid()) return;
  uint64_t& cur = applied_reqs_[req.client];
  if (req.seq > cur) cur = req.seq;
}

void CatalogStore::MarkLostLocked(const std::string& name, int arity,
                                  int64_t tuple_count, int max_string_length,
                                  const std::string& reason) {
  auto it = spill_ops_.find(name);
  if (it != spill_ops_.end()) {
    if (tuple_count == 0) tuple_count = it->second.tuple_count;
    if (max_string_length == 0) max_string_length = it->second.max_string_length;
    if (arity == 0) arity = it->second.arity;
    spill_ops_.erase(it);
  }
  CatalogOp op;
  op.kind = CatalogOp::kLost;
  op.name = name;
  op.arity = arity;
  op.tuple_count = tuple_count;
  op.max_string_length = max_string_length;
  op.reason = reason;
  lost_ops_[name] = op;
  paged_[name] = std::make_shared<LostTupleSource>(
      name, arity, tuple_count, max_string_length, reason);
  // A quarantined relation answers nothing, so there is nothing its
  // statistics could usefully describe.
  stats_.erase(name);
}

std::map<std::string, std::string> CatalogStore::LostRelations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::string> out;
  for (const auto& [name, op] : lost_ops_) out[name] = op.reason;
  return out;
}

Result<std::unique_ptr<CatalogStore>> CatalogStore::Open(
    const std::string& dir, const Alphabet& alphabet,
    const StoreOptions& options, RecoveryReport* report) {
  std::unique_ptr<CatalogStore> store(
      new CatalogStore(dir, alphabet, options));
  RecoveryReport local;
  STRDB_RETURN_IF_ERROR(store->OpenInternal(report ? report : &local));
  return store;
}

Status CatalogStore::OpenInternal(RecoveryReport* report) {
  *report = RecoveryReport{};
  Metrics().recoveries->Increment();
  STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                [&] { return env_->CreateDir(dir_); }));

  // Which generation is live?
  std::string current_path = dir_ + "/CURRENT";
  if (env_->FileExists(current_path)) {
    report->opened_existing = true;
    std::string content;
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_, [&] {
      auto read = env_->ReadFile(current_path);
      if (!read.ok()) return read.status();
      content = std::move(*read);
      return Status::OK();
    }));
    STRDB_ASSIGN_OR_RETURN(generation_, ParseCurrent(content));
  }
  report->generation = generation_;

  // Sweep leftovers from interrupted checkpoints: temp files and
  // snapshots/WALs of generations CURRENT never committed.  Best effort —
  // an orphan costs disk space, not correctness.  quarantine-* files are
  // deliberately spared: they are the forensic record of scrubbed-out
  // corruption.
  auto listed = env_->ListDir(dir_);
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      bool orphan = false;
      if (name.rfind("tmp-", 0) == 0) {
        orphan = true;
      } else if (name.rfind("snap-", 0) == 0) {
        orphan = name != "snap-" + std::to_string(generation_);
      } else if (name.rfind("wal-", 0) == 0) {
        orphan = name != "wal-" + std::to_string(generation_);
      }
      if (orphan) env_->Remove(dir_ + "/" + name);
    }
  }

  // Load the live snapshot, if any.  Side ops (kSpill/kReqId/kLost)
  // come back separately: only the store knows what to do with them.
  std::vector<CatalogOp> spills;
  if (generation_ > 0) {
    STRDB_RETURN_IF_ERROR(ReadSnapshot(env_, SnapPath(generation_), &db_,
                                       &automata_, options_.retry,
                                       &io_retries_, &spills));
    report->snapshot_loaded = true;
  }

  // Open every spilled relation and cross-check the heap header against
  // the snapshot's record of it.  A heap that is missing or corrupt is
  // quarantined — moved aside and answered with kDataLoss — instead of
  // failing the whole catalog: every other relation keeps its data.
  std::set<std::string> referenced_heaps;
  for (CatalogOp& op : spills) {
    if (op.kind == CatalogOp::kReqId) {
      uint64_t& cur = applied_reqs_[op.req_client];
      if (op.req_seq > cur) cur = op.req_seq;
      continue;
    }
    if (op.kind == CatalogOp::kStats) {
      // Statistics are advisory: an op that does not decode is dropped
      // (the relation just plans from its heap's tuple count) instead
      // of failing recovery.
      Result<RelationStats> decoded = DecodeRelationStats(op.stats_text);
      if (decoded.ok()) stats_[op.name] = std::move(*decoded);
      continue;
    }
    if (op.kind == CatalogOp::kLost) {
      if (db_.Has(op.name) || paged_.count(op.name) > 0) {
        return Status::DataLoss("snapshot lists relation '" + op.name +
                                "' twice");
      }
      MarkLostLocked(op.name, op.arity, op.tuple_count, op.max_string_length,
                     op.reason);
      continue;
    }
    referenced_heaps.insert(op.file);
    if (db_.Has(op.name) || paged_.count(op.name) > 0) {
      return Status::DataLoss("snapshot lists relation '" + op.name +
                              "' twice");
    }
    auto opened = PagedHeap::Open(pool_, dir_ + "/" + op.file);
    std::string bad;
    if (!opened.ok()) {
      if (opened.status().code() == StatusCode::kDataLoss ||
          opened.status().code() == StatusCode::kNotFound) {
        bad = opened.status().ToString();
      } else {
        return opened.status();  // infra failure (e.g. transient I/O)
      }
    } else {
      const PagedHeap& heap = **opened;
      if (heap.arity() != op.arity || heap.tuple_count() != op.tuple_count ||
          heap.max_string_length() != op.max_string_length) {
        bad = "heap file '" + op.file +
              "' does not match snapshot record for '" + op.name + "'";
      }
    }
    if (!bad.empty()) {
      env_->Rename(dir_ + "/" + op.file, dir_ + "/quarantine-" + op.file);
      MarkLostLocked(op.name, op.arity, op.tuple_count, op.max_string_length,
                     "quarantined at open: " + bad);
      report->quarantined_relations++;
      Metrics().scrub_quarantines->Increment();
      continue;
    }
    report->spilled_relations++;
    report->spilled_tuples += op.tuple_count;
    paged_[op.name] = *opened;
    spill_ops_[op.name] = std::move(op);
  }

  // Sweep heap files the live snapshot does not reference (a crashed
  // checkpoint's half-spilled output, or heaps whose relation was later
  // dropped).  Best effort, like the generation sweep above.
  auto heap_listing = env_->ListDir(dir_);
  if (heap_listing.ok()) {
    for (const std::string& name : *heap_listing) {
      if (name.rfind("heap-", 0) == 0 && referenced_heaps.count(name) == 0) {
        env_->Remove(dir_ + "/" + name);
      }
    }
  }

  // Replay the WAL, salvaging whatever prefix survived.
  std::string wal_path = WalPath(generation_);
  int64_t wal_committed_bytes = 0;
  if (env_->FileExists(wal_path)) {
    report->opened_existing = true;
    STRDB_ASSIGN_OR_RETURN(
        WalSalvage salvage,
        ReadWal(env_, wal_path, options_.retry, &io_retries_));
    int64_t cut_at = salvage.valid_bytes;
    std::string cut_why = salvage.tail_error;
    for (const WalRecord& record : salvage.records) {
      Result<CatalogOp> op = DecodeOp(record.payload);
      Status applied;
      if (!op.ok()) {
        applied = op.status();
      } else if (op->kind == CatalogOp::kDrop && paged_.count(op->name) > 0) {
        DiscardPagedLocked(op->name);
        applied = Status::OK();
      } else if (op->kind == CatalogOp::kLost) {
        // A quarantine committed before the crash: the heap file was
        // already moved aside, so just (re)install the marker.
        if (paged_.count(op->name) > 0) {
          spill_ops_.erase(op->name);
          paged_.erase(op->name);
        }
        MarkLostLocked(op->name, op->arity, op->tuple_count,
                       op->max_string_length, op->reason);
        applied = Status::OK();
      } else {
        // A put replaces a spilled relation outright; an insert must
        // first pull it back in memory.  Heap I/O failing here is an
        // open failure (the snapshot itself is unusable), not a corrupt
        // WAL tail to trim.
        if (op->kind == CatalogOp::kPut && paged_.count(op->name) > 0) {
          DiscardPagedLocked(op->name);
        } else if (op->kind == CatalogOp::kInsert &&
                   paged_.count(op->name) > 0) {
          STRDB_RETURN_IF_ERROR(MaterializePagedLocked(op->name));
        }
        applied = ApplyOp(*op, db_.alphabet(), &db_, &automata_);
      }
      if (!applied.ok()) {
        // A record that frames correctly but does not decode or apply
        // cannot have been produced by a healthy writer against the
        // state the log built: treat it — and everything after it — as
        // the corrupt tail.
        cut_at = record.offset;
        cut_why = "record replay failed: " + applied.ToString();
        report->wal_records_dropped =
            static_cast<int64_t>(salvage.records.size()) -
            report->wal_records_replayed;
        break;
      }
      // Rebuild the idempotent-request window from mutation tags, so a
      // retry that raced the crash still dedups after recovery.
      if (op.ok() && !op->req_client.empty()) {
        uint64_t& cur = applied_reqs_[op->req_client];
        if (op->req_seq > cur) cur = op->req_seq;
      }
      ++report->wal_records_replayed;
    }
    if (cut_at < salvage.file_bytes) {
      STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_, [&] {
        return env_->Truncate(wal_path, cut_at);
      }));
    }
    report->wal_bytes_truncated = salvage.file_bytes - cut_at;
    report->wal_tail_error = cut_why;
    wal_committed_bytes = cut_at;
  }

  // Keep statistics for spilled relations only: older snapshots also
  // carry kStats ops for inline relations, which the engine summarises
  // from their tuples instead.  A spilled relation without statistics
  // stays without — recomputing would mean scanning the whole heap, and
  // the planner degrades gracefully to the heap's tuple count.
  for (auto it = stats_.begin(); it != stats_.end();) {
    if (spill_ops_.count(it->first) == 0) {
      it = stats_.erase(it);
    } else {
      ++it;
    }
  }

  // Reopen the (repaired) log for appending.
  wal_ = std::make_unique<WalWriter>(env_, wal_path, options_.sync,
                                     options_.retry);
  STRDB_RETURN_IF_ERROR(wal_->Open(/*truncate=*/false, &io_retries_));
  wal_->ResetCommittedBytes(wal_committed_bytes);

  report->relations = static_cast<int64_t>(db_.relations().size());
  report->tuples = CountTuples(db_);
  report->automata = static_cast<int64_t>(automata_.size());
  report->req_clients = static_cast<int64_t>(applied_reqs_.size());
  report->io_retries = io_retries_;
  Metrics().replayed_records->Increment(report->wal_records_replayed);
  Metrics().truncated_bytes->Increment(report->wal_bytes_truncated);
  PublishSnapshotLocked();  // Open holds the store exclusively

  if (options_.scrub_interval_ms > 0) {
    scrub_thread_ = std::thread([this] { ScrubThreadMain(); });
  }
  return Status::OK();
}

Status CatalogStore::CommitPayload(const std::string& payload) {
  if (wal_ == nullptr) return Status::Internal("store is closed");
  STRDB_RETURN_IF_ERROR(wal_->Append(payload));
  Metrics().commits->Increment();
  return Status::OK();
}

Status CatalogStore::PutRelation(const std::string& name, int arity,
                                 std::vector<Tuple> tuples) {
  return PutRelation(name, arity, std::move(tuples), ReqId{}, nullptr);
}

Status CatalogStore::PutRelation(const std::string& name, int arity,
                                 std::vector<Tuple> tuples, const ReqId& req,
                                 bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  // Build and validate before logging, so the WAL only ever sees ops
  // that apply cleanly.
  STRDB_ASSIGN_OR_RETURN(StringRelation rel,
                         StringRelation::Create(arity, std::move(tuples)));
  for (const Tuple& t : rel.tuples()) {
    for (const std::string& s : t) {
      if (!db_.alphabet().Contains(s)) {
        return Status::InvalidArgument("string \"" + s +
                                       "\" leaves the database alphabet");
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  std::string payload = EncodePut(name, rel);
  AppendReqTagLine(&payload, req.client, req.seq);
  STRDB_RETURN_IF_ERROR(CommitPayload(payload));
  if (paged_.count(name) > 0) DiscardPagedLocked(name);  // put replaces
  STRDB_RETURN_IF_ERROR(db_.Put(name, std::move(rel)));
  RecordReqLocked(req);
  PublishSnapshotLocked();
  return Status::OK();
}

Status CatalogStore::InsertTuples(const std::string& name,
                                  std::vector<Tuple> tuples) {
  return InsertTuples(name, std::move(tuples), ReqId{}, nullptr);
}

Status CatalogStore::InsertTuples(const std::string& name,
                                  std::vector<Tuple> tuples, const ReqId& req,
                                  bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  // The dedup check comes before validation: a retried request whose
  // first application already committed must succeed even if the state
  // has since moved on (e.g. the relation was later dropped).
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  // Inserting into a spilled relation pulls it back in memory first (it
  // re-spills at the next checkpoint if still over threshold).  Done
  // before the WAL commit so the durable order matches the in-memory
  // order a replay reproduces.
  if (paged_.count(name) > 0) {
    STRDB_RETURN_IF_ERROR(MaterializePagedLocked(name));
  }
  STRDB_ASSIGN_OR_RETURN(const StringRelation* rel, db_.Get(name));
  for (const Tuple& t : tuples) {
    if (static_cast<int>(t.size()) != rel->arity()) {
      return Status::InvalidArgument(
          "tuple arity " + std::to_string(t.size()) +
          " differs from relation arity " + std::to_string(rel->arity()));
    }
    for (const std::string& s : t) {
      if (!db_.alphabet().Contains(s)) {
        return Status::InvalidArgument("string \"" + s +
                                       "\" leaves the database alphabet");
      }
    }
  }
  std::string payload = EncodeInsert(name, tuples);
  AppendReqTagLine(&payload, req.client, req.seq);
  STRDB_RETURN_IF_ERROR(CommitPayload(payload));
  STRDB_RETURN_IF_ERROR(db_.InsertTuples(name, std::move(tuples)));
  RecordReqLocked(req);
  PublishSnapshotLocked();
  return Status::OK();
}

Status CatalogStore::DropRelation(const std::string& name) {
  return DropRelation(name, ReqId{}, nullptr);
}

Status CatalogStore::DropRelation(const std::string& name, const ReqId& req,
                                  bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (AlreadyAppliedLocked(req)) {
    if (deduped != nullptr) *deduped = true;
    return Status::OK();
  }
  bool paged = paged_.count(name) > 0;
  if (!paged && !db_.Has(name)) {
    return Status::NotFound("relation '" + name + "' not in database");
  }
  std::string payload = EncodeDrop(name);
  AppendReqTagLine(&payload, req.client, req.seq);
  STRDB_RETURN_IF_ERROR(CommitPayload(payload));
  if (paged) {
    DiscardPagedLocked(name);
  } else {
    STRDB_RETURN_IF_ERROR(db_.Remove(name));
  }
  RecordReqLocked(req);
  PublishSnapshotLocked();
  return Status::OK();
}

Status CatalogStore::InstallAutomaton(const std::string& key, const Fsa& fsa) {
  return InstallAutomatonText(key, SerializeFsa(fsa));
}

Status CatalogStore::InstallAutomatonText(const std::string& key,
                                          std::string fsa_text) {
  // Verify before persisting: the WAL must never carry an automaton that
  // will not deserialize on recovery.
  STRDB_RETURN_IF_ERROR(DeserializeFsa(db_.alphabet(), fsa_text).status());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = automata_.find(key);
  if (it != automata_.end() && it->second == fsa_text) return Status::OK();
  STRDB_RETURN_IF_ERROR(CommitPayload(EncodeFsa(key, fsa_text)));
  automata_[key] = std::move(fsa_text);
  return Status::OK();
}

Status CatalogStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return Status::Internal("store is closed");
  int64_t next = generation_ + 1;

  // 0. Spill phase: write heap files for over-threshold relations, each
  // committed tmp → fsync → rename *before* the snapshot that references
  // them exists.  A crash anywhere leaves the old generation live and
  // the new heap files as unreferenced orphans for Open() to sweep.
  // Nothing in db_/paged_ mutates until the whole checkpoint commits.
  std::vector<CatalogOp> new_spill_ops;
  std::map<std::string, std::shared_ptr<const TupleSource>> new_paged;
  StatsMap new_stats;
  if (options_.spill_threshold_bytes > 0) {
    int64_t seq = 0;
    for (const auto& [name, rel] : db_.relations()) {
      if (ApproxBytes(rel) < options_.spill_threshold_bytes) continue;
      CatalogOp op;
      op.kind = CatalogOp::kSpill;
      op.name = name;
      op.arity = rel.arity();
      op.max_string_length = rel.MaxStringLength();
      op.tuple_count = rel.size();
      op.file = "heap-" + std::to_string(next) + "-" + std::to_string(seq++);
      std::string tmp = dir_ + "/tmp-" + op.file;
      STRDB_RETURN_IF_ERROR(WritePagedHeap(env_, tmp, rel));
      STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_, [&] {
        return env_->Rename(tmp, dir_ + "/" + op.file);
      }));
      new_stats[name] = ComputeRelationStats(rel);
      new_spill_ops.push_back(std::move(op));
    }
    if (!new_spill_ops.empty()) {
      STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                    [&] { return env_->SyncDir(dir_); }));
      for (const CatalogOp& op : new_spill_ops) {
        STRDB_ASSIGN_OR_RETURN(
            std::shared_ptr<const PagedHeap> heap,
            PagedHeap::Open(pool_, dir_ + "/" + op.file));
        new_paged[op.name] = heap;
      }
    }
  }

  // The snapshot carries still-spilled relations as kSpill records and
  // the newly spilled ones the same way — their tuples stay out of it.
  // Lost (quarantined) relations ride as kLost markers, and the
  // idempotent-request window as one kReqId record per client.
  std::vector<CatalogOp> spills;
  spills.reserve(spill_ops_.size() + new_spill_ops.size() +
                 lost_ops_.size() + applied_reqs_.size() + stats_.size() +
                 new_stats.size());
  for (const auto& [name, op] : spill_ops_) spills.push_back(op);
  for (const CatalogOp& op : new_spill_ops) spills.push_back(op);
  for (const auto& [name, op] : lost_ops_) spills.push_back(op);
  for (const auto& [client, seq] : applied_reqs_) {
    CatalogOp op;
    op.kind = CatalogOp::kReqId;
    op.req_client = client;
    op.req_seq = seq;
    spills.push_back(std::move(op));
  }
  // Spilled relations' statistics ride the snapshot as kStats side-ops,
  // so a reopened store plans with them without rescanning any heap.
  for (const StatsMap* map : {&stats_, &new_stats}) {
    for (const auto& [name, st] : *map) {
      CatalogOp op;
      op.kind = CatalogOp::kStats;
      op.name = name;
      op.stats_text = EncodeRelationStats(st);
      spills.push_back(std::move(op));
    }
  }

  // 1. Materialise the snapshot file (atomic: temp + fsync + rename).
  if (new_spill_ops.empty()) {
    STRDB_RETURN_IF_ERROR(WriteSnapshot(
        env_, dir_, dir_ + "/tmp-snap-" + std::to_string(next), SnapPath(next),
        db_, automata_, options_.retry, &io_retries_,
        spills.empty() ? nullptr : &spills));
  } else {
    Database pruned = db_;
    for (const CatalogOp& op : new_spill_ops) {
      STRDB_RETURN_IF_ERROR(pruned.Remove(op.name));
    }
    STRDB_RETURN_IF_ERROR(WriteSnapshot(
        env_, dir_, dir_ + "/tmp-snap-" + std::to_string(next), SnapPath(next),
        pruned, automata_, options_.retry, &io_retries_, &spills));
  }

  // 2. Flip CURRENT — the commit point of the checkpoint.
  {
    std::string tmp = dir_ + "/tmp-CURRENT";
    std::unique_ptr<WritableFile> file;
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_, [&] {
      auto opened = env_->NewWritableFile(tmp, /*truncate=*/true);
      if (!opened.ok()) return opened.status();
      file = std::move(*opened);
      return Status::OK();
    }));
    std::string content = std::to_string(next) + "\n";
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                  [&] { return file->Append(content); }));
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                  [&] { return file->Sync(); }));
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                  [&] { return file->Close(); }));
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_, [&] {
      return env_->Rename(tmp, dir_ + "/CURRENT");
    }));
    STRDB_RETURN_IF_ERROR(RetryIo(env_, options_.retry, &io_retries_,
                                  [&] { return env_->SyncDir(dir_); }));
  }

  // 3. Start the new (empty) log.  From here on the old generation's
  // files are garbage; a crash leaves them for Open() to sweep.
  Status closed = wal_->Close();
  (void)closed;  // the old log is obsolete either way
  wal_ = std::make_unique<WalWriter>(env_, WalPath(next), options_.sync,
                                     options_.retry);
  STRDB_RETURN_IF_ERROR(wal_->Open(/*truncate=*/true, &io_retries_));

  // 4. Best-effort cleanup of the previous generation, plus heap files
  // the new snapshot no longer references.
  if (generation_ > 0) env_->Remove(SnapPath(generation_));
  env_->Remove(WalPath(generation_));
  for (const std::string& file : garbage_heaps_) {
    env_->Remove(dir_ + "/" + file);
  }
  garbage_heaps_.clear();
  env_->SyncDir(dir_);

  // 5. The checkpoint committed: newly spilled relations move out of
  // db_ and become paged views, together with their statistics.
  if (!new_spill_ops.empty()) {
    for (CatalogOp& op : new_spill_ops) {
      Status removed = db_.Remove(op.name);
      (void)removed;  // validated present during the spill phase
      paged_[op.name] = new_paged[op.name];
      stats_[op.name] = std::move(new_stats[op.name]);
      spill_ops_[op.name] = std::move(op);
    }
    PublishSnapshotLocked();
  }

  generation_ = next;
  Metrics().checkpoints->Increment();
  return Status::OK();
}

CatalogStore::QuarantineOutcome CatalogStore::QuarantineHeap(
    const std::string& name, const std::string& file,
    const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return QuarantineOutcome::kStale;
  auto it = spill_ops_.find(name);
  if (it == spill_ops_.end() || it->second.file != file) {
    // The relation moved on (materialised, dropped, re-spilled) between
    // the scan and this call: nothing to quarantine any more.
    return QuarantineOutcome::kStale;
  }
  Metrics().scrub_quarantines->Increment();
  CatalogOp spill = it->second;

  // Rescue attempt while the file is still in place: stream whatever
  // pages still verify.  Success means the snapshot+WAL path (heap
  // included) could reproduce every committed tuple — re-commit them
  // inline through the WAL *before* touching the file, so a crash at
  // any point leaves either the old spilled state or the rescued one.
  auto pit = paged_.find(name);
  if (pit != paged_.end()) {
    Result<StringRelation> rescued = pit->second->Materialize();
    if (rescued.ok() &&
        static_cast<int64_t>(rescued->size()) == spill.tuple_count) {
      Status committed = CommitPayload(EncodePut(name, *rescued));
      if (committed.ok()) {
        spill_ops_.erase(name);
        paged_.erase(name);
        stats_.erase(name);
        Status put = db_.Put(name, std::move(*rescued));
        (void)put;  // name was paged, so it cannot collide
        env_->Rename(dir_ + "/" + file, dir_ + "/quarantine-" + file);
        pool_->Clear();  // drop cached pages of the poisoned file
        PublishSnapshotLocked();
        return QuarantineOutcome::kRescued;
      }
    }
  }

  // Unrescuable: move the file aside and mark the relation lost.  The
  // kLost marker is WAL-committed first so the quarantine itself obeys
  // the same write-ahead discipline as every other state change.
  CatalogOp lost;
  lost.kind = CatalogOp::kLost;
  lost.name = name;
  lost.arity = spill.arity;
  lost.tuple_count = spill.tuple_count;
  lost.max_string_length = spill.max_string_length;
  lost.reason = reason;
  Status committed = CommitPayload(EncodeOp(lost));
  (void)committed;  // quarantine proceeds in memory even on a dying disk
  env_->Rename(dir_ + "/" + file, dir_ + "/quarantine-" + file);
  pool_->Clear();
  MarkLostLocked(name, spill.arity, spill.tuple_count,
                 spill.max_string_length, reason);
  PublishSnapshotLocked();
  return QuarantineOutcome::kLost;
}

Status CatalogStore::ScrubNow(ScrubReport* out) {
  ScrubReport report;
  // Phase 1 under mu_: the snapshot file and the WAL, verified against
  // a quiesced writer (the WAL check needs the committed-bytes
  // watermark and no concurrent append).
  std::vector<std::pair<std::string, CatalogOp>> heaps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_ == nullptr) return Status::Internal("store is closed");
    if (generation_ > 0) {
      auto read = env_->ReadFile(SnapPath(generation_));
      if (!read.ok()) {
        report.snapshot_ok = false;
        report.crc_failures++;
        report.errors.push_back("snapshot unreadable: " +
                                read.status().ToString());
      } else if (Result<size_t> trailer = VerifySnapshotTrailer(*read);
                 !trailer.ok()) {
        report.snapshot_ok = false;
        report.crc_failures++;
        report.errors.push_back("snapshot: " + trailer.status().message());
      } else {
        report.pages_verified +=
            (static_cast<int64_t>(read->size()) + kPageSize - 1) / kPageSize;
      }
    }
    std::string wal_path = WalPath(generation_);
    int64_t committed = wal_->committed_bytes();
    if (env_->FileExists(wal_path)) {
      auto salvage = ReadWal(env_, wal_path, options_.retry, nullptr);
      if (!salvage.ok()) {
        report.wal_ok = false;
        report.crc_failures++;
        report.errors.push_back("wal unreadable: " +
                                salvage.status().ToString());
      } else if (salvage->valid_bytes < committed) {
        // The log must hold at least every byte the writer acked.  A
        // shorter intact prefix means committed records rotted.
        report.wal_ok = false;
        report.crc_failures++;
        report.errors.push_back(
            "wal lost committed bytes: intact prefix " +
            std::to_string(salvage->valid_bytes) + " < committed " +
            std::to_string(committed) +
            (salvage->tail_error.empty() ? "" : " (" + salvage->tail_error +
                                                    ")"));
      } else {
        report.pages_verified +=
            (salvage->file_bytes + kPageSize - 1) / kPageSize;
      }
    }
    for (const auto& [name, op] : spill_ops_) heaps.emplace_back(name, op);
  }

  // Phase 2 without mu_: CRC-walk every spilled heap.  This is the bulk
  // of the work and must not block writers; a heap that changes under us
  // (materialised/dropped) is detected inside QuarantineHeap and
  // skipped.
  for (const auto& [name, op] : heaps) {
    report.heaps_scanned++;
    auto read = env_->ReadFile(dir_ + "/" + op.file);
    std::string why;
    bool bad = false;
    if (!read.ok()) {
      bad = true;
      why = "heap unreadable: " + read.status().ToString();
    } else {
      int64_t pages_ok = 0;
      bad = !VerifyPagedBytes(*read, &pages_ok, &why);
      report.pages_verified += pages_ok;
    }
    if (bad) {
      QuarantineOutcome outcome = QuarantineHeap(name, op.file, why);
      if (outcome == QuarantineOutcome::kStale) continue;  // raced a writer
      report.crc_failures++;
      report.quarantined.push_back(name);
      report.errors.push_back(
          "'" + name + "': " + why +
          (outcome == QuarantineOutcome::kRescued ? " (rescued in full)"
                                                  : " (marked lost)"));
    }
  }

  Metrics().scrub_passes->Increment();
  Metrics().scrub_pages_verified->Increment(report.pages_verified);
  Metrics().scrub_crc_failures->Increment(report.crc_failures);
  if (out != nullptr) *out = std::move(report);
  return Status::OK();
}

void CatalogStore::ScrubThreadMain() {
  // Low priority by construction: one pass per interval, all heavy I/O
  // done without holding the store mutex.
  std::unique_lock<std::mutex> lock(scrub_mu_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(lock,
                           std::chrono::milliseconds(
                               options_.scrub_interval_ms),
                           [&] { return scrub_stop_; })) {
      break;
    }
    lock.unlock();
    ScrubReport report;
    Status scrubbed = ScrubNow(&report);
    (void)scrubbed;  // a closed store just ends the loop next iteration
    lock.lock();
  }
}

Status CatalogStore::Close() {
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrub_thread_.joinable()) scrub_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return Status::OK();
  std::unique_ptr<WalWriter> wal = std::move(wal_);
  return wal->Close();
}

}  // namespace strdb
