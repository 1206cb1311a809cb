#ifndef STRDB_STORAGE_CODEC_H_
#define STRDB_STORAGE_CODEC_H_

#include <map>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/result.h"
#include "relational/relation.h"

namespace strdb {

// One catalog mutation, the unit both the WAL and the snapshot are made
// of (a snapshot is just the canonical op sequence that rebuilds the
// catalog: one kPut per relation, one kFsa per cached automaton).
struct CatalogOp {
  enum Kind {
    kPut,     // create/replace a relation with its tuples
    kInsert,  // add tuples to an existing relation
    kDrop,    // remove a relation
    kFsa,     // install a cached automaton (serialized text) under a key
    kSpill,   // snapshot-only: relation lives out-of-core in a heap file
    kReqId,   // snapshot-only: one client's highest applied request seq
    kLost,    // snapshot-only: relation quarantined after scrub/corruption
    kStats,   // snapshot-only: persisted statistics of a spilled relation
  };

  Kind kind = kPut;
  std::string name;           // kPut / kInsert / kDrop / kSpill / kLost
  int arity = 0;              // kPut / kSpill / kLost
  std::vector<Tuple> tuples;  // kPut / kInsert
  std::string key;            // kFsa: artifact-cache key
  std::string fsa_text;       // kFsa: SerializeFsa output (self-checksummed)
  // kSpill: expected shape of the heap file (cross-checked against its
  // header at recovery) and its basename inside the store directory.
  int64_t tuple_count = 0;
  int max_string_length = 0;
  std::string file;
  // Idempotent-request tag.  A mutation op (kPut/kInsert/kDrop) may
  // carry the client id + sequence number of the request that produced
  // it; WAL replay rebuilds the per-client applied-seq window from
  // these, so a retried request after a lost ack is applied exactly
  // once across crashes.  kReqId side-ops persist the same window
  // through snapshots (one op per client).  Empty client = untagged.
  std::string req_client;     // any mutation (tag) / kReqId
  uint64_t req_seq = 0;       // any mutation (tag) / kReqId
  std::string reason;         // kLost: human-readable quarantine cause
  // kStats: EncodeRelationStats output for relation `name` (itself
  // length-prefixed on the wire, so its embedded newlines are safe).
  std::string stats_text;
};

// Text encoding, binary-safe via length prefixes: every caller-chosen
// string (relation names, tuple components, cache keys — which embed
// newlines) is written as "<len>:<bytes>", so no escaping is needed and
// a decoder can never over-read.
//
//   put <len>:<name> <arity> <ntuples>\n  then per tuple:  u <k> <len>:<s>...\n
//   ins <len>:<name> <ntuples>\n          then tuple lines as above
//   drop <len>:<name>\n
//   fsa <len>:<key> <len>:<serialized-text>\n
//   spl <len>:<name> <arity> <maxlen> <ntuples> <len>:<heap-file>\n
//   rid <len>:<client> <seq>\n
//   lost <len>:<name> <arity> <ntuples> <maxlen> <len>:<reason>\n
//   stat <len>:<name> <len>:<encoded-stats>\n
//
// A mutation op (put/ins/drop) may additionally end with one trailing
//   req <len>:<client> <seq>\n
// line carrying its idempotent-request tag.
std::string EncodePut(const std::string& name, const StringRelation& relation);
std::string EncodeInsert(const std::string& name,
                         const std::vector<Tuple>& tuples);
std::string EncodeDrop(const std::string& name);
std::string EncodeFsa(const std::string& key, const std::string& fsa_text);

// Appends the trailing idempotent-request tag line ("req <len>:<client>
// <seq>\n") to an already-encoded mutation payload.  No-op when
// `client` is empty.
void AppendReqTagLine(std::string* payload, const std::string& client,
                      uint64_t seq);

std::string EncodeOp(const CatalogOp& op);

// Decodes one op; kDataLoss on any malformed byte (the caller treats the
// enclosing record as corrupt).
Result<CatalogOp> DecodeOp(const std::string& payload);

// Applies `op` to the in-memory catalog.  kFsa ops verify the embedded
// automaton against `alphabet` (version + checksum + body) before
// installing, so a corrupt machine can never re-enter the system through
// recovery.  kSpill needs storage context (a buffer pool and the store
// directory) and is handled by CatalogStore itself; passing one here is
// kInternal.
Status ApplyOp(const CatalogOp& op, const Alphabet& alphabet, Database* db,
               std::map<std::string, std::string>* automata);

}  // namespace strdb

#endif  // STRDB_STORAGE_CODEC_H_
