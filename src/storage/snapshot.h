#ifndef STRDB_STORAGE_SNAPSHOT_H_
#define STRDB_STORAGE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/alphabet.h"
#include "core/io/env.h"
#include "core/result.h"
#include "relational/relation.h"
#include "storage/codec.h"
#include "storage/retry.h"

namespace strdb {

inline constexpr int kSnapshotFormatVersion = 1;

// A snapshot is the whole catalog as one versioned, checksummed file:
//
//   strdbsnap 1
//   alphabet <len>:<chars>
//   ops <count>
//   op <len>:<encoded CatalogOp>     (one per relation, one per automaton)
//   ...
//   crc32 <hex-of-everything-above>
//
// Snapshots are only ever installed with write-temp + fsync +
// atomic-rename, so unlike the WAL a snapshot is all-or-nothing: a
// checksum failure here is real data loss (kDataLoss), not a tail to
// trim.

// Writes the catalog to `path` via `tmp_path` (same directory) and
// fsyncs `dir` so the rename survives a crash.  `spills` (may be null)
// adds kSpill ops for relations living out-of-core in heap files — the
// heap files themselves must already be durably in place, since CURRENT
// flipping to this snapshot makes them live.
Status WriteSnapshot(Env* env, const std::string& dir,
                     const std::string& tmp_path, const std::string& path,
                     const Database& db,
                     const std::map<std::string, std::string>& automata,
                     const RetryPolicy& retry, int64_t* io_retries = nullptr,
                     const std::vector<CatalogOp>* spills = nullptr);

// Checks the crc32 trailer of snapshot bytes `data` where they lie (no
// copy).  Returns the length of the checksummed body — everything up to
// and including the newline before "crc32 " — or kDataLoss whose
// message is the reason alone ("checksum mismatch", ...).  ReadSnapshot
// and the store's scrubber share this one check.
Result<size_t> VerifySnapshotTrailer(std::string_view data);

// Loads `path` into `db` (which must be empty) and `automata`.
// kDataLoss on corruption, kUnimplemented on a version mismatch,
// kInvalidArgument when the stored alphabet differs from `db`'s.
// kSpill ops are collected into `spills` for the caller (CatalogStore)
// to open; a snapshot containing them is unreadable when `spills` is
// null (kInternal via ApplyOp).
Status ReadSnapshot(Env* env, const std::string& path, Database* db,
                    std::map<std::string, std::string>* automata,
                    const RetryPolicy& retry, int64_t* io_retries = nullptr,
                    std::vector<CatalogOp>* spills = nullptr);

}  // namespace strdb

#endif  // STRDB_STORAGE_SNAPSHOT_H_
