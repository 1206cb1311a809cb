#ifndef STRDB_STORAGE_HEAP_H_
#define STRDB_STORAGE_HEAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/io/env.h"
#include "core/result.h"
#include "relational/relation.h"
#include "relational/tuple_source.h"
#include "storage/pager.h"

namespace strdb {

// On-disk paged heap for one relation (DESIGN.md §10), after RDF-3X's
// buildrdfstore: strings live once in a dictionary, tuples are fixed-
// width rows of u32 dictionary ids in sorted runs, and a run directory
// carries per-run min/max first-component prefixes so a selective scan
// can skip whole runs without touching them.
//
// File layout (every page crc-framed by AppendPage):
//   page 0                     header
//   [dict index pages]         u64 byte offsets into the dict data region
//   [dict data pages]          logical byte stream of (u32 len + bytes)
//                              entries, in id order; entries may span
//                              page boundaries
//   [run directory pages]      fixed 24-byte entries: u32 row_count,
//                              u32 reserved, char min[8], char max[8]
//   [run pages]                one run per page: row_count rows of
//                              arity × u32 ids
//
// Dictionary ids are assigned in sorted string order, so comparing ids
// compares strings — id-row order is string-tuple order and the runs
// stream out in lexicographic order with no duplicates.

// Minimum tuples per Scan batch: consecutive runs are coalesced until
// a batch reaches this many rows, so downstream batch consumers (the
// engine's streamed σ_A via the CSR kernel or the DFA tier's 64-lane
// interpreter) see full batches even when individual runs are small.
inline constexpr int64_t kScanBatchMinRows = 256;

// Per-run directory entry, decoded at Open.
struct RunInfo {
  int64_t row_count = 0;
  // First-component min/max, truncated to 8 bytes and NUL-padded: a
  // sparse index good enough to skip runs for prefix-bounded σ_A.
  char min_prefix[8];
  char max_prefix[8];
};

// Serialises `rel` into the paged heap format and writes it through
// `env` as `path` (truncating).  The caller is responsible for the
// write-temp → fsync → rename commit dance; this writes and syncs only.
Status WritePagedHeap(Env* env, const std::string& path,
                      const StringRelation& rel);

// A read-only view of a heap file through a BufferPool.  All reads are
// page-at-a-time via the pool, so a scan's resident set is O(1) pages
// regardless of relation size.  Thread safe (the pool serialises).
class PagedHeap : public TupleSource {
 public:
  // Reads and validates the header + run directory (a handful of
  // pages); tuple pages are only touched by Scan.  The shared_ptr
  // overload makes the view co-own the pool: the pool stays alive for
  // as long as any heap (and the page pins its scans hold) does, so a
  // store tearing down cannot yank the pool from under a streaming
  // paged scan.  The raw overload borrows the pool (callers guarantee
  // it outlives the view — the tests' stack pools).
  static Result<std::shared_ptr<const PagedHeap>> Open(
      std::shared_ptr<BufferPool> pool, std::string path);
  static Result<std::shared_ptr<const PagedHeap>> Open(BufferPool* pool,
                                                       std::string path);

  int arity() const override { return arity_; }
  int64_t tuple_count() const override { return tuple_count_; }
  int max_string_length() const override { return max_string_length_; }

  // Streams runs in order, coalescing consecutive runs until each
  // on_batch call carries at least kScanBatchMinRows tuples (the final
  // batch flushes whatever remains).  Batch boundaries always align
  // with run boundaries.
  Status Scan(const std::function<Status(std::vector<Tuple>&)>& on_batch)
      const override;

  const std::vector<RunInfo>& runs() const { return runs_; }
  const std::string& path() const { return path_; }
  int64_t file_pages() const { return total_pages_; }

  // Decodes run `index` and appends its tuples to `out`.  The run page's
  // ids are copied out and the page unpinned; the cells are then decoded
  // in ascending id order, which walks the dictionary index and data
  // pages forward, so each distinct string is read once and each
  // dictionary page pinned once per run (a damaged, non-monotone index
  // costs re-pins, never a wrong answer).  At most two pages are pinned
  // at a time: one index page and one data page.  On an error `out` may
  // hold the run's rows half decoded; the caller discards it.
  Status ScanRun(int64_t index, std::vector<Tuple>* out) const;

 private:
  PagedHeap(std::shared_ptr<BufferPool> pool, std::string path)
      : pool_(std::move(pool)), path_(std::move(path)) {}

  std::shared_ptr<BufferPool> pool_;
  std::string path_;

  int arity_ = 0;
  int64_t tuple_count_ = 0;
  int max_string_length_ = 0;
  int64_t dict_count_ = 0;
  int64_t dict_index_first_page_ = 0;
  int64_t dict_index_page_count_ = 0;
  int64_t dict_data_first_page_ = 0;
  int64_t dict_data_page_count_ = 0;
  int64_t dict_data_bytes_ = 0;
  int64_t run_first_page_ = 0;
  int64_t total_pages_ = 0;
  std::vector<RunInfo> runs_;
};

}  // namespace strdb

#endif  // STRDB_STORAGE_HEAP_H_
