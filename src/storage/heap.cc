#include "storage/heap.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

namespace strdb {

namespace {

constexpr char kMagic[] = "strdbheap 1\n";       // 12 bytes + NUL
constexpr size_t kMagicLen = sizeof(kMagic) - 1;  // 12

constexpr int64_t kOffsetsPerPage = kPagePayload / 8;    // dict index
constexpr int64_t kRunDirEntryBytes = 24;
constexpr int64_t kRunDirPerPage = kPagePayload / kRunDirEntryBytes;

void PutU32(uint32_t v, std::string* out) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  out->append(b, 4);
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

int64_t PagesFor(int64_t bytes) {
  return (bytes + kPagePayload - 1) / kPagePayload;
}

Status HeapCorrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss("heap '" + path + "': " + what);
}

using IdCell = std::pair<uint32_t, uint32_t>;

// Sorts (id, cell) pairs by id: an LSD radix sort, one counting pass per
// significant byte of `max_id`.  A run holds at most kPagePayload / 4
// cells, where a comparison sort cost more than the whole decode.
void SortById(uint32_t max_id, std::vector<IdCell>* pairs) {
  std::vector<IdCell> scratch(pairs->size());
  for (int shift = 0; shift < 32 && (max_id >> shift) != 0; shift += 8) {
    size_t start[257] = {};
    for (const IdCell& p : *pairs) ++start[((p.first >> shift) & 0xFF) + 1];
    for (int b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (const IdCell& p : *pairs) {
      scratch[start[(p.first >> shift) & 0xFF]++] = p;
    }
    pairs->swap(scratch);
  }
}

// One pinned page of a heap file.  Moving to another page unpins the
// old one before pinning the new, so a cursor never holds more than one
// page; staying on the same page costs nothing.
class PageCursor {
 public:
  PageCursor(BufferPool* pool, const std::string* path)
      : pool_(pool), path_(path) {}

  // The payload of page `page_index`, valid until the next At call.
  Result<const char*> At(int64_t page_index) {
    if (page_index != page_index_) {
      ref_ = PageRef();
      page_index_ = -1;
      STRDB_ASSIGN_OR_RETURN(ref_, pool_->Pin(*path_, page_index));
      page_index_ = page_index;
    }
    return ref_.data().data();
  }

 private:
  BufferPool* pool_;
  const std::string* path_;
  PageRef ref_;
  int64_t page_index_ = -1;
};

}  // namespace

Status WritePagedHeap(Env* env, const std::string& path,
                      const StringRelation& rel) {
  const int arity = rel.arity();
  if (arity < 0) return Status::InvalidArgument("negative arity");

  // Dictionary: distinct strings in sorted order; id order = lex order.
  std::map<std::string, uint32_t> dict;
  for (const Tuple& t : rel.tuples()) {
    for (const std::string& s : t) dict.emplace(s, 0);
  }
  if (dict.size() >= (1ull << 32)) {
    return Status::ResourceExhausted("heap dictionary exceeds 2^32 strings");
  }
  uint32_t next_id = 0;
  for (auto& entry : dict) entry.second = next_id++;

  // Dict data region + index offsets.
  std::string dict_data;
  std::vector<uint64_t> offsets;
  offsets.reserve(dict.size());
  for (const auto& entry : dict) {
    offsets.push_back(dict_data.size());
    PutU32(static_cast<uint32_t>(entry.first.size()), &dict_data);
    dict_data.append(entry.first);
  }

  // Runs: one page each.  std::set<Tuple> iterates in sorted order, and
  // sorted-order ids preserve it, so rows come out sorted for free.
  const int64_t row_bytes = static_cast<int64_t>(arity) * 4;
  const int64_t rows_per_page =
      arity == 0 ? 0 : std::max<int64_t>(1, kPagePayload / row_bytes);
  const int64_t run_count =
      arity == 0 ? 0 : (rel.size() + rows_per_page - 1) / rows_per_page;

  const int64_t dict_index_pages = PagesFor(8 * offsets.size());
  const int64_t dict_data_pages = PagesFor(dict_data.size());
  const int64_t rundir_pages = PagesFor(kRunDirEntryBytes * run_count);

  const int64_t dict_index_first = 1;
  const int64_t dict_data_first = dict_index_first + dict_index_pages;
  const int64_t rundir_first = dict_data_first + dict_data_pages;
  const int64_t run_first = rundir_first + rundir_pages;
  const int64_t total_pages = run_first + run_count;

  // Header.
  std::string header;
  header.append(kMagic, kMagicLen);
  PutU32(static_cast<uint32_t>(arity), &header);
  PutU64(static_cast<uint64_t>(rel.size()), &header);
  PutU32(static_cast<uint32_t>(rel.MaxStringLength()), &header);
  PutU64(offsets.size(), &header);
  PutU64(dict_index_first, &header);
  PutU64(dict_index_pages, &header);
  PutU64(dict_data_first, &header);
  PutU64(dict_data_pages, &header);
  PutU64(dict_data.size(), &header);
  PutU64(rundir_first, &header);
  PutU64(rundir_pages, &header);
  PutU64(run_first, &header);
  PutU64(run_count, &header);
  PutU64(total_pages, &header);

  std::string file;
  file.reserve(static_cast<size_t>(total_pages * kPageSize));
  AppendPage(header, &file);

  // Dict index pages.
  for (int64_t p = 0; p < dict_index_pages; ++p) {
    std::string payload;
    int64_t begin = p * kOffsetsPerPage;
    int64_t end = std::min<int64_t>(begin + kOffsetsPerPage,
                                    static_cast<int64_t>(offsets.size()));
    for (int64_t i = begin; i < end; ++i) PutU64(offsets[i], &payload);
    AppendPage(payload, &file);
  }

  // Dict data pages: the logical stream chopped into payload-size slabs.
  for (int64_t p = 0; p < dict_data_pages; ++p) {
    size_t begin = static_cast<size_t>(p * kPagePayload);
    size_t n = std::min<size_t>(static_cast<size_t>(kPagePayload),
                                dict_data.size() - begin);
    AppendPage(dict_data.substr(begin, n), &file);
  }

  // Encode rows (in set order = sorted order).
  std::vector<uint32_t> row_ids;
  row_ids.reserve(static_cast<size_t>(rel.size()) * arity);
  for (const Tuple& t : rel.tuples()) {
    for (const std::string& s : t) row_ids.push_back(dict.find(s)->second);
  }

  // Run directory.
  {
    std::string dir;
    auto it = rel.tuples().begin();
    for (int64_t run = 0; run < run_count; ++run) {
      int64_t begin_row = run * rows_per_page;
      int64_t rows = std::min<int64_t>(rows_per_page, rel.size() - begin_row);
      const std::string& min_s = (*it)[0];
      for (int64_t i = 1; i < rows; ++i) ++it;
      const std::string& max_s = (*it)[0];
      ++it;
      PutU32(static_cast<uint32_t>(rows), &dir);
      PutU32(0, &dir);
      char pfx[8];
      std::memset(pfx, 0, 8);
      std::memcpy(pfx, min_s.data(), std::min<size_t>(8, min_s.size()));
      dir.append(pfx, 8);
      std::memset(pfx, 0, 8);
      std::memcpy(pfx, max_s.data(), std::min<size_t>(8, max_s.size()));
      dir.append(pfx, 8);
      if (dir.size() >= static_cast<size_t>(kRunDirPerPage) *
                            kRunDirEntryBytes ||
          run + 1 == run_count) {
        AppendPage(dir, &file);
        dir.clear();
      }
    }
    if (run_count == 0 && rundir_pages > 0) AppendPage("", &file);
  }

  // Run pages.
  for (int64_t run = 0; run < run_count; ++run) {
    std::string payload;
    int64_t begin_row = run * rows_per_page;
    int64_t rows = std::min<int64_t>(rows_per_page, rel.size() - begin_row);
    for (int64_t r = 0; r < rows; ++r) {
      for (int a = 0; a < arity; ++a) {
        PutU32(row_ids[static_cast<size_t>((begin_row + r) * arity + a)],
               &payload);
      }
    }
    AppendPage(payload, &file);
  }

  STRDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                         env->NewWritableFile(path, /*truncate=*/true));
  STRDB_RETURN_IF_ERROR(out->Append(file));
  STRDB_RETURN_IF_ERROR(out->Sync());
  return out->Close();
}

Result<std::shared_ptr<const PagedHeap>> PagedHeap::Open(BufferPool* pool,
                                                         std::string path) {
  // Non-owning alias: the caller guarantees the pool outlives the view.
  return Open(std::shared_ptr<BufferPool>(pool, [](BufferPool*) {}),
              std::move(path));
}

Result<std::shared_ptr<const PagedHeap>> PagedHeap::Open(
    std::shared_ptr<BufferPool> pool, std::string path) {
  std::shared_ptr<PagedHeap> heap(
      new PagedHeap(std::move(pool), std::move(path)));
  STRDB_ASSIGN_OR_RETURN(PageRef header, heap->pool_->Pin(heap->path_, 0));
  const std::string& h = header.data();
  if (h.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return HeapCorrupt(heap->path_, "bad magic");
  }
  const char* p = h.data() + kMagicLen;
  heap->arity_ = static_cast<int>(GetU32(p));
  p += 4;
  heap->tuple_count_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->max_string_length_ = static_cast<int>(GetU32(p));
  p += 4;
  heap->dict_count_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->dict_index_first_page_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->dict_index_page_count_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->dict_data_first_page_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->dict_data_page_count_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->dict_data_bytes_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  int64_t rundir_first = static_cast<int64_t>(GetU64(p));
  p += 8;
  int64_t rundir_pages = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->run_first_page_ = static_cast<int64_t>(GetU64(p));
  p += 8;
  int64_t run_count = static_cast<int64_t>(GetU64(p));
  p += 8;
  heap->total_pages_ = static_cast<int64_t>(GetU64(p));

  // Sanity: regions must be in order and consistent, counts non-negative
  // and small enough that the directory fits its pages.  Anything else is
  // a damaged (or foreign) file, not a programming error.
  if (heap->arity_ < 0 || heap->arity_ > 1'000'000 ||
      heap->tuple_count_ < 0 || heap->dict_count_ < 0 || run_count < 0 ||
      heap->dict_data_bytes_ < 0 ||
      heap->dict_index_first_page_ != 1 ||
      heap->dict_index_page_count_ != PagesFor(8 * heap->dict_count_) ||
      heap->dict_data_first_page_ !=
          heap->dict_index_first_page_ + heap->dict_index_page_count_ ||
      heap->dict_data_page_count_ != PagesFor(heap->dict_data_bytes_) ||
      rundir_first !=
          heap->dict_data_first_page_ + heap->dict_data_page_count_ ||
      rundir_pages != PagesFor(kRunDirEntryBytes * run_count) ||
      heap->run_first_page_ != rundir_first + rundir_pages ||
      heap->total_pages_ != heap->run_first_page_ + run_count) {
    return HeapCorrupt(heap->path_, "inconsistent header");
  }
  if (heap->arity_ == 0 && run_count != 0) {
    return HeapCorrupt(heap->path_, "arity-0 heap with runs");
  }

  // Run directory.
  heap->runs_.reserve(static_cast<size_t>(run_count));
  int64_t seen_rows = 0;
  for (int64_t run = 0; run < run_count; ++run) {
    int64_t dir_page = rundir_first + run / kRunDirPerPage;
    int64_t slot = run % kRunDirPerPage;
    STRDB_ASSIGN_OR_RETURN(PageRef page,
                           heap->pool_->Pin(heap->path_, dir_page));
    const char* e = page.data().data() + slot * kRunDirEntryBytes;
    RunInfo info;
    info.row_count = static_cast<int64_t>(GetU32(e));
    std::memcpy(info.min_prefix, e + 8, 8);
    std::memcpy(info.max_prefix, e + 16, 8);
    const int64_t rows_per_page =
        std::max<int64_t>(1, kPagePayload / (static_cast<int64_t>(heap->arity_) * 4));
    if (info.row_count <= 0 || info.row_count > rows_per_page) {
      return HeapCorrupt(heap->path_, "run " + std::to_string(run) +
                                          ": bad row count");
    }
    seen_rows += info.row_count;
    heap->runs_.push_back(info);
  }
  if (heap->arity_ > 0 && seen_rows != heap->tuple_count_) {
    return HeapCorrupt(heap->path_, "run directory row total " +
                                        std::to_string(seen_rows) +
                                        " != tuple count " +
                                        std::to_string(heap->tuple_count_));
  }
  if (heap->arity_ == 0 && heap->tuple_count_ > 1) {
    return HeapCorrupt(heap->path_, "arity-0 heap with tuple count > 1");
  }
  return std::shared_ptr<const PagedHeap>(std::move(heap));
}

Status PagedHeap::ScanRun(int64_t index, std::vector<Tuple>* out) const {
  if (index < 0 || index >= static_cast<int64_t>(runs_.size())) {
    return Status::InvalidArgument("run index out of range");
  }
  const int64_t rows = runs_[static_cast<size_t>(index)].row_count;
  const size_t cells = static_cast<size_t>(rows * arity_);

  // (id, cell) pairs, cell = row * arity + column, sorted by id.
  std::vector<IdCell> order(cells);
  uint32_t max_id = 0;
  {
    STRDB_ASSIGN_OR_RETURN(PageRef page,
                           pool_->Pin(path_, run_first_page_ + index));
    const char* ids = page.data().data();
    for (size_t c = 0; c < cells; ++c) {
      order[c] = {GetU32(ids + 4 * c), static_cast<uint32_t>(c)};
      max_id = std::max(max_id, order[c].first);
    }
  }
  SortById(max_id, &order);

  const size_t first_row = out->size();
  out->resize(first_row + static_cast<size_t>(rows),
              Tuple(static_cast<size_t>(arity_)));
  auto cell = [&](uint32_t c) -> std::string& {
    return (*out)[first_row + c / arity_][c % arity_];
  };
  PageCursor index_pages(pool_.get(), &path_);
  PageCursor data_pages(pool_.get(), &path_);
  // Copies [offset, offset + n) of the logical dict data region to dst;
  // the caller has checked the range.
  auto read_data = [&](int64_t offset, int64_t n, char* dst) -> Status {
    while (n > 0) {
      const int64_t in_page = offset % kPagePayload;
      const int64_t take = std::min<int64_t>(n, kPagePayload - in_page);
      STRDB_ASSIGN_OR_RETURN(
          const char* page,
          data_pages.At(dict_data_first_page_ + offset / kPagePayload));
      std::memcpy(dst, page + in_page, static_cast<size_t>(take));
      dst += take;
      offset += take;
      n -= take;
    }
    return Status::OK();
  };

  std::string s;
  for (size_t i = 0; i < cells;) {
    const uint32_t id = order[i].first;
    if (static_cast<int64_t>(id) >= dict_count_) {
      return HeapCorrupt(path_, "dictionary id " + std::to_string(id) +
                                    " >= count " + std::to_string(dict_count_));
    }
    STRDB_ASSIGN_OR_RETURN(
        const char* slots,
        index_pages.At(dict_index_first_page_ + id / kOffsetsPerPage));
    const uint64_t offset = GetU64(slots + (id % kOffsetsPerPage) * 8);
    if (offset > static_cast<uint64_t>(dict_data_bytes_) ||
        dict_data_bytes_ - static_cast<int64_t>(offset) < 4) {
      return HeapCorrupt(path_, "dictionary offset out of range");
    }
    char len_bytes[4];
    STRDB_RETURN_IF_ERROR(
        read_data(static_cast<int64_t>(offset), 4, len_bytes));
    const int64_t len = GetU32(len_bytes);
    if (len > dict_data_bytes_ - static_cast<int64_t>(offset) - 4) {
      return HeapCorrupt(path_, "dictionary entry overruns data region");
    }
    s.resize(static_cast<size_t>(len));
    STRDB_RETURN_IF_ERROR(
        read_data(static_cast<int64_t>(offset) + 4, len, s.data()));
    // Every cell holding this id gets the string: copies, then the
    // original moved into the last one.
    size_t j = i + 1;
    for (; j < cells && order[j].first == id; ++j) {
      cell(order[j - 1].second) = s;
    }
    cell(order[j - 1].second) = std::move(s);
    i = j;
  }
  return Status::OK();
}

Status PagedHeap::Scan(
    const std::function<Status(std::vector<Tuple>&)>& on_batch) const {
  if (arity_ == 0) {
    if (tuple_count_ == 1) {
      std::vector<Tuple> batch;
      batch.emplace_back();
      return on_batch(batch);
    }
    return Status::OK();
  }
  // Coalesce consecutive runs until a batch reaches kScanBatchMinRows:
  // run granularity is a storage artifact (whatever fit one page at
  // write time), but each on_batch call downstream is one shot of the
  // engine's batch acceptance tiers — the CSR kernel and the DFA's
  // 64-lane interpreter — which under-fill on page-sized crumbs.  At
  // most one coalesced batch is resident at a time, so the peak-memory
  // contract only grows from "one run" to "one batch".
  std::vector<Tuple> batch;
  for (int64_t run = 0; run < static_cast<int64_t>(runs_.size()); ++run) {
    STRDB_RETURN_IF_ERROR(ScanRun(run, &batch));
    if (static_cast<int64_t>(batch.size()) >= kScanBatchMinRows) {
      STRDB_RETURN_IF_ERROR(on_batch(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) STRDB_RETURN_IF_ERROR(on_batch(batch));
  return Status::OK();
}

}  // namespace strdb
