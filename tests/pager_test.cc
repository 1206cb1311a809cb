// Out-of-core storage (src/storage/pager + src/storage/heap): page crc
// framing, buffer-pool pin/LRU accounting, the paged-heap round trip
// (dictionary + sorted runs), CatalogStore spilling, and a crash-point
// sweep over a spilling checkpoint — every injected fault point must
// recover a committed prefix, with spilled relations readable again.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "calculus/query.h"
#include "core/io/env.h"
#include "core/io/fault_env.h"
#include "engine/engine.h"
#include "fsa/compile.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "storage/heap.h"
#include "storage/pager.h"
#include "storage/store.h"
#include "strform/parser.h"

namespace strdb {
namespace {

namespace fs = std::filesystem;

// Test directories live on tmpfs when the host has one: the crash sweep
// fsyncs thousands of times and must not hammer a real disk.
fs::path TestRoot() {
  static const fs::path root = [] {
    std::error_code ec;
    fs::path base = fs::exists("/dev/shm", ec) ? fs::path("/dev/shm")
                                               : fs::temp_directory_path();
    fs::path dir = base / ("strdb_pager_test." + std::to_string(::getpid()));
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
  }();
  return root;
}

std::string FreshDir(const std::string& name) {
  fs::path dir = TestRoot() / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  auto read = Env::Posix()->ReadFile(path);
  EXPECT_TRUE(read.ok()) << read.status();
  return read.ok() ? *read : "";
}

void WriteAll(const std::string& path, const std::string& data) {
  auto file = Env::Posix()->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append(data).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

// The i-th distinct length-`len` string over {a, b}: binary digits of i.
std::string BitString(int64_t i, int len) {
  std::string s(static_cast<size_t>(len), 'a');
  for (int bit = 0; bit < len && i != 0; ++bit, i >>= 1) {
    if (i & 1) s[static_cast<size_t>(len - 1 - bit)] = 'b';
  }
  return s;
}

StringRelation MakeRelation(int arity, int64_t n, int len) {
  StringRelation rel(arity);
  for (int64_t i = 0; i < n; ++i) {
    Tuple t;
    for (int a = 0; a < arity; ++a) {
      t.push_back(BitString(i * arity + a, len));
    }
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

// A canonical text signature of the *logical* catalog: inline relations
// plus spilled ones materialised back, so representation (in-memory vs
// paged) never affects equality.
std::string Sig(const Database& db) {
  std::string out;
  for (const auto& [name, rel] : db.relations()) {
    out += name + "/" + std::to_string(rel.arity()) + "{";
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) {
        out += s;
        out += ',';
      }
      out += ';';
    }
    out += "}";
  }
  return out;
}

std::string StoreSig(const CatalogStore& store) {
  Database merged = store.db();
  for (const auto& [name, source] : *store.PagedDb()) {
    Result<StringRelation> rel = source->Materialize();
    EXPECT_TRUE(rel.ok()) << name << ": " << rel.status();
    if (!rel.ok()) return "<unreadable>";
    EXPECT_TRUE(merged.Put(name, *std::move(rel)).ok());
  }
  return Sig(merged);
}

// --- pages and the buffer pool ---------------------------------------------

TEST(PageTest, AppendPageFramesFixedSizePages) {
  std::string file;
  AppendPage("hello", &file);
  EXPECT_EQ(static_cast<int64_t>(file.size()), kPageSize);
  AppendPage(std::string(static_cast<size_t>(kPagePayload), 'x'), &file);
  EXPECT_EQ(static_cast<int64_t>(file.size()), 2 * kPageSize);
  // Payload bytes land at the front of the page, NUL-padded to the crc.
  EXPECT_EQ(file.compare(0, 5, "hello"), 0);
  EXPECT_EQ(file[5], '\0');
}

TEST(BufferPoolTest, PinServesVerifiedPayloadsAndCountsHits) {
  std::string dir = FreshDir("pool_basic");
  std::string path = dir + "/pages";
  std::string file;
  AppendPage("page zero", &file);
  AppendPage("page one", &file);
  WriteAll(path, file);

  BufferPoolOptions options;
  BufferPool pool(options);
  {
    Result<PageRef> p0 = pool.Pin(path, 0);
    ASSERT_TRUE(p0.ok()) << p0.status();
    EXPECT_EQ(p0->data().compare(0, 9, "page zero"), 0);
    EXPECT_EQ(static_cast<int64_t>(p0->data().size()), kPagePayload);
    Result<PageRef> p1 = pool.Pin(path, 1);
    ASSERT_TRUE(p1.ok()) << p1.status();
    EXPECT_EQ(p1->data().compare(0, 8, "page one"), 0);
  }
  EXPECT_EQ(pool.stats().misses, 2);
  EXPECT_EQ(pool.stats().hits, 0);
  EXPECT_EQ(pool.stats().bytes_pinned, 0);  // refs released

  ASSERT_TRUE(pool.Pin(path, 0).ok());
  EXPECT_EQ(pool.stats().hits, 1);

  // Out-of-range pages and missing files are errors, not crashes.
  EXPECT_FALSE(pool.Pin(path, 2).ok());
  EXPECT_FALSE(pool.Pin(dir + "/absent", 0).ok());

  // Clear drops the (unpinned) cache: the next pin misses again.
  int64_t misses_before = pool.stats().misses;
  pool.Clear();
  EXPECT_EQ(pool.stats().bytes_cached, 0);
  ASSERT_TRUE(pool.Pin(path, 0).ok());
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, CorruptPageIsDataLossAndNotCached) {
  std::string dir = FreshDir("pool_corrupt");
  std::string path = dir + "/pages";
  std::string file;
  AppendPage("payload", &file);
  file[100] ^= 0x40;  // flip one payload byte: the crc must catch it
  WriteAll(path, file);

  BufferPoolOptions options;
  BufferPool pool(options);
  Result<PageRef> pinned = pool.Pin(path, 0);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kDataLoss)
      << pinned.status();
  EXPECT_EQ(pool.stats().bytes_cached, 0);

  // A truncated page (torn tail) is equally typed.
  std::string torn;
  AppendPage("whole", &torn);
  WriteAll(path, torn.substr(0, static_cast<size_t>(kPageSize - 7)));
  pinned = pool.Pin(path, 0);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kDataLoss)
      << pinned.status();
}

TEST(BufferPoolTest, EvictionKeepsResidentBytesUnderTheCap) {
  std::string dir = FreshDir("pool_evict");
  std::string path = dir + "/pages";
  std::string file;
  const int kPages = 8;
  for (int i = 0; i < kPages; ++i) {
    AppendPage("page " + std::to_string(i), &file);
  }
  WriteAll(path, file);

  BufferPoolOptions options;
  options.capacity_bytes = 2 * kPageSize;
  BufferPool pool(options);
  for (int i = 0; i < kPages; ++i) {
    Result<PageRef> pinned = pool.Pin(path, i);
    ASSERT_TRUE(pinned.ok()) << pinned.status();
    EXPECT_LE(pool.stats().bytes_cached, options.capacity_bytes);
  }
  PagerStats stats = pool.stats();
  EXPECT_LE(stats.bytes_cached, options.capacity_bytes);
  EXPECT_GE(stats.evictions, kPages - 2);

  // Page 0 went cold long ago: it must have been evicted (LRU order).
  int64_t misses_before = pool.stats().misses;
  ASSERT_TRUE(pool.Pin(path, 0).ok());
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionAndClear) {
  std::string dir = FreshDir("pool_pinned");
  std::string path = dir + "/pages";
  std::string file;
  for (int i = 0; i < 4; ++i) AppendPage("p" + std::to_string(i), &file);
  WriteAll(path, file);

  BufferPoolOptions options;
  options.capacity_bytes = 2 * kPageSize;
  BufferPool pool(options);
  Result<PageRef> held0 = pool.Pin(path, 0);
  Result<PageRef> held1 = pool.Pin(path, 1);
  ASSERT_TRUE(held0.ok() && held1.ok());
  EXPECT_EQ(pool.stats().bytes_pinned, 2 * kPageSize);

  // The pool is at capacity with both frames pinned; further traffic
  // must not evict them.
  ASSERT_TRUE(pool.Pin(path, 2).ok());
  ASSERT_TRUE(pool.Pin(path, 3).ok());
  pool.Clear();
  EXPECT_EQ(held0->data().compare(0, 2, "p0"), 0);
  EXPECT_EQ(held1->data().compare(0, 2, "p1"), 0);
  int64_t misses_before = pool.stats().misses;
  ASSERT_TRUE(pool.Pin(path, 0).ok());  // still resident: a hit
  EXPECT_EQ(pool.stats().misses, misses_before);

  *held0 = PageRef();  // unpin
  *held1 = PageRef();
  EXPECT_EQ(pool.stats().bytes_pinned, 0);
  EXPECT_GE(pool.stats().peak_bytes_pinned, 2 * kPageSize);
}

// --- the paged heap --------------------------------------------------------

TEST(PagedHeapTest, RoundTripMatchesTheSourceRelation) {
  std::string dir = FreshDir("heap_roundtrip");
  StringRelation rel = MakeRelation(/*arity=*/2, /*n=*/500, /*len=*/12);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());

  BufferPoolOptions options;
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_TRUE(heap.ok()) << heap.status();
  EXPECT_EQ((*heap)->arity(), 2);
  EXPECT_EQ((*heap)->tuple_count(), rel.size());
  EXPECT_EQ((*heap)->max_string_length(), rel.MaxStringLength());

  Result<StringRelation> back = (*heap)->Materialize();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, rel);

  // Scan streams the tuples in strict lexicographic order in batches
  // coalesced from consecutive runs: every batch boundary aligns with a
  // run boundary, and every batch except the final flush carries at
  // least kScanBatchMinRows tuples.
  std::vector<Tuple> all;
  std::vector<size_t> batch_sizes;
  size_t run_cursor = 0;
  Status scanned = (*heap)->Scan([&](const std::vector<Tuple>& batch) {
    int64_t covered = 0;
    while (covered < static_cast<int64_t>(batch.size()) &&
           run_cursor < (*heap)->runs().size()) {
      covered += (*heap)->runs()[run_cursor].row_count;
      ++run_cursor;
    }
    EXPECT_EQ(covered, static_cast<int64_t>(batch.size()));
    batch_sizes.push_back(batch.size());
    all.insert(all.end(), batch.begin(), batch.end());
    return Status::OK();
  });
  ASSERT_TRUE(scanned.ok()) << scanned;
  EXPECT_EQ(run_cursor, (*heap)->runs().size());
  for (size_t i = 0; i + 1 < batch_sizes.size(); ++i) {
    EXPECT_GE(static_cast<int64_t>(batch_sizes[i]), kScanBatchMinRows);
  }
  ASSERT_EQ(all.size(), static_cast<size_t>(rel.size()));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(std::set<Tuple>(all.begin(), all.end()), rel.tuples());
}

TEST(PagedHeapTest, RunDirectoryCarriesMinMaxPrefixes) {
  std::string dir = FreshDir("heap_rundir");
  // Enough arity-1 tuples for several runs (4095 rows fit one page).
  StringRelation rel = MakeRelation(/*arity=*/1, /*n=*/10000, /*len=*/16);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());

  BufferPoolOptions options;
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_GE((*heap)->runs().size(), 2u);

  for (size_t run = 0; run < (*heap)->runs().size(); ++run) {
    std::vector<Tuple> rows;
    ASSERT_TRUE((*heap)->ScanRun(static_cast<int64_t>(run), &rows).ok());
    ASSERT_FALSE(rows.empty());
    char expect[8];
    std::memset(expect, 0, 8);
    std::memcpy(expect, rows.front()[0].data(),
                std::min<size_t>(8, rows.front()[0].size()));
    EXPECT_EQ(std::memcmp((*heap)->runs()[run].min_prefix, expect, 8), 0);
    std::memset(expect, 0, 8);
    std::memcpy(expect, rows.back()[0].data(),
                std::min<size_t>(8, rows.back()[0].size()));
    EXPECT_EQ(std::memcmp((*heap)->runs()[run].max_prefix, expect, 8), 0);
  }
}

TEST(PagedHeapTest, EmptyAndNullaryRelationsRoundTrip) {
  std::string dir = FreshDir("heap_edge");
  BufferPoolOptions options;
  BufferPool pool(options);

  {
    StringRelation empty(2);
    std::string path = dir + "/empty";
    ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, empty).ok());
    auto heap = PagedHeap::Open(&pool, path);
    ASSERT_TRUE(heap.ok()) << heap.status();
    EXPECT_EQ((*heap)->tuple_count(), 0);
    Result<StringRelation> back = (*heap)->Materialize();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, empty);
  }
  {
    // The nullary "true" relation {()} — the boolean query result.
    StringRelation unit(0);
    ASSERT_TRUE(unit.Insert({}).ok());
    std::string path = dir + "/unit";
    ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, unit).ok());
    auto heap = PagedHeap::Open(&pool, path);
    ASSERT_TRUE(heap.ok()) << heap.status();
    EXPECT_EQ((*heap)->arity(), 0);
    EXPECT_EQ((*heap)->tuple_count(), 1);
    Result<StringRelation> back = (*heap)->Materialize();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, unit);
  }
}

TEST(PagedHeapTest, MultiPageDictionaryRoundTrips) {
  std::string dir = FreshDir("heap_bigdict");
  // 3000 distinct 20-char strings: the dict data region alone spans
  // several pages, the index more than one — entries cross boundaries.
  StringRelation rel = MakeRelation(/*arity=*/1, /*n=*/3000, /*len=*/20);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());

  BufferPoolOptions options;
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_TRUE(heap.ok()) << heap.status();
  Result<StringRelation> back = (*heap)->Materialize();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, rel);
}

// The acceptance criterion of the out-of-core design: scanning a
// relation many times larger than the buffer pool completes with the
// pinned working set bounded by the cap, and the result is identical to
// the in-memory relation.
TEST(PagedHeapTest, HugeScanKeepsPinnedBytesBoundedByTheCap) {
  std::string dir = FreshDir("heap_huge");
  StringRelation rel = MakeRelation(/*arity=*/1, /*n=*/20000, /*len=*/20);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());

  BufferPoolOptions options;
  options.capacity_bytes = 4 * kPageSize;  // 64 KiB pool
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_TRUE(heap.ok()) << heap.status();
  // The file must dwarf the pool by at least 8x for this to mean much.
  ASSERT_GE((*heap)->file_pages() * kPageSize, 8 * options.capacity_bytes);

  Result<StringRelation> back = (*heap)->Materialize();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, rel);

  PagerStats stats = pool.stats();
  EXPECT_LE(stats.peak_bytes_pinned, options.capacity_bytes);
  EXPECT_LE(stats.bytes_cached, options.capacity_bytes);
  EXPECT_EQ(stats.bytes_pinned, 0);
  EXPECT_GT(stats.evictions, 0);
  std::cout << "huge-scan: file_pages=" << (*heap)->file_pages()
            << " peak_pinned=" << stats.peak_bytes_pinned
            << " cached=" << stats.bytes_cached
            << " evictions=" << stats.evictions << "\n";
}

TEST(PagedHeapTest, CorruptRunPageFailsTheScanWithDataLoss) {
  std::string dir = FreshDir("heap_corrupt");
  StringRelation rel = MakeRelation(/*arity=*/1, /*n=*/64, /*len=*/10);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());

  // The last page is a run page: flip one byte inside it.
  std::string file = ReadAll(path);
  file[file.size() - static_cast<size_t>(kPageSize) + 17] ^= 0x01;
  WriteAll(path, file);

  BufferPoolOptions options;
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_TRUE(heap.ok()) << heap.status();  // header + directory intact
  Result<StringRelation> back = (*heap)->Materialize();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kDataLoss) << back.status();
}

TEST(PagedHeapTest, TruncatedHeaderIsDataLossNotACrash) {
  std::string dir = FreshDir("heap_torn");
  StringRelation rel = MakeRelation(/*arity=*/1, /*n=*/16, /*len=*/6);
  std::string path = dir + "/heap";
  ASSERT_TRUE(WritePagedHeap(Env::Posix(), path, rel).ok());
  std::string file = ReadAll(path);
  WriteAll(path, file.substr(0, 100));

  BufferPoolOptions options;
  BufferPool pool(options);
  auto heap = PagedHeap::Open(&pool, path);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kDataLoss) << heap.status();
}

// --- CatalogStore spilling -------------------------------------------------

TEST(StoreSpillTest, CheckpointSpillsBigRelationsAndQueriesStillAgree) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("spill_basic");

  // The oracle database: everything in memory.
  Database oracle(sigma);
  std::vector<Tuple> big_tuples;
  for (int64_t i = 0; i < 200; ++i) big_tuples.push_back({BitString(i, 8)});
  ASSERT_TRUE(oracle.Put("Q", 1, big_tuples).ok());
  ASSERT_TRUE(oracle.Put("tiny", 1, {{"ab"}}).ok());

  StoreOptions options;
  options.spill_threshold_bytes = 4096;  // Q (~14 KB footprint) crosses it
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->PutRelation("Q", 1, big_tuples).ok());
  ASSERT_TRUE((*store)->PutRelation("tiny", 1, {{"ab"}}).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());

  // Q moved out-of-core; tiny stayed inline; never both, never neither.
  EXPECT_FALSE((*store)->db().Has("Q"));
  EXPECT_TRUE((*store)->db().Has("tiny"));
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  (*store)->SnapshotState(&snap, &paged);
  ASSERT_EQ(paged->count("Q"), 1u);
  EXPECT_EQ(paged->at("Q")->tuple_count(), 200);
  EXPECT_EQ(paged->at("Q")->max_string_length(), 8);
  EXPECT_FALSE(snap->Has("Q"));

  const std::string query_text =
      "x | exists y: Q(y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)";
  Result<Query> q = Query::Parse(query_text, sigma);
  ASSERT_TRUE(q.ok()) << q.status();

  // Truncation inference must see the spilled relation's stored max
  // string length (Eq. (2)) without materialising it.
  Result<int> w_paged = q->InferTruncation(*snap, paged.get());
  Result<int> w_oracle = q->InferTruncation(oracle);
  ASSERT_TRUE(w_paged.ok()) << w_paged.status();
  ASSERT_TRUE(w_oracle.ok());
  EXPECT_EQ(*w_paged, *w_oracle);

  // The physical plan streams the relation: a paged-scan leaf.
  Result<std::string> plan = q->ExplainPlan(*snap, paged.get());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("paged-scan"), std::string::npos) << *plan;

  // Engine-over-pages vs the naive in-memory evaluator: identical.
  QueryOptions engine_opts;
  engine_opts.paged = paged.get();
  Result<StringRelation> from_pages = q->Execute(*snap, engine_opts);
  QueryOptions naive_opts;
  naive_opts.use_engine = false;
  Result<StringRelation> from_memory = q->Execute(oracle, naive_opts);
  ASSERT_TRUE(from_pages.ok()) << from_pages.status();
  ASSERT_TRUE(from_memory.ok()) << from_memory.status();
  EXPECT_EQ(*from_pages, *from_memory);

  PagerStats stats = (*store)->pager_stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
  EXPECT_EQ(stats.bytes_pinned, 0);

  // Reopen: the spilled relation comes back as a paged view, and the
  // answers still agree.
  ASSERT_TRUE((*store)->Close().ok());
  store->reset();
  RecoveryReport report;
  auto reopened = CatalogStore::Open(dir, sigma, options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.spilled_relations, 1);
  EXPECT_EQ(report.spilled_tuples, 200);
  (*reopened)->SnapshotState(&snap, &paged);
  ASSERT_EQ(paged->count("Q"), 1u);
  engine_opts.paged = paged.get();
  from_pages = q->Execute(*snap, engine_opts);
  ASSERT_TRUE(from_pages.ok()) << from_pages.status();
  EXPECT_EQ(*from_pages, *from_memory);
}

// The engine's one σ_A filter serves a spilled relation batch by batch
// and its in-memory copy in a single call: same tuples, same input
// count, same acceptance steps.
TEST(StoreSpillTest, SpilledFilterMatchesInMemoryFilter) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("spill_filter");
  std::vector<Tuple> pairs;
  for (int64_t i = 0; i < 3000; ++i) {
    std::string x = BitString(i, 12);
    pairs.push_back({x, i % 3 == 0 ? x : BitString(i * 7 + 1, 12)});
  }
  Database memory(sigma);
  ASSERT_TRUE(memory.Put("P", 2, pairs).ok());

  StoreOptions options;
  options.spill_threshold_bytes = 1;  // spill everything non-empty
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->PutRelation("P", 2, pairs).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  (*store)->SnapshotState(&snap, &paged);
  ASSERT_EQ(paged->count("P"), 1u);

  Result<StringFormula> f =
      ParseStringFormula("([x,y]l(x = y))* . [x,y]l(x = y = ~)");
  ASSERT_TRUE(f.ok()) << f.status();
  Result<Fsa> eq = CompileStringFormula(*f, sigma);
  ASSERT_TRUE(eq.ok()) << eq.status();
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("P", 2), *std::move(eq));
  ASSERT_TRUE(sel.ok()) << sel.status();
  EvalOptions memory_options;
  memory_options.truncation = 12;
  EvalOptions paged_options = memory_options;
  paged_options.paged = paged.get();

  Engine engine;
  ExecStats from_memory, from_pages;
  Result<StringRelation> a =
      engine.Execute(*sel, memory, memory_options, &from_memory);
  Result<StringRelation> b =
      engine.Execute(*sel, *snap, paged_options, &from_pages);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 1000);
  EXPECT_NE(from_pages.plan.find("paged-scan"), std::string::npos)
      << from_pages.plan;
  EXPECT_GT(from_memory.fsa_steps, 0);
  EXPECT_EQ(from_pages.fsa_steps, from_memory.fsa_steps);
  // The filter line's "[in=… out=… fsa_steps=…" counters.
  auto counters = [](const std::string& plan) {
    size_t begin = plan.find("[in=", plan.find("filter-select"));
    size_t end = plan.find(" cache=", begin);
    return begin == std::string::npos ? plan : plan.substr(begin, end - begin);
  };
  EXPECT_EQ(counters(from_pages.plan), counters(from_memory.plan));
  EXPECT_EQ(counters(from_memory.plan).rfind("[in=3000 out=1000", 0), 0u)
      << from_memory.plan;
  ASSERT_TRUE((*store)->Close().ok());
}

// A streamed paged scan is charged its decoding only: the acceptance
// its filter runs inside the scan callback is the filter's own time.
// The 3-tape concatenation tester (kernel tier) accepts each 80-letter
// x = y·z in several times the time the heap takes to decode it (about
// 11 ms against 2 ms for the 1000 triples on a 4-core x86-64 VM), so
// the scan's time is a small share of the filter's; charged the other
// way it would be nearly all of it.  The self times still sum to the
// root's time.
TEST(StoreSpillTest, StreamedScanTimeExcludesTheFiltersAcceptance) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("spill_self_time");
  std::vector<Tuple> triples;
  for (int64_t i = 0; i < 1000; ++i) {
    std::string y = BitString(i, 40);
    std::string z = BitString(i * 7 + 3, 40);
    triples.push_back({y + z, y, z});
  }
  StoreOptions options;
  options.spill_threshold_bytes = 1;  // spill everything non-empty
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->PutRelation("T", 3, triples).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  (*store)->SnapshotState(&snap, &paged);
  ASSERT_EQ(paged->count("T"), 1u);

  Result<StringFormula> f = ParseStringFormula(
      "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)");
  ASSERT_TRUE(f.ok()) << f.status();
  Result<Fsa> concat = CompileStringFormula(*f, sigma);
  ASSERT_TRUE(concat.ok()) << concat.status();
  Result<AlgebraExpr> sel =
      AlgebraExpr::Select(AlgebraExpr::Relation("T", 3), *std::move(concat));
  ASSERT_TRUE(sel.ok()) << sel.status();
  EvalOptions opts;
  opts.truncation = 80;
  opts.paged = paged.get();
  Engine engine;
  ExecStats stats;
  Result<StringRelation> out = engine.Execute(*sel, *snap, opts, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->size(), 1000);
  // "… time=Tms self=Sms]" of the first line naming `op`.
  auto field = [&](const std::string& op, const std::string& name) {
    size_t at = stats.plan.find(" " + name + "=", stats.plan.find(op));
    EXPECT_NE(at, std::string::npos) << op << " " << name << ": " << stats.plan;
    return at == std::string::npos
               ? -1.0
               : std::strtod(stats.plan.c_str() + at + name.size() + 2, nullptr);
  };
  const double filter = field("filter-select", "time");
  const double scan = field("paged-scan", "time");
  EXPECT_LT(scan, 0.5 * filter) << stats.plan;
  EXPECT_EQ(field("paged-scan", "self"), scan) << stats.plan;
  EXPECT_NEAR(field("filter-select", "self") + scan, filter, 0.02 * filter)
      << stats.plan;
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(StoreSpillTest, InsertMaterialisesBackAndDropDiscards) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("spill_mutate");
  StoreOptions options;
  options.spill_threshold_bytes = 1;  // spill everything non-empty
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->PutRelation("Q", 1, {{"aa"}, {"ab"}}).ok());
  ASSERT_TRUE((*store)->PutRelation("S", 1, {{"b"}}).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  EXPECT_EQ((*store)->PagedDb()->size(), 2u);

  // Inserting into a spilled relation pulls it back in-core, with the
  // union of old and new tuples.
  ASSERT_TRUE((*store)->InsertTuples("Q", {{"ba"}}).ok());
  EXPECT_EQ((*store)->PagedDb()->count("Q"), 0u);
  ASSERT_TRUE((*store)->db().Has("Q"));
  auto q_rel = (*store)->db().Get("Q");
  ASSERT_TRUE(q_rel.ok());
  EXPECT_EQ((*q_rel)->tuples(), (std::set<Tuple>{{"aa"}, {"ab"}, {"ba"}}));

  // Replacing a spilled relation discards the old pages outright.
  ASSERT_TRUE((*store)->PutRelation("S", 1, {{"a"}, {"b"}}).ok());
  EXPECT_EQ((*store)->PagedDb()->count("S"), 0u);

  // Dropping a spilled relation works without materialising it.
  ASSERT_TRUE((*store)->Checkpoint().ok());  // respills Q and S
  EXPECT_EQ((*store)->PagedDb()->size(), 2u);
  ASSERT_TRUE((*store)->DropRelation("S").ok());
  EXPECT_EQ((*store)->PagedDb()->count("S"), 0u);
  EXPECT_FALSE((*store)->db().Has("S"));

  // The next checkpoint garbage-collects the dead heap files: the
  // directory holds exactly one heap file (live Q) afterwards.
  ASSERT_TRUE((*store)->Checkpoint().ok());
  auto listed = Env::Posix()->ListDir(dir);
  ASSERT_TRUE(listed.ok());
  int heap_files = 0;
  for (const std::string& name : *listed) {
    if (name.rfind("heap-", 0) == 0) ++heap_files;
  }
  EXPECT_EQ(heap_files, 1);

  ASSERT_TRUE((*store)->Close().ok());
  store->reset();
  RecoveryReport report;
  auto reopened = CatalogStore::Open(dir, sigma, options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.spilled_relations, 1);
  EXPECT_EQ(StoreSig(**reopened),
            "Q/1{aa,;ab,;ba,;}");
}

// --- crash sweep over spill + checkpoint -----------------------------------

struct SpillMut {
  enum Kind { kPut, kInsert, kDrop, kCheckpoint } kind;
  std::string name;
  int arity = 1;
  std::vector<Tuple> tuples;
};

Status ApplySpillMut(CatalogStore* store, const SpillMut& op) {
  switch (op.kind) {
    case SpillMut::kPut:
      return store->PutRelation(op.name, op.arity, op.tuples);
    case SpillMut::kInsert:
      return store->InsertTuples(op.name, op.tuples);
    case SpillMut::kDrop:
      return store->DropRelation(op.name);
    case SpillMut::kCheckpoint:
      return store->Checkpoint();
  }
  return Status::Internal("unreachable");
}

void ApplySpillMutToShadow(const SpillMut& op, Database* db) {
  switch (op.kind) {
    case SpillMut::kPut:
      ASSERT_TRUE(db->Put(op.name, op.arity, op.tuples).ok());
      return;
    case SpillMut::kInsert:
      ASSERT_TRUE(db->InsertTuples(op.name, op.tuples).ok());
      return;
    case SpillMut::kDrop:
      ASSERT_TRUE(db->Remove(op.name).ok());
      return;
    case SpillMut::kCheckpoint:
      return;  // state-preserving
  }
}

// The out-of-core analogue of the storage crash sweep: with a spill
// threshold that moves every relation out-of-core at each checkpoint,
// a process dying at ANY I/O operation — including mid-heap-write,
// between the heap rename and the snapshot, or on the CURRENT flip —
// must recover exactly a committed prefix of the workload, with every
// surviving spilled relation readable page-by-page.
TEST(PagerCrashSweepTest, SpillingCheckpointRecoversACommittedPrefix) {
  Alphabet sigma = Alphabet::Binary();
  std::vector<SpillMut> ops = {
      {SpillMut::kPut, "Q", 1, {{"aa"}, {"ab"}, {"ba"}}},
      {SpillMut::kCheckpoint, "", 1, {}},
      {SpillMut::kPut, "S", 1, {{"a"}}},
      {SpillMut::kInsert, "Q", 1, {{"bb"}}},  // materialises Q back
      {SpillMut::kCheckpoint, "", 1, {}},     // respills Q, spills S
      {SpillMut::kDrop, "S", 1, {}},
      {SpillMut::kPut, "Q", 1, {{"b"}}},      // replaces a spilled relation
      {SpillMut::kCheckpoint, "", 1, {}},
  };

  // Shadow states after each mutation (checkpoints excluded: spilling
  // changes the representation, never the logical catalog).
  std::vector<Database> shadow;
  {
    Database db(sigma);
    shadow.push_back(db);
    for (const SpillMut& op : ops) {
      if (op.kind == SpillMut::kCheckpoint) continue;
      ApplySpillMutToShadow(op, &db);
      shadow.push_back(db);
    }
  }

  StoreOptions base_options;
  base_options.spill_threshold_bytes = 1;

  // Dry run to count the ops, then crash at every single index.
  int64_t total_ops = 0;
  {
    FaultInjectingEnv fenv(Env::Posix(), 0);
    fenv.Reset({});
    StoreOptions options = base_options;
    options.env = &fenv;
    auto store = CatalogStore::Open(FreshDir("pager_sweep_dry"), sigma, options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const SpillMut& op : ops) {
      ASSERT_TRUE(ApplySpillMut(store->get(), op).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
    total_ops = fenv.ops();
  }
  ASSERT_GE(total_ops, 100) << "workload too small for a meaningful sweep";

  int points = 0, exact = 0, one_past = 0;
  for (int64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k));
    std::string dir = FreshDir("pager_sweep_k");
    FaultInjectingEnv fenv(Env::Posix(), 0x9a9e0000 + static_cast<uint64_t>(k));
    FaultPlan plan;
    plan.crash_at_op = k;
    fenv.Reset(plan);
    StoreOptions options = base_options;
    options.env = &fenv;

    int acked = 0;
    bool failed_op_mutates = false;
    {
      auto store = CatalogStore::Open(dir, sigma, options);
      if (store.ok()) {
        for (const SpillMut& op : ops) {
          Status status = ApplySpillMut(store->get(), op);
          if (!status.ok()) {
            failed_op_mutates = op.kind != SpillMut::kCheckpoint;
            break;
          }
          if (op.kind != SpillMut::kCheckpoint) ++acked;
        }
      }
    }
    ASSERT_TRUE(fenv.crashed());

    // Restart on a healthy filesystem: recovery must succeed, spilled
    // relations and all, and the logical catalog must be a committed
    // prefix of the workload.
    RecoveryReport report;
    auto recovered = CatalogStore::Open(dir, sigma, base_options, &report);
    ASSERT_TRUE(recovered.ok())
        << "recovery must never fail: " << recovered.status();
    std::string sig = StoreSig(**recovered);
    int matched = -1;
    for (int j = acked; j <= acked + (failed_op_mutates ? 1 : 0); ++j) {
      if (j >= static_cast<int>(shadow.size())) break;
      if (sig == Sig(shadow[static_cast<size_t>(j)])) {
        matched = j;
        break;
      }
    }
    ASSERT_NE(matched, -1)
        << "recovered state is not a committed prefix: acked=" << acked
        << " sig=" << sig << " report=" << report.ToString();
    matched == acked ? ++exact : ++one_past;
    ++points;
  }
  EXPECT_GE(points, 100);
  std::cout << "pager-crash-sweep: points=" << points << " exact=" << exact
            << " one-past=" << one_past << "\n";
}

}  // namespace
}  // namespace strdb
