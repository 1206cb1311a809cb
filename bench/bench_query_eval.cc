// E8 — the §4 concatenation query π1 σ_A(Σ* × R1 × R3), the paper's
// showcase for finitely evaluable expressions.  Compares evaluation
// strategies:
//   * engine (warm)  — the planning/execution engine with its artifact
//                      cache primed (the steady state of a served query);
//   * engine (cold)  — the engine with the cache cleared every
//                      iteration (pure plan + execute cost);
//   * generator      — the naive evaluator: σ_A(Σ* × ...) runs A as a
//                      generalized Mealy machine per factor combination;
//   * materialised   — σ_A(Σ^l × ...) materialises the domain first
//                      (what a naive ∩-semantics would do);
//   * naive calculus — truth-definition enumeration over Σ^{<=l}.
// The generator must win by orders of magnitude over the last two and
// scale with the database, not with |Σ|^l; the engine must beat the
// generator again by reusing specialised automata and generations
// across the odometer and across runs.
//
// E24 (query side) — σ_A filtering of a materialised relation: the
// default engine, whose Acceptor picks the DFA tier or the CSR kernel per
// automaton, against the naive evaluator (EvalAlgebra), which decides
// every tuple with the Theorem 3.3 BFS.  A concatenation workload runs
// on the kernel (the DFA tier refuses it) and an equality workload on
// the DFA tier.  The tiers themselves are timed directly by
// bench_acceptance.  `--json[=PATH]` (default BENCH_query_eval.json)
// writes the machine-readable comparison; `--quick` shrinks it for CI
// smoke runs.
//
// `--paged` switches the JSON mode to the out-of-core variant (default
// BENCH_storage_scan.json): the same filter workload with the relation
// spilled to the paged heap format and streamed back through a buffer
// pool much smaller than the heap, so the measured cost includes
// dictionary decode plus page eviction/re-read traffic.  The paged
// answer is checked against the in-memory engine before timing, and the
// pool counters (including the peak-pinned high-water mark, which must
// stay under the cap) land in the JSON, with the buffer-pool page
// requests (hits + misses) per scanned tuple.  `--quick` runs the same
// workload on a smaller rep budget, so CI's quick row compares like for
// like with the committed full-mode BENCH_storage_scan.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "testing/bench_support.h"
#include "calculus/eval.h"
#include "calculus/parser.h"
#include "core/rng.h"
#include "engine/engine.h"
#include "fsa/compile.h"
#include "relational/algebra.h"
#include "storage/store.h"
#include "testing/mem_env.h"

namespace strdb {
namespace bench {
namespace {

Database MakeDb(int tuples, int max_len, uint64_t seed) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> r1, r3;
  for (int i = 0; i < tuples; ++i) {
    r1.push_back({rng.String(db.alphabet(), 1, max_len)});
    r3.push_back({rng.String(db.alphabet(), 1, max_len)});
  }
  if (!db.Put("R1", 1, std::move(r1)).ok() ||
      !db.Put("R3", 1, std::move(r3)).ok()) {
    std::abort();
  }
  return db;
}

AlgebraExpr ConcatQuery(const Alphabet& alphabet, bool materialised,
                        int truncation) {
  Fsa fsa = OrDie(CompileStringFormula(Parse(kConcatText), alphabet),
                  "concat");
  AlgebraExpr domain = materialised ? AlgebraExpr::SigmaL(truncation)
                                    : AlgebraExpr::SigmaStar();
  AlgebraExpr body = AlgebraExpr::Product(
      std::move(domain),
      AlgebraExpr::Product(AlgebraExpr::Relation("R1", 1),
                           AlgebraExpr::Relation("R3", 1)));
  AlgebraExpr sel =
      OrDie(AlgebraExpr::Select(std::move(body), std::move(fsa)), "select");
  return OrDie(AlgebraExpr::Project(std::move(sel), {0}), "project");
}

void BM_ConcatQueryGenerator(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  const int max_len = 6;
  Database db = MakeDb(tuples, max_len, 99);
  AlgebraExpr query = ConcatQuery(db.alphabet(), false, 2 * max_len);
  EvalOptions opts;
  opts.truncation = 2 * max_len;
  int64_t answers = 0;
  for (auto _ : state) {
    Result<StringRelation> r = EvalAlgebra(query, db, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    answers = r->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetComplexityN(tuples);
}
BENCHMARK(BM_ConcatQueryGenerator)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

void BM_ConcatQueryEngineWarm(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  const int max_len = 6;
  Database db = MakeDb(tuples, max_len, 99);
  AlgebraExpr query = ConcatQuery(db.alphabet(), false, 2 * max_len);
  EvalOptions opts;
  opts.truncation = 2 * max_len;
  Engine engine;
  // Prime the artifact cache: the steady state of a repeatedly-served
  // query (specialised automata + generations already compiled).
  if (!engine.Execute(query, db, opts).ok()) std::abort();
  int64_t answers = 0;
  for (auto _ : state) {
    Result<StringRelation> r = engine.Execute(query, db, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    answers = r->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetComplexityN(tuples);
}
BENCHMARK(BM_ConcatQueryEngineWarm)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

void BM_ConcatQueryEngineCold(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  const int max_len = 6;
  Database db = MakeDb(tuples, max_len, 99);
  AlgebraExpr query = ConcatQuery(db.alphabet(), false, 2 * max_len);
  EvalOptions opts;
  opts.truncation = 2 * max_len;
  Engine engine;
  for (auto _ : state) {
    engine.cache().Clear();
    Result<StringRelation> r = engine.Execute(query, db, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(tuples);
}
BENCHMARK(BM_ConcatQueryEngineCold)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

void BM_ConcatQueryMaterialised(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  // Σ^l materialisation explodes with l: keep strings short so the
  // domain Σ^{<=8} (511 strings) stays runnable; the generator above
  // handles twice the length effortlessly.
  const int max_len = 4;
  Database db = MakeDb(tuples, max_len, 99);
  AlgebraExpr query = ConcatQuery(db.alphabet(), true, 2 * max_len);
  EvalOptions opts;
  opts.truncation = 2 * max_len;
  for (auto _ : state) {
    Result<StringRelation> r = EvalAlgebra(query, db, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(tuples);
}
BENCHMARK(BM_ConcatQueryMaterialised)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Complexity();

void BM_ConcatQueryNaiveCalculus(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  // The truth-definition evaluator enumerates |Σ^{<=l}|^3 assignments;
  // only toy sizes are feasible — that is the measurement.
  const int max_len = 2;
  Database db = MakeDb(tuples, max_len, 99);
  CalcFormula f = OrDie(
      ParseCalcFormula("exists y, z: R1(y) & R3(z) & ([x,y]l(x = y))* . "
                       "([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)"),
      "calc parse");
  CalcEvalOptions opts;
  opts.truncation = 2 * max_len;
  for (auto _ : state) {
    Result<StringRelation> r = EvalCalcNaive(f, db, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(tuples);
}
BENCHMARK(BM_ConcatQueryNaiveCalculus)->DenseRange(2, 6, 2)->Complexity();

// --- E24 (query side): σ_A over a materialised relation, engine vs naive ---

// An arity-3 relation of (x, y, z) triples, half of which satisfy
// x = y·z — a pure filter-select workload (no Σ* generation), so the
// acceptance check dominates.
Database MakeTriples(int tuples, int max_len, uint64_t seed) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> t;
  for (int i = 0; i < tuples; ++i) {
    std::string y = rng.String(db.alphabet(), 1, max_len);
    std::string z = rng.String(db.alphabet(), 1, max_len);
    std::string x = y + z;
    if (i % 2 == 1) x.back() = x.back() == 'a' ? 'b' : 'a';
    t.push_back({x, y, z});
  }
  if (!db.Put("T", 3, std::move(t)).ok()) std::abort();
  return db;
}

AlgebraExpr FilterQuery(const Alphabet& alphabet) {
  Fsa fsa = OrDie(CompileStringFormula(Parse(kConcatText), alphabet),
                  "concat");
  return OrDie(
      AlgebraExpr::Select(AlgebraExpr::Relation("T", 3), std::move(fsa)),
      "select");
}

// An arity-2 relation of (x, y) pairs, half equal — the DFA tier's
// end-to-end showcase: the pair-equality scanner is one-way and
// move-deterministic, so the engine's σ runs on the bytecode batch path.
Database MakePairs(int tuples, int max_len, uint64_t seed) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> t;
  for (int i = 0; i < tuples; ++i) {
    std::string x = rng.String(db.alphabet(), 1, max_len);
    std::string y = x;
    if (i % 2 == 1) y = rng.String(db.alphabet(), 1, max_len);
    t.push_back({x, y});
  }
  if (!db.Put("P", 2, std::move(t)).ok()) std::abort();
  return db;
}

AlgebraExpr EqualityFilterQuery(const Alphabet& alphabet) {
  Fsa fsa = OrDie(CompileStringFormula(Parse(kEqualityText), alphabet),
                  "equality");
  return OrDie(
      AlgebraExpr::Select(AlgebraExpr::Relation("P", 2), std::move(fsa)),
      "select");
}

void BM_FilterSelect(benchmark::State& state, bool use_engine) {
  const int tuples = static_cast<int>(state.range(0));
  Database db = MakeTriples(tuples, 24, 7);
  AlgebraExpr query = FilterQuery(db.alphabet());
  EvalOptions opts;
  opts.truncation = 64;
  Engine engine;
  auto run = [&] {
    return use_engine ? engine.Execute(query, db, opts)
                      : EvalAlgebra(query, db, opts);
  };
  if (!run().ok()) std::abort();
  int64_t answers = 0;
  for (auto _ : state) {
    Result<StringRelation> r = run();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    answers = r->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetComplexityN(tuples);
}
void BM_FilterSelectEngine(benchmark::State& state) {
  BM_FilterSelect(state, true);
}
void BM_FilterSelectReference(benchmark::State& state) {
  BM_FilterSelect(state, false);
}
BENCHMARK(BM_FilterSelectEngine)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();
BENCHMARK(BM_FilterSelectReference)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

int64_t TimeNs(const std::function<void()>& fn) {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct QueryEvalRow {
  std::string name;
  int tuples = 0;
  int reps = 0;
  size_t answers = 0;
  double engine_ns_per_tuple = 0;     // default Engine (Acceptor tiers)
  double reference_ns_per_tuple = 0;  // EvalAlgebra (Theorem 3.3 BFS)
  double speedup = 0;                 // reference / engine
};

// Times one σ workload through the default engine and the naive
// evaluator, after checking that both return the same relation.
Result<QueryEvalRow> MeasureQueryEval(const std::string& name,
                                      const Database& db,
                                      const AlgebraExpr& query,
                                      const EvalOptions& opts, int tuples,
                                      bool quick) {
  Engine engine;
  Result<StringRelation> a = engine.Execute(query, db, opts);
  Result<StringRelation> b = EvalAlgebra(query, db, opts);
  if (!a.ok() || !b.ok() || !(*a == *b)) {
    return Status::Internal(name + ": engine and naive answers disagree");
  }

  int64_t one_pass = TimeNs(
      [&] { benchmark::DoNotOptimize(EvalAlgebra(query, db, opts)); });
  int64_t target_ns = quick ? 20'000'000 : 400'000'000;
  int reps = static_cast<int>(target_ns / std::max<int64_t>(one_pass, 1));
  reps = std::max(1, std::min(reps, 200));

  int64_t reference_ns = TimeNs([&] {
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(EvalAlgebra(query, db, opts));
    }
  });
  int64_t engine_ns = TimeNs([&] {
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(engine.Execute(query, db, opts));
    }
  });

  QueryEvalRow row;
  row.name = name;
  row.tuples = tuples;
  row.reps = reps;
  row.answers = a->size();
  double per = static_cast<double>(reps) * static_cast<double>(tuples);
  row.engine_ns_per_tuple = static_cast<double>(engine_ns) / per;
  row.reference_ns_per_tuple = static_cast<double>(reference_ns) / per;
  row.speedup = row.reference_ns_per_tuple / row.engine_ns_per_tuple;
  return row;
}

// --- E26: cost-based DP planner vs the written product order ---
//
// A skewed 3-way product chain written in its worst left-deep order:
//   * σ_member(a)(Big)      — keeps every row (all rows contain 'a');
//   * Mid                   — a plain relation;
//   * σ_member(pat)(Huge)   — keeps nothing (every Huge row is shorter
//                             than the twelve-character needle).
// As written, Big×Mid is materialised first and the empty filter runs
// last.  The DP planner's DFA acceptance-density estimate ranks the
// needle filter first, so the downstream products never materialise a
// single tuple.  (A flat 1/4 selectivity guess would rank σ(Huge) as the
// largest factor and pick the written order.)
Database MakePlannerDb(int big, int mid, int huge_rows, uint64_t seed,
                       const std::string& pattern) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> b, m, h;
  for (int i = 0; i < big; ++i) {
    std::string s = rng.String(db.alphabet(), 2, 8);
    s[0] = 'a';  // every Big row passes the member("a") filter
    b.push_back({std::move(s)});
  }
  for (int i = 0; i < mid; ++i) {
    m.push_back({rng.String(db.alphabet(), 1, 8)});
  }
  for (int i = 0; i < huge_rows; ++i) {
    // Strictly shorter than `pattern`, so none of these can contain it.
    h.push_back({rng.String(db.alphabet(), 1,
                            static_cast<int>(pattern.size()) - 2)});
  }
  if (!db.Put("Big", 1, std::move(b)).ok() ||
      !db.Put("Mid", 1, std::move(m)).ok() ||
      !db.Put("Huge", 1, std::move(h)).ok()) {
    std::abort();
  }
  return db;
}

AlgebraExpr PlannerChainQuery(const Alphabet& alphabet,
                              const std::string& pattern) {
  AlgebraExpr big = OrDie(
      AlgebraExpr::Select(AlgebraExpr::Relation("Big", 1),
                          MakeMember(alphabet, "a")),
      "select Big");
  AlgebraExpr huge = OrDie(
      AlgebraExpr::Select(AlgebraExpr::Relation("Huge", 1),
                          MakeMember(alphabet, pattern)),
      "select Huge");
  return AlgebraExpr::Product(
      AlgebraExpr::Product(std::move(big), AlgebraExpr::Relation("Mid", 1)),
      std::move(huge));
}

struct PlannerChainRow {
  std::string name;
  int tuples = 0;
  int reps = 0;
  size_t answers = 0;
  double worst_ns_per_tuple = 0;  // reordering off, worst written order
  double dp_ns_per_tuple = 0;     // cost-based DP planner
  double dp_speedup = 0;          // worst / dp
};

Result<PlannerChainRow> MeasurePlannerChain(bool quick) {
  // Same workload in quick and full mode (the per-pass cost is a few
  // milliseconds either way) so the regression gate compares
  // like-for-like ns/tuple; --quick only trims the rep budget.
  const int big = 512;
  const int mid = 140;
  const int huge_rows = 2048;
  const std::string pattern = "abbabaababba";
  Database db = MakePlannerDb(big, mid, huge_rows, 11, pattern);
  AlgebraExpr query = PlannerChainQuery(db.alphabet(), pattern);
  EvalOptions opts;
  opts.truncation = 16;

  EngineOptions worst_opts;
  worst_opts.rewrites.reorder_products = false;  // pinned to written order
  Engine worst_engine(worst_opts);
  Engine dp_engine;

  Result<StringRelation> a = dp_engine.Execute(query, db, opts);
  Result<StringRelation> c = worst_engine.Execute(query, db, opts);
  if (!a.ok() || !c.ok() || !(*a == *c)) {
    return Status::Internal("planner_chain: plan routes disagree");
  }

  // Per-engine rep calibration: the two plans are orders of magnitude
  // apart, so a shared rep count would measure the fast plan over a few
  // cold passes.  Each engine gets warmup passes and enough reps to
  // amortise them.
  const int tuples = big + mid + huge_rows;
  int64_t target_ns = quick ? 150'000'000 : 800'000'000;
  int min_reps = 0;
  auto measure = [&](Engine& engine) {
    for (int w = 0; w < 5; ++w) {
      benchmark::DoNotOptimize(engine.Execute(query, db, opts));
    }
    int64_t one_pass = TimeNs(
        [&] { benchmark::DoNotOptimize(engine.Execute(query, db, opts)); });
    int reps = static_cast<int>(target_ns / std::max<int64_t>(one_pass, 1));
    reps = std::max(1, std::min(reps, 400));
    if (min_reps == 0 || reps < min_reps) min_reps = reps;
    int64_t total = TimeNs([&] {
      for (int r = 0; r < reps; ++r) {
        benchmark::DoNotOptimize(engine.Execute(query, db, opts));
      }
    });
    return static_cast<double>(total) /
           (static_cast<double>(reps) * static_cast<double>(tuples));
  };

  PlannerChainRow row;
  row.name = "planner_skewed_chain";
  row.tuples = tuples;
  row.answers = a->size();
  row.worst_ns_per_tuple = measure(worst_engine);
  row.dp_ns_per_tuple = measure(dp_engine);
  row.reps = min_reps;  // the smaller of the two calibrated counts
  row.dp_speedup = row.worst_ns_per_tuple / row.dp_ns_per_tuple;
  return row;
}

int RunJsonMode(const std::string& path, bool quick) {
  // Quick mode only trims the rep budget: the regression gate compares
  // its ns/tuple against the full-mode baseline, so the workloads match.
  const int tuples = 1024;
  const int max_len = 24;

  Database triples = MakeTriples(tuples, max_len, 7);
  AlgebraExpr concat_query = FilterQuery(triples.alphabet());
  EvalOptions opts;
  opts.truncation = 2 * max_len + 2;

  Database pairs = MakePairs(tuples, 2 * max_len, 7);
  AlgebraExpr equality_query = EqualityFilterQuery(pairs.alphabet());

  std::vector<QueryEvalRow> rows;
  for (const Result<QueryEvalRow>& row :
       {MeasureQueryEval("sigma_concat_triples", triples, concat_query, opts,
                         tuples, quick),
        MeasureQueryEval("sigma_equality_pairs", pairs, equality_query, opts,
                         tuples, quick)}) {
    if (!row.ok()) {
      std::fprintf(stderr, "%s\n", row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(*row);
  }

  Result<PlannerChainRow> planner = MeasurePlannerChain(quick);
  if (!planner.ok()) {
    std::fprintf(stderr, "%s\n", planner.status().ToString().c_str());
    return 1;
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"experiment\": \"E24_filter_select\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const QueryEvalRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"tuples\": " << r.tuples
        << ", \"reps\": " << r.reps << ", \"answers\": " << r.answers
        << ", \"engine_ns_per_tuple\": "
        << static_cast<int64_t>(r.engine_ns_per_tuple)
        << ", \"reference_ns_per_tuple\": "
        << static_cast<int64_t>(r.reference_ns_per_tuple)
        << ", \"speedup\": "
        << static_cast<double>(static_cast<int64_t>(r.speedup * 100)) / 100
        << "},\n";
    std::printf("%-20s engine %8.0f ns/tuple  reference %8.0f ns/tuple  "
                "speedup %.2fx\n",
                r.name.c_str(), r.engine_ns_per_tuple,
                r.reference_ns_per_tuple, r.speedup);
  }
  {
    const PlannerChainRow& p = *planner;
    out << "    {\"name\": \"" << p.name << "\", \"tuples\": " << p.tuples
        << ", \"reps\": " << p.reps << ", \"answers\": " << p.answers
        << ", \"worst_ns_per_tuple\": "
        << static_cast<int64_t>(p.worst_ns_per_tuple)
        << ", \"dp_ns_per_tuple\": "
        << static_cast<int64_t>(p.dp_ns_per_tuple) << ", \"dp_speedup\": "
        << static_cast<double>(static_cast<int64_t>(p.dp_speedup * 100)) / 100
        << "}\n";
    std::printf("%-20s worst %8.0f ns/tuple  dp %8.0f ns/tuple  "
                "dp speedup %.2fx\n",
                p.name.c_str(), p.worst_ns_per_tuple, p.dp_ns_per_tuple,
                p.dp_speedup);
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// --- Out-of-core variant: σ_A over T spilled to the paged heap format ---
//
// The store lives on a MemEnv so the measurement isolates the storage
// layer's CPU cost (dictionary decode, run iteration, crc checks, pool
// bookkeeping) from host-disk noise; the buffer pool is capped well
// below the heap size so every scan pays real eviction/re-read traffic
// instead of running out of a fully-resident cache.
int RunPagedJsonMode(const std::string& path, bool quick) {
  const int tuples = 8192;
  const int max_len = 24;
  Database db = MakeTriples(tuples, max_len, 7);
  AlgebraExpr query = FilterQuery(db.alphabet());
  EvalOptions opts;
  opts.truncation = 2 * max_len + 2;

  testgen::MemEnv env;
  StoreOptions store_options;
  store_options.env = &env;
  store_options.sync = false;
  store_options.spill_threshold_bytes = 1;  // everything non-empty spills
  store_options.pager_capacity_bytes = 8 * kPageSize;
  Result<std::unique_ptr<CatalogStore>> opened =
      CatalogStore::Open("/bench", db.alphabet(), store_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "store open: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  CatalogStore& store = **opened;
  for (const auto& [name, rel] : db.relations()) {
    Status put = store.PutRelation(
        name, rel.arity(),
        std::vector<Tuple>(rel.tuples().begin(), rel.tuples().end()));
    if (!put.ok()) {
      std::fprintf(stderr, "put %s: %s\n", name.c_str(),
                   put.ToString().c_str());
      return 1;
    }
  }
  if (Status ckpt = store.Checkpoint(); !ckpt.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", ckpt.ToString().c_str());
    return 1;
  }
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  store.SnapshotState(&snap, &paged);
  if (paged->find("T") == paged->end()) {
    std::fprintf(stderr, "T did not spill\n");
    return 1;
  }
  EvalOptions paged_opts = opts;
  paged_opts.paged = paged.get();

  Engine paged_engine;  // streams T through its PagedScan
  Engine mem_engine;

  // Warm both engines and check the paged route agrees with memory.
  Result<StringRelation> a = paged_engine.Execute(query, *snap, paged_opts);
  Result<StringRelation> b = mem_engine.Execute(query, db, opts);
  if (!a.ok() || !b.ok() || !(*a == *b)) {
    std::fprintf(stderr, "paged/in-memory answers disagree\n");
    return 1;
  }

  int64_t one_pass = TimeNs([&] {
    benchmark::DoNotOptimize(paged_engine.Execute(query, *snap, paged_opts));
  });
  // Interleaved rounds: each times reps / kRounds passes of the memory
  // engine, then as many of the paged one, and each figure is the median
  // round, so a burst of host noise moves one round, not the row.
  constexpr int kRounds = 5;
  int64_t target_ns = quick ? 100'000'000 : 400'000'000;
  int reps = static_cast<int>(target_ns / std::max<int64_t>(one_pass, 1));
  const int per_round = std::max(1, std::min(reps, 200) / kRounds);
  reps = per_round * kRounds;

  const PagerStats before = store.pager_stats();
  std::vector<int64_t> memory_round_ns, paged_round_ns;
  for (int round = 0; round < kRounds; ++round) {
    memory_round_ns.push_back(TimeNs([&] {
      for (int r = 0; r < per_round; ++r) {
        benchmark::DoNotOptimize(mem_engine.Execute(query, db, opts));
      }
    }));
    paged_round_ns.push_back(TimeNs([&] {
      for (int r = 0; r < per_round; ++r) {
        benchmark::DoNotOptimize(
            paged_engine.Execute(query, *snap, paged_opts));
      }
    }));
  }
  auto median = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  PagerStats stats = store.pager_stats();
  if (stats.bytes_pinned != 0 ||
      stats.peak_bytes_pinned > store.pager_capacity_bytes()) {
    std::fprintf(stderr,
                 "pager invariant violated: pinned %lld peak %lld cap %lld\n",
                 static_cast<long long>(stats.bytes_pinned),
                 static_cast<long long>(stats.peak_bytes_pinned),
                 static_cast<long long>(store.pager_capacity_bytes()));
    return 1;
  }

  double per = static_cast<double>(per_round) * static_cast<double>(tuples);
  double mem_per_tuple = static_cast<double>(median(memory_round_ns)) / per;
  double paged_per_tuple = static_cast<double>(median(paged_round_ns)) / per;
  double overhead = paged_per_tuple / mem_per_tuple;
  double requests_per_tuple =
      static_cast<double>(stats.hits + stats.misses - before.hits -
                          before.misses) /
      (static_cast<double>(reps) * static_cast<double>(tuples));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"experiment\": \"E_storage_paged_scan\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"results\": [\n"
      << "    {\"name\": \"sigma_concat_paged_scan\", \"tuples\": " << tuples
      << ", \"reps\": " << reps << ", \"answers\": " << a->size()
      << ", \"memory_ns_per_tuple\": " << static_cast<int64_t>(mem_per_tuple)
      << ", \"paged_ns_per_tuple\": " << static_cast<int64_t>(paged_per_tuple)
      << ", \"overhead\": "
      << static_cast<double>(static_cast<int64_t>(overhead * 100)) / 100
      << ", \"page_requests_per_tuple\": "
      << static_cast<double>(static_cast<int64_t>(requests_per_tuple * 1000)) /
             1000
      << ",\n     \"pager\": {\"capacity_bytes\": "
      << store.pager_capacity_bytes() << ", \"hits\": " << stats.hits
      << ", \"misses\": " << stats.misses
      << ", \"evictions\": " << stats.evictions
      << ", \"peak_bytes_pinned\": " << stats.peak_bytes_pinned
      << ", \"bytes_cached\": " << stats.bytes_cached << "}}\n  ]\n}\n";
  std::printf("sigma_concat_paged_scan  memory %8.0f ns/tuple  paged %8.0f "
              "ns/tuple  overhead %.2fx  %.3f page requests/tuple  (pool "
              "%lld B, peak pinned %lld B, %lld evictions)\n",
              mem_per_tuple, paged_per_tuple, overhead, requests_per_tuple,
              static_cast<long long>(store.pager_capacity_bytes()),
              static_cast<long long>(stats.peak_bytes_pinned),
              static_cast<long long>(stats.evictions));
  std::printf("wrote %s\n", path.c_str());
  if (Status closed = store.Close(); !closed.ok()) {
    std::fprintf(stderr, "close: %s\n", closed.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace strdb

int main(int argc, char** argv) {
  std::string json_path;
  bool json = false;
  bool quick = false;
  bool paged = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--paged") == 0) {
      paged = true;
      json = true;  // the paged variant only has a JSON mode
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (json_path.empty()) {
    json_path = paged ? "BENCH_storage_scan.json" : "BENCH_query_eval.json";
  }
  if (paged) return strdb::bench::RunPagedJsonMode(json_path, quick);
  if (json) return strdb::bench::RunJsonMode(json_path, quick);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
