// E6 — Theorem 3.3: acceptance of a fixed k-FSA is polynomial in the
// input lengths.  Sweeps input length for the workhorse §2 formulae and
// reports the measured complexity alongside configuration counts.
//
// E24 — the acceptance tiers (the compiled CSR kernel of fsa/kernel
// and the determinised bytecode DFA of fsa/codegen, scalar and batch)
// against the reference BFS on warm tuple batches.  `--json[=PATH]`
// (default BENCH_accept.json) skips the google-benchmark sweeps and
// instead writes machine-readable ns/tuple, tuples/s and speedup rows
// for all three tiers; `--quick` shrinks the workloads for CI smoke
// runs.  Machines outside the DFA tier's class (two-way, or one-way
// with a nondeterministic head schedule like the concatenation tester)
// report dfa_compiled=false — exactly the rows the engine serves from
// the kernel.
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
#include "core/rng.h"
#include "fsa/accept.h"
#include "fsa/codegen/program.h"
#include "fsa/compile.h"
#include "fsa/kernel.h"

namespace strdb {
namespace bench {
namespace {

const Fsa& EqualityFsa() {
  static const Fsa* fsa = new Fsa(OrDie(
      CompileStringFormula(Parse(kEqualityText), Alphabet::Binary()),
      "equality"));
  return *fsa;
}

const Fsa& Equality3Fsa() {
  static const Fsa* fsa = new Fsa(OrDie(
      CompileStringFormula(Parse(kEquality3Text), Alphabet::Binary()),
      "equality3"));
  return *fsa;
}

const Fsa& ManifoldFsa() {
  static const Fsa* fsa = new Fsa(OrDie(
      CompileStringFormula(Parse(kManifoldText), Alphabet::Binary()),
      "manifold"));
  return *fsa;
}

const Fsa& ShuffleFsa() {
  static const Fsa* fsa = new Fsa(OrDie(
      CompileStringFormula(Parse(kShuffleText), Alphabet::Binary()),
      "shuffle"));
  return *fsa;
}

const Fsa& ConcatFsa() {
  static const Fsa* fsa = new Fsa(OrDie(
      CompileStringFormula(Parse(kConcatText), Alphabet::Binary()),
      "concat"));
  return *fsa;
}

void BM_AcceptEquality(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string w(static_cast<size_t>(n), 'a');
  int64_t configs = 0;
  for (auto _ : state) {
    Result<AcceptStats> r = AcceptsWithStats(EqualityFsa(), {w, w});
    if (!r.ok() || !r->accepted) state.SkipWithError("acceptance failed");
    configs = r->configurations_visited;
  }
  state.counters["configs"] = static_cast<double>(configs);
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptEquality)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_AcceptManifold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string y = "ab";
  std::string x;
  for (int i = 0; i < n / 2; ++i) x += y;
  for (auto _ : state) {
    Result<bool> r = Accepts(ManifoldFsa(), {x, y});
    if (!r.ok() || !*r) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptManifold)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_AcceptShuffle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string y(static_cast<size_t>(n), 'a');
  std::string z(static_cast<size_t>(n), 'b');
  std::string x;
  for (int i = 0; i < n; ++i) x += "ab";
  for (auto _ : state) {
    Result<bool> r = Accepts(ShuffleFsa(), {x, y, z});
    if (!r.ok() || !*r) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptShuffle)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_AcceptConcat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string y(static_cast<size_t>(n), 'a');
  std::string z(static_cast<size_t>(n), 'b');
  std::string x = y + z;
  for (auto _ : state) {
    Result<bool> r = Accepts(ConcatFsa(), {x, y, z});
    if (!r.ok() || !*r) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptConcat)->RangeMultiplier(2)->Range(4, 64)->Complexity();

// Rejection is as cheap as acceptance (the configuration space bounds
// both).
void BM_RejectEquality(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string w(static_cast<size_t>(n), 'a');
  std::string v = w;
  v.back() = 'b';
  for (auto _ : state) {
    Result<bool> r = Accepts(EqualityFsa(), {w, v});
    if (!r.ok() || *r) state.SkipWithError("unexpected accept");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RejectEquality)->RangeMultiplier(2)->Range(8, 512)->Complexity();

// Kernel counterparts of the sweeps above: compile once, keep the
// scratch warm, and measure the per-tuple cost of the compiled path.
void BM_AcceptEqualityKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string w(static_cast<size_t>(n), 'a');
  AcceptKernel kernel =
      OrDie(AcceptKernel::Compile(EqualityFsa()), "equality kernel");
  AcceptScratch scratch;
  for (auto _ : state) {
    Result<AcceptStats> r = scratch.Accept(kernel, {w, w});
    if (!r.ok() || !r->accepted) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptEqualityKernel)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();

void BM_AcceptManifoldKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string y = "ab";
  std::string x;
  for (int i = 0; i < n / 2; ++i) x += y;
  AcceptKernel kernel =
      OrDie(AcceptKernel::Compile(ManifoldFsa()), "manifold kernel");
  AcceptScratch scratch;
  for (auto _ : state) {
    Result<AcceptStats> r = scratch.Accept(kernel, {x, y});
    if (!r.ok() || !r->accepted) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptManifoldKernel)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();

// DFA counterpart of the kernel sweep: subset-construct + minimise
// once, then run the threaded bytecode per tuple.
void BM_AcceptEqualityDfa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string w(static_cast<size_t>(n), 'a');
  DfaProgram program =
      OrDie(DfaProgram::Compile(EqualityFsa()), "equality dfa");
  DfaScratch scratch;
  for (auto _ : state) {
    Result<AcceptStats> r = program.Accept({w, w}, &scratch);
    if (!r.ok() || !r->accepted) state.SkipWithError("acceptance failed");
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AcceptEqualityDfa)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();

// --- E24: the machine-readable tier-vs-baseline batch comparison ---

using Clock = std::chrono::steady_clock;

struct JsonRow {
  std::string name;
  bool one_way = false;
  size_t tuples = 0;
  int reps = 0;
  double baseline_ns_per_tuple = 0;
  double kernel_ns_per_tuple = 0;
  double speedup = 0;
  // DFA tier: absent (dfa_compiled=false, zeros) when the machine is
  // outside the one-way move-deterministic class.
  bool dfa_compiled = false;
  double dfa_ns_per_tuple = 0;        // scalar bytecode interpreter
  double dfa_batch_ns_per_tuple = 0;  // 64-lane batch interpreter
  double dfa_speedup_vs_kernel = 0;   // kernel ns / batch-DFA ns
};

int64_t TimeNs(const std::function<void()>& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Measures one (automaton, batch) workload: the reference BFS per tuple
// against the warm compiled kernel, verdict-checked against each other.
JsonRow MeasureWorkload(const std::string& name, const Fsa& fsa,
                        const std::vector<std::vector<std::string>>& batch,
                        bool quick) {
  AcceptKernel kernel = OrDie(AcceptKernel::Compile(fsa), name.c_str());
  AcceptScratch scratch;
  std::vector<const std::vector<std::string>*> tuples;
  tuples.reserve(batch.size());
  for (const std::vector<std::string>& t : batch) tuples.push_back(&t);

  // Parity first: the kernel and the oracle must agree on every tuple.
  AcceptBatchResult warm = AcceptBatch(kernel, tuples, &scratch);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!warm.statuses[i].ok()) {
      std::fprintf(stderr, "%s: tuple %zu failed: %s\n", name.c_str(), i,
                   warm.statuses[i].ToString().c_str());
      std::abort();
    }
    Result<bool> oracle = Accepts(fsa, batch[i]);
    if (!oracle.ok() || *oracle != (warm.accepted[i] != 0)) {
      std::fprintf(stderr, "%s: kernel/oracle mismatch on tuple %zu\n",
                   name.c_str(), i);
      std::abort();
    }
  }

  // Calibrate rep count so the baseline runs long enough to time.
  int64_t one_pass = TimeNs([&] {
    for (const std::vector<std::string>& t : batch) {
      if (!Accepts(fsa, t).ok()) std::abort();
    }
  });
  int64_t target_ns = quick ? 20'000'000 : 400'000'000;
  int reps = static_cast<int>(target_ns / std::max<int64_t>(one_pass, 1));
  reps = std::max(1, std::min(reps, 1000));

  int64_t baseline_ns = TimeNs([&] {
    for (int r = 0; r < reps; ++r) {
      for (const std::vector<std::string>& t : batch) {
        benchmark::DoNotOptimize(Accepts(fsa, t));
      }
    }
  });
  int64_t kernel_ns = TimeNs([&] {
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(AcceptBatch(kernel, tuples, &scratch));
    }
  });

  JsonRow row;
  row.name = name;
  row.one_way = kernel.one_way();
  row.tuples = batch.size();
  row.reps = reps;
  double per = static_cast<double>(reps) * static_cast<double>(batch.size());
  row.baseline_ns_per_tuple = static_cast<double>(baseline_ns) / per;
  row.kernel_ns_per_tuple = static_cast<double>(kernel_ns) / per;
  row.speedup = row.baseline_ns_per_tuple / row.kernel_ns_per_tuple;

  // The DFA tier, where the machine admits it: verdict-check both
  // interpreters against the oracle verdicts the kernel already
  // matched, then time the scalar chain and the 64-lane batch.
  Result<DfaProgram> dfa = DfaProgram::Compile(fsa);
  if (dfa.ok()) {
    DfaScratch dscratch;
    AcceptBatchResult check = AcceptBatch(*dfa, tuples, &dscratch);
    for (size_t i = 0; i < batch.size(); ++i) {
      Result<AcceptStats> scalar = dfa->Accept(batch[i], &dscratch);
      if (!check.statuses[i].ok() || !scalar.ok() ||
          (check.accepted[i] != 0) != (warm.accepted[i] != 0) ||
          scalar->accepted != (warm.accepted[i] != 0)) {
        std::fprintf(stderr, "%s: dfa/kernel mismatch on tuple %zu\n",
                     name.c_str(), i);
        std::abort();
      }
    }
    int64_t dfa_scalar_ns = TimeNs([&] {
      for (int r = 0; r < reps; ++r) {
        for (const std::vector<std::string>& t : batch) {
          benchmark::DoNotOptimize(dfa->Accept(t, &dscratch));
        }
      }
    });
    int64_t dfa_batch_ns = TimeNs([&] {
      for (int r = 0; r < reps; ++r) {
        benchmark::DoNotOptimize(AcceptBatch(*dfa, tuples, &dscratch));
      }
    });
    row.dfa_compiled = true;
    row.dfa_ns_per_tuple = static_cast<double>(dfa_scalar_ns) / per;
    row.dfa_batch_ns_per_tuple = static_cast<double>(dfa_batch_ns) / per;
    row.dfa_speedup_vs_kernel =
        row.kernel_ns_per_tuple / row.dfa_batch_ns_per_tuple;
  }
  return row;
}

int RunJsonMode(const std::string& path, bool quick) {
  Alphabet sigma = Alphabet::Binary();
  Rng rng(20260805);
  const int len = quick ? 32 : 96;
  const size_t count = quick ? 32 : 128;

  // Workloads mirror what σ_A sees when filtering a relation: 1/4
  // accepting tuples, 1/4 rejecting on the last symbol (full scan), and
  // 1/2 independent random tuples (reject within a few symbols, the
  // common case).  Both one-way formulae span three tapes, so the
  // reference BFS pays a cubic Π(|w_i|+2)·|Q| visited allocation and
  // per-tuple setup on every tuple while the kernel only pays for the
  // O(n) configurations actually reached.  (The 2-tape pair-equality
  // sweeps above keep the quadratic floor case visible: there the BFS
  // is visit-bound, not allocation-bound, and the gap is smaller.)
  std::vector<std::vector<std::string>> equality3;
  for (size_t i = 0; i < count; ++i) {
    std::string w = rng.String(sigma, len / 2, len);
    std::string u = w, v = w;
    if (i % 4 == 1) {
      v.back() = v.back() == 'a' ? 'b' : 'a';  // reject on the last symbol
    } else if (i % 4 > 1) {
      u = rng.String(sigma, static_cast<int>(w.size()),
                     static_cast<int>(w.size()));
      v = rng.String(sigma, static_cast<int>(w.size()),
                     static_cast<int>(w.size()));
    }
    equality3.push_back({w, u, v});
  }
  // Concatenation checks run over longer strings: filters over derived
  // columns (x = y·z) typically see the whole row, and the baseline's
  // cubic visited bitmap dominates its cost well before n = 192.
  const int cat_len = quick ? 32 : 192;
  std::vector<std::vector<std::string>> concat;
  for (size_t i = 0; i < count; ++i) {
    std::string y = rng.String(sigma, cat_len / 4, cat_len / 2);
    std::string z = rng.String(sigma, cat_len / 4, cat_len / 2);
    std::string x = y + z;
    if (i % 4 == 1) {
      x.back() = x.back() == 'a' ? 'b' : 'a';
    } else if (i % 4 > 1) {
      x = rng.String(sigma, static_cast<int>(x.size()),
                     static_cast<int>(x.size()));
    }
    concat.push_back({x, y, z});
  }
  // Two-way workload: the manifold formula rewinds tape y, so the
  // kernel has to run the general BFS (scratch-reused, indexed).
  std::vector<std::vector<std::string>> manifold;
  const int rings = quick ? 8 : 24;
  for (size_t i = 0; i < count; ++i) {
    std::string y = "ab";
    std::string x;
    for (int r = 0; r < rings; ++r) x += y;
    if (i % 4 == 1) {
      x += "a";  // not a whole number of rings: rejects at the end
    } else if (i % 4 > 1) {
      x = rng.String(sigma, static_cast<int>(x.size()),
                     static_cast<int>(x.size()));
    }
    manifold.push_back({x, y});
  }

  // DFA-tier showcases: the 2-tape pair-equality scanner and a
  // single-tape substring-membership machine.  Both are one-way and
  // move-deterministic, so they run on all three tiers; membership is
  // the regex-reachable workload (LIKE '%abab%') where the batch
  // interpreter's shared rank arena pays off most.
  std::vector<std::vector<std::string>> equality;
  for (size_t i = 0; i < count; ++i) {
    std::string w = rng.String(sigma, len / 2, len);
    std::string v = w;
    if (i % 4 == 1) {
      v.back() = v.back() == 'a' ? 'b' : 'a';
    } else if (i % 4 > 1) {
      v = rng.String(sigma, static_cast<int>(w.size()),
                     static_cast<int>(w.size()));
    }
    equality.push_back({w, v});
  }
  const Fsa member_fsa = MakeMember(sigma, "abab");
  std::vector<std::vector<std::string>> member;
  for (size_t i = 0; i < count; ++i) {
    std::string w = rng.String(sigma, len, 2 * len);
    if (i % 4 == 0) w += "abab";  // guaranteed hit at the end
    member.push_back({w});
  }

  std::vector<JsonRow> rows;
  rows.push_back(
      MeasureWorkload("equality_oneway", EqualityFsa(), equality, quick));
  rows.push_back(
      MeasureWorkload("equality3_oneway", Equality3Fsa(), equality3, quick));
  rows.push_back(
      MeasureWorkload("member1_oneway", member_fsa, member, quick));
  rows.push_back(
      MeasureWorkload("concat_oneway", ConcatFsa(), concat, quick));
  rows.push_back(
      MeasureWorkload("manifold_twoway", ManifoldFsa(), manifold, quick));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"experiment\": \"E24_acceptance_kernel\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"one_way\": "
        << (r.one_way ? "true" : "false") << ", \"tuples\": " << r.tuples
        << ", \"reps\": " << r.reps << ", \"baseline_ns_per_tuple\": "
        << static_cast<int64_t>(r.baseline_ns_per_tuple)
        << ", \"kernel_ns_per_tuple\": "
        << static_cast<int64_t>(r.kernel_ns_per_tuple)
        << ", \"baseline_tuples_per_s\": "
        << static_cast<int64_t>(1e9 / r.baseline_ns_per_tuple)
        << ", \"kernel_tuples_per_s\": "
        << static_cast<int64_t>(1e9 / r.kernel_ns_per_tuple)
        << ", \"speedup\": "
        << static_cast<double>(static_cast<int64_t>(r.speedup * 100)) / 100
        << ", \"dfa_compiled\": " << (r.dfa_compiled ? "true" : "false");
    if (r.dfa_compiled) {
      out << ", \"dfa_ns_per_tuple\": "
          << static_cast<int64_t>(r.dfa_ns_per_tuple)
          << ", \"dfa_batch_ns_per_tuple\": "
          << static_cast<int64_t>(r.dfa_batch_ns_per_tuple)
          << ", \"dfa_tuples_per_s\": "
          << static_cast<int64_t>(1e9 / r.dfa_batch_ns_per_tuple)
          << ", \"dfa_speedup_vs_kernel\": "
          << static_cast<double>(
                 static_cast<int64_t>(r.dfa_speedup_vs_kernel * 100)) /
                 100;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    if (r.dfa_compiled) {
      std::printf("%-18s one_way=%d  baseline %8.0f ns/tuple  kernel %8.0f "
                  "ns/tuple  dfa %6.0f/%6.0f ns/tuple (scalar/batch)  "
                  "speedup %.2fx  dfa-vs-kernel %.2fx\n",
                  r.name.c_str(), r.one_way ? 1 : 0, r.baseline_ns_per_tuple,
                  r.kernel_ns_per_tuple, r.dfa_ns_per_tuple,
                  r.dfa_batch_ns_per_tuple, r.speedup,
                  r.dfa_speedup_vs_kernel);
    } else {
      std::printf("%-18s one_way=%d  baseline %8.0f ns/tuple  kernel %8.0f "
                  "ns/tuple  speedup %.2fx  (dfa: not compiled)\n",
                  r.name.c_str(), r.one_way ? 1 : 0, r.baseline_ns_per_tuple,
                  r.kernel_ns_per_tuple, r.speedup);
    }
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace strdb

int main(int argc, char** argv) {
  std::string json_path;
  bool json = false;
  bool quick = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      json_path = "BENCH_accept.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (json) return strdb::bench::RunJsonMode(json_path, quick);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
