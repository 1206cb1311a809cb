// servebench: the served-query benchmark.  Drives a strdb_server child
// process through StrdbClient over loopback with one seeded workload,
// checks every answer it timed, and (with --trace 1) replays the same
// command stream in-process with a span around each layer's entry
// point.  servebench/run.py builds it and is the usual way to run it;
// see servebench/README.md for the workloads and metrics.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --server PATH --workdir DIR [--trace-out FILE]
//
// Prints a ledger of every metric, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 when an answer or a durability check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "replay.h"
#include "served.h"
#include "workload.h"

namespace servebench {
namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "servebench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->server.empty() &&
         !args->workdir.empty() && args->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --workdir DIR [--trace-out "
                 "FILE]\n");
    return 2;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "servebench: refusing to report from a build without "
                 "NDEBUG and optimisation\n");
    return 3;
  }
  strdb::Result<WorkloadSpec> spec = MakeWorkload(args.workload, args.seed);
  if (!spec.ok()) {
    std::fprintf(stderr, "servebench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  ServedOptions served_options;
  served_options.server_binary = args.server;
  served_options.workdir = args.workdir;
  served_options.seconds = args.seconds;
  ServedResult served = RunServed(*spec, served_options);

  const double query_p50 = Percentile(served.query_ms, 0.5);
  const double query_p99 = Percentile(served.query_ms, 0.99);
  const int64_t queries_ok = served.queries_attempted - served.queries_failed;
  const int64_t attempted = served.queries_attempted + served.inserts_attempted;
  const int64_t failed = served.queries_failed + served.inserts_failed;
  std::vector<Metric> e2e = {
      {"query_p50_ms", query_p50, "ms"},
      {"query_p99_ms", query_p99, "ms"},
      {"queries_per_s",
       served.window_s > 0 ? static_cast<double>(queries_ok) / served.window_s
                           : 0,
       "1/s"},
      {"setup_s", Percentile(served.setup_s, 0.5), "s"},
      {"server_rss_mb", static_cast<double>(served.peak_rss_kb) / 1024, "MB"},
  };

  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(spec->seed),
              args.seconds, args.trace ? 1 : 0);
  if (spec->spill) {
    std::printf("sizes: heap %lld B spilled, --pager-cap %lld B\n",
                static_cast<long long>(served.heap_bytes),
                static_cast<long long>(served.pager_cap));
  }
  for (const Metric& m : e2e) {
    std::printf("e2e %-22s %12.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("e2e %-22s %12zu queries in %.3f s (%lld fresh, %lld distinct)\n",
              "query_samples", served.query_ms.size(), served.window_s,
              static_cast<long long>(served.fresh_queries),
              static_cast<long long>(served.fresh_distinct));
  if (spec->insert_rate_per_s > 0) {
    std::printf("e2e %-22s %12.4f ms (%zu inserts, open loop at %g/s)\n",
                "insert_p50_ms", Percentile(served.insert_ms, 0.5),
                served.insert_ms.size(), spec->insert_rate_per_s);
    std::printf("e2e %-22s %12.4f ms\n", "insert_p99_ms",
                Percentile(served.insert_ms, 0.99));
  }
  if (spec->durable) {
    std::printf("e2e %-22s %12.4f (store bytes / logical tuple bytes)\n",
                "space_amp", served.space_amp);
  }
  std::printf("e2e %-22s %12.6f (%lld failed of %lld commands)\n",
              "error_rate",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  std::printf("guard server.rejected_admission %lld\n",
              static_cast<long long>(served.rejected_admission));
  std::printf("guard loadgen.late_ms_p99 %.4f ms\n",
              Percentile(served.late_ms, 0.99));
  std::printf("determinism stream_digest=%016llx answer_digest=%016llx "
              "checked_texts=%lld\n",
              static_cast<unsigned long long>(served.stream_digest),
              static_cast<unsigned long long>(served.answer_digest),
              static_cast<long long>(served.distinct_texts));

  std::vector<std::string> problems = served.problems;
  if (served.rejected_admission != 0) {
    problems.push_back("server.rejected_admission = " +
                       std::to_string(served.rejected_admission));
  }
  std::vector<Metric> reported = e2e;
  if (args.trace && problems.empty()) {
    ReplayOptions replay_options;
    replay_options.workdir = args.workdir;
    replay_options.trace_path = args.trace_out.empty()
                                    ? args.workdir + "/trace.jsonl"
                                    : args.trace_out;
    // The served latencies of the commands the replay repeats: the
    // first replay_queries / readers of every connection's stream.
    std::vector<double> replayed;
    const size_t per_stream =
        static_cast<size_t>(spec->replay_queries / spec->readers);
    for (const std::vector<double>& ms : served.stream_ms) {
      replayed.insert(replayed.end(), ms.begin(),
                      ms.begin() + std::min(per_stream, ms.size()));
    }
    replay_options.served_replayed_p50_ms = Percentile(replayed, 0.5);
    replay_options.served_late_p99_ms = Percentile(served.late_ms, 0.99);
    replay_options.served_inserts =
        static_cast<int64_t>(served.late_ms.size());
    ReplayResult replay = RunReplay(*spec, replay_options);
    problems.insert(problems.end(), replay.problems.begin(),
                    replay.problems.end());
    reported.clear();
    for (const LayerMetric& m : replay.metrics) {
      std::printf("layer %-32s %14.4f %-5s (%s)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
      reported.push_back({m.name, m.value, m.unit});
    }
    std::printf("determinism storage.commits=%lld pager_hits=%lld "
                "pager_misses=%lld rows_out=%lld fsa_steps=%lld spans=%lld\n",
                static_cast<long long>(replay.commits),
                static_cast<long long>(replay.pager_hits),
                static_cast<long long>(replay.pager_misses),
                static_cast<long long>(replay.rows_out),
                static_cast<long long>(replay.fsa_steps),
                static_cast<long long>(replay.spans));
    std::printf("trace written to %s\n", replay_options.trace_path.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("FAILED %s\n", p.c_str());
  }
  const bool correct = problems.empty() && attempted > 0;
  std::printf("%s\n", JsonLine(correct, std::max<int64_t>(attempted, 1),
                               failed, reported)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
