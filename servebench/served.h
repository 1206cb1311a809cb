#ifndef SERVEBENCH_SERVED_H_
#define SERVEBENCH_SERVED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace servebench {

// Latency recorded for a failed or refused command: it misses every
// latency limit, so it sorts above every real sample.
constexpr double kMissMs = 1e6;

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

struct ServedOptions {
  std::string server_binary;
  std::string workdir;  // store directories and server logs go here
  double seconds = 20;
};

// Everything the untraced, served run measured and checked.
struct ServedResult {
  std::vector<double> setup_s;   // one per set-up repetition
  std::vector<double> query_ms;  // client-observed, kMissMs on failure
  // The same latencies per reader connection, in stream order.
  std::vector<std::vector<double>> stream_ms;
  std::vector<double> insert_ms; // from the due time, kMissMs on failure
  std::vector<double> late_ms;   // how late each insert was sent
  int64_t queries_attempted = 0;
  int64_t queries_failed = 0;
  int64_t inserts_attempted = 0;
  int64_t inserts_failed = 0;
  double window_s = 0;
  int64_t peak_rss_kb = 0;
  double space_amp = 0;           // store bytes / logical bytes; 0 in memory
  int64_t heap_bytes = 0;         // spilled heap files (scan_filters)
  int64_t pager_cap = 0;          // --pager-cap given to the serving server
  int64_t rejected_admission = -1;
  int64_t fresh_queries = 0;      // fresh-needle queries sent
  int64_t fresh_distinct = 0;     // ... with a text not seen before
  int64_t distinct_texts = 0;     // texts whose first answer was checked
  uint64_t stream_digest = 0;     // first 1000 commands of every stream
  uint64_t answer_digest = 0;     // first answers of the fixed texts
  std::vector<std::string> problems;  // failed answers and checks
};

// Spawns strdb_server, loads the generated catalog, drives the
// workload's connections for `seconds` through StrdbClient, and checks
// every answer it timed.
ServedResult RunServed(const WorkloadSpec& spec, const ServedOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_SERVED_H_
