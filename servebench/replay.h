#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace servebench {

// One per-layer metric of the traced run, with the count or base it
// was computed from.
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

struct ReplayOptions {
  std::string workdir;     // the replay's own store directory goes here
  std::string trace_path;  // spans are written here at the end
  // From the served run: the end-to-end median of the commands the
  // replay repeats (for tcp.residual_us) and the open-loop writer's
  // lateness p99.
  double served_replayed_p50_ms = 0;
  double served_late_p99_ms = 0;
  int64_t served_inserts = 0;
};

struct ReplayResult {
  std::vector<LayerMetric> metrics;
  // Counts of the traced pass that a single connection makes exactly
  // repeatable for a seed.
  int64_t commits = 0;
  int64_t pager_hits = 0;
  int64_t pager_misses = 0;
  int64_t rows_out = 0;
  int64_t fsa_steps = 0;
  int64_t spans = 0;
  std::vector<std::string> problems;
};

// Replays the workload's seeded command stream in-process, calling each
// layer's public entry points in the order CommandProcessor's
// HandleQuery/HandleInsert call them, once with spans off and once with
// spans on, and derives the per-layer metrics from the spans.
ReplayResult RunReplay(const WorkloadSpec& spec, const ReplayOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
