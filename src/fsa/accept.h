#ifndef STRDB_FSA_ACCEPT_H_
#define STRDB_FSA_ACCEPT_H_

#include <span>
#include <string>
#include <vector>

#include "core/budget.h"
#include "core/result.h"
#include "fsa/fsa.h"

namespace strdb {

struct AcceptOptions {
  // Optional query-wide account; every configuration visited by the BFS
  // is charged as one search step.
  ResourceBudget* budget = nullptr;
};

// Decides whether `fsa` accepts the input tuple `strings` (one string per
// tape), by breadth-first search over the configuration graph — the
// algorithm of Theorem 3.3, polynomial in Π(|w_i|+2) for a fixed
// automaton.  Acceptance is the paper's: some reachable configuration is
// in a final state and has no successor.
//
// Fails if the tuple arity mismatches, a string leaves the alphabet, or
// the attached budget runs out mid-search.
Result<bool> Accepts(const Fsa& fsa, const std::vector<std::string>& strings,
                     const AcceptOptions& options = {});

// Statistics-reporting variant used by the engine, benches and tests.
struct AcceptStats {
  bool accepted = false;
  int64_t configurations_visited = 0;
  int64_t transitions_tried = 0;
};
Result<AcceptStats> AcceptsWithStats(const Fsa& fsa,
                                     const std::vector<std::string>& strings,
                                     const AcceptOptions& options = {});

// Batch acceptance, the same shape for every tier (fsa/acceptor): one
// verdict (or typed error) per input tuple plus batch-aggregated search
// stats.  Tuple i's verdict lands in accepted[i] iff statuses[i] is OK.
struct AcceptBatchResult {
  std::vector<Status> statuses;
  std::vector<char> accepted;
  int64_t configurations_visited = 0;
  int64_t transitions_tried = 0;
};

// The batch loop of a decider that takes one tuple at a time:
// `accept_one(tuple)` returns a Result<AcceptStats>.
template <typename AcceptOne>
AcceptBatchResult AcceptEach(
    std::span<const std::vector<std::string>* const> tuples,
    AcceptOne&& accept_one) {
  AcceptBatchResult out;
  out.statuses.resize(tuples.size());
  out.accepted.assign(tuples.size(), 0);
  for (size_t i = 0; i < tuples.size(); ++i) {
    Result<AcceptStats> r = accept_one(*tuples[i]);
    if (!r.ok()) {
      out.statuses[i] = r.status();
      continue;
    }
    out.accepted[i] = r->accepted ? 1 : 0;
    out.configurations_visited += r->configurations_visited;
    out.transitions_tried += r->transitions_tried;
  }
  return out;
}

}  // namespace strdb

#endif  // STRDB_FSA_ACCEPT_H_
