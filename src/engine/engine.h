#ifndef STRDB_ENGINE_ENGINE_H_
#define STRDB_ENGINE_ENGINE_H_

#include <memory>
#include <string>

#include "core/result.h"
#include "core/thread_pool.h"
#include "engine/cache.h"
#include "engine/plan.h"
#include "engine/rewrite.h"
#include "engine/stats.h"
#include "relational/algebra.h"
#include "relational/relation.h"

namespace strdb {

struct EngineOptions {
  // Run the rewrite pipeline (engine/rewrite) before lowering.
  bool enable_rewrites = true;
  RewriteOptions rewrites;
  // Reuse compiled σ_A artifacts (specialised automata, bounded
  // generations, acceptors) across selections and across Execute calls.
  bool enable_cache = true;
  // Byte bound of the artifact cache (LRU-evicted; <= 0 picks the
  // default).  The bound holds at all times, not just between queries.
  int64_t cache_max_bytes = ArtifactCache::kDefaultMaxBytes;
  // Filter-select inputs of at least `parallel_threshold` tuples are
  // partitioned across the thread pool; with one thread every input
  // runs on the calling thread.
  int num_threads = 0;  // <= 0 picks hardware_concurrency()
  int64_t parallel_threshold = 32;
};

// Planning + execution engine for the alignment algebra: lowers an
// AlgebraExpr to a physical-plan DAG (engine/plan), optimises it
// (engine/rewrite), and runs it with shared-subtree memoisation, a
// process-wide compiled-artifact cache and parallel acceptance checks.
// Agrees with EvalAlgebra on every expression (engine_test property-tests
// the equivalence); only resource-budget *errors* can surface at
// different points.
//
// Thread safe: Execute keeps per-call state on the stack, the artifact
// cache locks internally.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  // Evaluates db(E↓l) like EvalAlgebra(expr, db, options).  When `stats`
  // is non-null it receives wall time, cache counters and the executed
  // plan annotated with per-operator counters — also on failure, where
  // the partial counters show how far the query got before the error
  // (a budget-exhausted query is still fully observable).
  Result<StringRelation> Execute(const AlgebraExpr& expr, const Database& db,
                                 const EvalOptions& options,
                                 ExecStats* stats = nullptr);

  // The plan Execute would run, rendered with planner estimates only.
  Result<std::string> Explain(const AlgebraExpr& expr, const Database& db,
                              const EvalOptions& options);

  const EngineOptions& options() const { return options_; }
  ArtifactCache& cache() { return cache_; }
  StatsCatalog& stats_catalog() { return stats_catalog_; }
  SelectivityFeedback& feedback() { return feedback_; }
  DensityCache& densities() { return densities_; }

  // The process-wide engine instance the Query facade routes through.
  static Engine& Shared();

 private:
  // Lowers `expr` (after rewrites) to a plan DAG; shared AST subtrees
  // lower to one shared PlanNode.
  Result<std::shared_ptr<PlanNode>> Plan(const AlgebraExpr& expr,
                                         const Database& db,
                                         const EvalOptions& options);

  const EngineOptions options_;
  ArtifactCache cache_;
  ThreadPool pool_;
  // Cost-planner state: epoch-cached relation statistics, adaptive
  // selectivity corrections, and memoised acceptance densities.
  StatsCatalog stats_catalog_;
  SelectivityFeedback feedback_;
  DensityCache densities_;
};

}  // namespace strdb

#endif  // STRDB_ENGINE_ENGINE_H_
