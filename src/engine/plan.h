#ifndef STRDB_ENGINE_PLAN_H_
#define STRDB_ENGINE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fsa/fsa.h"
#include "relational/algebra.h"
#include "relational/tuple_source.h"

namespace strdb {

// Execution counters of one plan operator, filled in while the plan
// runs.  `fsa_steps` counts configurations visited by σ_A acceptance
// checks; cache counters refer to the engine-wide artifact cache.
struct OperatorStats {
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  int64_t fsa_steps = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t memo_hits = 0;  // result reuses of this (shared) subtree
  // Time inside the operator, and the part of it not spent evaluating
  // a child (a memo hit evaluates nothing).  The self times of a plan
  // sum to its root's wall time.
  int64_t wall_ns = 0;
  int64_t self_ns = 0;
};

// One operator of a physical plan.  Plans are DAGs: subtrees shared in
// the algebra AST (or unified by the CSE rewrite) lower to a single
// PlanNode, which the executor evaluates once.
struct PlanNode {
  enum class Op : uint8_t {
    kScan,            // a database relation
    kPagedScan,       // a spilled (out-of-core) relation, read page-at-a-time
    kDomain,          // Σ^l, or Σ* read as Σ^truncation when sigma_l < 0
    kUnion,
    kDifference,
    kProduct,
    kProject,
    kFilterSelect,    // σ_A as a per-tuple acceptance filter
    kGenerateSelect,  // σ_A(F1×…×Fm×(Σ*)^n) run as a generator
    kRestrict,        // length-<=l filter (E ∩ (Σ*)^m at ↓l)
  };

  Op op = Op::kScan;
  int arity = 0;
  std::string relation;            // kScan, kPagedScan
  // kPagedScan: the out-of-core relation.  A FilterSelect parent streams
  // its batches through acceptance without materialising; any other
  // parent materialises it on first Eval.
  std::shared_ptr<const TupleSource> source;
  int sigma_l = -1;                // kDomain
  std::vector<int> columns;        // kProject
  // The two select ops: the σ node's automaton handle, and its machine.
  std::shared_ptr<const KeyedFsa> keyed_fsa;
  std::shared_ptr<const Fsa> fsa;
  // Structural cache key of `fsa`, carried from the algebra.
  const std::string& fsa_key() const { return keyed_fsa->key(); }

  // kGenerateSelect: children are the materialised factors, in column
  // order; factor_offsets[i] is the first output column of children[i];
  // free_columns lists the Σ* columns the generator fills in.
  std::vector<int> factor_offsets;
  std::vector<int> free_columns;

  std::vector<std::shared_ptr<PlanNode>> children;

  double est_rows = 0;  // planner cardinality estimate
  OperatorStats stats;  // filled by the executor

  // One-word operator name as rendered by Explain.
  std::string OpName() const;
};

// Multi-line, indentation-structured rendering of a plan ("explain").
// With `with_stats`, each line is annotated with the executor's actual
// counters; otherwise only the planner estimates are shown.
std::string ExplainPlan(const PlanNode& root, bool with_stats = false);

// Execution-wide statistics surfaced through the Query facade.  On a
// failed execution (budget exhaustion included) the engine still fills
// these in with whatever the partial run accumulated, so a degraded
// query remains observable: the plan annotations show exactly which
// operator burnt the budget.
struct ExecStats {
  // One row per plan operator (DAG order, shared nodes once): the
  // planner's cardinality estimate next to the executed row count —
  // the explain surface's `est=… act=…`, and the planner differential
  // target's estimate-sanity oracle.
  struct EstActRow {
    std::string op;
    double est = 0;
    int64_t act = 0;
  };

  int64_t wall_ns = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t fsa_steps = 0;   // acceptance configurations visited
  int64_t memo_hits = 0;   // shared-subtree result reuses
  int64_t rows_out = 0;    // rows of the final result (0 on error)
  // Snapshot of the query's ResourceBudget account; zero when the query
  // ran without a budget.
  int64_t budget_steps_used = 0;
  int64_t budget_rows_used = 0;
  int64_t budget_cached_bytes_used = 0;
  std::string plan;  // ExplainPlan(root, /*with_stats=*/true)
  std::vector<EstActRow> operators;

  std::string ToString() const;
};

}  // namespace strdb

#endif  // STRDB_ENGINE_PLAN_H_
