#ifndef STRDB_ENGINE_REWRITE_H_
#define STRDB_ENGINE_REWRITE_H_

#include "core/result.h"
#include "relational/algebra.h"
#include "relational/relation.h"

namespace strdb {

struct CostPlannerContext;

// Which passes of the rewrite pipeline run (in the order listed).
struct RewriteOptions {
  // σ_A(E ∪ F) → σ_A(E) ∪ σ_A(F), and σ_A(E × F) → σ_{A'}(E) × F when
  // every tape of F is disregarded by A (pinned to ⊢ and never moved):
  // selections sink towards the data they actually read.
  bool pushdown_selections = true;
  // Lemma 3.1 at plan time: a product factor that is a single-tuple
  // database relation is folded into the automaton (fsa/specialize),
  // shrinking both the σ input and the machine.
  bool specialize_constants = true;
  // Products are reordered by the cost-based DP planner
  // (engine/planner.h) — statistics-backed cardinalities, DFA-derived
  // σ_A selectivities, tape permutation for products under a σ — with a
  // projection restoring the original column order.  Needs
  // `cost_planner`; without it, or when the DP pass fails, products keep
  // their written order.
  bool reorder_products = true;
  // Hash-consing over the shared AST: structurally identical subtrees
  // are unified into one node, which the executor then evaluates once.
  bool common_subexpressions = true;
  // The reordering pass's statistics and cost model.  Not owned; must
  // outlive the RewriteExpr call.
  const CostPlannerContext* cost_planner = nullptr;
};

// Applies the pipeline.  The database supplies constant relations
// (specialisation).  Rewrites never change db(E↓l) and preserve
// IsFinitelyEvaluable(); a pass whose output would violate either guard
// is skipped wholesale.
Result<AlgebraExpr> RewriteExpr(const AlgebraExpr& expr, const Database& db,
                                const RewriteOptions& rewrites = {});

}  // namespace strdb

#endif  // STRDB_ENGINE_REWRITE_H_
