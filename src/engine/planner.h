#ifndef STRDB_ENGINE_PLANNER_H_
#define STRDB_ENGINE_PLANNER_H_

#include <vector>

#include "core/result.h"
#include "engine/cost.h"
#include "relational/algebra.h"

namespace strdb {

// Rebuilds `fsa` with its tapes permuted: tape i of the result is tape
// `perm[i]` of the input (`perm` is a permutation of 0..k-1).  Tapes
// are symmetric in the k-FSA model, so the result accepts exactly the
// correspondingly permuted tuples — the piece that lets the planner
// reorder product factors *under* a σ without changing what it selects.
Result<Fsa> PermuteTapes(const Fsa& fsa, const std::vector<int>& perm);

// Selinger-style bitset DP over product factors: finds the left-deep
// order minimising the summed intermediate materialisation cost
// Σ_prefix Π rows, given each factor's estimated cardinality.  Returns
// `order` with order[rank] = factor index; identity when fewer than two
// factors or more than kMaxDpFactors (the 2^n table stops paying for
// itself long before exhaustive search stops fitting).
inline constexpr int kMaxDpFactors = 12;
std::vector<int> DpOrderFactors(const std::vector<double>& rows,
                                const CostModel& model);

// The rewrite pipeline's product-reordering pass: walks the expression,
// estimates factor cardinalities from statistics (EstimateRows), orders
// every product — including products directly under a σ, via
// PermuteTapes — by DP, and restores the original column order with a
// projection.  Answer-preserving by construction; the rewrite pipeline
// additionally guards arity and finite evaluability.
Result<AlgebraExpr> CostBasedReorder(const AlgebraExpr& expr,
                                     const CostPlannerContext& ctx);

}  // namespace strdb

#endif  // STRDB_ENGINE_PLANNER_H_
