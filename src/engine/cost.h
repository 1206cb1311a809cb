#ifndef STRDB_ENGINE_COST_H_
#define STRDB_ENGINE_COST_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/stats.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "relational/stats.h"

namespace strdb {

// Per-tuple cost constants (nanoseconds) of DpOrderFactors: a scanned
// factor tuple and a materialised product row.  Absolute accuracy is
// not the point — plan choices only depend on the ratio.
struct CostModel {
  double tuple_build_ns = 400;  // product materialisation, per row
  double scan_ns = 120;         // per scanned tuple
};

// Everything the cost-based planner needs, bundled so the rewrite
// pipeline can carry it as one optional pointer.  All pointers are
// unowned and may be null (a relation nothing describes estimates 0
// rows; no feedback or density memo means a fresh model per call); the
// context must outlive the RewriteExpr call.
struct CostPlannerContext {
  const Database* db = nullptr;
  const PagedSet* paged = nullptr;
  // Supplied statistics (EvalOptions::stats; in serving, the durable
  // store's spilled relations).  An entry here wins over `stats`.
  const StatsMap* stored_stats = nullptr;
  // Summaries of the Database's own relations, computed on demand.
  StatsCatalog* stats = nullptr;
  SelectivityFeedback* feedback = nullptr;
  DensityCache* densities = nullptr;
  int truncation = 4;
  CostModel model;
};

// A crude per-column generative model of an expression's output,
// feeding the acceptance-density walk: character weights by byte value
// and an expected string length.
struct ColumnDist {
  std::vector<double> char_weight;  // [byte]; empty = uniform over Σ
  double expected_len = 2.0;
};

// Per-column distributions of db(E↓l)'s output, derived from relation
// statistics where available and flat defaults elsewhere.
std::vector<ColumnDist> EstimateColumnDists(const AlgebraExpr& expr,
                                            const CostPlannerContext& ctx);

// EstimateRows results by expression node, for a caller that estimates
// every node of one expression (lowering a plan): each node is then
// estimated once, not once per ancestor.  Keyed by node identity, so the
// expression must outlive the memo.
using RowEstimateMemo = std::unordered_map<const AlgebraExpr::Node*, double>;

// Statistics-backed cardinality estimate for db(E↓l).  Always finite
// and non-negative.  A relation leaf reads its statistics, else its
// paged source's tuple count, else estimates 0 rows; Σ*/Σ^l leaves count
// Σ^{<=l} exactly.
double EstimateRows(const AlgebraExpr& expr, const CostPlannerContext& ctx,
                    RowEstimateMemo* memo = nullptr);

// σ_A selectivity in [0, 1]: the DFA acceptance density under the
// column model, blended with the adaptive feedback for the automaton's
// key when any exists.  Machines outside the DFA tier (or past its caps)
// fall back to the flat 0.25 guess before blending.
double EstimateSelectivity(const KeyedFsa& fsa,
                           const std::vector<ColumnDist>& dists,
                           const CostPlannerContext& ctx);

}  // namespace strdb

#endif  // STRDB_ENGINE_COST_H_
