#ifndef STRDB_CALCULUS_QUERY_H_
#define STRDB_CALCULUS_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "calculus/formula.h"
#include "calculus/translate.h"
#include "core/budget.h"
#include "core/result.h"
#include "engine/plan.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "safety/limitation.h"

namespace strdb {

// How Query evaluates its algebra plan.
struct QueryOptions {
  // Route through the shared execution engine (rewrites, artifact cache,
  // parallel selection).  Off = the naïve tree-walking evaluator; the
  // two agree on every query, so this is a debugging/benchmarking knob.
  bool use_engine = true;
  // When non-null, receives wall time, cache counters and the executed
  // plan (engine route only; untouched on the naïve route).
  ExecStats* stats = nullptr;
  // Per-query resource limits (0 = unlimited).  When any limit is set, a
  // ResourceBudget is opened for the execution and every σ_A search
  // step, operator output row and cold cache insert is charged against
  // it; an exhausted budget surfaces as kResourceExhausted with partial
  // ExecStats.  Applies to both routes.
  ResourceLimits limits;
  // Optional parent account (not owned; must outlive the execution).
  // When set, a per-query ResourceBudget is always opened (even with
  // empty `limits`) as a child of it, so the query's in-flight usage
  // rolls up into — and on completion is released from — the shared
  // account.  The server threads its global admission budget here.
  ResourceBudget* parent_budget = nullptr;
  // Spilled (out-of-core) relations, by name, disjoint from the
  // database's inline relations (not owned; must outlive the
  // execution).  Limit inference reads their stored max string length;
  // evaluation scans them page-at-a-time.  The shell/server thread
  // CatalogStore::PagedDb() here.
  const PagedSet* paged = nullptr;
  // Per-relation statistics for the cost-based planner (not owned; must
  // outlive the execution), see EvalOptions::stats.  Advisory: estimates
  // only, never answers.  The shell/server thread the spilled relations'
  // statistics from SharedCatalog::SnapshotState here.
  const StatsMap* relation_stats = nullptr;
};

// The end-to-end query facility a string-database engine would expose:
// parse a query x1,...,xk | φ, translate it to alignment algebra
// (Theorem 4.2), *infer a limit function* W_φ (the §5 programme: the
// paper's Eq. (6) evaluates db(E_φ ↓ W_φ(db))), and evaluate.
//
// The limit inference is syntactic and compositional, mirroring the
// proof of Theorem 4.1:
//   W(R)           = max(R, db)                     (Eq. (2))
//   W(Σ^k)         = k
//   W(E ∪ F), (E\F), (E×F) = max of the parts
//   W(π E) = W(restrict E) = W(E)
//   W(σ_A(F × (Σ*)^n)) = max(W(F), bound_A(W(F), ..., W(F)))
// where bound_A comes from AnalyzeLimitation with the F-columns as
// inputs — the query is *rejected as unsafe* when the limitation
// [F-columns] ↝ [Σ*-columns] fails, exactly as §5 prescribes.  A bare
// Σ* outside that form (negation produces one) has no finite limit:
// such queries are rejected as not (syntactically) domain independent.
class Query {
 public:
  // Parses "x, y | <calculus formula>"; the head lists the output
  // variables, which must be exactly the formula's free variables
  // (ascending order is imposed, as in the paper).  The head may be
  // omitted ("<formula>" alone), in which case the outputs are the free
  // variables in ascending order.
  //
  // Repeated texts skip all of it: a process-wide LRU maps (Σ, exact
  // text) to the compiled query — formula, outputs, Thm 3.1 automata
  // inside the Thm 4.2 algebra, and (once computed) the
  // database-independent half of the §5 inference — and the returned
  // Query shares that state.  The LRU is bounded at kCacheMaxBytes of
  // estimated resident bytes.  A miss compiles outside the cache lock
  // (two threads missing on one text both compile, to equal results);
  // errors are never cached.
  static Result<Query> Parse(const std::string& text,
                             const Alphabet& alphabet);

  // The uncached builder behind Parse: compiles `text` afresh.
  static Result<Query> Compile(const std::string& text,
                               const Alphabet& alphabet);

  // Wraps an already-built formula (uncached).
  static Result<Query> FromFormula(CalcFormula formula,
                                   const Alphabet& alphabet);

  // The compiled-query cache's byte bound.  Its counters are in the
  // metrics registry: calculus.query_cache.{hits,misses,evictions} and
  // the gauge calculus.query_cache.bytes_in_use.
  static constexpr int64_t kCacheMaxBytes = 1 << 20;

  // The evaluation cap: the largest truncation InferTruncation certifies
  // (a larger inferred limit is kResourceExhausted) and the largest
  // explicit `!N` the command grammar accepts.
  static constexpr int kMaxTruncation = 4096;

  const CalcFormula& formula() const;
  const std::vector<std::string>& outputs() const;
  const AlgebraExpr& plan() const;

  // The inferred limit W_φ(db), or an error naming the unsafe part.
  // `paged` extends Eq. (2)'s max(R, db) to spilled relations via the
  // max string length recorded in their heap headers — no scan needed.
  // Two stages: the limitation analysis of the string formulae runs
  // once per compiled query (on the first call, thread safe); each call
  // then only looks up the relations and evaluates the stored bounds on
  // their max(R, db).
  Result<int> InferTruncation(const Database& db,
                              const PagedSet* paged = nullptr) const;

  // Evaluates at the inferred truncation: the paper's
  // ⟦φ⟧_db = db(E_φ ↓ W_φ(db)) for domain-independent φ (Eq. (6)).
  Result<StringRelation> Execute(const Database& db,
                                 const QueryOptions& options = {}) const;

  // Evaluates at an explicit truncation (the ⟦φ⟧^l semantics), for
  // queries the safety analysis cannot certify.
  Result<StringRelation> ExecuteTruncated(
      const Database& db, int truncation,
      const QueryOptions& options = {}) const;

  // The engine's physical plan for this query at the inferred
  // truncation, rendered with planner estimates ("explain").  `stats`
  // (optional) feeds the cost planner's cardinality estimates.
  Result<std::string> ExplainPlan(const Database& db,
                                  const PagedSet* paged = nullptr,
                                  const StatsMap* stats = nullptr) const;

  // The same at an explicit truncation, as ExecuteTruncated runs it.
  Result<std::string> ExplainTruncated(const Database& db, int truncation,
                                       const PagedSet* paged = nullptr,
                                       const StatsMap* stats = nullptr) const;

 private:
  // Everything compiled from one text, immutable once built (defined in
  // query.cc), and the process-wide cache of them.
  struct Compiled;
  class Cache;

  explicit Query(std::shared_ptr<const Compiled> compiled)
      : compiled_(std::move(compiled)) {}

  std::shared_ptr<const Compiled> compiled_;
};

}  // namespace strdb

#endif  // STRDB_CALCULUS_QUERY_H_
