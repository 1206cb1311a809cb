#ifndef STRDB_RELATIONAL_ALGEBRA_H_
#define STRDB_RELATIONAL_ALGEBRA_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/budget.h"
#include "core/result.h"
#include "fsa/fsa.h"
#include "relational/relation.h"
#include "relational/stats.h"
#include "relational/tuple_source.h"

namespace strdb {

// A selection automaton together with its structural key: the
// SerializeFsa text that the engine's artifact cache, its selectivity
// memo and feedback, and the CSE rewrite key on (stable across
// processes, so persisted automata warm the artifact cache at open).
// Immutable and shared: every σ node built from one handle — a rewrite
// that keeps the automaton, a cached query's algebra planned again —
// shares the machine, and the key is serialised at most once, on the
// first key() call.
class KeyedFsa {
 public:
  explicit KeyedFsa(Fsa fsa) : fsa_(std::move(fsa)) {}

  const Fsa& fsa() const { return fsa_; }
  // Thread safe.
  const std::string& key() const;

 private:
  const Fsa fsa_;
  mutable std::once_flag key_once_;
  mutable std::string key_;
};

// Alignment algebra (paper §4): relational algebra over string relations
// whose selection operator is a k-FSA, plus the domain symbols Σ* and
// Σ^l that let queries *generate* strings not present in the database.
//
// Expressions are immutable values sharing their AST.
class AlgebraExpr {
 public:
  enum class Kind : uint8_t {
    kRelation,    // a named database relation
    kSigmaStar,   // Σ*, arity 1 (infinite; see evaluation notes)
    kSigmaL,      // Σ^l = {u : |u| <= l}, arity 1
    kUnion,       // E ∪ F
    kDifference,  // E \ F
    kProduct,     // E × F
    kProject,     // π_{i1..iu} E (0-based indices here)
    kSelect,      // σ_A E
    kRestrict,    // E ∩ (Σ*)^m — identity at full semantics, a length
                  // filter at the ↓l truncation (avoids materialising
                  // (Σ^l)^m the way a literal intersection would)
  };

  // --- factories -----------------------------------------------------------
  static AlgebraExpr Relation(std::string name, int arity);
  static AlgebraExpr SigmaStar();
  static AlgebraExpr SigmaL(int l);
  static Result<AlgebraExpr> Union(AlgebraExpr a, AlgebraExpr b);
  static Result<AlgebraExpr> Difference(AlgebraExpr a, AlgebraExpr b);
  // E ∩ F, the paper's shorthand for E \ (E \ F).
  static Result<AlgebraExpr> Intersect(AlgebraExpr a, AlgebraExpr b);
  static AlgebraExpr Product(AlgebraExpr a, AlgebraExpr b);
  // π_columns(child), folded: over a π it fuses the two (π_a∘π_b =
  // π_{b∘a}), and a projection keeping every column in order returns
  // `child` itself.
  static Result<AlgebraExpr> Project(AlgebraExpr child,
                                     std::vector<int> columns);
  static Result<AlgebraExpr> Select(AlgebraExpr child, Fsa fsa);
  // σ over `child` with an existing automaton handle, shared as is: the
  // form rewrites use when they keep a selection's machine.
  static Result<AlgebraExpr> Select(AlgebraExpr child,
                                    std::shared_ptr<const KeyedFsa> fsa);
  // E ∩ (Σ*)^arity, evaluated at ↓l as a length-<=l filter.
  static AlgebraExpr RestrictToDomain(AlgebraExpr child);

  Kind kind() const;
  int arity() const;

  // Accessors (valid for the kinds that carry them).
  const std::string& relation_name() const;
  int sigma_l() const;
  const AlgebraExpr& Left() const;
  const AlgebraExpr& Right() const;
  const std::vector<int>& columns() const;
  const Fsa& fsa() const;
  // The selection automaton, shared with every copy of this expression.
  std::shared_ptr<const Fsa> shared_fsa() const;
  // The automaton's handle, which carries its structural key.
  const std::shared_ptr<const KeyedFsa>& keyed_fsa() const;

  // True iff the expression is *finitely evaluable* in the paper's
  // syntactic sense: every Σ* occurs inside a subexpression
  // σ_A(F × (Σ*)^n) with F finitely evaluable.  (The limitation
  // condition on A is a semantic matter checked by the safety analyser,
  // not here.)
  bool IsFinitelyEvaluable() const;

  std::string ToString() const;

  struct Node;

  // Identity of the underlying shared AST node.  Copies of an expression
  // share their node; the engine keys per-execution memoisation on it.
  const Node* node_identity() const { return node_.get(); }

 private:
  explicit AlgebraExpr(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;

  friend class AlgebraEvaluator;
};

struct EvalOptions {
  // The truncation length l: every Σ* is read as Σ^l (Theorem 4.2's
  // E↓l semantics) and generated strings are bounded by l.
  int truncation = 4;
  // Tuple-count guard for intermediate results (per operator).
  int64_t max_tuples = 5'000'000;
  // Step budget forwarded to the FSA generator (per σ_A call).
  int64_t max_steps = 50'000'000;
  // Optional query-wide resource account (deadline, cumulative steps,
  // cumulative rows, cold cache bytes), shared by every operator of the
  // evaluation — unlike the per-call limits above, one runaway σ_A
  // factor chain exhausts it and the whole query degrades to a typed
  // kResourceExhausted instead of burning one call-site limit at a time.
  // Not owned; must outlive the evaluation.  nullptr = unlimited.
  ResourceBudget* budget = nullptr;
  // Out-of-core relations: a kRelation name missing from the Database is
  // looked up here and materialised (the naive evaluator is the oracle —
  // only the engine's PagedScan streams).  Not owned; nullptr = none.
  const PagedSet* paged = nullptr;
  // Relation statistics for the cost-based planner.  An entry here wins
  // over the engine's own summary of the Database; a relation without
  // one is summarised from its tuples on demand.  Serving passes the
  // durable store's statistics of spilled relations, which the
  // in-memory Database cannot summarise.  Advisory only — never
  // consulted for answers, so stale entries cost plan quality, not
  // correctness.  Not owned; nullptr = none supplied.
  const StatsMap* stats = nullptr;
};

// Flattens nested products into their factors, in left-to-right column
// order.
void FlattenProduct(const AlgebraExpr& expr, std::vector<AlgebraExpr>* out);

// The left-associated product of a non-empty factor list (the inverse of
// FlattenProduct up to association).
AlgebraExpr BuildProduct(std::vector<AlgebraExpr> factors);

// Rebuilds `e` over its children mapped through `f` (a leaf is returned
// as it is): the recursion the rewrite passes share.  Project folds as
// always, so the result need not have `e`'s kind.
Result<AlgebraExpr> MapChildren(
    const AlgebraExpr& e,
    const std::function<Result<AlgebraExpr>(const AlgebraExpr&)>& f);

// Σ^{<=l} as a unary relation.  Its size Σ_{i<=l} |Σ|^i is computed
// first, and a domain over options.max_tuples strings is refused with
// kResourceExhausted before anything is built; the enumeration checks
// the budget's deadline as it goes.  Both evaluators read Σ*/Σ^l leaves
// through it.
Result<StringRelation> DomainRelation(const Alphabet& sigma, int l,
                                      const EvalOptions& options);

// Evaluates db(E↓l).  Selections over products containing Σ* factors are
// evaluated with the FSA *generator* (the generalized-Mealy reading of
// Definition 3.1) instead of materialising Σ^l, which keeps the common
// finitely-evaluable form σ_A(F × (Σ*)^n) polynomial in the size of F's
// value; a bare Σ* elsewhere is materialised as Σ^l (exponential in l).
// Filtering σ_A decides each tuple with the Theorem 3.3 BFS only, so
// this evaluator is the engine's differential oracle by construction.
Result<StringRelation> EvalAlgebra(const AlgebraExpr& expr,
                                   const Database& db,
                                   const EvalOptions& options);

}  // namespace strdb

#endif  // STRDB_RELATIONAL_ALGEBRA_H_
