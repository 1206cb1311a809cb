#include "calculus/query.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "calculus/parser.h"
#include "core/lru.h"
#include "core/metrics.h"
#include "engine/engine.h"
#include "strform/lexer.h"

namespace strdb {

namespace {

// Recognises and consumes a "x, y |" head; returns the listed
// variables, or nullopt (with the stream untouched conceptually — the
// caller re-tokenises) when the input has no head.
std::optional<std::vector<std::string>> TryParseHead(
    const std::vector<Token>& tokens) {
  std::vector<std::string> head;
  size_t i = 0;
  for (;;) {
    if (i >= tokens.size() || tokens[i].kind != TokenKind::kIdent) {
      return std::nullopt;
    }
    head.push_back(tokens[i].text);
    ++i;
    if (i < tokens.size() && tokens[i].kind == TokenKind::kComma) {
      ++i;
      continue;
    }
    break;
  }
  if (i < tokens.size() && tokens[i].kind == TokenKind::kPipe) {
    return head;
  }
  return std::nullopt;
}

// Flattens the ∃/∧ spine of a positive-existential query into its
// relational and string-formula leaves (the class the §5 programme
// certifies; negation, disjunction and ∀ fall back to explicit
// truncation).
Status FlattenConjunction(const CalcFormula& f,
                          std::vector<CalcFormula>* rel_atoms,
                          std::vector<CalcFormula>* str_leaves,
                          std::vector<CalcFormula>* neg_filters) {
  switch (f.kind()) {
    case CalcFormula::Kind::kRelAtom:
      rel_atoms->push_back(f);
      return Status::OK();
    case CalcFormula::Kind::kString:
      str_leaves->push_back(f);
      return Status::OK();
    case CalcFormula::Kind::kAnd:
      STRDB_RETURN_IF_ERROR(
          FlattenConjunction(f.Left(), rel_atoms, str_leaves, neg_filters));
      return FlattenConjunction(f.Right(), rel_atoms, str_leaves,
                                neg_filters);
    case CalcFormula::Kind::kExists:
      return FlattenConjunction(f.Left(), rel_atoms, str_leaves,
                                neg_filters);
    case CalcFormula::Kind::kNot:
      // Guarded negation: a negated conjunct only *filters* — it binds
      // nothing, so it is safe exactly when its variables are bounded
      // by the other conjuncts.
      neg_filters->push_back(f);
      return Status::OK();
    case CalcFormula::Kind::kOr:
    case CalcFormula::Kind::kForAll:
      return Status::InvalidArgument(
          "limit inference handles positive-existential conjunctive "
          "queries with guarded negation (the §5 safe class); use "
          "ExecuteTruncated for this query shape");
  }
  return Status::Internal("unknown calculus node");
}

// The database-independent half of the §5 limit inference: the
// relational atoms that bind variables through Eq. (2)'s max(R, db), and
// the Theorem 5.2 limitation steps that carry bounds through the string
// formulae, in the order the fixpoint takes them.  The data decides only
// how long each variable's strings are, never which variables are
// bound, so this is computed once per compiled query.
struct LimitPlan {
  // FlattenConjunction's verdict: a shape outside the §5 class fails
  // before any relation is looked up.
  Status shape;
  std::vector<CalcFormula> rel_atoms;
  struct Step {
    std::vector<std::string> inputs;   // bound variables, in leaf order
    std::vector<std::string> outputs;  // the variables the step binds
    LimitBound bound;
  };
  std::vector<Step> steps;
  // The limitation analysis that failed, if any: reported after the
  // relation lookups, where the fixpoint would have reached it.
  Status analysis;
  std::set<std::string> vars;  // every variable the query mentions
};

// Stage one: the limit-function expansion the paper points to at the
// end of §5.  Variables bound by database relations get Eq. (2)'s
// max(R, db); string formulae propagate bounds to their remaining
// variables through the Theorem 5.2 limitation analysis, iterated to a
// fixpoint.  Only which variables are bound is tracked here.
LimitPlan PlanLimits(const CalcFormula& formula, const Alphabet& alphabet) {
  LimitPlan plan;
  std::vector<CalcFormula> str_leaves;
  std::vector<CalcFormula> neg_filters;
  plan.shape = FlattenConjunction(formula, &plan.rel_atoms, &str_leaves,
                                  &neg_filters);
  if (!plan.shape.ok()) return plan;

  std::set<std::string> bound;
  for (const CalcFormula& atom : plan.rel_atoms) {
    bound.insert(atom.args().begin(), atom.args().end());
  }
  plan.vars = bound;
  for (const CalcFormula& leaf : str_leaves) {
    for (const std::string& v : leaf.str().Vars()) plan.vars.insert(v);
  }
  for (const CalcFormula& filter : neg_filters) {
    for (const std::string& v : filter.FreeVars()) plan.vars.insert(v);
  }

  // Propagate through the string formulae until nothing new is bound.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const CalcFormula& leaf : str_leaves) {
      LimitPlan::Step step;
      for (const std::string& v : leaf.str().Vars()) {
        (bound.count(v) > 0 ? step.inputs : step.outputs).push_back(v);
      }
      if (step.outputs.empty()) continue;
      Result<LimitationReport> report =
          AnalyzeStringFormulaLimitation(leaf.str(), alphabet, step.inputs);
      if (!report.ok()) {
        plan.analysis = report.status();
        return plan;
      }
      if (!report->limited()) continue;  // try other leaves first
      step.bound = report->bound;
      bound.insert(step.outputs.begin(), step.outputs.end());
      plan.steps.push_back(std::move(step));
      progress = true;
    }
  }
  return plan;
}

// Stage two, per database: each relational atom's max(R, db), then the
// stored steps evaluated on those lengths.  Returns exactly what one
// pass of the whole analysis over `db` would.
Result<int64_t> EvalLimits(const LimitPlan& plan, const Database& db,
                           const PagedSet* paged) {
  STRDB_RETURN_IF_ERROR(plan.shape);
  std::map<std::string, int64_t> limit;
  for (const CalcFormula& atom : plan.rel_atoms) {
    int64_t w = 0;
    Result<const StringRelation*> rel = db.Get(atom.relation());
    if (rel.ok()) {
      w = (*rel)->MaxStringLength();
    } else {
      // A spilled relation records its max string length in the heap
      // header: Eq. (2)'s max(R, db) without touching a single page.
      if (paged == nullptr) return rel.status();
      auto spilled = paged->find(atom.relation());
      if (spilled == paged->end()) return rel.status();
      w = spilled->second->max_string_length();
    }
    for (const std::string& v : atom.args()) {
      auto it = limit.find(v);
      // A variable constrained by several relations takes the tightest
      // bound.
      if (it == limit.end() || w < it->second) limit[v] = w;
    }
  }
  STRDB_RETURN_IF_ERROR(plan.analysis);
  for (const LimitPlan::Step& step : plan.steps) {
    std::vector<int> input_lens;
    for (const std::string& v : step.inputs) {
      input_lens.push_back(static_cast<int>(limit[v]));
    }
    int64_t bound = step.bound.Eval(input_lens);
    for (const std::string& v : step.outputs) limit[v] = bound;
  }

  int64_t w = 0;
  for (const std::string& v : plan.vars) {
    auto it = limit.find(v);
    if (it == limit.end()) {
      return Status::InvalidArgument(
          "unsafe query: no database relation or limited string formula "
          "bounds variable '" +
          v + "' (§5's limitation condition fails)");
    }
    w = std::max(w, it->second);
  }
  return w;
}

}  // namespace

struct Query::Compiled {
  Compiled(CalcFormula f, std::vector<std::string> o, AlgebraExpr p,
           Alphabet a)
      : formula(std::move(f)),
        outputs(std::move(o)),
        plan(std::move(p)),
        alphabet(std::move(a)) {}

  // InferTruncation's first stage, computed on first use.
  const LimitPlan& limits() const {
    std::call_once(limits_once_,
                   [this] { limits_ = PlanLimits(formula, alphabet); });
    return limits_;
  }

  const CalcFormula formula;
  const std::vector<std::string> outputs;
  const AlgebraExpr plan;
  const Alphabet alphabet;  // the Σ the automata were compiled over

 private:
  mutable std::once_flag limits_once_;
  mutable LimitPlan limits_;
};

// The process-wide compiled-query cache behind Parse.
class Query::Cache {
 public:
  static Cache& Global() {
    // Leaked intentionally, like Engine::Shared(): cached queries must
    // outlive static destruction.
    static Cache* cache = new Cache();
    return *cache;
  }

  std::shared_ptr<const Compiled> Find(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::shared_ptr<const Compiled>* hit = lru_.Find(key);
    return hit != nullptr ? *hit : nullptr;
  }

  void Insert(std::string key, std::shared_ptr<const Compiled> compiled) {
    int64_t cost = EntryCost(key, *compiled);
    std::lock_guard<std::mutex> lock(mu_);
    lru_.Insert(std::move(key), std::move(compiled), cost);
  }

 private:
  Cache() : lru_(kCacheMaxBytes, Instruments()) {}

  static LruInstruments Instruments() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return LruInstruments{reg.GetCounter("calculus.query_cache.hits"),
                          reg.GetCounter("calculus.query_cache.misses"),
                          reg.GetCounter("calculus.query_cache.evictions"),
                          reg.GetGauge("calculus.query_cache.bytes_in_use"),
                          nullptr};
  }

  // Estimated resident bytes of one entry, in the style of
  // ArtifactCache::FsaCost: the key, the formula's AST (sized by the
  // text), the algebra's nodes, and every distinct σ automaton together
  // with the SerializeFsa key it carries once planned.  FsaCost counts
  // payload only; each transition's two small vectors cost about as
  // much again in allocator chunks, hence the factor 2 (calibrated
  // against the live heap of compiled texts).
  static int64_t EntryCost(const std::string& key, const Compiled& c) {
    int64_t bytes = static_cast<int64_t>(sizeof(Compiled) + key.size()) +
                    kFormulaBytesPerChar * static_cast<int64_t>(key.size());
    std::set<const AlgebraExpr::Node*> nodes;
    std::set<const KeyedFsa*> automata;
    std::vector<const AlgebraExpr*> todo = {&c.plan};
    while (!todo.empty()) {
      const AlgebraExpr& e = *todo.back();
      todo.pop_back();
      if (!nodes.insert(e.node_identity()).second) continue;
      bytes += kAlgebraNodeBytes;
      switch (e.kind()) {
        case AlgebraExpr::Kind::kUnion:
        case AlgebraExpr::Kind::kDifference:
        case AlgebraExpr::Kind::kProduct:
          todo.push_back(&e.Right());
          todo.push_back(&e.Left());
          break;
        case AlgebraExpr::Kind::kSelect:
          if (automata.insert(e.keyed_fsa().get()).second) {
            const Fsa& fsa = e.fsa();
            bytes += 2 * ArtifactCache::FsaCost(fsa) +
                     static_cast<int64_t>(fsa.num_transitions()) *
                         (kKeyBytesPerTransition + 2 * fsa.num_tapes());
          }
          todo.push_back(&e.Left());
          break;
        case AlgebraExpr::Kind::kProject:
        case AlgebraExpr::Kind::kRestrict:
          todo.push_back(&e.Left());
          break;
        default:
          break;
      }
    }
    return bytes;
  }

  static constexpr int64_t kFormulaBytesPerChar = 64;
  static constexpr int64_t kAlgebraNodeBytes = 256;
  static constexpr int64_t kKeyBytesPerTransition = 12;

  std::mutex mu_;
  ByteLru<std::shared_ptr<const Compiled>> lru_;
};

Result<Query> Query::Compile(const std::string& text,
                             const Alphabet& alphabet) {
  STRDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  std::optional<std::vector<std::string>> head = TryParseHead(tokens);
  std::string body = text;
  if (head.has_value()) {
    size_t pipe = text.find('|');
    body = text.substr(pipe + 1);
  }
  STRDB_ASSIGN_OR_RETURN(CalcFormula formula, ParseCalcFormula(body));
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr plan, CalcToAlgebra(formula, alphabet));
  std::vector<std::string> outputs = formula.FreeVars();
  if (head.has_value()) {
    // Validate the head covers exactly the free variables and reorder
    // the plan columns to match it.
    std::set<std::string> head_set(head->begin(), head->end());
    if (head->size() != head_set.size()) {
      return Status::InvalidArgument("duplicate variable in the query head");
    }
    if (head_set != std::set<std::string>(outputs.begin(), outputs.end())) {
      return Status::InvalidArgument(
          "the query head must list exactly the free variables");
    }
    std::vector<int> columns;
    for (const std::string& v : *head) {
      auto it = std::find(outputs.begin(), outputs.end(), v);
      columns.push_back(static_cast<int>(it - outputs.begin()));
    }
    STRDB_ASSIGN_OR_RETURN(plan,
                           AlgebraExpr::Project(std::move(plan),
                                                std::move(columns)));
    outputs = *head;
  }
  return Query(std::make_shared<const Compiled>(
      std::move(formula), std::move(outputs), std::move(plan), alphabet));
}

Result<Query> Query::FromFormula(CalcFormula formula,
                                 const Alphabet& alphabet) {
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr plan, CalcToAlgebra(formula, alphabet));
  std::vector<std::string> outputs = formula.FreeVars();
  return Query(std::make_shared<const Compiled>(
      std::move(formula), std::move(outputs), std::move(plan), alphabet));
}

Result<Query> Query::Parse(const std::string& text, const Alphabet& alphabet) {
  // Σ's characters are printable, so the first newline ends them.
  std::string key = alphabet.chars() + '\n' + text;
  Cache& cache = Cache::Global();
  if (std::shared_ptr<const Compiled> hit = cache.Find(key)) {
    return Query(std::move(hit));
  }
  STRDB_ASSIGN_OR_RETURN(Query q, Compile(text, alphabet));
  cache.Insert(std::move(key), q.compiled_);
  return q;
}

const CalcFormula& Query::formula() const { return compiled_->formula; }
const std::vector<std::string>& Query::outputs() const {
  return compiled_->outputs;
}
const AlgebraExpr& Query::plan() const { return compiled_->plan; }

Result<int> Query::InferTruncation(const Database& db,
                                   const PagedSet* paged) const {
  // The analysis runs under the database's Σ; a query compiled under
  // another one gets a fresh, uncached plan.
  STRDB_ASSIGN_OR_RETURN(
      int64_t w,
      db.alphabet() == compiled_->alphabet
          ? EvalLimits(compiled_->limits(), db, paged)
          : EvalLimits(PlanLimits(compiled_->formula, db.alphabet()), db,
                       paged));
  if (w > kMaxTruncation) {
    return Status::ResourceExhausted(
        "the inferred limit " + std::to_string(w) +
        " exceeds the evaluation cap " + std::to_string(kMaxTruncation));
  }
  return static_cast<int>(w);
}

Result<StringRelation> Query::Execute(const Database& db,
                                      const QueryOptions& options) const {
  STRDB_ASSIGN_OR_RETURN(int truncation, InferTruncation(db, options.paged));
  return ExecuteTruncated(db, truncation, options);
}

namespace {

bool AnyLimitSet(const ResourceLimits& l) {
  return l.deadline_ms > 0 || l.max_steps > 0 || l.max_rows > 0 ||
         l.max_cached_bytes > 0;
}

}  // namespace

Result<StringRelation> Query::ExecuteTruncated(
    const Database& db, int truncation, const QueryOptions& options) const {
  EvalOptions opts;
  opts.truncation = truncation;
  opts.paged = options.paged;
  opts.stats = options.relation_stats;
  // The budget lives on the stack for exactly one execution: charges
  // accumulate across every operator of this query and no other.
  std::optional<ResourceBudget> budget;
  if (AnyLimitSet(options.limits) || options.parent_budget != nullptr) {
    budget.emplace(options.limits, options.parent_budget);
    opts.budget = &*budget;
  }
  if (options.use_engine) {
    return Engine::Shared().Execute(plan(), db, opts, options.stats);
  }
  return EvalAlgebra(plan(), db, opts);
}

Result<std::string> Query::ExplainPlan(const Database& db,
                                       const PagedSet* paged,
                                       const StatsMap* stats) const {
  STRDB_ASSIGN_OR_RETURN(int truncation, InferTruncation(db, paged));
  return ExplainTruncated(db, truncation, paged, stats);
}

Result<std::string> Query::ExplainTruncated(const Database& db,
                                            int truncation,
                                            const PagedSet* paged,
                                            const StatsMap* stats) const {
  EvalOptions opts;
  opts.truncation = truncation;
  opts.paged = paged;
  opts.stats = stats;
  return Engine::Shared().Explain(plan(), db, opts);
}

}  // namespace strdb
