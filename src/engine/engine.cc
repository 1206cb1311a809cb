#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <span>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "engine/cost.h"
#include "fsa/acceptor.h"
#include "fsa/generate.h"

namespace strdb {

namespace {

using Kind = AlgebraExpr::Kind;
using Op = PlanNode::Op;
using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// Lowers the (rewritten) algebra AST to a physical-plan DAG.  Subtrees
// shared in the AST — including those unified by the CSE rewrite — lower
// to one PlanNode, which the executor evaluates once.
class Planner {
 public:
  Planner(const Database& db, const EvalOptions& options,
          const CostPlannerContext& cost_ctx)
      : db_(db), options_(options), cost_ctx_(cost_ctx) {}

  Result<std::shared_ptr<PlanNode>> Lower(const AlgebraExpr& e) {
    auto it = memo_.find(e.node_identity());
    if (it != memo_.end()) return it->second;
    std::shared_ptr<PlanNode> node;
    if (e.kind() == Kind::kRestrict &&
        MaxLength(e.Left()) <= options_.truncation) {
      // ↓l keeps every tuple of a value whose strings are all <= l.
      STRDB_ASSIGN_OR_RETURN(node, Lower(e.Left()));
    } else {
      STRDB_ASSIGN_OR_RETURN(node, LowerNew(e));
      node->est_rows = EstimateRows(e, cost_ctx_, &estimates_);
    }
    memo_.emplace(e.node_identity(), node);
    return node;
  }

 private:
  // An upper bound on the length of every string in `e`'s value at this
  // truncation l: Eq. (2)'s max(R, db) for a relation (a spilled one's
  // heap header records it), l for Σ*, k for Σ^k, the larger side of ∪
  // and ×, the left side or the child for \, π and σ, and at most l
  // under ↓l.  A relation missing from the catalog has no bound.
  int64_t MaxLength(const AlgebraExpr& e) {
    auto it = max_lengths_.find(e.node_identity());
    if (it != max_lengths_.end()) return it->second;
    int64_t bound = std::numeric_limits<int64_t>::max();
    switch (e.kind()) {
      case Kind::kRelation:
        if (Result<const StringRelation*> rel = db_.Get(e.relation_name());
            rel.ok()) {
          bound = (*rel)->MaxStringLength();
        } else if (options_.paged != nullptr) {
          auto spilled = options_.paged->find(e.relation_name());
          if (spilled != options_.paged->end()) {
            bound = spilled->second->max_string_length();
          }
        }
        break;
      case Kind::kSigmaStar:
        bound = options_.truncation;
        break;
      case Kind::kSigmaL:
        bound = e.sigma_l();
        break;
      case Kind::kUnion:
      case Kind::kProduct:
        bound = std::max(MaxLength(e.Left()), MaxLength(e.Right()));
        break;
      case Kind::kDifference:
      case Kind::kProject:
      case Kind::kSelect:
        bound = MaxLength(e.Left());
        break;
      case Kind::kRestrict:
        bound = std::min<int64_t>(MaxLength(e.Left()), options_.truncation);
        break;
    }
    max_lengths_.emplace(e.node_identity(), bound);
    return bound;
  }

  Result<std::shared_ptr<PlanNode>> LowerNew(const AlgebraExpr& e) {
    auto node = std::make_shared<PlanNode>();
    node->arity = e.arity();
    switch (e.kind()) {
      case Kind::kRelation: {
        node->relation = e.relation_name();
        // A name absent from the catalog but present in the paged set is
        // a spilled relation: scan it out-of-core.
        if (options_.paged != nullptr && !db_.Has(node->relation)) {
          auto spilled = options_.paged->find(node->relation);
          if (spilled != options_.paged->end()) {
            if (spilled->second->arity() != node->arity) {
              return Status::InvalidArgument(
                  "relation '" + node->relation + "' has arity " +
                  std::to_string(spilled->second->arity()) +
                  ", expression expects " + std::to_string(node->arity));
            }
            node->op = Op::kPagedScan;
            node->source = spilled->second;
            return node;
          }
        }
        node->op = Op::kScan;
        return node;
      }
      case Kind::kSigmaStar:
        node->op = Op::kDomain;
        node->sigma_l = -1;
        return node;
      case Kind::kSigmaL:
        node->op = Op::kDomain;
        node->sigma_l = e.sigma_l();
        return node;
      case Kind::kUnion:
      case Kind::kDifference:
      case Kind::kProduct: {
        node->op = e.kind() == Kind::kUnion        ? Op::kUnion
                   : e.kind() == Kind::kDifference ? Op::kDifference
                                                   : Op::kProduct;
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> l, Lower(e.Left()));
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> r, Lower(e.Right()));
        node->children = {std::move(l), std::move(r)};
        return node;
      }
      case Kind::kProject: {
        node->op = Op::kProject;
        node->columns = e.columns();
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
        node->children = {std::move(c)};
        return node;
      }
      case Kind::kRestrict: {
        node->op = Op::kRestrict;
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
        node->children = {std::move(c)};
        return node;
      }
      case Kind::kSelect:
        return LowerSelect(e, std::move(node));
    }
    return Status::Internal("unknown algebra node kind");
  }

  Result<std::shared_ptr<PlanNode>> LowerSelect(const AlgebraExpr& e,
                                                std::shared_ptr<PlanNode> node) {
    node->keyed_fsa = e.keyed_fsa();
    node->fsa = e.shared_fsa();
    std::vector<AlgebraExpr> factors;
    FlattenProduct(e.Left(), &factors);
    bool has_star = false;
    for (const AlgebraExpr& f : factors) {
      if (f.kind() == Kind::kSigmaStar) has_star = true;
    }
    if (!has_star || !node->fsa->FinalStatesHaveNoExits()) {
      // Plain filtering: evaluate the child (Σ* becomes Σ^l) and keep
      // the accepted tuples — same semantics as the naïve evaluator.
      node->op = Op::kFilterSelect;
      STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(e.Left()));
      node->children = {std::move(c)};
      return node;
    }
    // σ_A(F1×…×Fm×(Σ*)^n): materialise the non-Σ* factors and run the
    // automaton as a generator over the free columns.
    node->op = Op::kGenerateSelect;
    int offset = 0;
    for (const AlgebraExpr& f : factors) {
      if (f.kind() == Kind::kSigmaStar) {
        node->free_columns.push_back(offset);
      } else {
        STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> c, Lower(f));
        node->factor_offsets.push_back(offset);
        node->children.push_back(std::move(c));
      }
      offset += f.arity();
    }
    return node;
  }

  const Database& db_;
  const EvalOptions& options_;
  const CostPlannerContext& cost_ctx_;
  std::unordered_map<const AlgebraExpr::Node*, std::shared_ptr<PlanNode>>
      memo_;
  std::unordered_map<const AlgebraExpr::Node*, int64_t> max_lengths_;
  // Each node's estimate, computed once per plan (a node's estimate
  // recurses into its subtree, which is lowered first).
  RowEstimateMemo estimates_;
};

// Runs a plan DAG.  Holds one result per PlanNode (evaluate-once for
// shared subtrees); Eval returns pointers that stay valid for the
// executor's lifetime.  A scan's pointer is the snapshot's own relation:
// the Database outlives the executor and never changes under it, so no
// operator copies its input.
class Executor {
 public:
  Executor(const Database& db, const EvalOptions& options,
           const EngineOptions& engine_options, ArtifactCache* cache,
           ThreadPool* pool)
      : db_(db),
        options_(options),
        engine_options_(engine_options),
        cache_(cache),
        pool_(pool) {}

  Result<const StringRelation*> Eval(PlanNode* node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) {
      ++node->stats.memo_hits;
      return it->second;
    }
    if (options_.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
    }
    const Clock::time_point start = Clock::now();
    const int64_t children_before = children_ns_;
    const StringRelation* out = nullptr;
    if (node->op == Op::kScan) {
      STRDB_ASSIGN_OR_RETURN(out, Scan(node));
    } else {
      STRDB_ASSIGN_OR_RETURN(StringRelation computed, Compute(node));
      out = &owned_.emplace(node, std::move(computed)).first->second;
    }
    // The children evaluated inside this node added their own times to
    // children_ns_; this node's self time is what is left, and its parent
    // sees only its total.
    const int64_t elapsed = ElapsedNs(start);
    node->stats.wall_ns += elapsed;
    node->stats.self_ns += elapsed - (children_ns_ - children_before);
    children_ns_ = children_before + elapsed;
    node->stats.tuples_out = out->size();
    if (options_.budget != nullptr) {
      // Rows are charged per operator: a memo hit reuses the same
      // materialisation, so only fresh rows count against the budget.
      STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(out->size()));
    }
    memo_.emplace(node, out);
    return out;
  }

  // The evaluated root's result, moved out of the executor (copied when
  // the root is a scan of the snapshot).  The root is never a shared
  // subtree, so nothing reads its entry afterwards.
  StringRelation TakeRoot(const PlanNode* root) {
    auto it = owned_.find(root);
    if (it != owned_.end()) return std::move(it->second);
    return *memo_.at(root);
  }

 private:
  Result<const StringRelation*> Scan(const PlanNode* node) const {
    STRDB_ASSIGN_OR_RETURN(const StringRelation* rel, db_.Get(node->relation));
    if (rel->arity() != node->arity) {
      return Status::InvalidArgument(
          "relation '" + node->relation + "' has arity " +
          std::to_string(rel->arity()) + ", expression expects " +
          std::to_string(node->arity));
    }
    return rel;
  }

  Result<StringRelation> CheckSize(StringRelation rel) const {
    if (rel.size() > options_.max_tuples) {
      return Status::ResourceExhausted("intermediate relation exceeds " +
                                       std::to_string(options_.max_tuples) +
                                       " tuples");
    }
    return rel;
  }

  // Every operator but kScan, which Eval reads in place.
  Result<StringRelation> Compute(PlanNode* node) {
    switch (node->op) {
      case Op::kScan:
        break;
      case Op::kPagedScan: {
        // Generic parents need the relation resident; only a FilterSelect
        // parent streams (it intercepts before Eval reaches here).
        if (node->source == nullptr) {
          return Status::Internal("paged-scan node without a tuple source");
        }
        STRDB_ASSIGN_OR_RETURN(StringRelation out, node->source->Materialize());
        return CheckSize(std::move(out));
      }
      case Op::kDomain:
        return DomainRelation(
            db_.alphabet(),
            node->sigma_l < 0 ? options_.truncation : node->sigma_l,
            options_);
      case Op::kUnion: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out = *a;
        for (const Tuple& t : b->tuples()) {
          STRDB_RETURN_IF_ERROR(out.Insert(t));
        }
        return CheckSize(std::move(out));
      }
      case Op::kDifference: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out(a->arity());
        for (const Tuple& t : a->tuples()) {
          if (!b->Contains(t)) {
            STRDB_RETURN_IF_ERROR(out.Insert(t));
          }
        }
        return out;
      }
      case Op::kProduct: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* a,
                               Eval(node->children[0].get()));
        STRDB_ASSIGN_OR_RETURN(const StringRelation* b,
                               Eval(node->children[1].get()));
        node->stats.tuples_in = a->size() + b->size();
        StringRelation out(a->arity() + b->arity());
        for (const Tuple& ta : a->tuples()) {
          for (const Tuple& tb : b->tuples()) {
            Tuple t = ta;
            t.insert(t.end(), tb.begin(), tb.end());
            STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
          }
          if (out.size() > options_.max_tuples) {
            return Status::ResourceExhausted("product exceeds max_tuples");
          }
          // The only operator whose output outgrows its inputs: it must
          // not outlive the deadline.
          if (options_.budget != nullptr) {
            STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
          }
        }
        return out;
      }
      case Op::kProject: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* child,
                               Eval(node->children[0].get()));
        node->stats.tuples_in = child->size();
        StringRelation out(node->arity);
        for (const Tuple& t : child->tuples()) {
          Tuple proj;
          proj.reserve(node->columns.size());
          for (int c : node->columns) {
            proj.push_back(t[static_cast<size_t>(c)]);
          }
          STRDB_RETURN_IF_ERROR(out.Insert(std::move(proj)));
        }
        return out;
      }
      case Op::kRestrict: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* child,
                               Eval(node->children[0].get()));
        node->stats.tuples_in = child->size();
        return child->TruncatedTo(options_.truncation);
      }
      case Op::kFilterSelect:
        return FilterSelect(node);
      case Op::kGenerateSelect:
        return GenerateSelect(node);
    }
    return Status::Internal("unknown plan operator");
  }

  // The σ automaton of `node` compiled to its acceptance tier, fetched
  // from the artifact cache when caching is on.
  Result<std::shared_ptr<const Acceptor>> AcceptorFor(PlanNode* node) {
    static Counter* const dfa_hits =
        MetricsRegistry::Global().GetCounter("fsa.dfa.cache_hits");
    static Counter* const fallbacks =
        MetricsRegistry::Global().GetCounter("fsa.dfa.fallbacks");
    std::shared_ptr<const Acceptor> acceptor;
    bool hit = false;
    if (cache_ != nullptr) {
      STRDB_ASSIGN_OR_RETURN(acceptor,
                             cache_->GetAcceptor(node->fsa_key(), node->fsa,
                                                 &hit, options_.budget));
      ++(hit ? node->stats.cache_hits : node->stats.cache_misses);
    } else {
      acceptor = std::make_shared<const Acceptor>(Acceptor::Compile(node->fsa));
    }
    if (acceptor->tier() != Acceptor::Tier::kDfa) {
      fallbacks->Increment();
    } else if (hit) {
      dfa_hits->Increment();
    }
    return acceptor;
  }

  // σ_A as a filter.  A spilled child that no other parent materialised
  // is streamed: its heap's decoded batches go through acceptance one by
  // one and only survivors are kept, so peak memory is the buffer-pool
  // cap plus one batch plus the output.  Any other child is evaluated
  // and filtered as a single batch.  Both routes reach the same verdicts;
  // only where budget errors surface can differ.
  Result<StringRelation> FilterSelect(PlanNode* node) {
    STRDB_ASSIGN_OR_RETURN(std::shared_ptr<const Acceptor> acceptor,
                           AcceptorFor(node));
    PlanNode* child = node->children[0].get();
    StringRelation out(node->arity);
    std::vector<const Tuple*> tuples;
    if (child->op == Op::kPagedScan && child->source != nullptr &&
        memo_.find(child) == memo_.end()) {
      const Clock::time_point child_start = Clock::now();
      // The acceptance run inside the scan callback is this node's work,
      // not the scan's.
      int64_t filter_ns = 0;
      STRDB_RETURN_IF_ERROR(child->source->Scan(
          [&](const std::vector<Tuple>& batch) -> Status {
            const Clock::time_point filter_start = Clock::now();
            int64_t n = static_cast<int64_t>(batch.size());
            node->stats.tuples_in += n;
            child->stats.tuples_out += n;
            if (options_.budget != nullptr) {
              // Scanned rows are charged as the child materialisation
              // would have been, so streaming changes memory, not cost.
              STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(n));
            }
            tuples.clear();
            for (const Tuple& t : batch) tuples.push_back(&t);
            Status filtered = Filter(node, *acceptor, tuples, &out);
            filter_ns += ElapsedNs(filter_start);
            STRDB_RETURN_IF_ERROR(filtered);
            if (out.size() > options_.max_tuples) {
              return Status::ResourceExhausted(
                  "selection exceeds " + std::to_string(options_.max_tuples) +
                  " tuples");
            }
            return Status::OK();
          }));
      const int64_t scan_ns = ElapsedNs(child_start) - filter_ns;
      child->stats.wall_ns += scan_ns;
      child->stats.self_ns += scan_ns;
      children_ns_ += scan_ns;
      return out;
    }
    STRDB_ASSIGN_OR_RETURN(const StringRelation* rel, Eval(child));
    node->stats.tuples_in = rel->size();
    tuples.reserve(static_cast<size_t>(rel->size()));
    for (const Tuple& t : rel->tuples()) tuples.push_back(&t);
    STRDB_RETURN_IF_ERROR(Filter(node, *acceptor, tuples, &out));
    return out;
  }

  // Decides `tuples` and inserts the accepted ones into `out`.  Inputs
  // of at least parallel_threshold tuples are split into chunks across
  // the pool, one AcceptBatch per chunk; the merge runs in input order,
  // so the result and the first error surfaced do not depend on how the
  // chunks were scheduled.
  Status Filter(PlanNode* node, const Acceptor& acceptor,
                std::span<const Tuple* const> tuples, StringRelation* out) {
    AcceptOptions accept_opts;
    accept_opts.budget = options_.budget;  // shared account; charging is atomic
    const int64_t n = static_cast<int64_t>(tuples.size());
    AcceptBatchResult result;
    if (pool_->num_threads() > 1 && n >= engine_options_.parallel_threshold) {
      result.statuses.resize(tuples.size());
      result.accepted.resize(tuples.size());
      std::atomic<int64_t> steps{0};
      pool_->ParallelFor(n, [&](int64_t begin, int64_t end) {
        AcceptBatchResult part = acceptor.AcceptBatch(
            tuples.subspan(static_cast<size_t>(begin),
                           static_cast<size_t>(end - begin)),
            accept_opts);
        std::move(part.statuses.begin(), part.statuses.end(),
                  result.statuses.begin() + begin);
        std::copy(part.accepted.begin(), part.accepted.end(),
                  result.accepted.begin() + begin);
        steps += part.configurations_visited;
      });
      result.configurations_visited = steps;
    } else {
      result = acceptor.AcceptBatch(tuples, accept_opts);
    }
    node->stats.fsa_steps += result.configurations_visited;
    for (size_t i = 0; i < tuples.size(); ++i) {
      STRDB_RETURN_IF_ERROR(result.statuses[i]);
      if (result.accepted[i]) {
        STRDB_RETURN_IF_ERROR(out->Insert(*tuples[i]));
      }
    }
    return Status::OK();
  }

  Result<StringRelation> GenerateSelect(PlanNode* node) {
    std::vector<const std::set<Tuple>*> sets;
    for (const auto& child : node->children) {
      STRDB_ASSIGN_OR_RETURN(const StringRelation* rel, Eval(child.get()));
      node->stats.tuples_in += rel->size();
      sets.push_back(&rel->tuples());
    }
    StringRelation out(node->arity);
    for (const std::set<Tuple>* s : sets) {
      if (s->empty()) return out;  // empty product
    }
    GenerateOptions gen_opts;
    gen_opts.max_len = options_.truncation;
    gen_opts.max_steps = options_.max_steps;
    gen_opts.max_results = options_.max_tuples;
    gen_opts.budget = options_.budget;

    std::vector<std::set<Tuple>::const_iterator> iters;
    for (const std::set<Tuple>* s : sets) iters.push_back(s->begin());
    for (;;) {
      std::vector<std::optional<std::string>> fixed(
          static_cast<size_t>(node->arity), std::nullopt);
      for (size_t fi = 0; fi < iters.size(); ++fi) {
        const Tuple& t = *iters[fi];
        for (size_t c = 0; c < t.size(); ++c) {
          fixed[static_cast<size_t>(node->factor_offsets[fi]) + c] = t[c];
        }
      }
      STRDB_RETURN_IF_ERROR(GenerateCombo(node, fixed, gen_opts, &out));
      if (out.size() > options_.max_tuples) {
        return Status::ResourceExhausted("selection exceeds max_tuples");
      }
      size_t d = 0;
      for (; d < iters.size(); ++d) {
        if (++iters[d] != sets[d]->end()) break;
        iters[d] = sets[d]->begin();
      }
      if (d == iters.size()) break;
    }
    return out;
  }

  // One odometer step of a generate-select: generates the free-column
  // strings for the given fixed pattern and merges the full tuples into
  // `out`.  With the cache on, the automaton is specialised one fixed
  // column at a time so a shared (column, value) prefix across combos is
  // built once, and the final bounded generation is memoised too.
  Status GenerateCombo(PlanNode* node,
                       const std::vector<std::optional<std::string>>& fixed,
                       const GenerateOptions& gen_opts, StringRelation* out) {
    ArtifactCache::GeneratedSet computed;
    std::shared_ptr<const ArtifactCache::GeneratedSet> cached;
    const ArtifactCache::GeneratedSet* generated = nullptr;
    if (cache_ != nullptr) {
      std::string key = node->fsa_key();
      std::shared_ptr<const Fsa> machine = node->fsa;
      int already_fixed = 0;
      for (size_t col = 0; col < fixed.size(); ++col) {
        if (!fixed[col].has_value()) continue;
        // In the current (partially specialised) machine, original
        // column `col` is tape col - #columns fixed before it.
        int tape = static_cast<int>(col) - already_fixed;
        bool hit = false;
        STRDB_ASSIGN_OR_RETURN(
            machine,
            cache_->GetSpecialized(key, *machine, tape, *fixed[col], &key,
                                   &hit, options_.budget));
        ++(hit ? node->stats.cache_hits : node->stats.cache_misses);
        ++already_fixed;
      }
      std::string gen_key = key + "|g" + std::to_string(gen_opts.max_len);
      cached = cache_->GetGenerated(gen_key);
      if (cached != nullptr) {
        ++node->stats.cache_hits;
        generated = cached.get();
      } else {
        ++node->stats.cache_misses;
        STRDB_ASSIGN_OR_RETURN(computed, EnumerateLanguage(*machine, gen_opts));
        // The returned pointer keeps the set alive even if the LRU
        // evicts it immediately (it may exceed the remaining headroom).
        STRDB_ASSIGN_OR_RETURN(
            cached, cache_->PutGenerated(gen_key, std::move(computed),
                                         options_.budget));
        generated = cached.get();
      }
    } else {
      STRDB_ASSIGN_OR_RETURN(computed,
                             GenerateAccepted(*node->fsa, fixed, gen_opts));
      generated = &computed;
    }
    for (const std::vector<std::string>& frees : *generated) {
      Tuple full(static_cast<size_t>(node->arity));
      for (size_t c = 0; c < full.size(); ++c) {
        if (fixed[c].has_value()) full[c] = *fixed[c];
      }
      for (size_t fc = 0; fc < node->free_columns.size(); ++fc) {
        full[static_cast<size_t>(node->free_columns[fc])] = frees[fc];
      }
      STRDB_RETURN_IF_ERROR(out->Insert(std::move(full)));
    }
    return Status::OK();
  }

  const Database& db_;
  const EvalOptions& options_;
  const EngineOptions& engine_options_;
  ArtifactCache* cache_;  // nullptr = caching disabled
  ThreadPool* pool_;
  // Every evaluated node's value: a snapshot relation for a scan, else
  // the node's entry in owned_.
  std::unordered_map<const PlanNode*, const StringRelation*> memo_;
  std::unordered_map<const PlanNode*, StringRelation> owned_;
  // The summed wall time of the evaluations finished so far under the
  // node being evaluated (see Eval).
  int64_t children_ns_ = 0;
};

void SumStats(const PlanNode& node, std::set<const PlanNode*>* seen,
              ExecStats* stats) {
  if (!seen->insert(&node).second) return;
  stats->cache_hits += node.stats.cache_hits;
  stats->cache_misses += node.stats.cache_misses;
  stats->fsa_steps += node.stats.fsa_steps;
  stats->memo_hits += node.stats.memo_hits;
  stats->operators.push_back(
      {node.OpName(), node.est_rows, node.stats.tuples_out});
  for (const auto& child : node.children) SumStats(*child, seen, stats);
}

// Feeds each σ_A filter's observed selectivity back to the engine's
// correction table — the adaptive loop that shrinks systematic model
// error on repeated machines.  Nodes that never saw input carry no
// signal and are skipped.
void RecordSelectivities(const PlanNode& node,
                         std::set<const PlanNode*>* seen,
                         SelectivityFeedback* feedback) {
  if (!seen->insert(&node).second) return;
  if (node.op == Op::kFilterSelect && node.stats.tuples_in > 0) {
    feedback->Record(node.fsa_key(),
                     static_cast<double>(node.stats.tuples_out) /
                         static_cast<double>(node.stats.tuples_in));
  }
  for (const auto& child : node.children) {
    RecordSelectivities(*child, seen, feedback);
  }
}

// Fills `stats` from the executed (possibly partially executed) plan and
// the query's budget account.  Called on success and failure alike.
void FillStats(const PlanNode& root, const EvalOptions& options,
               int64_t wall_ns, int64_t rows_out, ExecStats* stats) {
  stats->wall_ns = wall_ns;
  stats->cache_hits = 0;
  stats->cache_misses = 0;
  stats->fsa_steps = 0;
  stats->memo_hits = 0;
  stats->rows_out = rows_out;
  stats->operators.clear();
  std::set<const PlanNode*> seen;
  SumStats(root, &seen, stats);
  if (options.budget != nullptr) {
    stats->budget_steps_used = options.budget->steps_used();
    stats->budget_rows_used = options.budget->rows_used();
    stats->budget_cached_bytes_used = options.budget->cached_bytes_used();
  }
  stats->plan = ExplainPlan(root, /*with_stats=*/true);
}

// Engine-wide instruments, resolved once.
struct EngineMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* queries = reg.GetCounter("engine.queries");
  Counter* failures = reg.GetCounter("engine.query_failures");
  Counter* exhausted = reg.GetCounter("engine.budget_exhausted");
  Histogram* wall_us = reg.GetHistogram("engine.query_wall_us");
  Histogram* rows = reg.GetHistogram("engine.query_rows");

  static EngineMetrics& Get() {
    static EngineMetrics* m = new EngineMetrics();
    return *m;
  }
};

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cache_max_bytes),
      pool_(options.num_threads) {}

Result<std::shared_ptr<PlanNode>> Engine::Plan(const AlgebraExpr& expr,
                                               const Database& db,
                                               const EvalOptions& options) {
  CostPlannerContext cost_ctx;
  cost_ctx.db = &db;
  cost_ctx.paged = options.paged;
  cost_ctx.stored_stats = options.stats;
  cost_ctx.stats = &stats_catalog_;
  cost_ctx.feedback = &feedback_;
  cost_ctx.densities = &densities_;
  cost_ctx.truncation = options.truncation;
  AlgebraExpr target = expr;
  if (options_.enable_rewrites) {
    RewriteOptions rewrites = options_.rewrites;
    rewrites.cost_planner = &cost_ctx;
    STRDB_ASSIGN_OR_RETURN(target, RewriteExpr(expr, db, rewrites));
  }
  Planner planner(db, options, cost_ctx);
  return planner.Lower(target);
}

Result<StringRelation> Engine::Execute(const AlgebraExpr& expr,
                                       const Database& db,
                                       const EvalOptions& options,
                                       ExecStats* stats) {
  EngineMetrics& metrics = EngineMetrics::Get();
  Clock::time_point start = Clock::now();
  metrics.queries->Increment();
  STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> root,
                         Plan(expr, db, options));
  Executor executor(db, options, options_,
                    options_.enable_cache ? &cache_ : nullptr, &pool_);
  Result<const StringRelation*> result = executor.Eval(root.get());
  int64_t wall_ns = ElapsedNs(start);
  metrics.wall_us->Record(wall_ns / 1000);
  std::set<const PlanNode*> seen;
  RecordSelectivities(*root, &seen, &feedback_);
  if (!result.ok()) {
    // The plan nodes keep whatever counters the partial run accumulated,
    // so a budget-exhausted query is still fully observable.
    metrics.failures->Increment();
    if (result.status().code() == StatusCode::kResourceExhausted) {
      metrics.exhausted->Increment();
    }
    if (stats != nullptr) {
      FillStats(*root, options, wall_ns, /*rows_out=*/0, stats);
    }
    return result.status();
  }
  StringRelation out = executor.TakeRoot(root.get());
  metrics.rows->Record(out.size());
  if (stats != nullptr) {
    FillStats(*root, options, wall_ns, out.size(), stats);
  }
  return out;
}

Result<std::string> Engine::Explain(const AlgebraExpr& expr,
                                    const Database& db,
                                    const EvalOptions& options) {
  STRDB_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> root,
                         Plan(expr, db, options));
  return ExplainPlan(*root, /*with_stats=*/false);
}

Engine& Engine::Shared() {
  // Leaked intentionally: the pool's worker threads must not be joined
  // during static destruction.
  static Engine* shared = new Engine();
  return *shared;
}

}  // namespace strdb
