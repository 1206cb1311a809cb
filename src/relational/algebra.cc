#include "relational/algebra.h"

#include <cassert>
#include <optional>

#include "fsa/accept.h"
#include "fsa/generate.h"
#include "fsa/serialize.h"

namespace strdb {

struct AlgebraExpr::Node {
  Kind kind = Kind::kSigmaStar;
  int arity = 1;
  std::string name;                     // kRelation
  int l = 0;                            // kSigmaL
  std::optional<AlgebraExpr> left;      // binary ops, kProject, kSelect
  std::optional<AlgebraExpr> right;     // binary ops
  std::vector<int> columns;             // kProject
  std::shared_ptr<const KeyedFsa> fsa;  // kSelect
};

const std::string& KeyedFsa::key() const {
  std::call_once(key_once_, [this] { key_ = SerializeFsa(fsa_); });
  return key_;
}

AlgebraExpr AlgebraExpr::Relation(std::string name, int arity) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRelation;
  node->arity = arity;
  node->name = std::move(name);
  return AlgebraExpr(std::move(node));
}

AlgebraExpr AlgebraExpr::SigmaStar() {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSigmaStar;
  node->arity = 1;
  return AlgebraExpr(std::move(node));
}

AlgebraExpr AlgebraExpr::SigmaL(int l) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSigmaL;
  node->arity = 1;
  node->l = l;
  return AlgebraExpr(std::move(node));
}

Result<AlgebraExpr> AlgebraExpr::Union(AlgebraExpr a, AlgebraExpr b) {
  if (a.arity() != b.arity()) {
    return Status::InvalidArgument("union of expressions of unequal arity");
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kUnion;
  node->arity = a.arity();
  node->left = std::move(a);
  node->right = std::move(b);
  return AlgebraExpr(std::move(node));
}

Result<AlgebraExpr> AlgebraExpr::Difference(AlgebraExpr a, AlgebraExpr b) {
  if (a.arity() != b.arity()) {
    return Status::InvalidArgument(
        "difference of expressions of unequal arity");
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kDifference;
  node->arity = a.arity();
  node->left = std::move(a);
  node->right = std::move(b);
  return AlgebraExpr(std::move(node));
}

Result<AlgebraExpr> AlgebraExpr::Intersect(AlgebraExpr a, AlgebraExpr b) {
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr inner, Difference(a, std::move(b)));
  return Difference(std::move(a), std::move(inner));
}

AlgebraExpr AlgebraExpr::Product(AlgebraExpr a, AlgebraExpr b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kProduct;
  node->arity = a.arity() + b.arity();
  node->left = std::move(a);
  node->right = std::move(b);
  return AlgebraExpr(std::move(node));
}

Result<AlgebraExpr> AlgebraExpr::Project(AlgebraExpr child,
                                         std::vector<int> columns) {
  std::vector<bool> seen(static_cast<size_t>(child.arity()), false);
  for (int c : columns) {
    if (c < 0 || c >= child.arity()) {
      return Status::OutOfRange("projection column out of range");
    }
    if (seen[static_cast<size_t>(c)]) {
      return Status::InvalidArgument("projection columns must be distinct");
    }
    seen[static_cast<size_t>(c)] = true;
  }
  // π_a(π_b E) = π_{b∘a} E, and the identity projection is its child:
  // no plan ever holds a π over a π or a π that keeps every column in
  // place.
  if (child.kind() == Kind::kProject) {
    for (int& c : columns) c = child.columns()[static_cast<size_t>(c)];
    AlgebraExpr grandchild = child.Left();
    child = std::move(grandchild);
  }
  if (static_cast<int>(columns.size()) == child.arity()) {
    bool identity = true;
    for (size_t i = 0; i < columns.size(); ++i) {
      identity &= columns[i] == static_cast<int>(i);
    }
    if (identity) return child;
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kProject;
  node->arity = static_cast<int>(columns.size());
  node->left = std::move(child);
  node->columns = std::move(columns);
  return AlgebraExpr(std::move(node));
}

Result<AlgebraExpr> AlgebraExpr::Select(AlgebraExpr child, Fsa fsa) {
  return Select(std::move(child),
                std::make_shared<const KeyedFsa>(std::move(fsa)));
}

Result<AlgebraExpr> AlgebraExpr::Select(AlgebraExpr child,
                                        std::shared_ptr<const KeyedFsa> fsa) {
  if (fsa->fsa().num_tapes() != child.arity()) {
    return Status::InvalidArgument(
        "selection automaton tape count differs from expression arity");
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSelect;
  node->arity = child.arity();
  node->left = std::move(child);
  node->fsa = std::move(fsa);
  return AlgebraExpr(std::move(node));
}

AlgebraExpr AlgebraExpr::RestrictToDomain(AlgebraExpr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRestrict;
  node->arity = child.arity();
  node->left = std::move(child);
  return AlgebraExpr(std::move(node));
}

AlgebraExpr::Kind AlgebraExpr::kind() const { return node_->kind; }
int AlgebraExpr::arity() const { return node_->arity; }
const std::string& AlgebraExpr::relation_name() const { return node_->name; }
int AlgebraExpr::sigma_l() const { return node_->l; }
const AlgebraExpr& AlgebraExpr::Left() const {
  assert(node_->left.has_value());
  return *node_->left;
}
const AlgebraExpr& AlgebraExpr::Right() const {
  assert(node_->right.has_value());
  return *node_->right;
}
const std::vector<int>& AlgebraExpr::columns() const { return node_->columns; }
const Fsa& AlgebraExpr::fsa() const { return node_->fsa->fsa(); }
std::shared_ptr<const Fsa> AlgebraExpr::shared_fsa() const {
  return std::shared_ptr<const Fsa>(node_->fsa, &node_->fsa->fsa());
}
const std::shared_ptr<const KeyedFsa>& AlgebraExpr::keyed_fsa() const {
  return node_->fsa;
}

void FlattenProduct(const AlgebraExpr& expr, std::vector<AlgebraExpr>* out) {
  if (expr.kind() == AlgebraExpr::Kind::kProduct) {
    FlattenProduct(expr.Left(), out);
    FlattenProduct(expr.Right(), out);
  } else {
    out->push_back(expr);
  }
}

AlgebraExpr BuildProduct(std::vector<AlgebraExpr> factors) {
  AlgebraExpr out = std::move(factors.front());
  for (size_t i = 1; i < factors.size(); ++i) {
    out = AlgebraExpr::Product(std::move(out), std::move(factors[i]));
  }
  return out;
}

Result<AlgebraExpr> MapChildren(
    const AlgebraExpr& e,
    const std::function<Result<AlgebraExpr>(const AlgebraExpr&)>& f) {
  using Kind = AlgebraExpr::Kind;
  switch (e.kind()) {
    case Kind::kRelation:
    case Kind::kSigmaStar:
    case Kind::kSigmaL:
      return e;
    case Kind::kUnion:
    case Kind::kDifference:
    case Kind::kProduct: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, f(e.Left()));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, f(e.Right()));
      if (e.kind() == Kind::kProduct) {
        return AlgebraExpr::Product(std::move(l), std::move(r));
      }
      return e.kind() == Kind::kUnion
                 ? AlgebraExpr::Union(std::move(l), std::move(r))
                 : AlgebraExpr::Difference(std::move(l), std::move(r));
    }
    case Kind::kProject: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, f(e.Left()));
      return AlgebraExpr::Project(std::move(c), e.columns());
    }
    case Kind::kRestrict: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, f(e.Left()));
      return AlgebraExpr::RestrictToDomain(std::move(c));
    }
    case Kind::kSelect: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, f(e.Left()));
      return AlgebraExpr::Select(std::move(c), e.keyed_fsa());
    }
  }
  return Status::Internal("unknown algebra node kind");
}

bool AlgebraExpr::IsFinitelyEvaluable() const {
  switch (kind()) {
    case Kind::kRelation:
    case Kind::kSigmaL:
      return true;
    case Kind::kSigmaStar:
      return false;
    case Kind::kUnion:
    case Kind::kDifference:
    case Kind::kProduct:
      return Left().IsFinitelyEvaluable() && Right().IsFinitelyEvaluable();
    case Kind::kProject:
    case Kind::kRestrict:
      return Left().IsFinitelyEvaluable();
    case Kind::kSelect: {
      // σ_A(F × (Σ*)^n): Σ* factors are allowed directly under the
      // product here, all other factors must be finitely evaluable.
      std::vector<AlgebraExpr> factors;
      FlattenProduct(Left(), &factors);
      for (const AlgebraExpr& f : factors) {
        if (f.kind() == Kind::kSigmaStar) continue;
        if (!f.IsFinitelyEvaluable()) return false;
      }
      return true;
    }
  }
  return false;
}

std::string AlgebraExpr::ToString() const {
  switch (kind()) {
    case Kind::kRelation:
      return relation_name();
    case Kind::kSigmaStar:
      return "Sigma*";
    case Kind::kSigmaL:
      return "Sigma^" + std::to_string(sigma_l());
    case Kind::kUnion:
      return "(" + Left().ToString() + " u " + Right().ToString() + ")";
    case Kind::kDifference:
      return "(" + Left().ToString() + " \\ " + Right().ToString() + ")";
    case Kind::kProduct:
      return "(" + Left().ToString() + " x " + Right().ToString() + ")";
    case Kind::kProject: {
      std::string cols;
      for (size_t i = 0; i < columns().size(); ++i) {
        if (i > 0) cols += ",";
        cols += std::to_string(columns()[i]);
      }
      return "pi[" + cols + "](" + Left().ToString() + ")";
    }
    case Kind::kSelect:
      return "select[fsa:" + std::to_string(fsa().num_transitions()) +
             "t](" + Left().ToString() + ")";
    case Kind::kRestrict:
      return "restrict(" + Left().ToString() + ")";
  }
  return "?";
}

Result<StringRelation> DomainRelation(const Alphabet& sigma, int l,
                                      const EvalOptions& options) {
  const std::string& chars = sigma.chars();
  double count = 0;
  double level = 1;  // |Σ|^i
  for (int i = 0; i <= l; ++i) {
    count += level;
    if (count > static_cast<double>(options.max_tuples)) {
      return Status::ResourceExhausted("intermediate relation exceeds " +
                                       std::to_string(options.max_tuples) +
                                       " tuples");
    }
    level *= static_cast<double>(chars.size());
  }
  constexpr int64_t kDeadlineStride = 4096;
  StringRelation out(1);
  int64_t built = 0;
  for (int n = 0; n <= l; ++n) {
    // An odometer over symbol ids, the last position turning fastest.
    const size_t len = static_cast<size_t>(n);
    std::vector<size_t> digits(len, 0);
    std::string s(len, chars[0]);
    for (;;) {
      STRDB_RETURN_IF_ERROR(out.Insert({s}));
      if (++built % kDeadlineStride == 0 && options.budget != nullptr) {
        STRDB_RETURN_IF_ERROR(options.budget->CheckDeadline());
      }
      size_t i = len;
      for (; i > 0 && digits[i - 1] + 1 == chars.size(); --i) {
        digits[i - 1] = 0;
        s[i - 1] = chars[0];
      }
      if (i == 0) break;
      s[i - 1] = chars[++digits[i - 1]];
    }
  }
  return out;
}

namespace {

class AlgebraEvaluatorImpl {
 public:
  AlgebraEvaluatorImpl(const Database& db, const EvalOptions& options)
      : db_(db), options_(options) {}

  Result<StringRelation> Eval(const AlgebraExpr& e) {
    if (options_.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options_.budget->CheckDeadline());
    }
    STRDB_ASSIGN_OR_RETURN(StringRelation out, EvalNode(e));
    if (options_.budget != nullptr) {
      STRDB_RETURN_IF_ERROR(options_.budget->ChargeRows(out.size()));
    }
    return out;
  }

 private:
  Result<StringRelation> EvalNode(const AlgebraExpr& e) {
    switch (e.kind()) {
      case AlgebraExpr::Kind::kRelation: {
        if (options_.paged != nullptr && !db_.Has(e.relation_name())) {
          auto it = options_.paged->find(e.relation_name());
          if (it != options_.paged->end()) {
            const TupleSource& source = *it->second;
            if (source.arity() != e.arity()) {
              return Status::InvalidArgument(
                  "paged relation '" + e.relation_name() + "' has arity " +
                  std::to_string(source.arity()) + ", expression expects " +
                  std::to_string(e.arity()));
            }
            return source.Materialize();
          }
        }
        STRDB_ASSIGN_OR_RETURN(const StringRelation* rel,
                               db_.Get(e.relation_name()));
        if (rel->arity() != e.arity()) {
          return Status::InvalidArgument(
              "relation '" + e.relation_name() + "' has arity " +
              std::to_string(rel->arity()) + ", expression expects " +
              std::to_string(e.arity()));
        }
        return *rel;
      }
      case AlgebraExpr::Kind::kSigmaStar:
        return Domain(options_.truncation);
      case AlgebraExpr::Kind::kSigmaL:
        return Domain(e.sigma_l());
      case AlgebraExpr::Kind::kUnion: {
        STRDB_ASSIGN_OR_RETURN(StringRelation a, Eval(e.Left()));
        STRDB_ASSIGN_OR_RETURN(StringRelation b, Eval(e.Right()));
        StringRelation out = std::move(a);
        for (const Tuple& t : b.tuples()) {
          STRDB_RETURN_IF_ERROR(out.Insert(t));
        }
        return CheckSize(std::move(out));
      }
      case AlgebraExpr::Kind::kDifference: {
        STRDB_ASSIGN_OR_RETURN(StringRelation a, Eval(e.Left()));
        STRDB_ASSIGN_OR_RETURN(StringRelation b, Eval(e.Right()));
        StringRelation out(a.arity());
        for (const Tuple& t : a.tuples()) {
          if (!b.Contains(t)) {
            STRDB_RETURN_IF_ERROR(out.Insert(t));
          }
        }
        return out;
      }
      case AlgebraExpr::Kind::kProduct: {
        STRDB_ASSIGN_OR_RETURN(StringRelation a, Eval(e.Left()));
        STRDB_ASSIGN_OR_RETURN(StringRelation b, Eval(e.Right()));
        StringRelation out(a.arity() + b.arity());
        for (const Tuple& ta : a.tuples()) {
          for (const Tuple& tb : b.tuples()) {
            Tuple t = ta;
            t.insert(t.end(), tb.begin(), tb.end());
            STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
          }
          if (out.size() > options_.max_tuples) {
            return Status::ResourceExhausted("product exceeds max_tuples");
          }
        }
        return out;
      }
      case AlgebraExpr::Kind::kProject: {
        STRDB_ASSIGN_OR_RETURN(StringRelation child, Eval(e.Left()));
        StringRelation out(e.arity());
        for (const Tuple& t : child.tuples()) {
          Tuple proj;
          proj.reserve(e.columns().size());
          for (int c : e.columns()) {
            proj.push_back(t[static_cast<size_t>(c)]);
          }
          STRDB_RETURN_IF_ERROR(out.Insert(std::move(proj)));
        }
        return out;
      }
      case AlgebraExpr::Kind::kSelect:
        return EvalSelect(e);
      case AlgebraExpr::Kind::kRestrict: {
        STRDB_ASSIGN_OR_RETURN(StringRelation child, Eval(e.Left()));
        return child.TruncatedTo(options_.truncation);
      }
    }
    return Status::Internal("unknown algebra node kind");
  }

 private:
  Result<StringRelation> CheckSize(StringRelation rel) const {
    if (rel.size() > options_.max_tuples) {
      return Status::ResourceExhausted("intermediate relation exceeds " +
                                       std::to_string(options_.max_tuples) +
                                       " tuples");
    }
    return rel;
  }

  Result<StringRelation> Domain(int l) const {
    return DomainRelation(db_.alphabet(), l, options_);
  }

  Result<StringRelation> EvalSelect(const AlgebraExpr& e) {
    const Fsa& fsa = e.fsa();
    std::vector<AlgebraExpr> factors;
    FlattenProduct(e.Left(), &factors);
    bool has_star = false;
    for (const AlgebraExpr& f : factors) {
      if (f.kind() == AlgebraExpr::Kind::kSigmaStar) has_star = true;
    }
    if (!has_star || !fsa.FinalStatesHaveNoExits()) {
      // Plain filtering semantics: evaluate the child (Σ* becomes Σ^l)
      // and keep the accepted tuples.
      STRDB_ASSIGN_OR_RETURN(StringRelation child, Eval(e.Left()));
      StringRelation out(e.arity());
      AcceptOptions accept_opts;
      accept_opts.budget = options_.budget;
      for (const Tuple& t : child.tuples()) {
        STRDB_ASSIGN_OR_RETURN(bool acc, Accepts(fsa, t, accept_opts));
        if (acc) {
          STRDB_RETURN_IF_ERROR(out.Insert(t));
        }
      }
      return out;
    }
    // The finitely-evaluable form σ_A(F × (Σ*)^n): run the automaton as
    // a generator, with the Σ* columns free and everything else fixed
    // from the materialised factors.
    std::vector<std::optional<StringRelation>> values;  // per factor
    std::vector<int> factor_offset;
    int offset = 0;
    for (const AlgebraExpr& f : factors) {
      factor_offset.push_back(offset);
      offset += f.arity();
      if (f.kind() == AlgebraExpr::Kind::kSigmaStar) {
        values.emplace_back(std::nullopt);
      } else {
        STRDB_ASSIGN_OR_RETURN(StringRelation v, Eval(f));
        values.emplace_back(std::move(v));
      }
    }
    GenerateOptions gen_opts;
    gen_opts.max_len = options_.truncation;
    gen_opts.max_steps = options_.max_steps;
    gen_opts.max_results = options_.max_tuples;
    gen_opts.budget = options_.budget;

    StringRelation out(e.arity());
    // Iterate the cartesian product of the materialised factors.
    std::vector<std::set<Tuple>::const_iterator> iters;
    std::vector<const std::set<Tuple>*> sets;
    for (const auto& v : values) {
      if (!v.has_value()) continue;
      sets.push_back(&v->tuples());
      iters.push_back(v->tuples().begin());
    }
    for (const std::set<Tuple>* s : sets) {
      if (s->empty()) return out;  // empty product
    }
    for (;;) {
      // Assemble the fixed-columns pattern.
      std::vector<std::optional<std::string>> fixed(
          static_cast<size_t>(e.arity()), std::nullopt);
      std::vector<int> free_columns;
      size_t which = 0;
      for (size_t fi = 0; fi < factors.size(); ++fi) {
        if (!values[fi].has_value()) {
          free_columns.push_back(factor_offset[fi]);
          continue;
        }
        const Tuple& t = *iters[which++];
        for (int c = 0; c < factors[fi].arity(); ++c) {
          fixed[static_cast<size_t>(factor_offset[fi] + c)] =
              t[static_cast<size_t>(c)];
        }
      }
      STRDB_ASSIGN_OR_RETURN(std::set<std::vector<std::string>> generated,
                             GenerateAccepted(fsa, fixed, gen_opts));
      for (const std::vector<std::string>& frees : generated) {
        Tuple full(static_cast<size_t>(e.arity()));
        for (size_t c = 0; c < full.size(); ++c) {
          if (fixed[c].has_value()) full[c] = *fixed[c];
        }
        for (size_t fc = 0; fc < free_columns.size(); ++fc) {
          full[static_cast<size_t>(free_columns[fc])] = frees[fc];
        }
        STRDB_RETURN_IF_ERROR(out.Insert(std::move(full)));
      }
      if (out.size() > options_.max_tuples) {
        return Status::ResourceExhausted("selection exceeds max_tuples");
      }
      // Advance the factor odometer.
      size_t d = 0;
      for (; d < iters.size(); ++d) {
        if (++iters[d] != sets[d]->end()) break;
        iters[d] = sets[d]->begin();
      }
      if (d == iters.size()) break;
      if (iters.empty()) break;
    }
    return out;
  }

  const Database& db_;
  const EvalOptions& options_;
};

}  // namespace

Result<StringRelation> EvalAlgebra(const AlgebraExpr& expr, const Database& db,
                                   const EvalOptions& options) {
  AlgebraEvaluatorImpl evaluator(db, options);
  return evaluator.Eval(expr);
}

}  // namespace strdb
