#include "calculus/eval.h"

#include <optional>

namespace strdb {

namespace {

class NaiveEvaluator {
 public:
  NaiveEvaluator(const Database& db, const CalcEvalOptions& options)
      : db_(db), options_(options) {}

  Result<bool> Holds(const CalcFormula& f,
                     std::map<std::string, std::string>* binding) {
    if (++steps_ > options_.max_steps) {
      return Status::ResourceExhausted("naive evaluation exceeded max_steps");
    }
    switch (f.kind()) {
      case CalcFormula::Kind::kString: {
        std::vector<std::string> vars = f.str().Vars();
        std::vector<std::string> strings;
        strings.reserve(vars.size());
        for (const std::string& v : vars) {
          auto it = binding->find(v);
          if (it == binding->end()) {
            return Status::NotFound("free variable '" + v + "' unbound");
          }
          strings.push_back(it->second);
        }
        return f.str().AcceptsStrings(vars, strings);
      }
      case CalcFormula::Kind::kRelAtom: {
        STRDB_ASSIGN_OR_RETURN(const StringRelation* rel,
                               db_.Get(f.relation()));
        if (rel->arity() != static_cast<int>(f.args().size())) {
          return Status::InvalidArgument(
              "relation '" + f.relation() + "' used with arity " +
              std::to_string(f.args().size()));
        }
        Tuple t;
        t.reserve(f.args().size());
        for (const std::string& v : f.args()) {
          auto it = binding->find(v);
          if (it == binding->end()) {
            return Status::NotFound("free variable '" + v + "' unbound");
          }
          t.push_back(it->second);
        }
        return rel->Contains(t);
      }
      case CalcFormula::Kind::kAnd: {
        STRDB_ASSIGN_OR_RETURN(bool left, Holds(f.Left(), binding));
        if (!left) return false;
        return Holds(f.Right(), binding);
      }
      case CalcFormula::Kind::kOr: {
        STRDB_ASSIGN_OR_RETURN(bool left, Holds(f.Left(), binding));
        if (left) return true;
        return Holds(f.Right(), binding);
      }
      case CalcFormula::Kind::kNot: {
        STRDB_ASSIGN_OR_RETURN(bool inner, Holds(f.Left(), binding));
        return !inner;
      }
      case CalcFormula::Kind::kExists:
      case CalcFormula::Kind::kForAll: {
        const bool exists = f.kind() == CalcFormula::Kind::kExists;
        // Save and restore any outer binding of the shadowed name.
        auto it = binding->find(f.var());
        std::optional<std::string> saved;
        if (it != binding->end()) saved = it->second;
        for (const std::string& u : Domain()) {
          (*binding)[f.var()] = u;
          Result<bool> r = Holds(f.Left(), binding);
          if (!r.ok()) {
            RestoreBinding(binding, f.var(), saved);
            return r;
          }
          if (*r == exists) {
            RestoreBinding(binding, f.var(), saved);
            return exists;
          }
        }
        RestoreBinding(binding, f.var(), saved);
        return !exists;
      }
    }
    return Status::Internal("unknown calculus node");
  }

 private:
  static void RestoreBinding(std::map<std::string, std::string>* binding,
                             const std::string& var,
                             const std::optional<std::string>& saved) {
    if (saved.has_value()) {
      (*binding)[var] = *saved;
    } else {
      binding->erase(var);
    }
  }

  // Σ^{<=l}, built by the first quantifier that ranges over it: a
  // quantifier-free formula at a large l costs only its own test.
  const std::vector<std::string>& Domain() {
    if (!domain_.has_value()) {
      domain_ = db_.alphabet().StringsUpTo(options_.truncation);
    }
    return *domain_;
  }

  const Database& db_;
  const CalcEvalOptions& options_;
  std::optional<std::vector<std::string>> domain_;
  int64_t steps_ = 0;
};

}  // namespace

Result<bool> HoldsAt(const CalcFormula& formula, const Database& db,
                     const std::map<std::string, std::string>& binding,
                     const CalcEvalOptions& options) {
  for (const auto& [var, value] : binding) {
    if (static_cast<int>(value.size()) > options.truncation) {
      return Status::InvalidArgument("binding of '" + var +
                                     "' exceeds the truncation length");
    }
    if (!db.alphabet().Contains(value)) {
      return Status::InvalidArgument("binding of '" + var +
                                     "' leaves the alphabet");
    }
  }
  NaiveEvaluator evaluator(db, options);
  std::map<std::string, std::string> mutable_binding = binding;
  return evaluator.Holds(formula, &mutable_binding);
}

Result<StringRelation> EvalCalcNaive(const CalcFormula& formula,
                                     const Database& db,
                                     const CalcEvalOptions& options) {
  std::vector<std::string> free_vars = formula.FreeVars();
  std::vector<std::string> domain =
      db.alphabet().StringsUpTo(options.truncation);
  StringRelation out(static_cast<int>(free_vars.size()));
  NaiveEvaluator evaluator(db, options);

  std::vector<size_t> idx(free_vars.size(), 0);
  std::map<std::string, std::string> binding;
  for (;;) {
    for (size_t i = 0; i < free_vars.size(); ++i) {
      binding[free_vars[i]] = domain[idx[i]];
    }
    STRDB_ASSIGN_OR_RETURN(bool truth, evaluator.Holds(formula, &binding));
    if (truth) {
      Tuple t;
      t.reserve(free_vars.size());
      for (const std::string& v : free_vars) t.push_back(binding[v]);
      STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
    }
    if (free_vars.empty()) break;
    size_t d = 0;
    while (d < idx.size() && ++idx[d] == domain.size()) idx[d++] = 0;
    if (d == idx.size()) break;
  }
  return out;
}

}  // namespace strdb
