#include "calculus/translate.h"

#include <algorithm>
#include <map>
#include <set>

#include "fsa/to_formula.h"

namespace strdb {

std::string ColumnVar(int i) { return "v" + std::to_string(i); }

// ---------------------------------------------------------------------------
// Theorem 4.2: calculus → algebra

Result<AlgebraExpr> JoinByPartition(AlgebraExpr f,
                                    const std::vector<std::vector<int>>& blocks,
                                    const Alphabet& alphabet,
                                    const CompileOptions& options) {
  const int a = f.arity();
  if (a == 0) return Status::InvalidArgument("cannot join an arity-0 value");
  std::vector<bool> covered(static_cast<size_t>(a), false);
  for (const std::vector<int>& block : blocks) {
    if (block.empty()) return Status::InvalidArgument("empty block");
    for (int c : block) {
      if (c < 0 || c >= a) return Status::OutOfRange("block column");
      if (covered[static_cast<size_t>(c)]) {
        return Status::InvalidArgument("blocks must be disjoint");
      }
      covered[static_cast<size_t>(c)] = true;
    }
  }
  if (!std::all_of(covered.begin(), covered.end(), [](bool b) { return b; })) {
    return Status::InvalidArgument("blocks must cover every column");
  }
  std::vector<int> projection;
  projection.reserve(blocks.size());
  for (const std::vector<int>& block : blocks) {
    projection.push_back(*std::min_element(block.begin(), block.end()));
  }
  if (static_cast<int>(blocks.size()) == a) {
    // No two columns must agree, so the automaton would accept every
    // tuple: only the column order changes (π[1,0] for R(y,x)), and
    // Project folds an order that is already ascending away.
    return AlgebraExpr::Project(std::move(f), std::move(projection));
  }

  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(a));
  for (int i = 0; i < a; ++i) names.push_back("c" + std::to_string(i));

  // Within-block equality window formula for the sliding loop.
  WindowFormula eq = WindowFormula::True();
  bool have_eq = false;
  for (const std::vector<int>& block : blocks) {
    int rep = *std::min_element(block.begin(), block.end());
    for (int c : block) {
      if (c == rep) continue;
      WindowFormula atom = WindowFormula::VarEq(
          names[static_cast<size_t>(c)], names[static_cast<size_t>(rep)]);
      eq = have_eq ? WindowFormula::And(std::move(eq), std::move(atom))
                   : std::move(atom);
      have_eq = true;
    }
  }
  // Final check: the paper's chain c0 = c1 = ... = ε (with Kleene
  // equality of undefined positions this says "all exhausted").
  WindowFormula done = WindowFormula::And(
      WindowFormula::AllEqual(names), WindowFormula::Undef(names.back()));
  StringFormula psi = StringFormula::Concat(
      StringFormula::Star(StringFormula::Atomic(Dir::kLeft, names, eq)),
      StringFormula::Atomic(Dir::kLeft, names, std::move(done)));

  STRDB_ASSIGN_OR_RETURN(Fsa fsa,
                         CompileStringFormula(psi, alphabet, names, options));
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr selected,
                         AlgebraExpr::Select(std::move(f), std::move(fsa)));
  return AlgebraExpr::Project(std::move(selected), std::move(projection));
}

namespace {

class CalcTranslator {
 public:
  CalcTranslator(const Alphabet& alphabet, const TranslateOptions& options)
      : alphabet_(alphabet), options_(options) {}

  // Produces an expression with one column per free variable of `f`,
  // ascending by variable name.
  Result<AlgebraExpr> Translate(const CalcFormula& f) {
    switch (f.kind()) {
      case CalcFormula::Kind::kString:
        return TranslateString(f.str());
      case CalcFormula::Kind::kRelAtom:
        return TranslateRelAtom(f);
      case CalcFormula::Kind::kAnd:
        return TranslateAnd(f);
      case CalcFormula::Kind::kOr:
        // φ ∨ ψ desugars to ¬(¬φ ∧ ¬ψ) as in the paper's minimal set.
        return Translate(CalcFormula::Not(CalcFormula::And(
            CalcFormula::Not(f.Left()), CalcFormula::Not(f.Right()))));
      case CalcFormula::Kind::kNot:
        return TranslateNot(f);
      case CalcFormula::Kind::kExists:
        return TranslateExists(f);
      case CalcFormula::Kind::kForAll:
        // ∀x.φ desugars to ¬∃x.¬φ.
        return Translate(CalcFormula::Not(
            CalcFormula::Exists({f.var()}, CalcFormula::Not(f.Left()))));
    }
    return Status::Internal("unknown calculus node");
  }

 private:
  AlgebraExpr SigmaStarPower(int m) {
    AlgebraExpr out = AlgebraExpr::SigmaStar();
    for (int i = 1; i < m; ++i) {
      out = AlgebraExpr::Product(std::move(out), AlgebraExpr::SigmaStar());
    }
    return out;
  }

  // The full arity-0 relation {()} is π_{}(Σ^0).
  Result<AlgebraExpr> FullNullary() {
    return AlgebraExpr::Project(AlgebraExpr::SigmaL(0), {});
  }

  Result<AlgebraExpr> TranslateString(const StringFormula& str) {
    std::vector<std::string> vars = str.Vars();
    if (vars.empty()) {
      // A variable-free string formula is a boolean condition; test it
      // over one unconstrained dummy tape and project everything away.
      STRDB_ASSIGN_OR_RETURN(
          Fsa fsa, CompileStringFormula(str, alphabet_, {"_dummy"},
                                        options_.compile));
      STRDB_ASSIGN_OR_RETURN(
          AlgebraExpr sel,
          AlgebraExpr::Select(AlgebraExpr::SigmaStar(), std::move(fsa)));
      return AlgebraExpr::Project(std::move(sel), {});
    }
    STRDB_ASSIGN_OR_RETURN(
        Fsa fsa, CompileStringFormula(str, alphabet_, vars, options_.compile));
    return AlgebraExpr::Select(SigmaStarPower(static_cast<int>(vars.size())),
                               std::move(fsa));
  }

  Result<AlgebraExpr> TranslateRelAtom(const CalcFormula& f) {
    const int n = static_cast<int>(f.args().size());
    AlgebraExpr rel = AlgebraExpr::Relation(f.relation(), n);
    if (n == 0) return rel;
    // Blocks: one per distinct variable, ascending, holding its
    // occurrence positions.
    std::set<std::string> distinct(f.args().begin(), f.args().end());
    std::vector<std::vector<int>> blocks;
    for (const std::string& v : distinct) {
      std::vector<int> block;
      for (int i = 0; i < n; ++i) {
        if (f.args()[static_cast<size_t>(i)] == v) block.push_back(i);
      }
      blocks.push_back(std::move(block));
    }
    // The paper's ∩ (Σ*)^m, which under ↓l bounds the answer strings.
    // It sits directly on R, where the planner drops it when max(R, db)
    // <= l, and under the π, which then fuses with a head's or an ∃'s.
    return JoinByPartition(AlgebraExpr::RestrictToDomain(std::move(rel)),
                           blocks, alphabet_, options_.compile);
  }

  // φ ∧ σ with σ a string formula compiles directly into the paper's
  // finitely-evaluable form σ_{A_σ}(E_φ × (Σ*)^new): the automaton's
  // tapes are laid out as φ's columns followed by σ's fresh variables,
  // so the evaluator can run A_σ as a generator over the fresh columns
  // with E_φ's tuples as inputs — instead of enumerating the truncated
  // domain for σ standalone and joining afterwards.
  Result<AlgebraExpr> TranslateAndWithString(const CalcFormula& other,
                                             const StringFormula& str) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr base, Translate(other));
    std::vector<std::string> base_vars = other.FreeVars();
    std::vector<std::string> str_vars = str.Vars();
    std::vector<std::string> fresh;
    for (const std::string& v : str_vars) {
      if (std::find(base_vars.begin(), base_vars.end(), v) ==
          base_vars.end()) {
        fresh.push_back(v);
      }
    }
    if (base_vars.empty()) {
      // No columns to feed the automaton: fall back to the plain string
      // translation gated by the boolean `other`.
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr str_expr, TranslateString(str));
      return AlgebraExpr::Product(std::move(str_expr), std::move(base));
    }
    std::vector<std::string> tape_order = base_vars;
    tape_order.insert(tape_order.end(), fresh.begin(), fresh.end());
    STRDB_ASSIGN_OR_RETURN(
        Fsa fsa,
        CompileStringFormula(str, alphabet_, tape_order, options_.compile));
    AlgebraExpr child = std::move(base);
    if (!fresh.empty()) {
      child = AlgebraExpr::Product(
          std::move(child), SigmaStarPower(static_cast<int>(fresh.size())));
    }
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr sel,
                           AlgebraExpr::Select(std::move(child),
                                               std::move(fsa)));
    // Reorder to ascending variable order over the union.
    std::vector<std::string> union_vars = tape_order;
    std::sort(union_vars.begin(), union_vars.end());
    std::vector<int> columns;
    for (const std::string& v : union_vars) {
      auto it = std::find(tape_order.begin(), tape_order.end(), v);
      columns.push_back(static_cast<int>(it - tape_order.begin()));
    }
    return AlgebraExpr::Project(std::move(sel), std::move(columns));
  }

  // Guarded negation: φ ∧ ¬ψ with free(ψ) = free(φ) is the difference
  // E_φ \ E_ψ — no Σ*-complement needed (both sides' columns are the
  // same ascending variable list).
  Result<AlgebraExpr> TranslateGuardedNot(const CalcFormula& guard,
                                          const CalcFormula& negated_body) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr base, Translate(guard));
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr removed, Translate(negated_body));
    return AlgebraExpr::Difference(std::move(base), std::move(removed));
  }

  Result<AlgebraExpr> TranslateAnd(const CalcFormula& f) {
    if (f.Right().kind() == CalcFormula::Kind::kNot &&
        f.Left().FreeVars() == f.Right().FreeVars()) {
      return TranslateGuardedNot(f.Left(), f.Right().Left());
    }
    if (f.Left().kind() == CalcFormula::Kind::kNot &&
        f.Left().FreeVars() == f.Right().FreeVars()) {
      return TranslateGuardedNot(f.Right(), f.Left().Left());
    }
    if (f.Right().kind() == CalcFormula::Kind::kString) {
      return TranslateAndWithString(f.Left(), f.Right().str());
    }
    if (f.Left().kind() == CalcFormula::Kind::kString) {
      return TranslateAndWithString(f.Right(), f.Left().str());
    }
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr left, Translate(f.Left()));
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr right, Translate(f.Right()));
    std::vector<std::string> lv = f.Left().FreeVars();
    std::vector<std::string> rv = f.Right().FreeVars();
    if (lv.empty() && rv.empty()) {
      // Boolean conjunction of two nullary values: intersection.
      return AlgebraExpr::Intersect(std::move(left), std::move(right));
    }
    if (lv.empty()) {
      // left is {()} or ∅: emptiness gates the right side.  E = right ×
      // left would reorder columns for nullary, but × with arity 0
      // simply keeps/cancels tuples, so the product works directly.
      return AlgebraExpr::Product(std::move(right), std::move(left));
    }
    if (rv.empty()) {
      return AlgebraExpr::Product(std::move(left), std::move(right));
    }
    AlgebraExpr product = AlgebraExpr::Product(std::move(left),
                                               std::move(right));
    std::vector<std::string> combined = lv;
    combined.insert(combined.end(), rv.begin(), rv.end());
    std::set<std::string> distinct(combined.begin(), combined.end());
    std::vector<std::vector<int>> blocks;
    for (const std::string& v : distinct) {
      std::vector<int> block;
      for (size_t i = 0; i < combined.size(); ++i) {
        if (combined[i] == v) block.push_back(static_cast<int>(i));
      }
      blocks.push_back(std::move(block));
    }
    return JoinByPartition(std::move(product), blocks, alphabet_,
                           options_.compile);
  }

  Result<AlgebraExpr> TranslateNot(const CalcFormula& f) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr inner, Translate(f.Left()));
    const int m = inner.arity();
    if (m == 0) {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr full, FullNullary());
      return AlgebraExpr::Difference(std::move(full), std::move(inner));
    }
    return AlgebraExpr::Difference(SigmaStarPower(m), std::move(inner));
  }

  Result<AlgebraExpr> TranslateExists(const CalcFormula& f) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr body, Translate(f.Left()));
    std::vector<std::string> body_vars = f.Left().FreeVars();
    auto it = std::find(body_vars.begin(), body_vars.end(), f.var());
    if (it == body_vars.end()) {
      // ∃x.φ with x not free in φ is φ (the domain is never empty).
      return body;
    }
    int drop = static_cast<int>(it - body_vars.begin());
    std::vector<int> keep;
    for (int i = 0; i < static_cast<int>(body_vars.size()); ++i) {
      if (i != drop) keep.push_back(i);
    }
    return AlgebraExpr::Project(std::move(body), std::move(keep));
  }

  const Alphabet& alphabet_;
  const TranslateOptions& options_;
};

}  // namespace

Result<AlgebraExpr> CalcToAlgebra(const CalcFormula& formula,
                                  const Alphabet& alphabet,
                                  const TranslateOptions& options) {
  CalcTranslator translator(alphabet, options);
  return translator.Translate(formula);
}

// ---------------------------------------------------------------------------
// Theorem 4.1: algebra → calculus

namespace {

class AlgebraTranslator {
 public:
  AlgebraTranslator(const Alphabet& alphabet, const ToCalcOptions& options)
      : alphabet_(alphabet), options_(options) {}

  // Produces a formula with free variables v0..v{arity-1}.
  Result<CalcFormula> Translate(const AlgebraExpr& e) {
    switch (e.kind()) {
      case AlgebraExpr::Kind::kRelation: {
        std::vector<std::string> args;
        for (int i = 0; i < e.arity(); ++i) args.push_back(ColumnVar(i));
        return CalcFormula::RelAtom(e.relation_name(), std::move(args));
      }
      case AlgebraExpr::Kind::kSigmaStar:
        // Identically true with free variable v0 (paper: [ ]l x1 = ε,
        // true in every initial alignment).
        return CalcFormula::Str(StringFormula::Atomic(
            Dir::kLeft, {}, WindowFormula::Undef(ColumnVar(0))));
      case AlgebraExpr::Kind::kSigmaL: {
        // ([v0]l ⊤)^l · [v0]l(v0 = ε): true iff |v0| <= l.
        StringFormula step = StringFormula::Atomic(
            Dir::kLeft, {ColumnVar(0)}, WindowFormula::True());
        StringFormula check = StringFormula::Atomic(
            Dir::kLeft, {ColumnVar(0)}, WindowFormula::Undef(ColumnVar(0)));
        return CalcFormula::Str(StringFormula::Concat(
            StringFormula::Power(std::move(step), e.sigma_l()),
            std::move(check)));
      }
      case AlgebraExpr::Kind::kUnion: {
        STRDB_ASSIGN_OR_RETURN(CalcFormula l, Translate(e.Left()));
        STRDB_ASSIGN_OR_RETURN(CalcFormula r, Translate(e.Right()));
        return CalcFormula::Or(std::move(l), std::move(r));
      }
      case AlgebraExpr::Kind::kDifference: {
        STRDB_ASSIGN_OR_RETURN(CalcFormula l, Translate(e.Left()));
        STRDB_ASSIGN_OR_RETURN(CalcFormula r, Translate(e.Right()));
        return CalcFormula::And(std::move(l),
                                CalcFormula::Not(std::move(r)));
      }
      case AlgebraExpr::Kind::kProduct: {
        STRDB_ASSIGN_OR_RETURN(CalcFormula l, Translate(e.Left()));
        STRDB_ASSIGN_OR_RETURN(CalcFormula r, Translate(e.Right()));
        std::map<std::string, std::string> shift;
        for (int i = 0; i < e.Right().arity(); ++i) {
          shift[ColumnVar(i)] = ColumnVar(i + e.Left().arity());
        }
        return CalcFormula::And(std::move(l), r.RenameFreeVars(shift));
      }
      case AlgebraExpr::Kind::kProject: {
        STRDB_ASSIGN_OR_RETURN(CalcFormula child, Translate(e.Left()));
        // Rename the dropped columns to fresh q-variables and quantify
        // them; rename kept column i_k to v_k (simultaneously).
        std::map<std::string, std::string> renaming;
        std::vector<bool> kept(static_cast<size_t>(e.Left().arity()), false);
        for (size_t k = 0; k < e.columns().size(); ++k) {
          int col = e.columns()[k];
          kept[static_cast<size_t>(col)] = true;
          renaming[ColumnVar(col)] = ColumnVar(static_cast<int>(k));
        }
        std::vector<std::string> quantified;
        for (int i = 0; i < e.Left().arity(); ++i) {
          if (kept[static_cast<size_t>(i)]) continue;
          std::string fresh = "q" + std::to_string(fresh_counter_++);
          renaming[ColumnVar(i)] = fresh;
          quantified.push_back(fresh);
        }
        CalcFormula body = child.RenameFreeVars(renaming);
        if (quantified.empty()) return body;
        return CalcFormula::Exists(quantified, std::move(body));
      }
      case AlgebraExpr::Kind::kSelect: {
        STRDB_ASSIGN_OR_RETURN(CalcFormula child, Translate(e.Left()));
        std::vector<std::string> vars;
        for (int i = 0; i < e.arity(); ++i) vars.push_back(ColumnVar(i));
        ToFormulaOptions opts;
        opts.max_formula_size = options_.max_formula_size;
        STRDB_ASSIGN_OR_RETURN(StringFormula phi,
                               FsaToStringFormula(e.fsa(), vars, opts));
        return CalcFormula::And(std::move(child),
                                CalcFormula::Str(std::move(phi)));
      }
      case AlgebraExpr::Kind::kRestrict:
        // ∩ (Σ*)^m is the identity on the calculus side (free variables
        // already range over the domain).
        return Translate(e.Left());
    }
    return Status::Internal("unknown algebra node");
  }

 private:
  const Alphabet& alphabet_;
  const ToCalcOptions& options_;
  int fresh_counter_ = 0;
};

}  // namespace

Result<CalcFormula> AlgebraToCalc(const AlgebraExpr& expr,
                                  const Alphabet& alphabet,
                                  const ToCalcOptions& options) {
  AlgebraTranslator translator(alphabet, options);
  return translator.Translate(expr);
}

}  // namespace strdb
