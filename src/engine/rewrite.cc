#include "engine/rewrite.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/planner.h"
#include "fsa/specialize.h"

namespace strdb {

namespace {

using Kind = AlgebraExpr::Kind;

// Tape i is disregarded by `fsa` iff every transition pins it to ⊢ and
// never moves it — acceptance is then independent of the tape's content
// (the shape Fsa::DisregardTape produces).
std::vector<bool> DisregardedTapes(const Fsa& fsa) {
  std::vector<bool> ignored(static_cast<size_t>(fsa.num_tapes()),
                            !fsa.transitions().empty());
  for (const Transition& t : fsa.transitions()) {
    for (size_t i = 0; i < ignored.size(); ++i) {
      if (t.read[i] != kLeftEnd || t.move[i] != 0) ignored[i] = false;
    }
  }
  return ignored;
}

// Rebuilds `fsa` without the tapes marked in `drop`.  Only valid for
// disregarded tapes (the computation structure is unchanged).
Result<Fsa> DropTapes(const Fsa& fsa, const std::vector<bool>& drop) {
  int kept = 0;
  for (bool d : drop) kept += d ? 0 : 1;
  Fsa out(fsa.alphabet(), kept);
  while (out.num_states() < fsa.num_states()) out.AddState();
  out.SetStart(fsa.start());
  for (int s = 0; s < fsa.num_states(); ++s) {
    if (fsa.IsFinal(s)) out.SetFinal(s);
  }
  for (const Transition& t : fsa.transitions()) {
    Transition nt;
    nt.from = t.from;
    nt.to = t.to;
    for (size_t i = 0; i < drop.size(); ++i) {
      if (drop[i]) continue;
      nt.read.push_back(t.read[i]);
      nt.move.push_back(t.move[i]);
    }
    STRDB_RETURN_IF_ERROR(out.AddTransition(std::move(nt)));
  }
  return out;
}

// Splits the factors of a σ child into kept and pulled-out parts and
// rebuilds π_restore(σ_{A'}(∏kept) × ∏pulled).  `pulled[i]` marks
// factors moved out; the caller guarantees ≥1 kept factor and supplies
// the tape-reduced (or specialised) automaton.
Result<AlgebraExpr> RebuildSplitSelect(const std::vector<AlgebraExpr>& factors,
                                       const std::vector<bool>& pulled,
                                       Fsa reduced) {
  std::vector<AlgebraExpr> kept_factors, pulled_factors;
  std::vector<int> offsets(factors.size(), 0);
  int offset = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    offsets[i] = offset;
    offset += factors[i].arity();
    (pulled[i] ? pulled_factors : kept_factors).push_back(factors[i]);
  }
  STRDB_ASSIGN_OR_RETURN(
      AlgebraExpr inner,
      AlgebraExpr::Select(BuildProduct(std::move(kept_factors)),
                          std::move(reduced)));
  AlgebraExpr joined = AlgebraExpr::Product(
      std::move(inner), BuildProduct(std::move(pulled_factors)));
  // Column c of the original layout now lives at: its offset within the
  // kept block, or kept_arity + its offset within the pulled block.
  int kept_arity = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    if (!pulled[i]) kept_arity += factors[i].arity();
  }
  std::vector<int> restore(static_cast<size_t>(offset));
  int kept_pos = 0, pulled_pos = kept_arity;
  for (size_t i = 0; i < factors.size(); ++i) {
    int& pos = pulled[i] ? pulled_pos : kept_pos;
    for (int c = 0; c < factors[i].arity(); ++c) {
      restore[static_cast<size_t>(offsets[i] + c)] = pos++;
    }
  }
  return AlgebraExpr::Project(std::move(joined), std::move(restore));
}

// --- pass 1: selection pushdown --------------------------------------------

Result<AlgebraExpr> PushdownSelections(const AlgebraExpr& e);

Result<AlgebraExpr> PushdownSelect(const AlgebraExpr& select,
                                   AlgebraExpr child) {
  const Fsa& fsa = select.fsa();
  if (child.kind() == Kind::kUnion) {
    STRDB_ASSIGN_OR_RETURN(
        AlgebraExpr left,
        AlgebraExpr::Select(child.Left(), select.keyed_fsa()));
    STRDB_ASSIGN_OR_RETURN(
        AlgebraExpr right,
        AlgebraExpr::Select(child.Right(), select.keyed_fsa()));
    STRDB_ASSIGN_OR_RETURN(left, PushdownSelections(left));
    STRDB_ASSIGN_OR_RETURN(right, PushdownSelections(right));
    return AlgebraExpr::Union(std::move(left), std::move(right));
  }
  if (child.kind() == Kind::kProduct) {
    std::vector<AlgebraExpr> factors;
    FlattenProduct(child, &factors);
    std::vector<bool> ignored = DisregardedTapes(fsa);
    std::vector<bool> pulled(factors.size(), false);
    int offset = 0, kept = 0;
    for (size_t i = 0; i < factors.size(); ++i) {
      bool all_ignored = true;
      for (int c = 0; c < factors[i].arity(); ++c) {
        all_ignored &= ignored[static_cast<size_t>(offset + c)];
      }
      offset += factors[i].arity();
      // A pulled-out Σ* would sit bare outside the σ and lose finite
      // evaluability; leave those to the generator.
      pulled[i] = all_ignored && factors[i].kind() != Kind::kSigmaStar;
      kept += pulled[i] ? 0 : 1;
    }
    if (kept == 0) pulled[0] = false;  // keep the automaton ≥ 1 tape
    if (std::find(pulled.begin(), pulled.end(), true) == pulled.end()) {
      return AlgebraExpr::Select(std::move(child), select.keyed_fsa());
    }
    std::vector<bool> drop;
    for (size_t i = 0; i < factors.size(); ++i) {
      for (int c = 0; c < factors[i].arity(); ++c) drop.push_back(pulled[i]);
    }
    STRDB_ASSIGN_OR_RETURN(Fsa reduced, DropTapes(fsa, drop));
    return RebuildSplitSelect(factors, pulled, std::move(reduced));
  }
  return AlgebraExpr::Select(std::move(child), select.keyed_fsa());
}

Result<AlgebraExpr> PushdownSelections(const AlgebraExpr& e) {
  switch (e.kind()) {
    case Kind::kRelation:
    case Kind::kSigmaStar:
    case Kind::kSigmaL:
      return e;
    case Kind::kUnion: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, PushdownSelections(e.Left()));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, PushdownSelections(e.Right()));
      return AlgebraExpr::Union(std::move(l), std::move(r));
    }
    case Kind::kDifference: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, PushdownSelections(e.Left()));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, PushdownSelections(e.Right()));
      return AlgebraExpr::Difference(std::move(l), std::move(r));
    }
    case Kind::kProduct: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, PushdownSelections(e.Left()));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, PushdownSelections(e.Right()));
      return AlgebraExpr::Product(std::move(l), std::move(r));
    }
    case Kind::kProject: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, PushdownSelections(e.Left()));
      return AlgebraExpr::Project(std::move(c), e.columns());
    }
    case Kind::kRestrict: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, PushdownSelections(e.Left()));
      return AlgebraExpr::RestrictToDomain(std::move(c));
    }
    case Kind::kSelect: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, PushdownSelections(e.Left()));
      return PushdownSelect(e, std::move(c));
    }
  }
  return Status::Internal("unknown algebra node kind");
}

// --- pass 2: Lemma 3.1 constant-column specialisation -----------------------

Result<AlgebraExpr> SpecializeConstants(const AlgebraExpr& e,
                                        const Database& db) {
  switch (e.kind()) {
    case Kind::kRelation:
    case Kind::kSigmaStar:
    case Kind::kSigmaL:
      return e;
    case Kind::kUnion: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, SpecializeConstants(e.Left(), db));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r,
                             SpecializeConstants(e.Right(), db));
      return AlgebraExpr::Union(std::move(l), std::move(r));
    }
    case Kind::kDifference: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, SpecializeConstants(e.Left(), db));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r,
                             SpecializeConstants(e.Right(), db));
      return AlgebraExpr::Difference(std::move(l), std::move(r));
    }
    case Kind::kProduct: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, SpecializeConstants(e.Left(), db));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r,
                             SpecializeConstants(e.Right(), db));
      return AlgebraExpr::Product(std::move(l), std::move(r));
    }
    case Kind::kProject: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, SpecializeConstants(e.Left(), db));
      return AlgebraExpr::Project(std::move(c), e.columns());
    }
    case Kind::kRestrict: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, SpecializeConstants(e.Left(), db));
      return AlgebraExpr::RestrictToDomain(std::move(c));
    }
    case Kind::kSelect:
      break;
  }
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr child, SpecializeConstants(e.Left(), db));
  std::vector<AlgebraExpr> factors;
  FlattenProduct(child, &factors);
  std::vector<bool> constant(factors.size(), false);
  std::vector<std::optional<std::string>> fixed(
      static_cast<size_t>(e.arity()), std::nullopt);
  int offset = 0;
  size_t num_constant = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    if (factors[i].kind() == Kind::kRelation && db.Has(factors[i].relation_name())) {
      const StringRelation* rel = *db.Get(factors[i].relation_name());
      if (rel->size() == 1 && rel->arity() == factors[i].arity()) {
        const Tuple& tuple = *rel->tuples().begin();
        for (int c = 0; c < factors[i].arity(); ++c) {
          fixed[static_cast<size_t>(offset + c)] =
              tuple[static_cast<size_t>(c)];
        }
        constant[i] = true;
        ++num_constant;
      }
    }
    offset += factors[i].arity();
  }
  if (num_constant == 0 || num_constant == factors.size()) {
    return AlgebraExpr::Select(std::move(child), e.keyed_fsa());
  }
  Result<Fsa> specialized = Specialize(e.fsa(), fixed);
  if (!specialized.ok()) {
    // The lemma construction tripping a budget is not an error of the
    // query: keep the unspecialised form.
    return AlgebraExpr::Select(std::move(child), e.keyed_fsa());
  }
  return RebuildSplitSelect(factors, constant, *std::move(specialized));
}

// Pass 3, product reordering, is CostBasedReorder (engine/planner).

// --- pass 4: common-subexpression elimination -------------------------------

// Hash-consing rebuild: every structurally distinct subtree gets one
// shared node, keyed by a small id-composed signature (child signatures
// collapse to ids, so keys stay O(1) per node).
class HashCons {
 public:
  Result<AlgebraExpr> Canonical(const AlgebraExpr& e) {
    std::string key;
    switch (e.kind()) {
      case Kind::kRelation:
        key = "R/" + e.relation_name() + "/" +
              std::to_string(e.arity());
        break;
      case Kind::kSigmaStar:
        key = "S*";
        break;
      case Kind::kSigmaL:
        key = "S^" + std::to_string(e.sigma_l());
        break;
      case Kind::kUnion:
      case Kind::kDifference:
      case Kind::kProduct: {
        STRDB_ASSIGN_OR_RETURN(int l, Id(e.Left()));
        STRDB_ASSIGN_OR_RETURN(int r, Id(e.Right()));
        key = std::string(e.kind() == Kind::kUnion       ? "u"
                          : e.kind() == Kind::kDifference ? "d"
                                                          : "x") +
              "/" + std::to_string(l) + "," + std::to_string(r);
        break;
      }
      case Kind::kProject: {
        STRDB_ASSIGN_OR_RETURN(int c, Id(e.Left()));
        key = "p/" + std::to_string(c) + "/";
        for (int col : e.columns()) key += std::to_string(col) + ",";
        break;
      }
      case Kind::kRestrict: {
        STRDB_ASSIGN_OR_RETURN(int c, Id(e.Left()));
        key = "t/" + std::to_string(c);
        break;
      }
      case Kind::kSelect: {
        STRDB_ASSIGN_OR_RETURN(int c, Id(e.Left()));
        key = "s/" + std::to_string(c) + "/" + std::to_string(FsaId(e));
        break;
      }
    }
    auto it = pool_.find(key);
    if (it != pool_.end()) return it->second;
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr canonical, Rebuild(e));
    pool_.emplace(key, canonical);
    ids_.emplace(canonical.node_identity(), static_cast<int>(ids_.size()));
    return canonical;
  }

 private:
  Result<int> Id(const AlgebraExpr& e) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr canonical, Canonical(e));
    return ids_.at(canonical.node_identity());
  }

  // Structurally equal automata share an id: handles first, then their
  // carried keys.
  int FsaId(const AlgebraExpr& select) {
    const KeyedFsa* handle = select.keyed_fsa().get();
    auto it = fsa_ids_.find(handle);
    if (it != fsa_ids_.end()) return it->second;
    auto [tit, inserted] = fsa_text_ids_.emplace(
        select.keyed_fsa()->key(), static_cast<int>(fsa_text_ids_.size()));
    fsa_ids_.emplace(handle, tit->second);
    return tit->second;
  }

  // Rebuilds one node over canonical children (children are already in
  // the pool by the time this runs).
  Result<AlgebraExpr> Rebuild(const AlgebraExpr& e) {
    switch (e.kind()) {
      case Kind::kRelation:
      case Kind::kSigmaStar:
      case Kind::kSigmaL:
        return e;
      case Kind::kUnion: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, Canonical(e.Left()));
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, Canonical(e.Right()));
        return AlgebraExpr::Union(std::move(l), std::move(r));
      }
      case Kind::kDifference: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, Canonical(e.Left()));
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, Canonical(e.Right()));
        return AlgebraExpr::Difference(std::move(l), std::move(r));
      }
      case Kind::kProduct: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, Canonical(e.Left()));
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, Canonical(e.Right()));
        return AlgebraExpr::Product(std::move(l), std::move(r));
      }
      case Kind::kProject: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, Canonical(e.Left()));
        return AlgebraExpr::Project(std::move(c), e.columns());
      }
      case Kind::kRestrict: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, Canonical(e.Left()));
        return AlgebraExpr::RestrictToDomain(std::move(c));
      }
      case Kind::kSelect: {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, Canonical(e.Left()));
        return AlgebraExpr::Select(std::move(c), e.keyed_fsa());
      }
    }
    return Status::Internal("unknown algebra node kind");
  }

  std::map<std::string, AlgebraExpr> pool_;
  std::map<const AlgebraExpr::Node*, int> ids_;
  std::map<const KeyedFsa*, int> fsa_ids_;
  std::map<std::string, int> fsa_text_ids_;
};

}  // namespace

Result<AlgebraExpr> RewriteExpr(const AlgebraExpr& expr, const Database& db,
                                const RewriteOptions& rewrites) {
  AlgebraExpr current = expr;
  const bool finitely_evaluable = expr.IsFinitelyEvaluable();
  auto guard = [&](Result<AlgebraExpr> candidate) {
    if (!candidate.ok()) return;  // a pass bailing out keeps the input
    if (candidate->arity() != current.arity()) return;
    if (finitely_evaluable && !candidate->IsFinitelyEvaluable()) return;
    current = *std::move(candidate);
  };
  if (rewrites.pushdown_selections) {
    guard(PushdownSelections(current));
  }
  if (rewrites.specialize_constants) {
    guard(SpecializeConstants(current, db));
  }
  if (rewrites.reorder_products && rewrites.cost_planner != nullptr) {
    // A failed DP pass leaves `current` in its written order.
    guard(CostBasedReorder(current, *rewrites.cost_planner));
  }
  if (rewrites.common_subexpressions) {
    HashCons cse;
    guard(cse.Canonical(current));
  }
  return current;
}

}  // namespace strdb
