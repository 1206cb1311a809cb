#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace strdb {

namespace {

using Kind = AlgebraExpr::Kind;

bool IsIdentity(const std::vector<int>& order) {
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<int>(i)) return false;
  }
  return true;
}

// Column permutation induced by a factor order: restore[old_col] is the
// column's position after the factors are rearranged, so
// π_restore(reordered) reproduces the original layout.
std::vector<int> RestoreProjection(const std::vector<AlgebraExpr>& factors,
                                   const std::vector<int>& order) {
  std::vector<int> offsets(factors.size(), 0);
  int offset = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    offsets[i] = offset;
    offset += factors[i].arity();
  }
  std::vector<int> restore(static_cast<size_t>(offset));
  int pos = 0;
  for (int i : order) {
    for (int c = 0; c < factors[static_cast<size_t>(i)].arity(); ++c) {
      restore[static_cast<size_t>(offsets[static_cast<size_t>(i)] + c)] =
          pos++;
    }
  }
  return restore;
}

std::vector<AlgebraExpr> ApplyOrder(const std::vector<AlgebraExpr>& factors,
                                    const std::vector<int>& order) {
  std::vector<AlgebraExpr> sorted;
  sorted.reserve(factors.size());
  for (int i : order) sorted.push_back(factors[static_cast<size_t>(i)]);
  return sorted;
}

}  // namespace

Result<Fsa> PermuteTapes(const Fsa& fsa, const std::vector<int>& perm) {
  const int k = fsa.num_tapes();
  if (static_cast<int>(perm.size()) != k) {
    return Status::InvalidArgument("tape permutation size mismatch");
  }
  std::vector<bool> seen(static_cast<size_t>(k), false);
  for (int p : perm) {
    if (p < 0 || p >= k || seen[static_cast<size_t>(p)]) {
      return Status::InvalidArgument("not a tape permutation");
    }
    seen[static_cast<size_t>(p)] = true;
  }
  Fsa out(fsa.alphabet(), k);
  while (out.num_states() < fsa.num_states()) out.AddState();
  out.SetStart(fsa.start());
  for (int s = 0; s < fsa.num_states(); ++s) {
    if (fsa.IsFinal(s)) out.SetFinal(s);
  }
  for (const Transition& t : fsa.transitions()) {
    Transition nt;
    nt.from = t.from;
    nt.to = t.to;
    nt.read.resize(static_cast<size_t>(k));
    nt.move.resize(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      nt.read[static_cast<size_t>(i)] =
          t.read[static_cast<size_t>(perm[static_cast<size_t>(i)])];
      nt.move[static_cast<size_t>(i)] =
          t.move[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    }
    STRDB_RETURN_IF_ERROR(out.AddTransition(std::move(nt)));
  }
  return out;
}

std::vector<int> DpOrderFactors(const std::vector<double>& rows,
                                const CostModel& model) {
  const int n = static_cast<int>(rows.size());
  std::vector<int> identity(static_cast<size_t>(n));
  std::iota(identity.begin(), identity.end(), 0);
  if (n < 2 || n > kMaxDpFactors) return identity;

  constexpr double kInf = 1e300;
  const int full = (1 << n) - 1;
  std::vector<double> best(static_cast<size_t>(full) + 1, kInf);
  std::vector<double> subset_rows(static_cast<size_t>(full) + 1, 1.0);
  std::vector<int> choice(static_cast<size_t>(full) + 1, -1);
  for (int j = 0; j < n; ++j) {
    const double r = std::max(1.0, rows[static_cast<size_t>(j)]);
    best[static_cast<size_t>(1 << j)] = r * model.scan_ns;
    subset_rows[static_cast<size_t>(1 << j)] = r;
  }
  for (int mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton, seeded above
    const int low = mask & -mask;
    subset_rows[static_cast<size_t>(mask)] =
        std::min(1e300, subset_rows[static_cast<size_t>(low)] *
                            subset_rows[static_cast<size_t>(mask ^ low)]);
    const double build =
        subset_rows[static_cast<size_t>(mask)] * model.tuple_build_ns;
    for (int j = 0; j < n; ++j) {
      if ((mask & (1 << j)) == 0) continue;
      const int rest = mask ^ (1 << j);
      const double total = best[static_cast<size_t>(rest)] + build;
      // <= prefers the largest j as the last factor added, so exact
      // ties reconstruct to the identity order (no gratuitous
      // projections when every factor costs the same).
      if (total <= best[static_cast<size_t>(mask)]) {
        best[static_cast<size_t>(mask)] = total;
        choice[static_cast<size_t>(mask)] = j;
      }
    }
  }
  std::vector<int> order;
  int mask = full;
  while (mask != 0) {
    int j = choice[static_cast<size_t>(mask)];
    if (j < 0) j = __builtin_ctz(static_cast<unsigned>(mask));
    order.push_back(j);
    mask ^= 1 << j;
  }
  std::reverse(order.begin(), order.end());
  return order;
}

Result<AlgebraExpr> CostBasedReorder(const AlgebraExpr& e,
                                     const CostPlannerContext& ctx) {
  switch (e.kind()) {
    case Kind::kRelation:
    case Kind::kSigmaStar:
    case Kind::kSigmaL:
      return e;
    case Kind::kUnion: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, CostBasedReorder(e.Left(), ctx));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, CostBasedReorder(e.Right(), ctx));
      return AlgebraExpr::Union(std::move(l), std::move(r));
    }
    case Kind::kDifference: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr l, CostBasedReorder(e.Left(), ctx));
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr r, CostBasedReorder(e.Right(), ctx));
      return AlgebraExpr::Difference(std::move(l), std::move(r));
    }
    case Kind::kProject: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, CostBasedReorder(e.Left(), ctx));
      return AlgebraExpr::Project(std::move(c), e.columns());
    }
    case Kind::kRestrict: {
      STRDB_ASSIGN_OR_RETURN(AlgebraExpr c, CostBasedReorder(e.Left(), ctx));
      return AlgebraExpr::RestrictToDomain(std::move(c));
    }
    case Kind::kSelect: {
      std::vector<AlgebraExpr> factors;
      FlattenProduct(e.Left(), &factors);
      std::vector<AlgebraExpr> rebuilt;
      rebuilt.reserve(factors.size());
      for (const AlgebraExpr& f : factors) {
        STRDB_ASSIGN_OR_RETURN(AlgebraExpr rf, CostBasedReorder(f, ctx));
        rebuilt.push_back(std::move(rf));
      }
      if (rebuilt.size() < 2 ||
          e.fsa().num_tapes() != e.Left().arity()) {
        return AlgebraExpr::Select(BuildProduct(std::move(rebuilt)),
                                   e.keyed_fsa());
      }
      std::vector<double> rows;
      rows.reserve(rebuilt.size());
      for (const AlgebraExpr& f : rebuilt) {
        rows.push_back(EstimateRows(f, ctx));
      }
      const std::vector<int> order = DpOrderFactors(rows, ctx.model);
      if (IsIdentity(order)) {
        return AlgebraExpr::Select(BuildProduct(std::move(rebuilt)),
                                   e.keyed_fsa());
      }
      // Tape i of the permuted machine reads the factor placed at rank
      // i's old columns — the per-column expansion of `order`.
      std::vector<int> tape_perm;
      tape_perm.reserve(static_cast<size_t>(e.Left().arity()));
      std::vector<int> offsets(rebuilt.size(), 0);
      int offset = 0;
      for (size_t i = 0; i < rebuilt.size(); ++i) {
        offsets[i] = offset;
        offset += rebuilt[i].arity();
      }
      for (int i : order) {
        for (int c = 0; c < rebuilt[static_cast<size_t>(i)].arity(); ++c) {
          tape_perm.push_back(offsets[static_cast<size_t>(i)] + c);
        }
      }
      STRDB_ASSIGN_OR_RETURN(Fsa permuted, PermuteTapes(e.fsa(), tape_perm));
      std::vector<int> restore = RestoreProjection(rebuilt, order);
      std::vector<AlgebraExpr> sorted = ApplyOrder(rebuilt, order);
      STRDB_ASSIGN_OR_RETURN(
          AlgebraExpr selected,
          AlgebraExpr::Select(BuildProduct(std::move(sorted)),
                              std::move(permuted)));
      return AlgebraExpr::Project(std::move(selected), std::move(restore));
    }
    case Kind::kProduct:
      break;
  }
  std::vector<AlgebraExpr> factors;
  FlattenProduct(e, &factors);
  std::vector<AlgebraExpr> rebuilt;
  rebuilt.reserve(factors.size());
  for (const AlgebraExpr& f : factors) {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr rf, CostBasedReorder(f, ctx));
    rebuilt.push_back(std::move(rf));
  }
  std::vector<double> rows;
  rows.reserve(rebuilt.size());
  for (const AlgebraExpr& f : rebuilt) rows.push_back(EstimateRows(f, ctx));
  const std::vector<int> order = DpOrderFactors(rows, ctx.model);
  if (IsIdentity(order)) return BuildProduct(std::move(rebuilt));
  std::vector<int> restore = RestoreProjection(rebuilt, order);
  std::vector<AlgebraExpr> sorted = ApplyOrder(rebuilt, order);
  return AlgebraExpr::Project(BuildProduct(std::move(sorted)),
                              std::move(restore));
}

}  // namespace strdb
