#include "engine/cost.h"

#include <algorithm>
#include <cmath>

#include "fsa/dfa/dfa.h"

namespace strdb {

namespace {

using Kind = AlgebraExpr::Kind;

constexpr double kRowCap = 1e18;

// Resolves statistics for relation `name`: the supplied map first
// (spilled relations, in serving), then the live Database (epoch-
// cached).  The aliasing constructor keeps supplied entries usable
// without copying.
std::shared_ptr<const RelationStats> LookupStats(
    const std::string& name, const CostPlannerContext& ctx) {
  if (ctx.stored_stats != nullptr) {
    auto it = ctx.stored_stats->find(name);
    if (it != ctx.stored_stats->end()) {
      return std::shared_ptr<const RelationStats>(
          std::shared_ptr<const StatsMap>(), &it->second);
    }
  }
  if (ctx.stats != nullptr && ctx.db != nullptr) {
    return ctx.stats->Get(*ctx.db, name);
  }
  return nullptr;
}

double DomainCount(const CostPlannerContext& ctx, int l) {
  const double sigma =
      ctx.db != nullptr ? static_cast<double>(ctx.db->alphabet().size()) : 2.0;
  double total = 0, level = 1;
  for (int i = 0; i <= l; ++i) {
    total += level;
    level *= sigma;
    if (total > kRowCap) return kRowCap;
  }
  return total;
}

// Mean length of a uniform draw from Σ^{<=l}: Σ i·σ^i / Σ σ^i.
double DomainExpectedLength(const CostPlannerContext& ctx, int l) {
  const double sigma =
      ctx.db != nullptr ? static_cast<double>(ctx.db->alphabet().size()) : 2.0;
  double total = 0, weighted = 0, level = 1;
  for (int i = 0; i <= l; ++i) {
    total += level;
    weighted += static_cast<double>(i) * level;
    level *= sigma;
    if (total > kRowCap) break;
  }
  return total > 0 ? weighted / total : 0.0;
}

ColumnDist DistFromStats(const ColumnStats& col, int64_t rows) {
  ColumnDist dist;
  dist.expected_len = col.ExpectedLength(rows);
  double total = 0;
  for (int64_t f : col.char_freq) total += static_cast<double>(f);
  if (total > 0) {
    dist.char_weight.resize(256, 0.0);
    for (int b = 0; b < 256; ++b) {
      dist.char_weight[static_cast<size_t>(b)] =
          static_cast<double>(col.char_freq[static_cast<size_t>(b)]);
    }
  }
  return dist;
}

// Quantised signature of the column model, the density memo's key
// suffix: coarse enough that near-identical models share an entry,
// fine enough that genuinely different statistics recompute.
std::string DistSignature(const std::vector<ColumnDist>& dists) {
  std::string sig;
  for (const ColumnDist& d : dists) {
    sig += "|l" + std::to_string(
                      static_cast<int64_t>(std::lround(d.expected_len * 4)));
    uint64_t h = 1469598103934665603ull;
    double total = 0;
    for (double w : d.char_weight) total += w;
    if (total > 0) {
      for (double w : d.char_weight) {
        uint64_t q = static_cast<uint64_t>(std::lround(1000.0 * w / total));
        h = (h ^ q) * 1099511628211ull;
      }
    }
    sig += "h" + std::to_string(h);
  }
  return sig;
}

}  // namespace

std::vector<ColumnDist> EstimateColumnDists(const AlgebraExpr& expr,
                                            const CostPlannerContext& ctx) {
  switch (expr.kind()) {
    case Kind::kRelation: {
      std::shared_ptr<const RelationStats> stats =
          LookupStats(expr.relation_name(), ctx);
      std::vector<ColumnDist> dists(static_cast<size_t>(expr.arity()));
      if (stats != nullptr) {
        for (size_t c = 0;
             c < dists.size() && c < stats->columns.size(); ++c) {
          dists[c] = DistFromStats(stats->columns[c], stats->rows);
        }
      }
      return dists;
    }
    case Kind::kSigmaStar:
      return {ColumnDist{{}, DomainExpectedLength(ctx, ctx.truncation)}};
    case Kind::kSigmaL:
      return {ColumnDist{
          {}, DomainExpectedLength(ctx,
                                   std::min(expr.sigma_l(), ctx.truncation))}};
    case Kind::kUnion:
    case Kind::kDifference:
      return EstimateColumnDists(expr.Left(), ctx);
    case Kind::kProduct: {
      std::vector<ColumnDist> left = EstimateColumnDists(expr.Left(), ctx);
      std::vector<ColumnDist> right = EstimateColumnDists(expr.Right(), ctx);
      left.insert(left.end(), std::make_move_iterator(right.begin()),
                  std::make_move_iterator(right.end()));
      return left;
    }
    case Kind::kProject: {
      std::vector<ColumnDist> child = EstimateColumnDists(expr.Left(), ctx);
      std::vector<ColumnDist> out;
      out.reserve(expr.columns().size());
      for (int c : expr.columns()) {
        if (c >= 0 && c < static_cast<int>(child.size())) {
          out.push_back(child[static_cast<size_t>(c)]);
        } else {
          out.emplace_back();
        }
      }
      return out;
    }
    case Kind::kRestrict:
    case Kind::kSelect:
      return EstimateColumnDists(expr.Left(), ctx);
  }
  return std::vector<ColumnDist>(static_cast<size_t>(expr.arity()));
}

double EstimateRows(const AlgebraExpr& expr, const CostPlannerContext& ctx,
                    RowEstimateMemo* memo) {
  if (memo != nullptr) {
    auto it = memo->find(expr.node_identity());
    if (it != memo->end()) return it->second;
  }
  double rows = 0;
  switch (expr.kind()) {
    case Kind::kRelation: {
      std::shared_ptr<const RelationStats> stats =
          LookupStats(expr.relation_name(), ctx);
      if (stats != nullptr) {
        rows = static_cast<double>(stats->rows);
      } else if (ctx.paged != nullptr) {
        auto it = ctx.paged->find(expr.relation_name());
        if (it != ctx.paged->end() && it->second != nullptr) {
          rows = static_cast<double>(it->second->tuple_count());
        }
      }
      break;
    }
    case Kind::kSigmaStar:
      rows = DomainCount(ctx, ctx.truncation);
      break;
    case Kind::kSigmaL:
      rows = DomainCount(ctx, std::min(expr.sigma_l(), ctx.truncation));
      break;
    case Kind::kUnion:
      rows = EstimateRows(expr.Left(), ctx, memo) +
             EstimateRows(expr.Right(), ctx, memo);
      break;
    case Kind::kDifference:
      rows = EstimateRows(expr.Left(), ctx, memo);
      break;
    case Kind::kProduct:
      rows = EstimateRows(expr.Left(), ctx, memo) *
             EstimateRows(expr.Right(), ctx, memo);
      break;
    case Kind::kProject:
    case Kind::kRestrict:
      rows = EstimateRows(expr.Left(), ctx, memo);
      break;
    case Kind::kSelect: {
      const double child = EstimateRows(expr.Left(), ctx, memo);
      const double sel = EstimateSelectivity(
          *expr.keyed_fsa(), EstimateColumnDists(expr.Left(), ctx), ctx);
      rows = child * sel;
      break;
    }
  }
  if (!std::isfinite(rows) || rows < 0) rows = 0;
  rows = std::min(rows, kRowCap);
  if (memo != nullptr) memo->emplace(expr.node_identity(), rows);
  return rows;
}

double EstimateSelectivity(const KeyedFsa& fsa,
                           const std::vector<ColumnDist>& dists,
                           const CostPlannerContext& ctx) {
  const std::string& key = fsa.key();
  const std::string memo_key = key + DistSignature(dists);
  double model = 0.25;
  bool have_model = false;
  if (ctx.densities != nullptr &&
      ctx.densities->Lookup(memo_key, &model)) {
    have_model = true;
  }
  if (!have_model) {
    Result<Dfa> dfa = BuildDfa(fsa.fsa());
    if (dfa.ok()) {
      DensityOptions opts;
      for (const ColumnDist& d : dists) {
        opts.char_weight.push_back(d.char_weight);
        opts.expected_len.push_back(d.expected_len);
      }
      Result<double> density = AcceptanceDensity(*dfa, opts);
      if (density.ok()) {
        model = *density;
        have_model = true;
      }
    }
    if (!have_model) model = 0.25;
    if (ctx.densities != nullptr) ctx.densities->Insert(memo_key, model);
  }
  double blended = ctx.feedback != nullptr
                       ? ctx.feedback->Corrected(key, model)
                       : model;
  if (!std::isfinite(blended)) blended = 0.25;
  return std::clamp(blended, 1e-9, 1.0);
}

}  // namespace strdb
