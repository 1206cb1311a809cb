#include "engine/plan.h"

#include <set>
#include <sstream>

namespace strdb {

std::string PlanNode::OpName() const {
  switch (op) {
    case Op::kScan:
      return "scan";
    case Op::kPagedScan:
      return "paged-scan";
    case Op::kDomain:
      return "domain";
    case Op::kUnion:
      return "union";
    case Op::kDifference:
      return "difference";
    case Op::kProduct:
      return "product";
    case Op::kProject:
      return "project";
    case Op::kFilterSelect:
      return "filter-select";
    case Op::kGenerateSelect:
      return "gen-select";
    case Op::kRestrict:
      return "restrict";
  }
  return "?";
}

namespace {

std::string JoinInts(const std::vector<int>& xs) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(xs[i]);
  }
  return out;
}

void ExplainNode(const PlanNode& node, int depth, bool with_stats,
                 std::set<const PlanNode*>* seen, std::ostringstream* out) {
  *out << std::string(static_cast<size_t>(depth) * 2, ' ') << node.OpName();
  switch (node.op) {
    case PlanNode::Op::kScan:
      *out << " " << node.relation;
      break;
    case PlanNode::Op::kPagedScan:
      *out << " " << node.relation;
      break;
    case PlanNode::Op::kDomain:
      if (node.sigma_l < 0) {
        *out << " Sigma*";
      } else {
        *out << " Sigma^" << node.sigma_l;
      }
      break;
    case PlanNode::Op::kProject:
      *out << "[" << JoinInts(node.columns) << "]";
      break;
    case PlanNode::Op::kFilterSelect:
      *out << "[fsa:" << node.fsa->num_transitions() << "t]";
      break;
    case PlanNode::Op::kGenerateSelect:
      *out << "[fsa:" << node.fsa->num_transitions() << "t free={"
           << JoinInts(node.free_columns) << "}]";
      break;
    default:
      break;
  }
  *out << "  (arity " << node.arity << ", est=" << node.est_rows;
  if (with_stats) *out << ", act=" << node.stats.tuples_out;
  *out << ")";
  if (with_stats) {
    const OperatorStats& s = node.stats;
    *out << "  [in=" << s.tuples_in << " out=" << s.tuples_out;
    if (s.fsa_steps > 0) *out << " fsa_steps=" << s.fsa_steps;
    if (s.cache_hits + s.cache_misses > 0) {
      *out << " cache=" << s.cache_hits << "/"
           << (s.cache_hits + s.cache_misses);
    }
    if (s.memo_hits > 0) *out << " memo_hits=" << s.memo_hits;
    *out << " time=" << static_cast<double>(s.wall_ns) / 1e6
         << "ms self=" << static_cast<double>(s.self_ns) / 1e6 << "ms]";
  }
  if (!seen->insert(&node).second) {
    *out << "  (shared, evaluated once)\n";
    return;
  }
  *out << "\n";
  for (const auto& child : node.children) {
    ExplainNode(*child, depth + 1, with_stats, seen, out);
  }
}

}  // namespace

std::string ExplainPlan(const PlanNode& root, bool with_stats) {
  std::ostringstream out;
  std::set<const PlanNode*> seen;
  ExplainNode(root, 0, with_stats, &seen, &out);
  return out.str();
}

std::string ExecStats::ToString() const {
  std::ostringstream out;
  out << "wall=" << static_cast<double>(wall_ns) / 1e6
      << "ms cache_hits=" << cache_hits << " cache_misses=" << cache_misses
      << " fsa_steps=" << fsa_steps << " rows_out=" << rows_out;
  if (memo_hits > 0) out << " memo_hits=" << memo_hits;
  if (budget_steps_used + budget_rows_used + budget_cached_bytes_used > 0) {
    out << " budget[steps=" << budget_steps_used
        << " rows=" << budget_rows_used
        << " cached_bytes=" << budget_cached_bytes_used << "]";
  }
  out << "\n" << plan;
  return out.str();
}

}  // namespace strdb
