#include "replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "calculus/query.h"
#include "core/budget.h"
#include "core/metrics.h"
#include "engine/engine.h"
#include "fsa/compile.h"
#include "server/command.h"
#include "server/server.h"
#include "served.h"
#include "server_process.h"

namespace servebench {

using strdb::Database;
using strdb::Engine;
using strdb::ExecStats;
using strdb::PagedSet;
using strdb::Query;
using strdb::Result;
using strdb::ServerCore;
using strdb::SharedCatalog;
using strdb::StatsMap;
using strdb::Status;
using strdb::StringRelation;
using strdb::Tuple;
using Clock = std::chrono::steady_clock;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index of the enclosing span, -1 for a root
  int64_t request = -1;  // the replayed command's index
};

// Span recorder for the single replay thread.  Spans stay in memory
// until the run ends.  A disabled tracer records nothing, so the same
// replay code measures the untraced baseline.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 15);
  }

  int Begin(const char* name, int64_t request) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Self time: a span's duration minus the part of it its children cover.
std::vector<int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      int64_t from = std::max(start, reach);
      int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

strdb::Counter* Ctr(const char* name) {
  return strdb::MetricsRegistry::Global().GetCounter(name);
}

// Σ of the input rows of every σ_A filter in an executed plan, read off
// the "[in=N" annotations of ExecStats::plan (a shared subtree is
// counted once).
int64_t FilterRowsIn(const std::string& plan) {
  int64_t rows = 0;
  std::istringstream in(plan);
  std::string line;
  while (std::getline(in, line)) {
    size_t begin = line.find_first_not_of(' ');
    if (begin == std::string::npos ||
        line.compare(begin, 13, "filter-select") != 0 ||
        line.find("(shared") != std::string::npos) {
      continue;
    }
    size_t at = line.find("[in=");
    if (at != std::string::npos) rows += std::atoll(line.c_str() + at + 4);
  }
  return rows;
}

struct PassStats {
  int64_t queries = 0;
  int64_t inserts = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t fsa_steps = 0;
  int64_t rows_out = 0;
  int64_t operator_rows = 0;
  std::vector<double> q_errors;
  int64_t filter_rows_in = 0;
  int64_t dfa_rows = 0;
  int64_t pool_tasks = 0;
  int64_t pager_hits = 0;
  int64_t pager_misses = 0;
  int64_t commits = 0;
  int64_t wal_bytes = 0;
  std::vector<double> query_wall_us;  // each replayed query, spans or not
  std::set<std::string> texts;
  std::vector<std::string> problems;
};

// One query, as CommandProcessor::HandleQuery runs it: snapshot, parse
// (formula, Thm 3.1 automata, Thm 4.2 algebra), §5 limit inference,
// execution, rendering.  The plan is explained afterwards, outside the
// command span.
void RunQuery(SharedCatalog& catalog, const std::string& text,
              strdb::ResourceBudget* server_budget, Tracer* tracer,
              int64_t request, PassStats* st) {
  std::shared_ptr<const Database> snapshot;
  std::shared_ptr<const PagedSet> paged;
  std::shared_ptr<const StatsMap> rel_stats;
  ExecStats stats;
  strdb::QueryOptions opts;
  opts.stats = &stats;
  opts.parent_budget = server_budget;
  opts.limits.deadline_ms = 2000;  // the server's --request-deadline-ms
  std::string framed;
  int truncation = 0;
  std::unique_ptr<Query> query;
  int64_t dfa0 = Ctr("fsa.dfa.batch_rows")->value();
  int64_t pool0 = Ctr("core.pool.tasks")->value();
  int64_t hits0 = Ctr("storage.pager.hits")->value();
  int64_t misses0 = Ctr("storage.pager.misses")->value();
  {
    Scope cmd(tracer, "query", request);
    {
      Scope s(tracer, "server.snapshot", request);
      catalog.SnapshotState(&snapshot, &paged, &rel_stats);
    }
    Result<Query> q = [&] {
      Scope s(tracer, "calculus.parse", request);
      return Query::Parse(text, snapshot->alphabet());
    }();
    if (!q.ok()) {
      st->problems.push_back("replay parse: " + q.status().ToString());
      return;
    }
    query = std::make_unique<Query>(std::move(*q));
    opts.paged = paged.get();
    opts.relation_stats = rel_stats.get();
    Result<int> w = [&] {
      Scope s(tracer, "safety.infer", request);
      return query->InferTruncation(*snapshot, paged.get());
    }();
    if (!w.ok()) {
      st->problems.push_back("replay infer: " + w.status().ToString());
      return;
    }
    truncation = *w;
    Result<StringRelation> answer = [&] {
      Scope s(tracer, "engine.execute", request);
      return query->ExecuteTruncated(*snapshot, truncation, opts);
    }();
    if (!answer.ok()) {
      st->problems.push_back("replay execute: " +
                             answer.status().ToString());
      return;
    }
    Scope s(tracer, "server.render", request);
    framed = strdb::FrameResponse(
        Status::OK(), answer->ToString() + "   (" +
                          std::to_string(answer->size()) + " tuples)\n");
  }
  st->dfa_rows += Ctr("fsa.dfa.batch_rows")->value() - dfa0;
  st->pool_tasks += Ctr("core.pool.tasks")->value() - pool0;
  st->pager_hits += Ctr("storage.pager.hits")->value() - hits0;
  st->pager_misses += Ctr("storage.pager.misses")->value() - misses0;
  {
    Scope s(tracer, "engine.plan", request);
    strdb::EvalOptions eval;
    eval.truncation = truncation;
    eval.paged = paged.get();
    eval.stats = rel_stats.get();
    (void)Engine::Shared().Explain(query->plan(), *snapshot, eval);
  }
  ++st->queries;
  st->texts.insert(text);
  st->cache_hits += stats.cache_hits;
  st->cache_misses += stats.cache_misses;
  st->fsa_steps += stats.fsa_steps;
  st->rows_out += stats.rows_out;
  st->filter_rows_in += FilterRowsIn(stats.plan);
  for (const ExecStats::EstActRow& op : stats.operators) {
    st->operator_rows += op.act;
    double est = std::max(op.est, 1.0);
    double act = std::max(static_cast<double>(op.act), 1.0);
    st->q_errors.push_back(std::max(est / act, act / est));
  }
}

// One insert, as CommandProcessor::HandleInsert runs it: WAL commit,
// copy and publish inside SharedCatalog::InsertTuples.
void RunInsert(SharedCatalog& catalog, const WorkloadSpec& spec,
               InsertStream* inserts, uint64_t seq, Tracer* tracer,
               int64_t request, PassStats* st) {
  Tuple tuple;
  inserts->Next(&tuple);
  int64_t commits0 = Ctr("storage.commits")->value();
  Status status;
  {
    Scope cmd(tracer, "insert", request);
    bool deduped = false;
    {
      Scope s(tracer, "server.insert", request);
      status = catalog.InsertTuples(spec.write_relation, {tuple},
                                    strdb::ReqId{"writer", seq}, &deduped);
    }
    (void)strdb::FrameResponse(status, "inserted 1 tuple(s) into " +
                                           spec.write_relation +
                                           " (durable)\n");
  }
  if (!status.ok()) {
    st->problems.push_back("replay insert: " + status.ToString());
  }
  st->commits += Ctr("storage.commits")->value() - commits0;
  ++st->inserts;
}

// Loads a fresh copy of the catalog into an in-process ServerCore (for a
// spilling workload: checkpoint, close, reopen with a buffer pool of
// half the heap bytes, as the served set-up does), warms the fixed
// texts, then replays the command stream.
Status RunPass(const WorkloadSpec& spec, const std::string& dir,
               Tracer* tracer, PassStats* st) {
  Engine& engine = Engine::Shared();
  engine.cache().Clear();
  engine.stats_catalog().Clear();
  engine.feedback().Clear();
  engine.densities().Clear();

  const strdb::Alphabet sigma = strdb::Alphabet::Binary();
  strdb::ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.request_deadline_ms = 2000;
  strdb::StoreOptions store;
  if (spec.spill) store.spill_threshold_bytes = 4096;
  std::filesystem::remove_all(dir);
  auto core = std::make_unique<ServerCore>(sigma, server_options);
  if (spec.durable) {
    core->catalog().set_store_options(store);
    STRDB_RETURN_IF_ERROR(core->catalog().OpenDurable(dir, nullptr, nullptr));
  }
  for (const RelationSpec& rel : spec.catalog) {
    STRDB_RETURN_IF_ERROR(
        core->catalog().PutRelation(rel.name, rel.arity, rel.tuples));
  }
  if (spec.spill) {
    STRDB_RETURN_IF_ERROR(
        core->catalog().CheckpointDurable(nullptr, nullptr, nullptr));
    core.reset();
    store.pager_capacity_bytes = DirBytes(dir, "heap-") / 2;
    core = std::make_unique<ServerCore>(sigma, server_options);
    core->catalog().set_store_options(store);
    STRDB_RETURN_IF_ERROR(core->catalog().OpenDurable(dir, nullptr, nullptr));
  }
  SharedCatalog& catalog = core->catalog();
  STRDB_ASSIGN_OR_RETURN(int64_t session, core->OpenSession());
  strdb::ResourceBudget server_budget(strdb::ResourceLimits{}, nullptr,
                                      "server");

  Tracer untraced(false);
  PassStats warm;
  for (int pass = 0; pass < 2; ++pass) {
    for (const FixedQuery& q : spec.fixed) {
      RunQuery(catalog, q.text, &server_budget, &untraced, -1, &warm);
    }
  }
  st->problems = warm.problems;

  std::vector<QueryStream> streams;
  for (int c = 0; c < spec.readers; ++c) streams.emplace_back(spec, c);
  InsertStream inserts(spec);
  const int64_t wal0 = DirBytes(dir, "wal-");
  int64_t request = 0;
  uint64_t seq = 1;
  auto dispatch_ping = [&](int64_t req) {
    Scope s(tracer, "server.dispatch", req);
    if (core->Execute(session, "ping") != "pong\nok\n") {
      st->problems.push_back("replay ping failed");
    }
  };
  for (int i = 0; i < spec.replay_queries; ++i) {
    std::string text =
        streams[static_cast<size_t>(i % spec.readers)].Next();
    dispatch_ping(request);
    Clock::time_point q0 = Clock::now();
    RunQuery(catalog, text, &server_budget, tracer, request++, st);
    st->query_wall_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - q0).count());
    if (spec.replay_insert_every > 0 &&
        (i + 1) % spec.replay_insert_every == 0) {
      dispatch_ping(request);
      RunInsert(catalog, spec, &inserts, seq++, tracer, request++, st);
    }
  }
  st->wal_bytes = DirBytes(dir, "wal-") - wal0;
  (void)core->CloseSession(session);
  core.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

// The side probe: Thm 3.1 compilation of every string-formula leaf of
// every distinct replayed text, each in its own span.
void ProbeCompile(const std::set<std::string>& texts, Tracer* tracer) {
  const strdb::Alphabet sigma = strdb::Alphabet::Binary();
  for (const std::string& text : texts) {
    Result<Query> q = Query::Parse(text, sigma);
    if (!q.ok()) continue;
    std::vector<strdb::CalcFormula> todo = {q->formula()};
    while (!todo.empty()) {
      strdb::CalcFormula f = todo.back();
      todo.pop_back();
      using Kind = strdb::CalcFormula::Kind;
      switch (f.kind()) {
        case Kind::kString: {
          Scope s(tracer, "fsa.compile", -1);
          (void)strdb::CompileStringFormula(f.str(), sigma);
          break;
        }
        case Kind::kAnd:
        case Kind::kOr:
          todo.push_back(f.Left());
          todo.push_back(f.Right());
          break;
        case Kind::kNot:
        case Kind::kExists:
        case Kind::kForAll:
          todo.push_back(f.Left());
          break;
        case Kind::kRelAtom:
          break;
      }
    }
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec,
                       const ReplayOptions& options) {
  ReplayResult result;
  const std::string dir = options.workdir + "/replay-store";
  Tracer untraced(false);
  Tracer traced(true);
  PassStats off;
  PassStats on;
  for (auto [tracer, st] :
       {std::pair{&untraced, &off}, std::pair{&traced, &on}}) {
    Status pass = RunPass(spec, dir, tracer, st);
    if (!pass.ok()) result.problems.push_back("replay: " + pass.ToString());
    result.problems.insert(result.problems.end(), st->problems.begin(),
                           st->problems.end());
  }
  ProbeCompile(on.texts, &traced);

  const std::vector<Span>& spans = traced.spans();
  const std::vector<int64_t> self = SelfNs(spans);
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> query_total_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_us[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    if (std::string(spans[i].name) == "query") {
      query_total_us.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    }
  }
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 const std::string& base) {
    result.metrics.push_back({name, value, unit, base});
  };
  auto span_metric = [&](const std::string& metric, const char* span) {
    const std::vector<double>& v = self_us[span];
    add(metric, Percentile(v, 0.5), "us",
        "median self time of " + std::to_string(v.size()) + " spans");
  };
  auto n = [](int64_t v, const char* what) {
    return std::to_string(v) + " " + what;
  };

  span_metric("server.dispatch_us", "server.dispatch");
  span_metric("server.snapshot_us", "server.snapshot");
  span_metric("server.insert_us", "server.insert");
  span_metric("server.render_us", "server.render");
  double in_process_p50 = Percentile(query_total_us, 0.5);
  add("tcp.residual_us",
      options.served_replayed_p50_ms * 1e3 - in_process_p50, "us",
      "served minus in-process p50 of the same " +
          std::to_string(query_total_us.size()) + " queries");
  span_metric("calculus.parse_us", "calculus.parse");
  span_metric("fsa.compile_us", "fsa.compile");
  add("fsa.dfa_row_share",
      Ratio(static_cast<double>(on.dfa_rows),
            static_cast<double>(on.filter_rows_in)),
      "ratio", "of " + n(on.filter_rows_in, "sigma input rows"));
  span_metric("safety.infer_us", "safety.infer");
  span_metric("engine.execute_us", "engine.execute");
  span_metric("engine.plan_us", "engine.plan");
  add("engine.cache_hit_ratio",
      Ratio(static_cast<double>(on.cache_hits),
            static_cast<double>(on.cache_hits + on.cache_misses)),
      "ratio", "of " + n(on.cache_hits + on.cache_misses, "lookups"));
  add("engine.rows_per_answer",
      Ratio(static_cast<double>(on.operator_rows),
            static_cast<double>(on.rows_out)),
      "ratio", "of " + n(on.rows_out, "answer rows"));
  add("engine.q_error_p50", Percentile(on.q_errors, 0.5), "ratio",
      "of " + n(static_cast<int64_t>(on.q_errors.size()), "operators"));
  add("engine.q_error_max", Percentile(on.q_errors, 1.0), "ratio",
      "of " + n(static_cast<int64_t>(on.q_errors.size()), "operators"));
  add("engine.fsa_steps",
      Ratio(static_cast<double>(on.fsa_steps), static_cast<double>(on.queries)),
      "count", "per query, " + n(on.queries, "queries"));
  add("storage.pager_hit_ratio",
      Ratio(static_cast<double>(on.pager_hits),
            static_cast<double>(on.pager_hits + on.pager_misses)),
      "ratio", "of " + n(on.pager_hits + on.pager_misses, "page requests"));
  add("storage.pager_misses_per_query",
      Ratio(static_cast<double>(on.pager_misses),
            static_cast<double>(on.queries)),
      "count", n(on.queries, "queries"));
  add("storage.wal_bytes_per_insert",
      Ratio(static_cast<double>(on.wal_bytes), static_cast<double>(on.inserts)),
      "B", n(on.inserts, "inserts"));
  add("storage.commits_per_insert",
      Ratio(static_cast<double>(on.commits), static_cast<double>(on.inserts)),
      "count", n(on.inserts, "inserts"));
  add("core.pool_tasks_per_query",
      Ratio(static_cast<double>(on.pool_tasks),
            static_cast<double>(on.queries)),
      "count", n(on.queries, "queries"));
  add("loadgen.late_ms_p99", options.served_late_p99_ms, "ms",
      n(options.served_inserts, "served inserts"));
  const double wall_on = Percentile(on.query_wall_us, 0.5);
  const double wall_off = Percentile(off.query_wall_us, 0.5);
  add("trace.overhead_pct", Ratio(wall_on - wall_off, wall_off) * 100, "%",
      "median replayed query " + std::to_string(wall_on) + " us traced vs " +
          std::to_string(wall_off) + " us untraced");

  result.commits = on.commits;
  result.pager_hits = on.pager_hits;
  result.pager_misses = on.pager_misses;
  result.rows_out = on.rows_out;
  result.fsa_steps = on.fsa_steps;
  result.spans = static_cast<int64_t>(spans.size());

  std::ofstream out(options.trace_path);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  if (!out) result.problems.push_back("cannot write " + options.trace_path);
  return result;
}

}  // namespace servebench
