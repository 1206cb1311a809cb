#include "server/command.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "calculus/query.h"
#include "core/metrics.h"
#include "engine/engine.h"

namespace strdb {

namespace {

// printf into a std::string tail — the handlers below keep the shell's
// historical printf formats verbatim, so transcripts stay byte-stable.
void AppendF(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n <= 0) {
    va_end(args_copy);
    return;
  }
  size_t old = out->size();
  out->resize(old + static_cast<size_t>(n) + 1);
  std::vsnprintf(out->data() + old, static_cast<size_t>(n) + 1, fmt,
                 args_copy);
  va_end(args_copy);
  out->resize(old + static_cast<size_t>(n));
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string w;
  while (in >> w) words.push_back(w);
  return words;
}

// Parses the shell's tuple syntax ("ab,ba", "-" for the empty string).
std::vector<Tuple> ParseTuples(const std::vector<std::string>& words,
                               size_t first) {
  std::vector<Tuple> tuples;
  for (size_t i = first; i < words.size(); ++i) {
    Tuple tuple;
    std::istringstream in(words[i]);
    std::string part;
    while (std::getline(in, part, ',')) {
      tuple.push_back(part == "-" ? "" : part);
    }
    if (tuple.empty()) tuple.push_back("");
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

// A plain decimal in [0, ceiling]: digits only, no sign, no trailing
// text, no overflow.  Anything else is nullopt.
std::optional<int64_t> ParseDecimal(const std::string& digits,
                                    int64_t ceiling) {
  if (digits.empty()) return std::nullopt;
  int64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    int d = c - '0';
    if (d > ceiling || n > (ceiling - d) / 10) return std::nullopt;
    n = n * 10 + d;
  }
  return n;
}

// The on|off argument of a two-word switch verb ("engine on").
Result<bool> ParseSwitch(const std::vector<std::string>& words) {
  if (words[1] == "on") return true;
  if (words[1] == "off") return false;
  return Status::InvalidArgument("usage: " + words[0] + " on|off");
}

void AppendLimits(const ResourceLimits& limits, std::string* out) {
  auto show = [](int64_t v) {
    return v > 0 ? std::to_string(v) : std::string("-");
  };
  AppendF(out, "budget: steps=%s rows=%s ms=%s bytes=%s\n",
          show(limits.max_steps).c_str(), show(limits.max_rows).c_str(),
          show(limits.deadline_ms).c_str(),
          show(limits.max_cached_bytes).c_str());
}

}  // namespace

CommandProcessor::CommandProcessor(SharedCatalog* catalog, Mode mode)
    : catalog_(catalog), mode_(mode) {}

// A dedup'd retry answers with the same success text the original
// application produced (the text is a pure function of the command
// line), so the retrying client cannot tell — which is the point.
static void CountDeduped(bool deduped) {
  if (deduped) {
    MetricsRegistry::Global()
        .GetCounter("server.retried_requests_deduped")
        ->Increment();
  }
}

Status CommandProcessor::HandleRel(const std::vector<std::string>& words,
                                   const ReqId& req, std::string* out) {
  if (words.size() < 3) {
    return Status::InvalidArgument("usage: rel NAME tuple [tuple ...]");
  }
  const std::string& name = words[1];
  std::vector<Tuple> tuples = ParseTuples(words, 2);
  int arity = static_cast<int>(tuples.front().size());
  for (const Tuple& t : tuples) {
    if (static_cast<int>(t.size()) != arity) {
      return Status::InvalidArgument("tuples of unequal arity");
    }
  }
  size_t count = tuples.size();
  bool durable = catalog_->durable();
  bool deduped = false;
  STRDB_RETURN_IF_ERROR(
      catalog_->PutRelation(name, arity, std::move(tuples), req, &deduped));
  CountDeduped(deduped);
  AppendF(out, "defined %s/%d with %zu tuples%s\n", name.c_str(), arity, count,
          durable ? " (durable)" : "");
  return Status::OK();
}

Status CommandProcessor::HandleInsert(const std::vector<std::string>& words,
                                      const ReqId& req, std::string* out) {
  if (words.size() < 3) {
    return Status::InvalidArgument("usage: insert NAME tuple [tuple ...]");
  }
  const std::string& name = words[1];
  std::vector<Tuple> tuples = ParseTuples(words, 2);
  size_t count = tuples.size();
  bool durable = catalog_->durable();
  bool deduped = false;
  STRDB_RETURN_IF_ERROR(
      catalog_->InsertTuples(name, std::move(tuples), req, &deduped));
  CountDeduped(deduped);
  AppendF(out, "inserted %zu tuple(s) into %s%s\n", count, name.c_str(),
          durable ? " (durable)" : "");
  return Status::OK();
}

Status CommandProcessor::HandleDrop(const std::vector<std::string>& words,
                                    const ReqId& req, std::string* out) {
  if (words.size() != 2) return Status::InvalidArgument("usage: drop NAME");
  bool durable = catalog_->durable();
  bool deduped = false;
  STRDB_RETURN_IF_ERROR(catalog_->DropRelation(words[1], req, &deduped));
  CountDeduped(deduped);
  AppendF(out, "dropped %s%s\n", words[1].c_str(),
          durable ? " (durable)" : "");
  return Status::OK();
}

Status CommandProcessor::HandleOpen(const std::vector<std::string>& words,
                                    std::string* out) {
  if (words.size() != 2 && !(words.size() == 4 && words[2] == "spill")) {
    return Status::InvalidArgument("usage: open DIR [spill BYTES]");
  }
  if (words.size() == 4) {
    std::optional<int64_t> threshold = ParseDecimal(words[3], INT64_MAX);
    if (!threshold.has_value()) {
      return Status::InvalidArgument("usage: open DIR [spill BYTES]");
    }
    if (*threshold == 0) {
      return Status::InvalidArgument(
          "spill threshold must be a positive byte count");
    }
    StoreOptions store_opts;
    store_opts.spill_threshold_bytes = *threshold;
    catalog_->set_store_options(store_opts);
  }
  RecoveryReport report;
  int warmed = 0;
  STRDB_RETURN_IF_ERROR(catalog_->OpenDurable(words[1], &report, &warmed));
  AppendF(out, "%s\n", report.ToString().c_str());
  if (warmed > 0) {
    AppendF(out, "warmed %d automata into the engine cache\n", warmed);
  }
  return Status::OK();
}

Status CommandProcessor::HandleSave(std::string* out) {
  int persisted = 0;
  int64_t generation = 0;
  size_t relations = 0;
  STRDB_RETURN_IF_ERROR(
      catalog_->CheckpointDurable(&persisted, &generation, &relations));
  AppendF(out, "checkpointed generation %lld (%zu relation(s), %d automata)\n",
          static_cast<long long>(generation), relations, persisted);
  return Status::OK();
}

Status CommandProcessor::HandleClose(std::string* out) {
  STRDB_RETURN_IF_ERROR(catalog_->CloseDurable());
  AppendF(out, "closed durable session (catalog kept in memory)\n");
  return Status::OK();
}

Status CommandProcessor::HandleBudget(const std::vector<std::string>& words,
                                      std::string* out) {
  if (words.size() == 2 && words[1] == "off") {
    limits_ = ResourceLimits{};
    AppendLimits(limits_, out);
    return Status::OK();
  }
  const Status usage = Status::InvalidArgument(
      "usage: budget [steps|rows|ms|bytes N ...] | budget off");
  if (words.size() % 2 != 1) return usage;
  ResourceLimits next = limits_;
  for (size_t i = 1; i + 1 < words.size(); i += 2) {
    // 0 means "no limit", as with `budget off`.
    std::optional<int64_t> parsed = ParseDecimal(words[i + 1], INT64_MAX);
    if (!parsed.has_value()) return usage;
    int64_t value = *parsed;
    if (words[i] == "steps") {
      next.max_steps = value;
    } else if (words[i] == "rows") {
      next.max_rows = value;
    } else if (words[i] == "ms") {
      next.deadline_ms = value;
    } else if (words[i] == "bytes") {
      next.max_cached_bytes = value;
    } else {
      return Status::InvalidArgument("unknown budget dimension '" + words[i] +
                                     "' (steps|rows|ms|bytes)");
    }
  }
  limits_ = next;
  AppendLimits(limits_, out);
  return Status::OK();
}

Status CommandProcessor::HandleQuery(const std::string& text,
                                     std::string* out) {
  int explicit_trunc = -1;
  std::string body = text;
  if (!body.empty() && body[0] == '!') {
    size_t sp = body.find(' ');
    // N is capped at Query::kMaxTruncation, as InferTruncation caps W.
    std::optional<int64_t> n =
        sp == std::string::npos
            ? std::nullopt
            : ParseDecimal(body.substr(1, sp - 1), Query::kMaxTruncation);
    if (!n.has_value()) return Status::InvalidArgument("usage: !N QUERY");
    explicit_trunc = static_cast<int>(*n);
    body = body.substr(sp + 1);
  }
  // One snapshot for the whole command: parse, truncation inference and
  // evaluation all see the same catalog — inline and spilled relations
  // as one consistent pair — whatever writers commit meanwhile.
  std::shared_ptr<const Database> snapshot;
  std::shared_ptr<const PagedSet> paged;
  std::shared_ptr<const StatsMap> rel_stats;
  catalog_->SnapshotState(&snapshot, &paged, &rel_stats);
  Result<Query> q = Query::Parse(body, snapshot->alphabet());
  if (!q.ok()) return q.status();
  ExecStats stats;
  QueryOptions opts;
  opts.use_engine = use_engine_;
  opts.stats = show_stats_ ? &stats : nullptr;
  opts.limits = limits_;
  opts.parent_budget = parent_budget_;
  opts.paged = paged.get();
  opts.relation_stats = rel_stats.get();
  // The server's per-request deadline rides the same budget machinery
  // as the session's own `budget ms`; it binds only when tighter, and
  // only then does an overrun convert to kDeadlineExceeded below.
  bool request_deadline_binding = false;
  if (request_deadline_ms_ > 0 && (opts.limits.deadline_ms <= 0 ||
                                   request_deadline_ms_ <
                                       opts.limits.deadline_ms)) {
    opts.limits.deadline_ms = request_deadline_ms_;
    request_deadline_binding = true;
  }
  Result<StringRelation> answer =
      explicit_trunc >= 0
          ? q->ExecuteTruncated(*snapshot, explicit_trunc, opts)
          : q->Execute(*snapshot, opts);
  if (!answer.ok()) {
    // A budget-exhausted query still fills the stats in: the plan
    // annotations show which operator burnt the budget.
    if (show_stats_ && use_engine_ && !stats.plan.empty()) {
      AppendF(out, "%s", stats.ToString().c_str());
    }
    if (explicit_trunc < 0) {
      AppendF(out, "hint: \"!N <query>\" evaluates at explicit "
                   "truncation N\n");
    }
    Status status = answer.status();
    if (request_deadline_binding &&
        status.code() == StatusCode::kResourceExhausted &&
        status.message().find("wall-clock deadline") != std::string::npos) {
      MetricsRegistry::Global()
          .GetCounter("server.deadline_exceeded")
          ->Increment();
      status = Status::DeadlineExceeded(status.message());
    }
    return status;
  }
  AppendF(out, "%s   (%lld tuples)\n", answer->ToString().c_str(),
          static_cast<long long>(answer->size()));
  if (show_stats_ && use_engine_) {
    AppendF(out, "%s", stats.ToString().c_str());
  }
  return Status::OK();
}

Status CommandProcessor::HandleSafe(const std::string& text,
                                    std::string* out) {
  std::shared_ptr<const Database> snapshot;
  std::shared_ptr<const PagedSet> paged;
  catalog_->SnapshotState(&snapshot, &paged);
  Result<Query> q = Query::Parse(text, snapshot->alphabet());
  if (!q.ok()) return q.status();
  Result<int> w = q->InferTruncation(*snapshot, paged.get());
  if (w.ok()) {
    AppendF(out, "SAFE; inferred truncation W(db) = %d\n", *w);
  } else {
    AppendF(out, "NOT certified: %s\n", w.status().ToString().c_str());
  }
  return Status::OK();
}

Status CommandProcessor::HandlePlan(const std::string& text,
                                    std::string* out) {
  std::shared_ptr<const Database> snapshot = catalog_->Snapshot();
  Result<Query> q = Query::Parse(text, snapshot->alphabet());
  if (!q.ok()) return q.status();
  AppendF(out, "formula: %s\n", q->formula().ToString().c_str());
  AppendF(out, "plan:    %s\n", q->plan().ToString().c_str());
  AppendF(out, "finitely evaluable: %s\n",
          q->plan().IsFinitelyEvaluable() ? "yes" : "no");
  return Status::OK();
}

Status CommandProcessor::HandleExplain(const std::string& text,
                                       std::string* out) {
  std::shared_ptr<const Database> snapshot;
  std::shared_ptr<const PagedSet> paged;
  std::shared_ptr<const StatsMap> rel_stats;
  catalog_->SnapshotState(&snapshot, &paged, &rel_stats);
  Result<Query> q = Query::Parse(text, snapshot->alphabet());
  if (!q.ok()) return q.status();
  Result<std::string> plan =
      q->ExplainPlan(*snapshot, paged.get(), rel_stats.get());
  if (!plan.ok()) return plan.status();
  AppendF(out, "%s", plan->c_str());
  return Status::OK();
}

Status CommandProcessor::Execute(const std::string& line, std::string* out) {
  std::vector<std::string> words = SplitWords(line);
  if (words.empty()) return Status::OK();

  // Optional idempotent-request prefix: "req CLIENT:SEQ COMMAND...".
  // Strip it here so the rest of the dispatcher sees the bare command;
  // only the mutation handlers consume the tag.
  ReqId req;
  std::string cmd = line;
  if (words[0] == "req") {
    if (words.size() < 3) {
      return Status::InvalidArgument("usage: req CLIENT:SEQ COMMAND ...");
    }
    const std::string& tag = words[1];
    size_t colon = tag.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= tag.size()) {
      return Status::InvalidArgument("malformed request tag '" + tag +
                                     "' (want CLIENT:SEQ)");
    }
    std::optional<int64_t> seq = ParseDecimal(tag.substr(colon + 1), INT64_MAX);
    if (!seq.has_value()) {
      return Status::InvalidArgument("malformed request sequence in '" + tag +
                                     "'");
    }
    req.client = tag.substr(0, colon);
    req.seq = static_cast<uint64_t>(*seq);
    // Cut the first two whitespace-delimited tokens off the raw line so
    // free-text commands (queries) keep their spacing.
    size_t pos = line.find_first_not_of(" \t");
    pos = line.find_first_of(" \t", pos);       // end of "req"
    pos = line.find_first_not_of(" \t", pos);   // start of the tag
    pos = line.find_first_of(" \t", pos);       // end of the tag
    pos = line.find_first_not_of(" \t", pos);   // start of the command
    cmd = pos == std::string::npos ? std::string() : line.substr(pos);
    words.erase(words.begin(), words.begin() + 2);
    if (words.empty()) return Status::OK();
  }

  if (words[0] == "open" || words[0] == "save" || words[0] == "close") {
    if (mode_ == Mode::kServer) {
      return Status::InvalidArgument(
          "'" + words[0] +
          "' is a shell verb: the server owns its durable session "
          "(start strdb_server with --dir)");
    }
    if (words[0] == "open") return HandleOpen(words, out);
    if (words[0] == "save") return HandleSave(out);
    return HandleClose(out);
  }
  if (words[0] == "rel") return HandleRel(words, req, out);
  if (words[0] == "insert") return HandleInsert(words, req, out);
  if (words[0] == "drop") return HandleDrop(words, req, out);
  if (words[0] == "show") {
    std::shared_ptr<const Database> snapshot;
    std::shared_ptr<const PagedSet> paged;
    catalog_->SnapshotState(&snapshot, &paged);
    for (const auto& [name, rel] : snapshot->relations()) {
      AppendF(out, "%s/%d = %s\n", name.c_str(), rel.arity(),
              rel.ToString().c_str());
    }
    for (const auto& [name, source] : *paged) {
      AppendF(out, "%s/%d = <spilled: %lld tuples on disk>\n", name.c_str(),
              source->arity(), static_cast<long long>(source->tuple_count()));
    }
    return Status::OK();
  }
  if (words[0] == "safe") {
    return HandleSafe(cmd.size() > 5 ? cmd.substr(5) : "", out);
  }
  if (words[0] == "plan") {
    return HandlePlan(cmd.size() > 5 ? cmd.substr(5) : "", out);
  }
  if (words[0] == "explain") {
    return HandleExplain(cmd.size() > 8 ? cmd.substr(8) : "", out);
  }
  if (words[0] == "engine" && words.size() == 2) {
    STRDB_ASSIGN_OR_RETURN(use_engine_, ParseSwitch(words));
    AppendF(out, "engine %s\n", use_engine_ ? "on" : "off");
    return Status::OK();
  }
  if (words[0] == "stats" && words.size() == 2) {
    STRDB_ASSIGN_OR_RETURN(show_stats_, ParseSwitch(words));
    AppendF(out, "stats %s\n", show_stats_ ? "on" : "off");
    return Status::OK();
  }
  if (words[0] == "budget") return HandleBudget(words, out);
  if (words[0] == "metrics" && words.size() == 1) {
    AppendF(out, "%s\n", MetricsRegistry::Global().DumpJson().c_str());
    return Status::OK();
  }
  if (words[0] == "pager" && words.size() == 1) {
    PagerStats stats;
    int64_t capacity = 0;
    size_t spilled = 0;
    if (!catalog_->PagerStatus(&stats, &capacity, &spilled)) {
      AppendF(out, "pager: no durable session\n");
      return Status::OK();
    }
    AppendF(out,
            "pager: capacity=%lld cached=%lld pinned=%lld peak_pinned=%lld\n",
            static_cast<long long>(capacity),
            static_cast<long long>(stats.bytes_cached),
            static_cast<long long>(stats.bytes_pinned),
            static_cast<long long>(stats.peak_bytes_pinned));
    AppendF(out, "pager: hits=%lld misses=%lld evictions=%lld\n",
            static_cast<long long>(stats.hits),
            static_cast<long long>(stats.misses),
            static_cast<long long>(stats.evictions));
    AppendF(out, "pager: %zu spilled relation(s)\n", spilled);
    return Status::OK();
  }
  if (words[0] == "ping" && words.size() == 1) {
    AppendF(out, "pong\n");
    return Status::OK();
  }
  return HandleQuery(cmd, out);
}

std::string FrameResponse(const Status& status, const std::string& body) {
  std::string out = body;
  if (!out.empty() && out.back() != '\n') out += '\n';
  if (status.ok()) {
    out += "ok\n";
    return out;
  }
  std::string message = status.message();
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  out += "err ";
  out += StatusCodeName(status.code());
  if (!message.empty()) {
    out += ' ';
    out += message;
  }
  out += '\n';
  return out;
}

}  // namespace strdb
