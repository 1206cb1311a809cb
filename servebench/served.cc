#include "served.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "calculus/query.h"
#include "client/client.h"
#include "server_process.h"

namespace servebench {

using strdb::Result;
using strdb::ServerResponse;
using strdb::Status;
using strdb::StrdbClient;
using strdb::Tuple;
using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 11;

// The server's answer body for `text` on `db`, computed in-process on
// the naive evaluator: the oracle.
std::string NaiveAnswer(const std::string& text, const strdb::Database& db) {
  Result<strdb::Query> q = strdb::Query::Parse(text, db.alphabet());
  if (!q.ok()) return "oracle parse error: " + q.status().ToString();
  strdb::QueryOptions opts;
  opts.use_engine = false;
  Result<strdb::StringRelation> answer = q->Execute(db, opts);
  if (!answer.ok()) return "oracle error: " + answer.status().ToString();
  return answer->ToString() + "   (" + std::to_string(answer->size()) +
         " tuples)\n";
}

// The first 1000 commands of every connection's stream, hashed.
uint64_t StreamDigest(const WorkloadSpec& spec) {
  uint64_t h = kFnvBasis;
  for (int c = 0; c < spec.readers; ++c) {
    QueryStream stream(spec, c);
    for (int i = 0; i < 1000; ++i) h = Fnv1a(h, stream.Next() + "\n");
  }
  if (spec.insert_rate_per_s > 0) {
    InsertStream inserts(spec);
    Tuple t;
    for (int i = 0; i < 1000; ++i) h = Fnv1a(h, inserts.Next(&t) + "\n");
  }
  return h;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// N of the "(N tuples)" line that ends a query answer; -1 when absent.
int64_t AnswerCount(const std::string& body) {
  size_t close = body.rfind(" tuples)");
  if (close == std::string::npos) return -1;
  size_t open = body.rfind('(', close);
  if (open == std::string::npos) return -1;
  return std::atoll(body.c_str() + open + 1);
}

Status CallOk(StrdbClient& client, const std::string& line,
              std::string* body) {
  Result<ServerResponse> r = client.Call(line);
  if (!r.ok()) return r.status();
  if (!r->ok) {
    return Status::Internal("'" + line.substr(0, 60) + "' answered err " +
                            r->error_code + " " + r->error_message);
  }
  if (body != nullptr) *body = r->body;
  return Status::OK();
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& dir,
                                    int64_t pager_cap) {
  // --request-deadline-ms never binds here; it keeps the per-query
  // ResourceBudget on the path as deployed.
  std::vector<std::string> args = {"ab", "--port", "0", "--workers", "2",
                                   "--request-deadline-ms", "2000"};
  if (spec.durable) {
    args.insert(args.end(), {"--dir", dir});
  }
  if (spec.spill) args.insert(args.end(), {"--spill", "4096"});
  if (pager_cap > 0) {
    args.insert(args.end(), {"--pager-cap", std::to_string(pager_cap)});
  }
  return args;
}

// Starts a server and loads the catalog.  A spilling workload then shuts
// the server down (the checkpoint writes the paged heaps) and restarts
// it with a buffer pool of half the heap bytes.  Returns once the
// serving server has answered its first ping.
Status SetUp(const WorkloadSpec& spec, const ServedOptions& options,
             const std::string& dir, const std::string& log_prefix,
             ServerProcess* server, ServedResult* result) {
  std::filesystem::remove_all(dir);
  STRDB_RETURN_IF_ERROR(server->Start(options.server_binary,
                                      ServerArgs(spec, dir, 0),
                                      log_prefix + "-load"));
  {
    StrdbClient loader(server->port());
    for (const RelationSpec& rel : spec.catalog) {
      STRDB_RETURN_IF_ERROR(CallOk(loader, RelCommand(rel), nullptr));
    }
  }
  if (spec.spill) {
    STRDB_RETURN_IF_ERROR(server->Terminate());
    result->heap_bytes = DirBytes(dir, "heap-");
    if (result->heap_bytes == 0) {
      return Status::Internal("the shutdown checkpoint spilled nothing");
    }
    result->pager_cap = result->heap_bytes / 2;
    STRDB_RETURN_IF_ERROR(server->Start(
        options.server_binary, ServerArgs(spec, dir, result->pager_cap),
        log_prefix + "-serve"));
  }
  StrdbClient pinger(server->port());
  std::string pong;
  STRDB_RETURN_IF_ERROR(CallOk(pinger, "ping", &pong));
  if (pong != "pong\n") return Status::Internal("ping answered '" + pong + "'");
  return Status::OK();
}

struct ReaderLog {
  std::vector<double> ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t fresh = 0;
  std::map<std::string, std::string> first_fresh;  // text -> first body
  std::vector<std::string> problems;
  Clock::time_point finished;
};

void RunReader(const WorkloadSpec& spec, int connection, StrdbClient* client,
               const std::set<std::string>& fixed,
               std::map<std::string, int64_t> last_count,
               Clock::time_point end, ReaderLog* log) {
  QueryStream stream(spec, connection);
  const bool growing = spec.insert_rate_per_s > 0;
  while (Clock::now() < end) {
    std::string text = stream.Next();
    Clock::time_point sent = Clock::now();
    Result<ServerResponse> r = client->Call(text);
    double ms = MsBetween(sent, Clock::now());
    ++log->attempted;
    if (!r.ok() || !r->ok) {
      ++log->failed;
      log->ms.push_back(kMissMs);
      if (log->problems.size() < 5) {
        log->problems.push_back(
            "query failed: " +
            (r.ok() ? r->error_code + " " + r->error_message
                    : r.status().ToString()));
      }
      continue;
    }
    log->ms.push_back(ms);
    if (fixed.count(text) == 0) {
      ++log->fresh;
      log->first_fresh.emplace(text, r->body);
    }
    if (growing) {
      // Inserts only add tuples: an answer count never decreases.
      int64_t count = AnswerCount(r->body);
      int64_t& last = last_count[text];
      if (count < last && log->problems.size() < 5) {
        log->problems.push_back("answer count fell from " +
                                std::to_string(last) + " to " +
                                std::to_string(count) + " for " + text);
      }
      last = std::max(last, count);
    }
  }
  log->finished = Clock::now();
}

struct WriterLog {
  std::vector<double> ms;
  std::vector<double> late_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Tuple> acked;
  std::vector<std::string> problems;
};

// Open loop: insert i is due at start + i/rate whatever the server does;
// its latency runs from that due time, so a stall also charges the
// inserts queued behind it.
void RunWriter(const WorkloadSpec& spec, StrdbClient* client,
               Clock::time_point start, Clock::time_point end,
               WriterLog* log) {
  InsertStream stream(spec);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.insert_rate_per_s));
  const std::string expected =
      "inserted 1 tuple(s) into " + spec.write_relation + " (durable)\n";
  for (int64_t i = 0;; ++i) {
    Clock::time_point due = start + i * period;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    Tuple tuple;
    std::string line = stream.Next(&tuple);
    Clock::time_point sent = Clock::now();
    log->late_ms.push_back(MsBetween(due, sent));
    Result<ServerResponse> r = client->Call(line);
    double ms = MsBetween(due, Clock::now());
    ++log->attempted;
    if (r.ok() && r->ok && r->body == expected) {
      log->ms.push_back(ms);
      log->acked.push_back(std::move(tuple));
      continue;
    }
    ++log->failed;
    log->ms.push_back(kMissMs);
    if (log->problems.size() < 5) {
      log->problems.push_back(
          "insert failed: " +
          (r.ok() ? r->body + r->error_code + " " + r->error_message
                  : r.status().ToString()));
    }
  }
}

int64_t ParseCounter(const std::string& metrics_json,
                     const std::string& name) {
  std::string key = "\"" + name + "\": ";
  size_t at = metrics_json.find(key);
  if (at == std::string::npos) return 0;
  return std::atoll(metrics_json.c_str() + at + key.size());
}

// Kills the server without a shutdown checkpoint, restarts it on the
// same directory and checks that W holds the initial tuples plus
// exactly the acknowledged inserts.
void CheckDurability(const WorkloadSpec& spec, const ServedOptions& options,
                     const std::string& dir, const std::vector<Tuple>& acked,
                     ServerProcess* server, ServedResult* result) {
  server->Kill();
  Status started = server->Start(options.server_binary,
                                 ServerArgs(spec, dir, 0),
                                 options.workdir + "/server-restart");
  if (!started.ok()) {
    result->problems.push_back("restart after kill: " + started.ToString());
    return;
  }
  std::vector<Tuple> expected_tuples;
  for (const RelationSpec& rel : spec.catalog) {
    if (rel.name == spec.write_relation) expected_tuples = rel.tuples;
  }
  expected_tuples.insert(expected_tuples.end(), acked.begin(), acked.end());
  strdb::StringRelation expected(1);
  for (const Tuple& t : expected_tuples) {
    if (!expected.Insert(t).ok()) {
      result->problems.push_back("durability oracle: bad tuple");
      return;
    }
  }
  const std::string want = expected.ToString() + "   (" +
                           std::to_string(expected.size()) + " tuples)\n";
  StrdbClient client(server->port());
  std::string got;
  Status read =
      CallOk(client, "x | " + spec.write_relation + "(x)", &got);
  if (!read.ok()) {
    result->problems.push_back("durability read: " + read.ToString());
  } else if (got != want) {
    result->problems.push_back(
        "durability: after kill -9 " + spec.write_relation + " holds " +
        std::to_string(AnswerCount(got)) + " tuples, want " +
        std::to_string(expected.size()) + " (initial + acked inserts)");
  }
  Status stopped = server->Terminate();
  if (!stopped.ok()) result->problems.push_back(stopped.ToString());
}

}  // namespace

ServedResult RunServed(const WorkloadSpec& spec,
                       const ServedOptions& options) {
  ServedResult result;
  result.stream_digest = StreamDigest(spec);
  ServerProcess server;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dir = options.workdir + "/store-" + std::to_string(rep);
    Clock::time_point t0 = Clock::now();
    Status up = SetUp(spec, options, dir,
                      options.workdir + "/server-" + std::to_string(rep),
                      &server, &result);
    if (!up.ok()) {
      result.problems.push_back("set-up: " + up.ToString());
      return result;
    }
    result.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (rep + 1 < kSetupReps) {
      Status down = server.Terminate();
      if (!down.ok()) {
        result.problems.push_back("set-up shutdown: " + down.ToString());
        return result;
      }
      std::filesystem::remove_all(dir);
    }
  }

  // Warm-up, untimed: every fixed text twice on every reader connection.
  // The first answers are the ones the oracle checks.
  std::set<std::string> fixed;
  for (const FixedQuery& q : spec.fixed) fixed.insert(q.text);
  std::map<std::string, std::string> first_answer;
  std::vector<std::unique_ptr<StrdbClient>> readers;
  for (int c = 0; c < spec.readers; ++c) {
    readers.push_back(std::make_unique<StrdbClient>(server.port()));
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& text : fixed) {
        std::string body;
        Status ok = CallOk(*readers.back(), text, &body);
        if (!ok.ok()) {
          result.problems.push_back("warm-up: " + ok.ToString());
          return result;
        }
        first_answer.emplace(text, body);
      }
    }
  }
  uint64_t h = kFnvBasis;
  std::map<std::string, int64_t> warm_counts;
  for (const auto& [text, body] : first_answer) {
    h = Fnv1a(Fnv1a(h, text), body);
    warm_counts[text] = AnswerCount(body);
  }
  result.answer_digest = h;

  // The timed window.
  std::unique_ptr<StrdbClient> writer_client;
  if (spec.insert_rate_per_s > 0) {
    strdb::ClientOptions writer_options;
    writer_options.client_id = "writer";  // req-tagged, deduplicated inserts
    writer_client =
        std::make_unique<StrdbClient>(server.port(), writer_options);
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<ReaderLog> reader_logs(static_cast<size_t>(spec.readers));
  WriterLog writer_log;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.readers; ++c) {
      threads.emplace_back([&, c] {
        std::this_thread::sleep_until(start);
        RunReader(spec, c, readers[static_cast<size_t>(c)].get(), fixed,
                  warm_counts, end, &reader_logs[static_cast<size_t>(c)]);
      });
    }
    if (writer_client != nullptr) {
      threads.emplace_back([&] {
        RunWriter(spec, writer_client.get(), start, end, &writer_log);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  Clock::time_point finished = start;
  std::map<std::string, std::string> first_fresh;
  for (ReaderLog& log : reader_logs) {
    result.query_ms.insert(result.query_ms.end(), log.ms.begin(),
                           log.ms.end());
    result.stream_ms.push_back(log.ms);
    result.queries_attempted += log.attempted;
    result.queries_failed += log.failed;
    result.fresh_queries += log.fresh;
    first_fresh.insert(log.first_fresh.begin(), log.first_fresh.end());
    result.problems.insert(result.problems.end(), log.problems.begin(),
                           log.problems.end());
    finished = std::max(finished, log.finished);
  }
  result.fresh_distinct = static_cast<int64_t>(first_fresh.size());
  result.window_s = std::chrono::duration<double>(finished - start).count();
  result.insert_ms = writer_log.ms;
  result.late_ms = writer_log.late_ms;
  result.inserts_attempted = writer_log.attempted;
  result.inserts_failed = writer_log.failed;
  result.problems.insert(result.problems.end(), writer_log.problems.begin(),
                         writer_log.problems.end());
  readers.clear();
  writer_client.reset();

  {
    StrdbClient admin(server.port());
    std::string metrics;
    Status got = CallOk(admin, "metrics", &metrics);
    if (!got.ok()) {
      result.problems.push_back("metrics: " + got.ToString());
    } else {
      result.rejected_admission =
          ParseCounter(metrics, "server.rejected_admission");
    }
  }
  result.peak_rss_kb = server.PeakRssKb();
  if (spec.durable) {
    int64_t logical = LogicalBytes(spec.catalog);
    for (const Tuple& t : writer_log.acked) {
      for (const std::string& s : t) logical += static_cast<int64_t>(s.size());
    }
    result.space_amp = static_cast<double>(DirBytes(dir)) /
                       static_cast<double>(logical);
  }
  if (spec.insert_rate_per_s > 0) {
    CheckDurability(spec, options, dir, writer_log.acked, &server, &result);
  } else {
    Status stopped = server.Terminate();
    if (!stopped.ok()) result.problems.push_back(stopped.ToString());
  }

  // The oracle: every distinct text's first answer against the naive
  // evaluator over the generated catalog.
  strdb::Database db = BuildDatabase(spec);
  first_answer.insert(first_fresh.begin(), first_fresh.end());
  for (const auto& [text, body] : first_answer) {
    std::string want = NaiveAnswer(text, db);
    if (body != want && result.problems.size() < 20) {
      result.problems.push_back("wrong answer for '" + text + "': got " +
                                body.substr(0, 200) + " want " +
                                want.substr(0, 200));
    }
  }
  result.distinct_texts = static_cast<int64_t>(first_answer.size());
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace servebench
