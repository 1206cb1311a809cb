// ServerCore: session lifecycle, execution, admission control, drain,
// snapshot isolation, the server.* metrics, idempotent request dedup,
// request deadlines — plus socket-level tests against a real TcpServer
// (partial frames, mid-command stalls vs the read deadline, the
// admission queue bound) and the drain-vs-paged-scan shutdown ordering.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/alphabet.h"
#include "core/metrics.h"
#include "server/catalog.h"
#include "server/command.h"
#include "server/server.h"
#include "server/tcp.h"
#include "storage/store.h"

namespace strdb {
namespace {

// The response's terminator line ("ok" or "err <code> <msg>").
std::string Terminator(const std::string& response) {
  if (response.empty() || response.back() != '\n') return response;
  size_t start = response.rfind('\n', response.size() - 2);
  start = start == std::string::npos ? 0 : start + 1;
  return response.substr(start, response.size() - 1 - start);
}

// "rel NAME" over all binary words of `length` letters.  With R =
// AllWords("R", 6), the triple self-join kSlowJoin emits 64^3 = 262144
// rows, which takes orders of magnitude longer than any other command
// in these tests.
std::string AllWords(const std::string& name, int length) {
  std::string rel = "rel " + name;
  for (int w = 0; w < 1 << length; ++w) {
    rel += ' ';
    for (int bit = length - 1; bit >= 0; --bit) {
      rel += (w >> bit) & 1 ? 'b' : 'a';
    }
  }
  return rel;
}
constexpr char kSlowJoin[] = "x, y, z | R(x) & R(y) & R(z)";

// The contract under pressure: a heavy query either completes (its
// answer ends in `ok`) or dies typed at its deadline — never wrong
// tuples, never a hang.
bool OkOrExhausted(const std::string& response) {
  std::string terminator = Terminator(response);
  return terminator == "ok" ||
         terminator.rfind("err resource-exhausted", 0) == 0;
}

// Polls `done` until it holds or ten seconds pass.
bool WaitUntil(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServerCoreTest, SessionsExecuteFramedCommands) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(core.active_sessions(), 1);

  EXPECT_EQ(core.Execute(*id, "ping"), "pong\nok\n");
  EXPECT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n");
  EXPECT_EQ(core.Execute(*id, "drop Nope"),
            "err not-found relation 'Nope' not in database\n");
  // A bare `safe` must produce a framed error line, never an escaped
  // exception (regression: the slice past end-of-line threw).
  EXPECT_EQ(Terminator(core.Execute(*id, "safe")).rfind("err ", 0), 0u);

  ASSERT_TRUE(core.CloseSession(*id).ok());
  EXPECT_EQ(core.active_sessions(), 0);
  // Commands for a closed session fail typed, on the response stream.
  EXPECT_EQ(Terminator(core.Execute(*id, "ping")),
            "err not-found unknown session " + std::to_string(*id));
}

TEST(ServerCoreTest, SessionsAreIsolatedGrammarStates) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> a = core.OpenSession();
  Result<int64_t> b = core.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  // Session A's budget/engine toggles must not leak into session B.
  EXPECT_EQ(core.Execute(*a, "budget steps 7"),
            "budget: steps=7 rows=- ms=- bytes=-\nok\n");
  EXPECT_EQ(core.Execute(*b, "budget off"),
            "budget: steps=- rows=- ms=- bytes=-\nok\n");
  // ...but the catalog is shared.
  EXPECT_EQ(core.Execute(*a, "rel R ab"), "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*b, "x | R(x)"),
            "{(\"ab\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, SessionLimitRejectsTyped) {
  ServerOptions options;
  options.max_sessions = 2;
  ServerCore core(Alphabet::Binary(), options);
  ASSERT_TRUE(core.OpenSession().ok());
  ASSERT_TRUE(core.OpenSession().ok());
  Result<int64_t> third = core.OpenSession();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.status().ToString().find("session limit (2)"),
            std::string::npos);
}

TEST(ServerCoreTest, GlobalBudgetRejectsTyped) {
  ServerOptions options;
  options.global_limits.max_rows = 1;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");  // writes are not charged
  std::string response = core.Execute(*id, "x | R(x)");
  std::string terminator = Terminator(response);
  EXPECT_NE(terminator.find("err resource-exhausted"), std::string::npos)
      << response;
  EXPECT_NE(terminator.find("server budget"), std::string::npos) << response;
}

TEST(ServerCoreTest, GlobalBudgetIsInFlightNotLifetime) {
  ServerOptions options;
  options.global_limits.max_rows = 20;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(core.Execute(*id, "rel R ab ba"),
            "defined R/1 with 2 tuples\nok\n");
  // Each query's charges are handed back when it finishes, so a
  // long-lived session can keep issuing queries forever — the account
  // bounds concurrency, not session lifetime.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(core.Execute(*id, "x | R(x)"),
              "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n")
        << "iteration " << i;
  }
}

TEST(ServerCoreTest, SnapshotIsolatesReadersFromTheWriter) {
  SharedCatalog catalog(Alphabet::Binary());
  ASSERT_TRUE(catalog.PutRelation("R", 1, {{"ab"}}).ok());
  // A reader (query mid-flight) pins its snapshot...
  std::shared_ptr<const Database> snapshot = catalog.Snapshot();
  // ...while the writer commits twice behind its back.
  ASSERT_TRUE(catalog.PutRelation("R", 1, {{"ba"}, {"bb"}}).ok());
  ASSERT_TRUE(catalog.DropRelation("R").ok());
  // The pinned snapshot is immutable: still exactly one relation with
  // the original tuple.
  ASSERT_EQ(snapshot->relations().count("R"), 1u);
  EXPECT_EQ(snapshot->relations().at("R").size(), 1u);
  // A fresh snapshot sees the writer's latest commit.
  EXPECT_EQ(catalog.Snapshot()->relations().count("R"), 0u);
}

TEST(ServerCoreTest, QueryEvaluatesAgainstOneSnapshot) {
  // The server-level form of snapshot isolation: a query started before
  // a commit answers from the pre-commit catalog even if the writer
  // lands mid-parse — CommandProcessor grabs exactly one snapshot per
  // command.  (The racing version of this check is the conformance
  // target's snapshot mode.)
  ServerCore core(Alphabet::Binary());
  Result<int64_t> reader = core.OpenSession();
  Result<int64_t> writer = core.OpenSession();
  ASSERT_TRUE(reader.ok() && writer.ok());
  ASSERT_EQ(core.Execute(*writer, "rel R ab"),
            "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*reader, "x | R(x)"),
            "{(\"ab\")}   (1 tuples)\nok\n");
  ASSERT_EQ(core.Execute(*writer, "rel R ba"),
            "defined R/1 with 1 tuples\nok\n");
  EXPECT_EQ(core.Execute(*reader, "x | R(x)"),
            "{(\"ba\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, DrainStopsIntakeTyped) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  core.Drain();
  EXPECT_TRUE(core.draining());
  // New sessions are refused...
  Result<int64_t> late = core.OpenSession();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // ...and commands get a response line, not a dropped connection.
  EXPECT_EQ(core.Execute(*id, "ping"), "err unavailable server is draining\n");
  // Idempotent.
  core.Drain();
}

TEST(ServerCoreTest, DrainWaitsForRunningAndWaitingCommands) {
  ServerOptions options;
  options.num_workers = 1;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> a = core.OpenSession();
  Result<int64_t> b = core.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(core.Execute(*a, AllWords("R", 6)),
            "defined R/1 with 64 tuples\nok\n");
  const int64_t ids[2] = {*a, *b};
  for (int64_t id : ids) {
    ASSERT_EQ(core.Execute(id, "budget ms 200"),
              "budget: steps=- rows=- ms=200 bytes=-\nok\n");
  }
  Counter* commands = MetricsRegistry::Global().GetCounter("server.commands");
  const int64_t commands0 = commands->value();

  // One permit: one slow join runs while the other waits for it.
  std::string responses[2];
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back(
        [&, i] { responses[i] = core.Execute(ids[i], kSlowJoin); });
  }
  EXPECT_TRUE(WaitUntil([&core] { return core.queue_depth() == 1; }));
  core.Drain();
  // Both commands finished before Drain returned: each is counted
  // before its caller releases the permit.
  EXPECT_EQ(commands->value(), commands0 + 2);
  EXPECT_EQ(core.queue_depth(), 0);
  for (std::thread& t : callers) t.join();
  for (const std::string& response : responses) {
    EXPECT_TRUE(OkOrExhausted(response)) << Terminator(response);
  }
  EXPECT_EQ(core.Execute(*a, "ping"), "err unavailable server is draining\n");
}

TEST(ServerCoreTest, MetricsVerbExposesServerCounters) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  (void)core.Execute(*id, "ping");
  (void)core.Execute(*id, "drop Nope");  // one error, for server.errors
  std::string response = core.Execute(*id, "metrics");
  ASSERT_EQ(Terminator(response), "ok");
  // JSON shape: every server.* metric is present, under its section.
  for (const char* counter :
       {"\"server.accepted\"", "\"server.rejected_admission\"",
        "\"server.commands\"", "\"server.errors\"", "\"server.bytes_in\"",
        "\"server.bytes_out\""}) {
    EXPECT_NE(response.find(counter), std::string::npos) << counter;
  }
  for (const char* gauge :
       {"\"server.active_sessions\"", "\"server.queue_depth\""}) {
    EXPECT_NE(response.find(gauge), std::string::npos) << gauge;
  }
  EXPECT_NE(response.find("\"counters\""), std::string::npos);
  EXPECT_NE(response.find("\"gauges\""), std::string::npos);
}

TEST(ServerCoreTest, MetricsCountTrafficAndSessions) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t accepted0 = reg.GetCounter("server.accepted")->value();
  int64_t commands0 = reg.GetCounter("server.commands")->value();
  int64_t errors0 = reg.GetCounter("server.errors")->value();
  int64_t bytes_in0 = reg.GetCounter("server.bytes_in")->value();
  int64_t bytes_out0 = reg.GetCounter("server.bytes_out")->value();

  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(reg.GetGauge("server.active_sessions")->value(), 1);
  std::string pong = core.Execute(*id, "ping");
  std::string err = core.Execute(*id, "drop Nope");
  EXPECT_EQ(reg.GetCounter("server.accepted")->value(), accepted0 + 1);
  EXPECT_EQ(reg.GetCounter("server.commands")->value(), commands0 + 2);
  EXPECT_EQ(reg.GetCounter("server.errors")->value(), errors0 + 1);
  // bytes_in counts each line + its newline; bytes_out counts framed
  // responses.
  EXPECT_EQ(reg.GetCounter("server.bytes_in")->value(),
            bytes_in0 + 5 + 10);  // "ping\n" + "drop Nope\n"
  EXPECT_EQ(reg.GetCounter("server.bytes_out")->value(),
            bytes_out0 + static_cast<int64_t>(pong.size() + err.size()));
  ASSERT_TRUE(core.CloseSession(*id).ok());
  EXPECT_EQ(reg.GetGauge("server.active_sessions")->value(), 0);
}

// --- idempotent request tags ------------------------------------------------

TEST(ServerCoreTest, ReqTagDedupsRetriedMutationsWithIdenticalText) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t deduped0 = reg.GetCounter("server.retried_requests_deduped")->value();

  std::string first = core.Execute(*id, "req alice:1 rel R ab");
  EXPECT_EQ(first, "defined R/1 with 1 tuples\nok\n");
  // The retry (same tag) answers byte-identically without re-applying.
  EXPECT_EQ(core.Execute(*id, "req alice:1 rel R ab"), first);
  EXPECT_EQ(reg.GetCounter("server.retried_requests_deduped")->value(),
            deduped0 + 1);

  // A deduped insert must not have doubled anything.
  std::string inserted = core.Execute(*id, "req alice:2 insert R ba");
  EXPECT_EQ(inserted, "inserted 1 tuple(s) into R\nok\n");
  EXPECT_EQ(core.Execute(*id, "req alice:2 insert R ba"), inserted);
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\")}   (2 tuples)\nok\n");

  // Windows are per client: bob's seq 1 is fresh even though alice's
  // seq 1 is spent.
  EXPECT_EQ(core.Execute(*id, "req bob:1 insert R bb"),
            "inserted 1 tuple(s) into R\nok\n");
  EXPECT_EQ(core.Execute(*id, "x | R(x)"),
            "{(\"ab\"), (\"ba\"), (\"bb\")}   (3 tuples)\nok\n");
}

TEST(ServerCoreTest, ReqTagRetryAfterDropDoesNotResurrect) {
  // The lost-ack drop scenario: drop R acks, the ack is lost, the
  // client retries.  The retry must dedup — answering "dropped" again —
  // and must NOT recreate or re-drop anything, even after later
  // mutations moved the catalog on.
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(core.Execute(*id, "req c:1 rel R ab"),
            "defined R/1 with 1 tuples\nok\n");
  std::string dropped = core.Execute(*id, "req c:2 drop R");
  EXPECT_EQ(dropped, "dropped R\nok\n");
  // Seq 3 recreates R under a new definition...
  ASSERT_EQ(core.Execute(*id, "req c:3 rel R ba"),
            "defined R/1 with 1 tuples\nok\n");
  // ...and the stale retry of seq 2 dedups instead of dropping the NEW R.
  EXPECT_EQ(core.Execute(*id, "req c:2 drop R"), dropped);
  EXPECT_EQ(core.Execute(*id, "x | R(x)"), "{(\"ba\")}   (1 tuples)\nok\n");
}

TEST(ServerCoreTest, ReqTagParsesStrictly) {
  ServerCore core(Alphabet::Binary());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // Malformed tags are typed errors, not silently-untagged mutations.
  EXPECT_EQ(Terminator(core.Execute(*id, "req noseq rel R ab")).rfind("err ", 0),
            0u);
  EXPECT_EQ(Terminator(core.Execute(*id, "req :1 rel R ab")).rfind("err ", 0),
            0u);
  EXPECT_EQ(Terminator(core.Execute(*id, "req c:x rel R ab")).rfind("err ", 0),
            0u);
  // Non-mutations pass through a valid tag untouched.
  EXPECT_EQ(core.Execute(*id, "req c:1 ping"), "pong\nok\n");
}

// --- request deadlines ------------------------------------------------------

TEST(ServerCoreTest, RequestDeadlineCancelsTyped) {
  ServerOptions options;
  options.request_deadline_ms = 50;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // The triple self-join takes far longer than 50ms.
  ASSERT_EQ(core.Execute(*id, AllWords("R", 6)),
            "defined R/1 with 64 tuples\nok\n");
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t exceeded0 = reg.GetCounter("server.deadline_exceeded")->value();
  std::string response = core.Execute(*id, kSlowJoin);
  EXPECT_EQ(Terminator(response).rfind("err deadline-exceeded", 0), 0u)
      << response;
  EXPECT_EQ(reg.GetCounter("server.deadline_exceeded")->value(),
            exceeded0 + 1);
  // The session survives — a deadline cancels the request, not the
  // connection.
  EXPECT_EQ(core.Execute(*id, "ping"), "pong\nok\n");
}

TEST(ServerCoreTest, SessionBudgetTighterThanRequestDeadlineStaysTyped) {
  // When the session's own `budget ms` is the binding constraint, the
  // failure keeps its resource-exhausted type: deadline-exceeded is
  // reserved for the server-imposed cap.
  ServerOptions options;
  options.request_deadline_ms = 10000;
  ServerCore core(Alphabet::Binary(), options);
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(core.Execute(*id, AllWords("R", 6)),
            "defined R/1 with 64 tuples\nok\n");
  ASSERT_EQ(core.Execute(*id, "budget ms 30"),
            "budget: steps=- rows=- ms=30 bytes=-\nok\n");
  std::string response = core.Execute(*id, kSlowJoin);
  EXPECT_EQ(Terminator(response).rfind("err resource-exhausted", 0), 0u)
      << response;
}

// --- socket-level framing ---------------------------------------------------

namespace tcp {

int Dial(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Reads until the buffer ends with a full terminator line or `deadline`
// elapses.
std::string ReadResponse(int fd, int deadline_ms = 5000) {
  std::string buffer;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, deadline_ms);
    if (ready <= 0) return buffer;
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return buffer;
    buffer.append(chunk, static_cast<size_t>(n));
    // Every response ends in a newline; checking that first keeps a
    // megabyte-long answer line from being rescanned on every chunk.
    if (buffer.back() != '\n') continue;
    size_t last = buffer.size() - 1;
    size_t start = buffer.rfind('\n', last == 0 ? 0 : last - 1);
    start = start == std::string::npos ? 0 : start + 1;
    std::string line = buffer.substr(start, last - start);
    if (line == "ok" || line.rfind("err ", 0) == 0) return buffer;
  }
}

}  // namespace tcp

TEST(TcpServerTest, ByteAtATimeClientGetsAWholeResponse) {
  ServerOptions options;
  options.read_deadline_ms = 2000;  // armed, but this client is merely slow
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  int fd = tcp::Dial(server.port());
  const std::string command = "rel R ab ba\n";
  for (char c : command) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
    ::usleep(1000);
  }
  EXPECT_EQ(tcp::ReadResponse(fd), "defined R/1 with 2 tuples\nok\n");
  ::close(fd);
  server.RequestStop();
  server.Stop();
  serve.join();
}

TEST(TcpServerTest, MidCommandStallerGetsTypedTimeoutNotAHungThread) {
  ServerOptions options;
  options.read_deadline_ms = 100;
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t exceeded0 = reg.GetCounter("server.deadline_exceeded")->value();

  // The slow-loris: half a command, then silence past the deadline.
  int fd = tcp::Dial(server.port());
  ASSERT_EQ(::send(fd, "rel R ", 6, 0), 6);
  std::string response = tcp::ReadResponse(fd, 3000);
  EXPECT_EQ(response.rfind("err deadline-exceeded", 0), 0u) << response;
  EXPECT_NE(response.find("stalled mid-command"), std::string::npos)
      << response;
  EXPECT_EQ(reg.GetCounter("server.deadline_exceeded")->value(),
            exceeded0 + 1);
  // The connection is closed after the typed error...
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // ...and the listener is alive and undamaged: a fresh, honest client
  // is served immediately (the stalled thread was reclaimed, not hung).
  int fd2 = tcp::Dial(server.port());
  ASSERT_EQ(::send(fd2, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(fd2), "pong\nok\n");
  ::close(fd2);
  server.RequestStop();
  server.Stop();
  serve.join();
}

TEST(TcpServerTest, IdleConnectionIsNotCutByTheReadDeadline) {
  ServerOptions options;
  options.read_deadline_ms = 50;
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  // No bytes in flight: the deadline must not arm.  After 4x the
  // deadline the connection still answers.
  int fd = tcp::Dial(server.port());
  ::usleep(200 * 1000);
  ASSERT_EQ(::send(fd, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(fd), "pong\nok\n");
  ::close(fd);
  server.RequestStop();
  server.Stop();
  serve.join();
}

TEST(TcpServerTest, EofMidCommandDiscardsThePartialLine) {
  // A torn request frame (no terminating newline, then EOF) must never
  // execute: half an `insert` applied would be a partial-tuple bug.
  ServerCore core(Alphabet::Binary());
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  int setup = tcp::Dial(server.port());
  ASSERT_EQ(::send(setup, "rel R ab\n", 9, 0), 9);
  EXPECT_EQ(tcp::ReadResponse(setup), "defined R/1 with 1 tuples\nok\n");

  int torn = tcp::Dial(server.port());
  ASSERT_EQ(::send(torn, "insert R ba", 11, 0), 11);  // no newline
  ::close(torn);  // EOF mid-command

  // Give the handler a moment, then verify nothing was applied.
  ::usleep(100 * 1000);
  ASSERT_EQ(::send(setup, "x | R(x)\n", 9, 0), 9);
  EXPECT_EQ(tcp::ReadResponse(setup), "{(\"ab\")}   (1 tuples)\nok\n");
  ::close(setup);
  server.RequestStop();
  server.Stop();
  serve.join();
}

TEST(TcpServerTest, QueueDepthBoundRejectsTyped) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  ServerCore core(Alphabet::Binary(), options);
  TcpServer server(&core);
  ASSERT_TRUE(server.Listen(0).ok());
  std::thread serve([&] { server.Serve(); });

  int slow[2] = {tcp::Dial(server.port()), tcp::Dial(server.port())};
  const std::string rel = AllWords("R", 6) + "\n";
  ASSERT_EQ(::send(slow[0], rel.data(), rel.size(), 0),
            static_cast<ssize_t>(rel.size()));
  EXPECT_EQ(tcp::ReadResponse(slow[0]), "defined R/1 with 64 tuples\nok\n");
  for (int fd : slow) {
    ASSERT_EQ(::send(fd, "budget ms 300\n", 14, 0), 14);
    EXPECT_EQ(tcp::ReadResponse(fd),
              "budget: steps=- rows=- ms=300 bytes=-\nok\n");
  }
  const std::string join = std::string(kSlowJoin) + "\n";
  for (int fd : slow) {
    ASSERT_EQ(::send(fd, join.data(), join.size(), 0),
              static_cast<ssize_t>(join.size()));
  }
  // One slow join holds the only permit and the other waits for it:
  // the queue is at its bound, so a third connection's command is
  // rejected typed, on the response stream.
  EXPECT_TRUE(WaitUntil([&core] { return core.queue_depth() == 1; }));
  int third = tcp::Dial(server.port());
  ASSERT_EQ(::send(third, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(third),
            "err resource-exhausted admission: dispatch queue full (1 "
            "command(s) already waiting); retry later\n");
  for (int fd : slow) {
    std::string response = tcp::ReadResponse(fd, 30000);
    EXPECT_TRUE(OkOrExhausted(response)) << Terminator(response);
    ::close(fd);
  }
  // The rejection cost the client nothing: the same socket is served.
  ASSERT_EQ(::send(third, "ping\n", 5, 0), 5);
  EXPECT_EQ(tcp::ReadResponse(third), "pong\nok\n");
  ::close(third);
  server.RequestStop();
  server.Stop();
  serve.join();
}

// --- drain vs in-flight paged scans ----------------------------------------

TEST(ServerCoreTest, DrainDuringActivePagedScanIsPinSafe) {
  // A streaming kPagedScan holds buffer-pool page pins; Drain() and
  // CloseDurable() must not tear the pool or the heap files out from
  // under it.  Run under TSan this doubles as a lifetime-race detector.
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() /
       ("strdb_drain_scan." + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);

  ServerCore core(Alphabet::Binary());
  StoreOptions store_options;
  store_options.spill_threshold_bytes = 1024;
  core.catalog().set_store_options(store_options);
  RecoveryReport report;
  ASSERT_TRUE(core.catalog().OpenDurable(dir, &report, nullptr).ok());
  Result<int64_t> id = core.OpenSession();
  ASSERT_TRUE(id.ok());
  // A relation big enough to spill and to keep a scan busy.
  ASSERT_EQ(Terminator(core.Execute(*id, AllWords("Big", 8))), "ok");
  int persisted = 0;
  int64_t generation = 0;
  ASSERT_TRUE(
      core.catalog().CheckpointDurable(&persisted, &generation, nullptr).ok());

  // Run a self-join over the paged relation (a long streaming scan) on
  // a caller thread, and drain once the scan has pinned pages.
  std::string response;
  auto pager = [&core] {
    PagerStats stats;
    int64_t capacity = 0;
    size_t spilled = 0;
    EXPECT_TRUE(core.catalog().PagerStatus(&stats, &capacity, &spilled));
    return stats;
  };
  // Every Pin counts one hit or one miss: once their sum moves, the scan
  // has started pinning pages and the command is in flight.
  const int64_t pins0 = pager().hits + pager().misses;
  std::thread caller(
      [&] { response = core.Execute(*id, "x, y | Big(x) & Big(y)"); });
  EXPECT_TRUE(WaitUntil([&] { return pager().hits + pager().misses > pins0; }));
  core.Drain();  // waits for the in-flight command
  EXPECT_EQ(pager().bytes_pinned, 0);
  caller.join();
  // The query either finished or died typed; the process did not crash
  // on a dangling pool and the pins all returned.
  std::string terminator = Terminator(response);
  EXPECT_TRUE(terminator == "ok" || terminator.rfind("err ", 0) == 0)
      << terminator;
  ASSERT_TRUE(core.catalog().CloseDurable().ok());
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace strdb
