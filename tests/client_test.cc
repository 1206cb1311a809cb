// The resilient client and its fault-injection seam: FaultyTransport's
// op-indexed determinism, StrdbClient's reconnect/backoff discipline
// (deterministic under a seeded RNG, observed through a recording Env),
// idempotent request tagging, and survival of torn/dropped connections
// against a real TCP server.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "core/alphabet.h"
#include "core/io/env.h"
#include "core/metrics.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/transport.h"

namespace strdb {
namespace {

// --- fakes ------------------------------------------------------------------

// A scripted transport: Connect always succeeds, Send records, Recv
// replays a canned byte-chunk script.
class ScriptTransport : public ClientTransport {
 public:
  explicit ScriptTransport(std::vector<std::string> recv_script)
      : script_(std::move(recv_script)) {}

  Status Connect(const std::string&, int) override {
    connected_ = true;
    ++connects_;
    return Status::OK();
  }
  Status Send(const std::string& data) override {
    if (!connected_) return Status::Unavailable("not connected");
    sent_.push_back(data);
    return Status::OK();
  }
  Result<std::string> Recv() override {
    if (!connected_) return Status::Unavailable("not connected");
    if (next_ >= script_.size()) {
      connected_ = false;
      return std::string();  // clean EOF
    }
    return script_[next_++];
  }
  void Close() override { connected_ = false; }
  bool connected() const override { return connected_; }

  std::vector<std::string> sent_;
  int connects_ = 0;

 private:
  std::vector<std::string> script_;
  size_t next_ = 0;
  bool connected_ = false;
};

// An Env that records every SleepMs instead of sleeping — the seam that
// makes backoff schedules observable and tests instant.
class RecordingEnv : public Env {
 public:
  // Everything but SleepMs forwards to the real Env.
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    return Env::Posix()->NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return Env::Posix()->ReadFile(path);
  }
  Result<std::string> ReadAt(const std::string& path, int64_t offset,
                             int64_t length) override {
    return Env::Posix()->ReadAt(path, offset, length);
  }
  bool FileExists(const std::string& path) override {
    return Env::Posix()->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return Env::Posix()->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return Env::Posix()->CreateDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Env::Posix()->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return Env::Posix()->Remove(path);
  }
  Status Truncate(const std::string& path, int64_t size) override {
    return Env::Posix()->Truncate(path, size);
  }
  Status SyncDir(const std::string& dir) override {
    return Env::Posix()->SyncDir(dir);
  }
  void SleepMs(int64_t ms) override { sleeps.push_back(ms); }

  std::vector<int64_t> sleeps;
};

// --- FaultyTransport --------------------------------------------------------

TEST(FaultyTransportTest, OpIndexedFaultsAreDeterministic) {
  auto run = [](uint64_t seed) {
    TransportFaultPlan plan;
    plan.seed = seed;
    plan.tear_at = {2};   // op 2: the second Send tears
    plan.drop_at = {4};   // op 4 drops
    auto base = std::make_unique<ScriptTransport>(
        std::vector<std::string>{"ok\n", "ok\n"});
    ScriptTransport* raw = base.get();
    FaultyTransport faulty(std::move(base), plan);

    EXPECT_TRUE(faulty.Connect("h", 1).ok());             // op 0
    EXPECT_TRUE(faulty.Send("hello world frame\n").ok());  // op 1
    Status torn = faulty.Send("hello world frame\n");      // op 2: tear
    EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
    EXPECT_FALSE(faulty.connected());
    EXPECT_TRUE(faulty.Connect("h", 1).ok());             // op 3
    Status dropped = faulty.Send("x\n");                   // op 4: drop
    EXPECT_EQ(dropped.code(), StatusCode::kUnavailable);
    EXPECT_EQ(faulty.faults(), 2);
    EXPECT_EQ(faulty.ops(), 5);
    // The torn prefix is whatever op 2 transmitted beyond op 1's full
    // frame.
    std::string torn_prefix;
    for (size_t i = 1; i < raw->sent_.size(); ++i) torn_prefix += raw->sent_[i];
    return torn_prefix;
  };
  std::string a1 = run(42);
  std::string a2 = run(42);
  EXPECT_EQ(a1, a2);  // same seed, same torn prefix
  EXPECT_LT(a1.size(), std::string("hello world frame\n").size());
}

TEST(FaultyTransportTest, DropEveryInjectsPeriodically) {
  TransportFaultPlan plan;
  plan.drop_every = 3;  // ops 2, 5, 8, ... drop
  FaultyTransport faulty(
      std::make_unique<ScriptTransport>(std::vector<std::string>{}), plan);
  EXPECT_TRUE(faulty.Connect("h", 1).ok());                       // op 0
  EXPECT_TRUE(faulty.Send("a\n").ok());                           // op 1
  EXPECT_EQ(faulty.Send("b\n").code(), StatusCode::kUnavailable);  // op 2
  EXPECT_TRUE(faulty.Connect("h", 1).ok());                       // op 3
  EXPECT_TRUE(faulty.Send("c\n").ok());                           // op 4
  EXPECT_EQ(faulty.Connect("h", 1).code(),                        // op 5
            StatusCode::kUnavailable);
  EXPECT_EQ(faulty.faults(), 2);
}

TEST(FaultyTransportTest, RecvTearDeliversSeededPrefixThenDisconnects) {
  TransportFaultPlan plan;
  plan.seed = 9;
  plan.tear_at = {1};
  FaultyTransport faulty(std::make_unique<ScriptTransport>(
                             std::vector<std::string>{"the full response\n"}),
                         plan);
  EXPECT_TRUE(faulty.Connect("h", 1).ok());  // op 0
  Result<std::string> got = faulty.Recv();   // op 1: tear
  ASSERT_TRUE(got.ok());
  EXPECT_LT(got->size(), std::string("the full response\n").size());
  EXPECT_EQ(*got, std::string("the full response\n").substr(0, got->size()));
  EXPECT_FALSE(faulty.connected());
}

// --- StrdbClient unit-level -------------------------------------------------

TEST(StrdbClientTest, ParsesFramesAndTypedErrors) {
  auto script = std::make_unique<ScriptTransport>(std::vector<std::string>{
      "pong\nok\n", "err not-found relation 'Nope' not in database\n"});
  ScriptTransport* raw = script.get();
  StrdbClient client(1, ClientOptions{}, std::move(script));

  Result<ServerResponse> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->body, "pong\n");

  Result<ServerResponse> err = client.Call("drop Nope");
  ASSERT_TRUE(err.ok()) << err.status();  // protocol worked; command failed
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error_code, "not-found");
  EXPECT_EQ(err->error_message, "relation 'Nope' not in database");
  EXPECT_EQ(raw->connects_, 1);
}

TEST(StrdbClientTest, TagsMutationsWithMonotonicSeqAndRetriesSameSeq) {
  // Three responses; the first arrives torn (EOF mid-frame), forcing a
  // retry — which must re-send the SAME request tag.
  auto script = std::make_unique<ScriptTransport>(std::vector<std::string>{
      "defined R/1 wi",  // torn: EOF follows (script exhausted → EOF)
  });
  ScriptTransport* raw = script.get();
  ClientOptions options;
  options.client_id = "alice";
  options.max_attempts = 2;
  options.backoff_initial_ms = 0;
  options.jitter = 0;
  StrdbClient client(1, options, std::move(script));
  // Attempt 1 gets the torn frame + EOF; attempt 2 reconnects and gets
  // EOF immediately → retries exhausted.  What matters here is the
  // wire: both sends carry the identical tag.
  Result<ServerResponse> got = client.Call("rel R ab");
  EXPECT_FALSE(got.ok());
  ASSERT_EQ(raw->sent_.size(), 2u);
  EXPECT_EQ(raw->sent_[0], "req alice:1 rel R ab\n");
  EXPECT_EQ(raw->sent_[1], "req alice:1 rel R ab\n");
  // The next logical mutation advances the seq...
  (void)client.Call("insert R ba");
  EXPECT_EQ(client.next_seq(), 3u);
  // ...and non-mutations are never tagged.
  (void)client.Call("show");
  bool tagged_show = false;
  for (const std::string& frame : raw->sent_) {
    if (frame.find("show") != std::string::npos &&
        frame.rfind("req ", 0) == 0) {
      tagged_show = true;
    }
  }
  EXPECT_FALSE(tagged_show);
}

TEST(StrdbClientTest, BackoffScheduleIsDeterministicUnderSeed) {
  auto schedule = [](uint64_t seed) {
    RecordingEnv env;
    ClientOptions options;
    options.max_attempts = 6;
    options.backoff_initial_ms = 10;
    options.backoff_cap_ms = 100;
    options.jitter = 0.5;
    options.jitter_seed = seed;
    options.env = &env;
    // Every attempt fails: the provider has no endpoint.
    StrdbClient client(
        []() -> Result<int> { return Status::Unavailable("down"); }, options);
    Result<ServerResponse> got = client.Call("ping");
    EXPECT_FALSE(got.ok());
    return env.sleeps;
  };
  std::vector<int64_t> a1 = schedule(7);
  std::vector<int64_t> a2 = schedule(7);
  std::vector<int64_t> b = schedule(8);
  ASSERT_EQ(a1.size(), 5u);  // attempts-1 sleeps
  EXPECT_EQ(a1, a2);         // same seed → same schedule
  EXPECT_NE(a1, b);          // different seed → different jitter
  // Doubling under the cap: each base is 10·2^k clamped to 100, jitter
  // keeps every sleep within [base/2, 3·base/2].
  int64_t base = 10;
  for (size_t i = 0; i < a1.size(); ++i) {
    EXPECT_GE(a1[i], base - base / 2) << i;
    EXPECT_LE(a1[i], base + base / 2) << i;
    base = std::min<int64_t>(base * 2, 100);
  }
}

// --- StrdbClient against a live TcpServer -----------------------------------

struct LiveServer {
  explicit LiveServer(ServerOptions options = {})
      : core(Alphabet::Binary(), options), server(&core) {
    Status listening = server.Listen(0);
    EXPECT_TRUE(listening.ok()) << listening;
    serve_thread = std::thread([this] { server.Serve(); });
  }
  ~LiveServer() {
    server.RequestStop();
    server.Stop();
    serve_thread.join();
  }
  ServerCore core;
  TcpServer server;
  std::thread serve_thread;
};

TEST(StrdbClientTest, TalksToARealServer) {
  LiveServer live;
  ClientOptions options;
  options.client_id = "c0";
  StrdbClient client(live.server.port(), options);
  Result<ServerResponse> defined = client.Call("rel R ab ba");
  ASSERT_TRUE(defined.ok()) << defined.status();
  EXPECT_TRUE(defined->ok);
  EXPECT_EQ(defined->body, "defined R/1 with 2 tuples\n");
  Result<ServerResponse> query = client.Call("x | R(x)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->body, "{(\"ab\"), (\"ba\")}   (2 tuples)\n");
}

TEST(StrdbClientTest, SurvivesInjectedDropsAgainstARealServer) {
  LiveServer live;
  MetricsRegistry& reg = MetricsRegistry::Global();
  int64_t deduped0 =
      reg.GetCounter("server.retried_requests_deduped")->value();

  TransportFaultPlan plan;
  plan.seed = 11;
  // Every 4th transport op loses the connection.  (Not 3: a clean
  // retry cycle is exactly Connect+Send+Recv, so a period-3 plan would
  // resonate with it and drop the Recv of every attempt forever.)
  plan.drop_every = 4;
  ClientOptions options;
  options.client_id = "chaoscli";
  options.max_attempts = 30;
  options.backoff_initial_ms = 1;
  options.backoff_cap_ms = 5;
  StrdbClient client(
      live.server.port(), options,
      std::make_unique<FaultyTransport>(std::make_unique<TcpClientTransport>(),
                                        plan));
  // A serial mutation workload: every op must land exactly once even
  // though a third of all transport calls drop the connection.
  ASSERT_TRUE(client.Call("rel R ab").ok());
  ASSERT_TRUE(client.Call("insert R ba").ok());
  ASSERT_TRUE(client.Call("insert R bb").ok());
  ASSERT_TRUE(client.Call("drop R").ok());
  ASSERT_TRUE(client.Call("rel R aa").ok());
  Result<ServerResponse> shown = client.Call("show");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(shown->body, "R/1 = {(\"aa\")}\n");
  EXPECT_GT(client.reconnects(), 1);  // drops actually happened
  // Any ack lost to a drop was recovered by a deduped retry, never by a
  // second application (the end state above already proves that; the
  // counter shows the mechanism fired when a response was lost).
  EXPECT_GE(reg.GetCounter("server.retried_requests_deduped")->value(),
            deduped0);
}

TEST(StrdbClientTest, ReconnectsAcrossServerRestart) {
  auto live = std::make_unique<LiveServer>();
  std::atomic<int> port{live->server.port()};
  ClientOptions options;
  options.client_id = "phoenix";
  options.max_attempts = 100;
  options.backoff_initial_ms = 1;
  options.backoff_cap_ms = 10;
  StrdbClient client(
      [&port]() -> Result<int> {
        int p = port.load();
        if (p <= 0) return Status::Unavailable("restarting");
        return p;
      },
      options);
  ASSERT_TRUE(client.Call("ping").ok());
  // Tear the whole server down and bring a new one up on a new port.
  // (In-memory catalog: state does not survive; this test is about the
  // client's dial loop, not durability — chaos_test covers that.)
  port.store(0);
  live.reset();
  live = std::make_unique<LiveServer>();
  port.store(live->server.port());
  Result<ServerResponse> pong = client.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->body, "pong\n");
  EXPECT_GE(client.reconnects(), 2);
}

}  // namespace
}  // namespace strdb
