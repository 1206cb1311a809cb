#ifndef STRDB_SERVER_SERVER_H_
#define STRDB_SERVER_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/alphabet.h"
#include "core/budget.h"
#include "core/metrics.h"
#include "core/result.h"
#include "server/catalog.h"
#include "server/command.h"

namespace strdb {

struct ServerOptions {
  // Commands executing at once, across all sessions; <= 0 picks
  // hardware_concurrency().  Each command runs on its caller's thread
  // (a TcpServer connection thread); this cap is the number of execution
  // permits.  The engine's own pool (Engine::Shared()) parallelises
  // *inside* a query, and its workers never call back into the server,
  // so the two never compose into a worker-waits-for-worker deadlock.
  int num_workers = 0;
  // Admission bound: callers waiting for an execution permit at once,
  // across all sessions.  The bound is what turns overload into a
  // typed, protocol-visible kResourceExhausted line instead of
  // unbounded waiting or a hung client.
  int64_t max_queue_depth = 64;
  // Concurrent sessions; OpenSession past this is rejected typed.
  int64_t max_sessions = 256;
  // Global in-flight resource account shared by every session's
  // queries (zero fields = unlimited).  Charges roll up from per-query
  // child budgets and are released when each query finishes, so this
  // bounds *concurrent* work, not lifetime totals.
  ResourceLimits global_limits;
  // Default per-query limits every new session starts with (a session
  // may lower/raise its own with the `budget` verb).
  ResourceLimits session_limits;
  // Server-imposed wall-clock cap per request (0 = none).  Binds when
  // tighter than the session's own `budget ms`; a query it cancels gets
  // a typed "err deadline-exceeded" response (counted in
  // server.deadline_exceeded) instead of wedging its session.
  int64_t request_deadline_ms = 0;
  // TCP read deadline (0 = none): a connection that stalls mid-command
  // (bytes received but no terminating newline) for this long gets a
  // typed "err deadline-exceeded" line and is closed — a slow-loris
  // client cannot pin a connection thread forever.  Idle connections
  // with no partial command pending are unaffected.
  int64_t read_deadline_ms = 0;
};

// The transport-free heart of strdb_server: session registry, admission
// control and command execution over a SharedCatalog.  The TCP layer
// (server/tcp.h) is a thin framing shim over this class, and the
// server-vs-serial conformance target drives it directly in-process —
// every concurrency property is testable without a socket.
//
// Execution model: each session holds one CommandProcessor (its grammar
// state: engine route, stats, budget limits) and executes at most one
// command at a time (a per-session lock enforces it even if a transport
// misbehaves).  Execute runs the command on the calling thread once it
// holds one of num_workers execution permits.  Commands from different
// sessions run concurrently; queries read an immutable catalog snapshot,
// mutations serialize inside SharedCatalog — so readers never block the
// writer and every response equals some serial execution of that
// session's commands.
//
// Admission: a command is rejected up front — with a response line, not
// a disconnect — when every permit is taken and max_queue_depth callers
// already wait for one, when the server is draining, or (mid-query, via
// the budget hierarchy) when the global in-flight account is exhausted.
//
// Metrics (server.*): accepted, rejected_admission, commands, errors,
// bytes_in, bytes_out counters; active_sessions, queue_depth gauges.
class ServerCore {
 public:
  explicit ServerCore(Alphabet alphabet, ServerOptions options = {});
  // Drains (see Drain()).
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  SharedCatalog& catalog() { return catalog_; }
  const ServerOptions& options() const { return options_; }

  // Registers a session.  Fails typed (kResourceExhausted) at the
  // max_sessions bound, (kUnavailable) once draining.
  Result<int64_t> OpenSession();
  // Unregisters; an in-flight command finishes safely (its caller keeps
  // the session alive), later commands fail kNotFound.
  Status CloseSession(int64_t session_id);

  // Executes one command line for `session_id` on the calling thread,
  // waiting for an execution permit if all are taken, and returns the
  // framed protocol response (body + "ok"/"err ..." terminator; see
  // FrameResponse).  Admission rejections return at once, typed.
  std::string Execute(int64_t session_id, const std::string& line);

  // Graceful drain: stop admitting commands (and sessions), then wait
  // until no command is running or waiting for a permit — admitted
  // waiters still run.  Once it returns no caller touches the core.
  // Idempotent.
  void Drain();
  bool draining() const;

  int64_t active_sessions() const;
  // Callers admitted but still waiting for an execution permit.
  int64_t queue_depth() const;

 private:
  // Owned jointly by the registry and the caller executing on it, so
  // CloseSession never frees a session mid-command.
  struct Session {
    explicit Session(SharedCatalog* catalog)
        : processor(catalog, CommandProcessor::Mode::kServer) {}
    std::mutex mu;  // one command at a time per session
    CommandProcessor processor;
  };

  // Admission: returns the session with a permit held, or null with the
  // framed rejection in *rejection.  May wait for a permit.
  std::shared_ptr<Session> Admit(int64_t session_id, std::string* rejection);
  // Frames the response and counts it in bytes_out (and errors).
  std::string Respond(const Status& status, const std::string& body);

  const ServerOptions options_;
  const int64_t max_running_;  // options_.num_workers, resolved
  SharedCatalog catalog_;
  ResourceBudget global_budget_;

  Counter* const accepted_;
  Counter* const rejected_admission_;
  Counter* const commands_;
  Counter* const errors_;
  Counter* const bytes_in_;
  Counter* const bytes_out_;
  Gauge* const active_sessions_gauge_;
  Gauge* const queue_depth_gauge_;

  mutable std::mutex mu_;
  // Signalled when a permit is released: wakes permit waiters and Drain.
  std::condition_variable permit_cv_;
  std::map<int64_t, std::shared_ptr<Session>> sessions_;
  int64_t next_session_id_ = 1;
  int64_t running_ = 0;  // commands holding a permit
  int64_t queued_ = 0;   // admitted, waiting for a permit
  bool draining_ = false;
};

}  // namespace strdb

#endif  // STRDB_SERVER_SERVER_H_
