#ifndef STRDB_SERVER_TCP_H_
#define STRDB_SERVER_TCP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "server/server.h"

namespace strdb {

// The thin POSIX socket transport over ServerCore: a TCP listener on
// 127.0.0.1 speaking the newline-framed protocol (one command per line
// in, FrameResponse-framed response out).  One thread per connection;
// each connection owns one ServerCore session and executes its
// commands in order on its own thread, via ServerCore::Execute, so the
// response stream is the serial execution of that connection's lines.
// Admission and every other concurrency property live in ServerCore,
// which is why the conformance driver skips this layer and tests the
// core in-process.
class TcpServer {
 public:
  explicit TcpServer(ServerCore* core) : core_(core) {}
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds and listens on 127.0.0.1:port.  port 0 asks the kernel for an
  // ephemeral port; port() reports the bound one either way.
  Status Listen(int port);
  int port() const { return port_; }

  // Accept loop; runs until Stop() is called (returns after the
  // listener closes).  A signal interrupting accept() is tolerated, so
  // a SIGTERM handler may simply call RequestStop().
  void Serve();

  // Async-signal-safe stop request: Serve() returns soon after.
  void RequestStop();

  // Graceful drain: stop accepting, shut down the read side of every
  // live connection (in-flight commands still get their responses),
  // join connection threads, then drain the core.  Idempotent.
  void Stop();

 private:
  void HandleConnection(int64_t conn_id, int fd);
  // Joins connection threads that have announced completion.  Called
  // from the accept loop each poll tick so a long-lived daemon holds
  // one thread per *live* connection, not per connection ever served.
  void ReapFinished();

  ServerCore* const core_;
  // Atomic: Serve() polls/accepts on it lock-free while Stop() (another
  // thread) closes it and writes -1.  The close-while-blocked-in-accept
  // wakeup is the intended stop mechanism; the atomic only makes the
  // descriptor handoff itself race-free.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex mu_;
  std::set<int> conn_fds_;  // live connections (for shutdown on Stop)
  int64_t next_conn_id_ = 0;
  // Keyed by connection id, not fd: the kernel reuses fd numbers as
  // soon as they close, so an fd cannot name a thread unambiguously.
  std::map<int64_t, std::thread> conn_threads_;
  std::vector<int64_t> finished_conn_ids_;  // done, awaiting join
};

}  // namespace strdb

#endif  // STRDB_SERVER_TCP_H_
