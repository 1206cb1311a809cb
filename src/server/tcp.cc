#include "server/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace strdb {

namespace {

// send() the whole buffer; MSG_NOSIGNAL so a client that hung up turns
// into a return value, not a process-wide SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Listen(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  listen_fd_.store(fd, std::memory_order_release);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  return Status::OK();
}

void TcpServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapFinished();
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;  // Stop() already closed the listener
    pollfd pfd{listen_fd, POLLIN, 0};
    // A finite timeout doubles as the stop-flag poll interval when no
    // signal arrives to interrupt us.
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks stop_
      break;
    }
    if (ready == 0) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed (Stop) or unrecoverable
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    conn_fds_.insert(fd);
    int64_t id = next_conn_id_++;
    conn_threads_.emplace(
        id, std::thread([this, id, fd] { HandleConnection(id, fd); }));
  }
}

void TcpServer::ReapFinished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t id : finished_conn_ids_) {
      auto it = conn_threads_.find(id);
      if (it == conn_threads_.end()) continue;  // Stop() already took it
      finished.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conn_ids_.clear();
  }
  // These threads announced completion as their last locked action, so
  // each join returns (near-)immediately.
  for (std::thread& t : finished) t.join();
}

void TcpServer::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
}

void TcpServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  std::map<int64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    if (listen_fd >= 0) ::close(listen_fd);
    // SHUT_RD unblocks each connection thread's recv() with EOF; the
    // write side stays open so an in-flight command can still deliver
    // its response before the handler closes the socket.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    threads.swap(conn_threads_);
    finished_conn_ids_.clear();
  }
  for (auto& [id, t] : threads) t.join();
  core_->Drain();
}

void TcpServer::HandleConnection(int64_t conn_id, int fd) {
  Result<int64_t> session = core_->OpenSession();
  if (!session.ok()) {
    // Admission rejection is protocol-visible: the client reads one
    // typed error line instead of an unexplained hangup.
    SendAll(fd, FrameResponse(session.status(), std::string()));
  } else {
    const int64_t read_deadline_ms = core_->options().read_deadline_ms;
    std::string buffer;
    char chunk[4096];
    bool alive = true;
    while (alive) {
      // The read deadline arms only mid-command: once any bytes of an
      // unterminated line are buffered, the rest must arrive within the
      // deadline or the connection is cut with a typed error — a
      // slow-loris writer cannot pin this thread.  An idle connection
      // (empty buffer) may sit quietly forever.
      if (read_deadline_ms > 0 && !buffer.empty()) {
        pollfd pfd{fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, static_cast<int>(read_deadline_ms));
        if (ready < 0 && errno == EINTR) continue;
        if (ready == 0) {
          MetricsRegistry::Global()
              .GetCounter("server.deadline_exceeded")
              ->Increment();
          SendAll(fd, FrameResponse(
                          Status::DeadlineExceeded(
                              "read stalled mid-command for " +
                              std::to_string(read_deadline_ms) + "ms"),
                          std::string()));
          break;
        }
        if (ready < 0) break;
      }
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t pos;
      while (alive && (pos = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        alive = SendAll(fd, core_->Execute(*session, line));
      }
    }
    (void)core_->CloseSession(*session);  // kNotFound only after a drain
  }
  {
    // The fd must leave conn_fds_ *before* close(): the kernel reuses
    // closed descriptor numbers immediately, and Stop() must never
    // shutdown() a number that now names someone else's fd (a fresh
    // connection, the durable store's WAL).
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(fd);
    finished_conn_ids_.push_back(conn_id);
  }
  ::close(fd);
}

}  // namespace strdb
