#include "server/server.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

namespace strdb {

namespace {

MetricsRegistry& Reg() { return MetricsRegistry::Global(); }

int64_t ResolveWorkers(int num_workers) {
  if (num_workers > 0) return num_workers;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ServerCore::ServerCore(Alphabet alphabet, ServerOptions options)
    : options_(options),
      max_running_(ResolveWorkers(options.num_workers)),
      catalog_(std::move(alphabet)),
      global_budget_(options.global_limits, nullptr, "server"),
      accepted_(Reg().GetCounter("server.accepted")),
      rejected_admission_(Reg().GetCounter("server.rejected_admission")),
      commands_(Reg().GetCounter("server.commands")),
      errors_(Reg().GetCounter("server.errors")),
      bytes_in_(Reg().GetCounter("server.bytes_in")),
      bytes_out_(Reg().GetCounter("server.bytes_out")),
      active_sessions_gauge_(Reg().GetGauge("server.active_sessions")),
      queue_depth_gauge_(Reg().GetGauge("server.queue_depth")) {
  // Fault-path counters, registered eagerly so the `metrics` verb shows
  // them at zero instead of omitting them until the first incident.
  Reg().GetCounter("server.deadline_exceeded");
  Reg().GetCounter("server.retried_requests_deduped");
}

ServerCore::~ServerCore() { Drain(); }

Result<int64_t> ServerCore::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return Status::Unavailable("server is draining");
  if (options_.max_sessions > 0 &&
      static_cast<int64_t>(sessions_.size()) >= options_.max_sessions) {
    rejected_admission_->Increment();
    return Status::ResourceExhausted(
        "admission: session limit (" + std::to_string(options_.max_sessions) +
        ") reached");
  }
  int64_t id = next_session_id_++;
  auto session = std::make_shared<Session>(&catalog_);
  session->processor.set_limits(options_.session_limits);
  session->processor.set_parent_budget(&global_budget_);
  session->processor.set_request_deadline_ms(options_.request_deadline_ms);
  sessions_.emplace(id, std::move(session));
  accepted_->Increment();
  active_sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  return id;
}

Status ServerCore::CloseSession(int64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  sessions_.erase(it);
  active_sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  return Status::OK();
}

std::string ServerCore::Respond(const Status& status,
                                const std::string& body) {
  std::string response = FrameResponse(status, body);
  bytes_out_->Increment(static_cast<int64_t>(response.size()));
  if (!status.ok()) errors_->Increment();
  return response;
}

std::shared_ptr<ServerCore::Session> ServerCore::Admit(
    int64_t session_id, std::string* rejection) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  Status refused;
  if (draining_) {
    rejected_admission_->Increment();
    refused = Status::Unavailable("server is draining");
  } else if (it == sessions_.end()) {
    refused =
        Status::NotFound("unknown session " + std::to_string(session_id));
  } else if (options_.max_queue_depth > 0 &&
             queued_ >= options_.max_queue_depth) {
    rejected_admission_->Increment();
    refused = Status::ResourceExhausted(
        "admission: dispatch queue full (" +
        std::to_string(options_.max_queue_depth) +
        " command(s) already waiting); retry later");
  } else {
    std::shared_ptr<Session> session = it->second;
    // Callers already waiting go first: a newcomer takes a free permit
    // only when nobody is queued for one.
    if (running_ >= max_running_ || queued_ > 0) {
      queue_depth_gauge_->Set(++queued_);
      permit_cv_.wait(lock, [this] { return running_ < max_running_; });
      queue_depth_gauge_->Set(--queued_);
    }
    ++running_;
    return session;
  }
  // Framed under mu_, so a rejected caller is done with the core once
  // it unlocks, just like an admitted one once it releases its permit.
  *rejection = Respond(refused, std::string());
  return nullptr;
}

std::string ServerCore::Execute(int64_t session_id, const std::string& line) {
  bytes_in_->Increment(static_cast<int64_t>(line.size()) + 1);  // + '\n'
  std::string response;
  std::shared_ptr<Session> session = Admit(session_id, &response);
  // A rejection is a response line, not a disconnect: the client keeps
  // its connection and may retry after backing off.
  if (session == nullptr) return response;
  {
    // One command at a time per session: the grammar state
    // (budget/engine toggles) and the response stream both assume
    // serial order within a session.
    std::lock_guard<std::mutex> session_lock(session->mu);
    std::string body;
    Status status;
    // A throwing command must not escape: it would terminate the
    // connection thread, and with it the process, mid-response.
    try {
      status = session->processor.Execute(line, &body);
    } catch (const std::exception& e) {
      body.clear();
      status = Status::Internal(std::string("command threw: ") + e.what());
    } catch (...) {
      body.clear();
      status = Status::Internal("command threw a non-exception");
    }
    commands_->Increment();
    response = Respond(status, body);
  }
  session.reset();
  // Releasing the permit is this caller's last touch of the core: once
  // no command runs or waits, Drain() returns and the core may go.
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  permit_cv_.notify_all();
  return response;
}

void ServerCore::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  permit_cv_.wait(lock, [this] { return running_ == 0 && queued_ == 0; });
}

bool ServerCore::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

int64_t ServerCore::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

int64_t ServerCore::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace strdb
