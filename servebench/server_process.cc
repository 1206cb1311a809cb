#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

ServerProcess::~ServerProcess() {
  if (running()) Kill();
}

strdb::Status ServerProcess::Start(const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::string& log_prefix) {
  const std::string err_path = log_prefix + ".err";
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return strdb::Status::Internal("pipe failed");
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return strdb::Status::Internal("fork failed");
  }
  if (pid == 0) {
    int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err < 0) ::_exit(126);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];

  // The server prints its port line once it listens; the pipe stays open
  // until the child is reaped, so later stdout writes never hit EPIPE.
  const std::string marker = "listening on 127.0.0.1:";
  std::string text;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = std::atoi(text.c_str() + at + marker.size());
      return strdb::Status::OK();
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) break;
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) continue;
    char chunk[512];
    ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n > 0) {
      text.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF: the server exited before listening.
    Reap(0);
    std::ifstream err(err_path);
    std::stringstream why;
    why << err.rdbuf();
    return strdb::Status::Internal("strdb_server exited during startup: " +
                                   why.str());
  }
  Kill();
  return strdb::Status::DeadlineExceeded("strdb_server did not listen");
}

int ServerProcess::Reap(int wait_flags) {
  int status = 0;
  if (::waitpid(pid_, &status, wait_flags) != pid_) return -1;
  pid_ = -1;
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  return status;
}

int64_t ServerProcess::PeakRssKb() const {
  if (!running()) return -1;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

strdb::Status ServerProcess::Terminate(int64_t timeout_ms) {
  if (!running()) return strdb::Status::OK();
  ::kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = Reap(WNOHANG);
    if (status >= 0) {
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        return strdb::Status::OK();
      }
      return strdb::Status::Internal("strdb_server shut down with status " +
                                     std::to_string(status));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Kill();
  return strdb::Status::DeadlineExceeded("strdb_server did not drain");
}

void ServerProcess::Kill() {
  if (!running()) return;
  ::kill(pid_, SIGKILL);
  Reap(0);
}

int64_t DirBytes(const std::string& dir, const std::string& prefix) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += static_cast<int64_t>(entry.file_size(ec));
  }
  return total;
}

}  // namespace servebench
