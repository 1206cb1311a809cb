#ifndef SERVEBENCH_SERVER_PROCESS_H_
#define SERVEBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace servebench {

// A strdb_server child process on an ephemeral loopback port.  Start()
// reads the "listening on" handshake line from the child's stdout pipe;
// stderr goes to `log_prefix`.err.  The destructor kills and reaps a
// child that is still running, so no server outlives the benchmark.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  strdb::Status Start(const std::string& binary,
                      const std::vector<std::string>& args,
                      const std::string& log_prefix);

  int port() const { return port_; }
  bool running() const { return pid_ > 0; }

  // Peak resident set (VmHWM) of the running child, in KiB; -1 if
  // unreadable.
  int64_t PeakRssKb() const;

  // SIGTERM (graceful drain + shutdown checkpoint) and reap; an error if
  // the server exits non-zero or outlives `timeout_ms`.
  strdb::Status Terminate(int64_t timeout_ms = 60000);

  // SIGKILL and reap: a crash with no shutdown checkpoint.
  void Kill();

 private:
  // Reaps the child and closes the stdout pipe.
  int Reap(int wait_flags);

  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;  // read end of the child's stdout, open until reaped
};

// Total bytes of the regular files directly inside `dir`, optionally only
// those whose names start with `prefix`.
int64_t DirBytes(const std::string& dir, const std::string& prefix = "");

}  // namespace servebench

#endif  // SERVEBENCH_SERVER_PROCESS_H_
