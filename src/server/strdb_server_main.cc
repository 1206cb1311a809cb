// strdb_server: the concurrent query server.
//
//   $ ./strdb_server [alphabet] [flags]      (default alphabet: ab)
//
//   --port N            listen port on 127.0.0.1 (default 7411; 0 asks
//                       the kernel for an ephemeral port — the chosen
//                       one is printed either way)
//   --dir DIR           serve a durable catalog: open (or create) the
//                       store in DIR, replay the WAL, warm the engine's
//                       automaton cache; rel/insert/drop then commit
//                       through the WAL.  Without it the catalog is
//                       memory-only.
//   --spill BYTES       with --dir: relations whose in-memory footprint
//                       reaches BYTES move out-of-core (paged heap
//                       files) at each checkpoint; queries stream them
//                       through the buffer pool (default 0 = never)
//   --pager-cap BYTES   buffer-pool byte cap for reading spilled
//                       relations (default 4 MiB)
//   --workers N         commands executing at once (default: hardware)
//   --queue-depth N     admission bound on callers waiting for a slot
//                       (default 64)
//   --max-sessions N    concurrent session bound (default 256)
//   --global-steps N    global in-flight search-step account
//   --global-rows N     global in-flight materialised-row account
//   --session-steps N   default per-query step limit per session
//   --session-rows N    default per-query row limit per session
//   --session-ms N      default per-query deadline per session
//   --request-deadline-ms N
//                       server-imposed wall-clock cap per request; a
//                       query it cancels gets "err deadline-exceeded"
//                       (default 0 = none)
//   --read-deadline-ms N
//                       cut a connection that stalls mid-command for
//                       this long with "err deadline-exceeded" (default
//                       0 = none; idle connections are unaffected)
//   --scrub-interval-ms N
//                       with --dir: background-scrub the snapshot, WAL
//                       and spilled heaps every N ms, quarantining
//                       relations whose pages fail their CRCs (default
//                       0 = no scrub thread)
//
// Protocol: one command per line (the shell grammar; see
// server/command.h), response = body lines + "ok" or "err <code> <msg>"
// terminator.  Try it with nc:
//
//   $ nc 127.0.0.1 7411
//   rel R ab ba
//   defined R/1 with 2 tuples
//   ok
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
// commands, checkpoint the durable store if one is open, then exit 0.
#include <errno.h>
#include <signal.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/alphabet.h"
#include "server/server.h"
#include "server/tcp.h"
#include "storage/store.h"

namespace {

strdb::TcpServer* g_server = nullptr;

// Async-signal-safe: RequestStop is a lock-free atomic store, and
// Serve()'s poll loop re-checks the flag at least every 200ms even if
// the wakeup EINTR is missed.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

// A decimal in [0, max]; anything else exits 2 naming the flag.  `max`
// is the largest value the flag's destination type can hold.
int64_t ParseInt(const char* flag, const char* text,
                 int64_t max = INT64_MAX) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > max) {
    std::fprintf(stderr, "%s expects an integer in [0, %lld], got '%s'\n",
                 flag, static_cast<long long>(max), text);
    std::exit(2);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace strdb;

  std::string chars = "ab";
  std::string dir;
  int port = 7411;
  ServerOptions options;
  StoreOptions store_options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<int>(ParseInt("--port", next("--port"), 65535));
    } else if (arg == "--dir") {
      dir = next("--dir");
    } else if (arg == "--spill") {
      store_options.spill_threshold_bytes =
          ParseInt("--spill", next("--spill"));
    } else if (arg == "--pager-cap") {
      store_options.pager_capacity_bytes =
          ParseInt("--pager-cap", next("--pager-cap"));
    } else if (arg == "--workers") {
      options.num_workers =
          static_cast<int>(ParseInt("--workers", next("--workers"), INT_MAX));
    } else if (arg == "--queue-depth") {
      options.max_queue_depth =
          ParseInt("--queue-depth", next("--queue-depth"));
    } else if (arg == "--max-sessions") {
      options.max_sessions =
          ParseInt("--max-sessions", next("--max-sessions"));
    } else if (arg == "--global-steps") {
      options.global_limits.max_steps =
          ParseInt("--global-steps", next("--global-steps"));
    } else if (arg == "--global-rows") {
      options.global_limits.max_rows =
          ParseInt("--global-rows", next("--global-rows"));
    } else if (arg == "--session-steps") {
      options.session_limits.max_steps =
          ParseInt("--session-steps", next("--session-steps"));
    } else if (arg == "--session-rows") {
      options.session_limits.max_rows =
          ParseInt("--session-rows", next("--session-rows"));
    } else if (arg == "--session-ms") {
      options.session_limits.deadline_ms =
          ParseInt("--session-ms", next("--session-ms"));
    } else if (arg == "--request-deadline-ms") {
      options.request_deadline_ms =
          ParseInt("--request-deadline-ms", next("--request-deadline-ms"));
    } else if (arg == "--read-deadline-ms") {
      options.read_deadline_ms = ParseInt(
          "--read-deadline-ms", next("--read-deadline-ms"), INT_MAX);
    } else if (arg == "--scrub-interval-ms") {
      store_options.scrub_interval_ms =
          ParseInt("--scrub-interval-ms", next("--scrub-interval-ms"));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      chars = arg;
    }
  }

  Result<Alphabet> alphabet = Alphabet::Create(chars);
  if (!alphabet.ok()) {
    std::fprintf(stderr, "bad alphabet: %s\n",
                 alphabet.status().ToString().c_str());
    return 1;
  }

  ServerCore core(*alphabet, options);
  if (!dir.empty()) {
    RecoveryReport report;
    int warmed = 0;
    core.catalog().set_store_options(store_options);
    Status opened = core.catalog().OpenDurable(dir, &report, &warmed);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open durable catalog '%s': %s\n",
                   dir.c_str(), opened.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
    if (warmed > 0) {
      std::fprintf(stderr, "warmed %d automata into the engine cache\n",
                   warmed);
    }
  }

  TcpServer server(&core);
  Status listening = server.Listen(port);
  if (!listening.ok()) {
    std::fprintf(stderr, "cannot listen on port %d: %s\n", port,
                 listening.ToString().c_str());
    return 1;
  }
  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // The port line is the startup handshake scripts wait for; flush so a
  // pipe reader sees it before the first client connects.
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  server.Serve();  // returns once a signal requests the stop

  server.Stop();
  if (core.catalog().durable()) {
    int persisted = 0;
    int64_t generation = 0;
    Status saved = core.catalog().CheckpointDurable(&persisted, &generation,
                                                    nullptr);
    if (saved.ok()) {
      std::fprintf(stderr, "checkpointed generation %lld on shutdown\n",
                   static_cast<long long>(generation));
    } else {
      std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                   saved.ToString().c_str());
    }
    (void)core.catalog().CloseDurable();
  }
  std::printf("drained: %lld command(s) served\n",
              static_cast<long long>(
                  MetricsRegistry::Global().GetCounter("server.commands")
                      ->value()));
  return 0;
}
