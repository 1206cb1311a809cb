#ifndef STRDB_SERVER_COMMAND_H_
#define STRDB_SERVER_COMMAND_H_

#include <string>
#include <vector>

#include "core/budget.h"
#include "core/status.h"
#include "server/catalog.h"

namespace strdb {

// The one command grammar both front-ends speak.  Extracted from
// examples/strdb_shell.cc so the interactive shell and the query server
// dispatch identical commands with byte-identical output — the golden
// transcript in tests/command_test.cc pins the text down, and the
// server-vs-serial conformance target leans on the determinism.
//
// Commands (the shell's historical set):
//   rel NAME tuple [tuple ...]    define a relation ("ab,ba" tuples,
//                                 "-" for the empty string)
//   insert NAME tuple [...]       add tuples to an existing relation
//   drop NAME                     remove a relation
//   show                          list the relations
//   open DIR [spill BYTES] / save / close
//                                 durable-session verbs (shell mode
//                                 only — the server owns its store and
//                                 rejects these with a typed error);
//                                 `spill BYTES` makes save move
//                                 relations that big out-of-core
//   pager                         buffer-pool counters of the durable
//                                 store's pager (spilled relations,
//                                 cached/pinned bytes, hit rate)
//   safe QUERY                    safety analysis only
//   plan QUERY                    Theorem 4.2 algebra plan
//   explain QUERY                 engine physical plan
//   engine on|off                 engine vs naive evaluator
//   stats on|off                  per-operator stats after each query
//   budget [DIM N ...] | off      per-session query resource limits
//   metrics                       process metrics registry as JSON
//   ping                          liveness probe ("pong")
//   req CLIENT:SEQ COMMAND...     idempotent-request prefix: CLIENT is a
//                                 client-chosen id, SEQ its monotonically
//                                 increasing request number.  A mutation
//                                 (rel/insert/drop) whose SEQ is already
//                                 inside the client's applied window is
//                                 acknowledged without re-applying — the
//                                 response text is identical — so a
//                                 client may retry after a lost ack.
//                                 Non-mutations ignore the tag.
//   QUERY                         evaluate ("!N QUERY" for an explicit
//                                 truncation)
//
// One CommandProcessor per session; it holds the session-local knobs
// (engine route, stats, budget limits) and points at the process-shared
// SharedCatalog.  Execute is NOT reentrant — ServerCore serializes
// commands per session — but different sessions' processors run
// concurrently: queries evaluate against an immutable catalog snapshot
// grabbed at command start, mutations serialize inside SharedCatalog.
class CommandProcessor {
 public:
  enum class Mode {
    kShell,   // full grammar, including open/save/close
    kServer,  // durable-session verbs rejected (server owns the store)
  };

  explicit CommandProcessor(SharedCatalog* catalog, Mode mode = Mode::kShell);

  // Executes one command line.  `out` receives exactly the text the
  // command historically printed to stdout (possibly empty, possibly
  // multi-line, '\n'-terminated when non-empty); the returned Status is
  // the command's verdict.  A blank line is an OK no-op.
  Status Execute(const std::string& line, std::string* out);

  // Per-session query limits (the `budget` verb mutates these).
  const ResourceLimits& limits() const { return limits_; }
  void set_limits(const ResourceLimits& limits) { limits_ = limits; }

  // Optional shared admission account: when set, every query opens its
  // per-query budget as a child of this one (see QueryOptions).  Not
  // owned; must outlive the processor.
  void set_parent_budget(ResourceBudget* parent) { parent_budget_ = parent; }

  // Server-imposed per-request wall-clock cap (0 = none).  Tighter than
  // the session's own `budget ms` it wins, and an overrun it caused
  // comes back as typed kDeadlineExceeded (counted in
  // server.deadline_exceeded) instead of kResourceExhausted, so clients
  // can tell "the server cut me off" from "my budget ran out".
  void set_request_deadline_ms(int64_t ms) { request_deadline_ms_ = ms; }

 private:
  Status HandleRel(const std::vector<std::string>& words, const ReqId& req,
                   std::string* out);
  Status HandleInsert(const std::vector<std::string>& words, const ReqId& req,
                      std::string* out);
  Status HandleDrop(const std::vector<std::string>& words, const ReqId& req,
                    std::string* out);
  Status HandleOpen(const std::vector<std::string>& words, std::string* out);
  Status HandleSave(std::string* out);
  Status HandleClose(std::string* out);
  Status HandleBudget(const std::vector<std::string>& words, std::string* out);
  Status HandleQuery(const std::string& text, std::string* out);
  Status HandleSafe(const std::string& text, std::string* out);
  Status HandlePlan(const std::string& text, std::string* out);
  Status HandleExplain(const std::string& text, std::string* out);

  SharedCatalog* const catalog_;
  const Mode mode_;
  bool use_engine_ = true;
  bool show_stats_ = false;
  ResourceLimits limits_;
  ResourceBudget* parent_budget_ = nullptr;
  int64_t request_deadline_ms_ = 0;
};

// Frames one command's outcome as the server's wire response: the body
// lines (already '\n'-terminated) followed by a terminator line —
// "ok\n" on success, "err <code-name> <message>\n" otherwise (message
// newlines flattened so the terminator stays one line).  Both the TCP
// transport and the serial conformance oracle use this, which is what
// makes "byte-identical to serial replay" a meaningful check.
std::string FrameResponse(const Status& status, const std::string& body);

}  // namespace strdb

#endif  // STRDB_SERVER_COMMAND_H_
