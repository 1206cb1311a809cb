#include <cstdlib>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "server/command.h"
#include "server/server.h"
#include "testing/targets.h"

namespace strdb {
namespace testgen {

namespace {

using ServerCase = ServerDiffTarget::ServerCase;
using Mode = ServerDiffTarget::Mode;

// Every server case runs over Σ = {a, b}: concurrency bugs do not need
// a bigger alphabet, and small domains keep 2000-case sweeps quick.
const Alphabet& CaseAlphabet() {
  static const Alphabet* const alphabet = new Alphabet(Alphabet::Binary());
  return *alphabet;
}

std::string TupleWord(RandomSource& rand) {
  std::string s = rand.String(CaseAlphabet(), 0, 3);
  return s.empty() ? "-" : s;
}

std::string TupleWords(RandomSource& rand, int min_count, int max_count) {
  int count = rand.Range(min_count, max_count);
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (!out.empty()) out += ' ';
    out += TupleWord(rand);
  }
  return out;
}

// Session i's private relation namespace: S<i>R<j>.
std::string OwnRel(int session, int j) {
  return "S" + std::to_string(session) + "R" + std::to_string(j);
}

// One command for a disjoint-mode session.  Every shape is allowed to
// fail (insert into an undefined relation, drop of a dropped one): the
// serial oracle replays the identical line, so a typed error is just
// another byte-stable response.  Deliberately absent: `show` and
// `metrics` (see cross-session state), `stats on` (timings) and tight
// or ms/bytes budgets (outcomes would depend on wall clock and on the
// process-global artifact cache, which other sessions warm).
std::string DisjointCommand(RandomSource& rand, int session) {
  std::string rel = OwnRel(session, rand.Range(0, 2));
  switch (rand.Below(10)) {
    case 0:
      return "rel " + rel + " " + TupleWords(rand, 1, 3);
    case 1:
      return "insert " + rel + " " + TupleWords(rand, 1, 2);
    case 2:
      return "drop " + rel;
    case 3:
      return "ping";
    case 4:
      return rand.Coin() ? "budget steps 1000000 rows 1000000"
                         : "budget off";
    case 5:
      return rand.Coin() ? "engine on" : "engine off";
    case 6:
      return "safe x | " + rel + "(x)";
    case 7:
      return "plan x | " + rel + "(x)";
    case 8:
      return "!" + std::to_string(rand.Range(1, 3)) + " x | " + rel + "(x)";
    default:
      return rand.Coin() ? "x | " + rel + "(x)"
                         : "x | " + OwnRel(session, 0) + "(x) & " + rel +
                               "(x)";
  }
}

// A read-only query over the shared overload/snapshot catalog.
std::string ReadQuery(RandomSource& rand, const std::string& a,
                      const std::string& b) {
  switch (rand.Below(4)) {
    case 0:
      return "x | " + a + "(x)";
    case 1:
      return "!" + std::to_string(rand.Range(1, 2)) + " x | " + a + "(x)";
    case 2:
      return "x | " + a + "(x) & " + b + "(x)";
    default:
      return "x | exists y: " + a + "(x) & " + b + "(y)";
  }
}

// Serially replays `log` through one fresh processor (after `setup`
// through another) on a fresh catalog; returns the concatenated framed
// responses — the oracle for a session whose responses depend only on
// its own log.
std::string ReplaySerial(const std::vector<std::string>& setup,
                         const std::vector<std::string>& log) {
  SharedCatalog catalog(CaseAlphabet());
  CommandProcessor setup_proc(&catalog, CommandProcessor::Mode::kServer);
  for (const std::string& line : setup) {
    std::string out;
    (void)setup_proc.Execute(line, &out);
  }
  CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
  std::string all;
  for (const std::string& line : log) {
    std::string out;
    Status status = proc.Execute(line, &out);
    all += FrameResponse(status, out);
  }
  return all;
}

// One command through a fresh default-state processor: the expected
// response of a stateless (read-only) command.
std::string ReplayOne(SharedCatalog* catalog, const std::string& line) {
  CommandProcessor proc(catalog, CommandProcessor::Mode::kServer);
  std::string out;
  Status status = proc.Execute(line, &out);
  return FrameResponse(status, out);
}

// True iff the response's terminator line is a kResourceExhausted
// rejection (admission or budget) — the one non-serial outcome the
// overload oracle admits.
bool IsResourceExhausted(const std::string& response) {
  if (response.empty() || response.back() != '\n') return false;
  size_t start = response.rfind('\n', response.size() - 2);
  start = start == std::string::npos ? 0 : start + 1;
  return response.compare(start, 22, "err resource-exhausted") == 0;
}

std::string Excerpt(const std::string& text, size_t at) {
  size_t from = at < 40 ? 0 : at - 40;
  return text.substr(from, 120);
}

std::optional<Divergence> DiffStreams(int session, const std::string& got,
                                      const std::string& want) {
  if (got == want) return std::nullopt;
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return Divergence{
      "session " + std::to_string(session) +
      ": concurrent responses diverge from serial replay at byte " +
      std::to_string(at) + "\n  concurrent: ..." + Excerpt(got, at) +
      "\n  serial:     ..." + Excerpt(want, at)};
}

std::optional<Divergence> RunDisjoint(const ServerCase& sc) {
  ServerOptions options;
  options.max_queue_depth = 0;  // admission must not perturb responses
  ServerCore core(CaseAlphabet(), options);
  size_t n = sc.logs.size();
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    Result<int64_t> id = core.OpenSession();
    if (!id.ok()) {
      return Divergence{"OpenSession failed: " + id.status().ToString()};
    }
    ids[i] = *id;
  }
  std::vector<std::string> got(n);
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        for (const std::string& line : sc.logs[i]) {
          got[i] += core.Execute(ids[i], line);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t i = 0; i < n; ++i) {
    // Fresh catalog per session: the namespaces are disjoint, so other
    // sessions' relations must be invisible to this session's stream.
    if (auto d = DiffStreams(static_cast<int>(i), got[i],
                             ReplaySerial({}, sc.logs[i]))) {
      return d;
    }
  }
  return std::nullopt;
}

std::optional<Divergence> RunOverload(const ServerCase& sc) {
  ServerOptions options;
  options.max_queue_depth = sc.queue_depth;
  options.global_limits.max_steps = sc.global_steps;
  ServerCore core(CaseAlphabet(), options);

  Result<int64_t> setup_id = core.OpenSession();
  if (!setup_id.ok()) {
    return Divergence{"OpenSession failed: " + setup_id.status().ToString()};
  }
  for (const std::string& line : sc.setup) {
    (void)core.Execute(*setup_id, line);
  }

  size_t n = sc.logs.size();
  std::vector<int64_t> ids(n);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    Result<int64_t> id = core.OpenSession();
    if (!id.ok()) {
      return Divergence{"OpenSession failed: " + id.status().ToString()};
    }
    ids[i] = *id;
    total += sc.logs[i].size();
  }

  // Fire every query at once, one caller thread per command, released
  // together: with a tiny queue bound this is what drives admission
  // rejections.  The commands are read-only, so each response is
  // order-independent and checkable in isolation.
  std::vector<std::vector<std::string>> got(n);
  {
    std::latch start(1);
    std::vector<std::thread> callers;
    callers.reserve(total);
    for (size_t i = 0; i < n; ++i) {
      got[i].resize(sc.logs[i].size());
      for (size_t j = 0; j < sc.logs[i].size(); ++j) {
        callers.emplace_back([&, i, j] {
          start.wait();
          got[i][j] = core.Execute(ids[i], sc.logs[i][j]);
        });
      }
    }
    start.count_down();
    for (std::thread& t : callers) t.join();
  }

  // Serial oracle: same catalog, no global budget, no admission bound.
  SharedCatalog serial(CaseAlphabet());
  CommandProcessor setup_proc(&serial, CommandProcessor::Mode::kServer);
  for (const std::string& line : sc.setup) {
    std::string out;
    (void)setup_proc.Execute(line, &out);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < sc.logs[i].size(); ++j) {
      std::string want = ReplayOne(&serial, sc.logs[i][j]);
      const std::string& have = got[i][j];
      if (have != want && !IsResourceExhausted(have)) {
        return Divergence{
            "session " + std::to_string(i) + " command " + std::to_string(j) +
            " (" + sc.logs[i][j] +
            "): overloaded response is neither the serial answer nor a "
            "typed resource-exhausted rejection\n  got:    " + have +
            "  serial: " + want};
      }
    }
  }
  return std::nullopt;
}

std::optional<Divergence> RunSnapshot(const ServerCase& sc) {
  // Acceptable responses per query: its serial answer over each
  // published version of the catalog — v0 after setup, v_k after writer
  // command k (each writer command fully replaces R, so versions do not
  // accumulate).  A torn or mixed read matches none of these.
  std::set<std::string> queries;
  for (const std::vector<std::string>& log : sc.logs) {
    queries.insert(log.begin(), log.end());
  }
  std::map<std::string, std::set<std::string>> acceptable;
  for (size_t version = 0; version <= sc.writer.size(); ++version) {
    SharedCatalog catalog(CaseAlphabet());
    CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
    for (const std::string& line : sc.setup) {
      std::string out;
      (void)proc.Execute(line, &out);
    }
    if (version > 0) {
      std::string out;
      (void)proc.Execute(sc.writer[version - 1], &out);
    }
    for (const std::string& q : queries) {
      acceptable[q].insert(ReplayOne(&catalog, q));
    }
  }

  ServerOptions options;
  options.max_queue_depth = 0;
  ServerCore core(CaseAlphabet(), options);
  Result<int64_t> writer_id = core.OpenSession();
  if (!writer_id.ok()) {
    return Divergence{"OpenSession failed: " + writer_id.status().ToString()};
  }
  for (const std::string& line : sc.setup) {
    (void)core.Execute(*writer_id, line);
  }
  size_t n = sc.logs.size();
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    Result<int64_t> id = core.OpenSession();
    if (!id.ok()) {
      return Divergence{"OpenSession failed: " + id.status().ToString()};
    }
    ids[i] = *id;
  }

  std::string writer_got;
  std::vector<std::vector<std::string>> got(n);
  {
    std::vector<std::thread> threads;
    threads.reserve(n + 1);
    threads.emplace_back([&] {
      for (const std::string& line : sc.writer) {
        writer_got += core.Execute(*writer_id, line);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        for (const std::string& line : sc.logs[i]) {
          got[i].push_back(core.Execute(ids[i], line));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // The writer's own stream is deterministic (rel always replaces).
  std::string writer_want;
  {
    SharedCatalog catalog(CaseAlphabet());
    CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
    for (const std::string& line : sc.setup) {
      std::string out;
      (void)proc.Execute(line, &out);
    }
    for (const std::string& line : sc.writer) {
      std::string out;
      Status status = proc.Execute(line, &out);
      writer_want += FrameResponse(status, out);
    }
  }
  if (auto d = DiffStreams(-1, writer_got, writer_want)) {
    d->summary = "writer " + d->summary;
    return d;
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < got[i].size(); ++j) {
      const std::set<std::string>& ok_set = acceptable[sc.logs[i][j]];
      if (ok_set.find(got[i][j]) == ok_set.end()) {
        std::string versions;
        for (const std::string& v : ok_set) {
          versions += "  version answer: " + v;
        }
        return Divergence{
            "reader " + std::to_string(i) + " command " + std::to_string(j) +
            " (" + sc.logs[i][j] +
            "): response matches no published catalog version (snapshot "
            "isolation violated)\n  got: " + got[i][j] + versions};
      }
    }
  }
  return std::nullopt;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kDisjoint:
      return "disjoint";
    case Mode::kOverload:
      return "overload";
    case Mode::kSnapshot:
      return "snapshot";
  }
  return "disjoint";
}

Result<Mode> ParseMode(const std::string& name) {
  if (name == "disjoint") return Mode::kDisjoint;
  if (name == "overload") return Mode::kOverload;
  if (name == "snapshot") return Mode::kSnapshot;
  return Status::InvalidArgument("unknown server-case mode '" + name + "'");
}

std::unique_ptr<ServerCase> Clone(const ServerCase& sc) {
  auto copy = std::make_unique<ServerCase>();
  *copy = sc;
  return copy;
}

}  // namespace

DiffTarget::CasePtr ServerDiffTarget::Generate(RandomSource& rand) const {
  auto c = std::make_unique<ServerCase>();
  uint64_t pick = rand.Below(4);
  if (pick <= 1) {
    c->mode = Mode::kDisjoint;
    int n = rand.Range(8, 10);
    c->logs.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int m = rand.Range(2, 6);
      for (int j = 0; j < m; ++j) {
        c->logs[static_cast<size_t>(i)].push_back(DisjointCommand(rand, i));
      }
    }
  } else if (pick == 2) {
    c->mode = Mode::kOverload;
    c->queue_depth = rand.Range(1, 3);
    c->global_steps = rand.Range(20, 200);
    int rels = rand.Range(2, 3);
    for (int r = 0; r < rels; ++r) {
      c->setup.push_back("rel Q" + std::to_string(r) + " " +
                         TupleWords(rand, 1, 4));
    }
    int n = rand.Range(8, 10);
    c->logs.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int m = rand.Range(2, 4);
      for (int j = 0; j < m; ++j) {
        std::string a = "Q" + std::to_string(rand.Range(0, rels - 1));
        std::string b = "Q" + std::to_string(rand.Range(0, rels - 1));
        c->logs[static_cast<size_t>(i)].push_back(ReadQuery(rand, a, b));
      }
    }
  } else {
    c->mode = Mode::kSnapshot;
    c->setup.push_back("rel R " + TupleWords(rand, 1, 3));
    int flips = rand.Range(2, 5);
    for (int k = 0; k < flips; ++k) {
      c->writer.push_back("rel R " + TupleWords(rand, 1, 3));
    }
    int n = rand.Range(7, 9);
    c->logs.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int m = rand.Range(2, 4);
      for (int j = 0; j < m; ++j) {
        c->logs[static_cast<size_t>(i)].push_back(ReadQuery(rand, "R", "R"));
      }
    }
  }
  return c;
}

std::optional<Divergence> ServerDiffTarget::Run(const Case& c) const {
  const auto& sc = static_cast<const ServerCase&>(c);
  switch (sc.mode) {
    case Mode::kDisjoint:
      return RunDisjoint(sc);
    case Mode::kOverload:
      return RunOverload(sc);
    case Mode::kSnapshot:
      return RunSnapshot(sc);
  }
  return std::nullopt;
}

std::string ServerDiffTarget::Serialize(const Case& c) const {
  const auto& sc = static_cast<const ServerCase&>(c);
  std::ostringstream out;
  out << "mode " << ModeName(sc.mode) << "\n";
  out << "global_steps " << sc.global_steps << "\n";
  out << "queue_depth " << sc.queue_depth << "\n";
  out << "setup " << sc.setup.size() << "\n";
  for (const std::string& line : sc.setup) out << line << "\n";
  out << "writer " << sc.writer.size() << "\n";
  for (const std::string& line : sc.writer) out << line << "\n";
  out << "sessions " << sc.logs.size() << "\n";
  for (const std::vector<std::string>& log : sc.logs) {
    out << "log " << log.size() << "\n";
    for (const std::string& line : log) out << line << "\n";
  }
  return out.str();
}

Result<DiffTarget::CasePtr> ServerDiffTarget::Deserialize(
    const std::string& text) const {
  std::istringstream in(text);
  auto expect = [&](const std::string& keyword) -> Result<int64_t> {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("server case truncated before '" +
                                     keyword + "'");
    }
    std::istringstream fields(line);
    std::string word;
    int64_t value = 0;
    if (!(fields >> word >> value) || word != keyword) {
      return Status::InvalidArgument("expected '" + keyword +
                                     " N', got '" + line + "'");
    }
    return value;
  };
  auto read_lines = [&](int64_t count,
                        std::vector<std::string>* out) -> Status {
    for (int64_t i = 0; i < count; ++i) {
      std::string line;
      if (!std::getline(in, line)) {
        return Status::InvalidArgument("server case truncated inside a block");
      }
      out->push_back(std::move(line));
    }
    return Status::OK();
  };

  auto c = std::make_unique<ServerCase>();
  {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("empty server case");
    }
    std::istringstream fields(line);
    std::string word, mode_name;
    if (!(fields >> word >> mode_name) || word != "mode") {
      return Status::InvalidArgument("expected 'mode NAME', got '" + line +
                                     "'");
    }
    STRDB_ASSIGN_OR_RETURN(c->mode, ParseMode(mode_name));
  }
  STRDB_ASSIGN_OR_RETURN(c->global_steps, expect("global_steps"));
  STRDB_ASSIGN_OR_RETURN(c->queue_depth, expect("queue_depth"));
  STRDB_ASSIGN_OR_RETURN(int64_t setup_count, expect("setup"));
  STRDB_RETURN_IF_ERROR(read_lines(setup_count, &c->setup));
  STRDB_ASSIGN_OR_RETURN(int64_t writer_count, expect("writer"));
  STRDB_RETURN_IF_ERROR(read_lines(writer_count, &c->writer));
  STRDB_ASSIGN_OR_RETURN(int64_t sessions, expect("sessions"));
  for (int64_t i = 0; i < sessions; ++i) {
    STRDB_ASSIGN_OR_RETURN(int64_t log_count, expect("log"));
    c->logs.emplace_back();
    STRDB_RETURN_IF_ERROR(read_lines(log_count, &c->logs.back()));
  }
  return CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> ServerDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& sc = static_cast<const ServerCase&>(c);
  std::vector<CasePtr> out;
  // Whole sessions first: the biggest reductions shrink fastest.
  if (sc.logs.size() > 1) {
    for (size_t i = 0; i < sc.logs.size(); ++i) {
      auto copy = Clone(sc);
      copy->logs.erase(copy->logs.begin() + static_cast<ptrdiff_t>(i));
      out.push_back(std::move(copy));
    }
  }
  for (size_t i = 0; i < sc.logs.size(); ++i) {
    for (size_t j = 0; j < sc.logs[i].size(); ++j) {
      auto copy = Clone(sc);
      copy->logs[i].erase(copy->logs[i].begin() +
                          static_cast<ptrdiff_t>(j));
      out.push_back(std::move(copy));
    }
  }
  if (sc.writer.size() > 1) {
    for (size_t k = 0; k < sc.writer.size(); ++k) {
      auto copy = Clone(sc);
      copy->writer.erase(copy->writer.begin() + static_cast<ptrdiff_t>(k));
      out.push_back(std::move(copy));
    }
  }
  for (size_t s = 0; s < sc.setup.size(); ++s) {
    auto copy = Clone(sc);
    copy->setup.erase(copy->setup.begin() + static_cast<ptrdiff_t>(s));
    out.push_back(std::move(copy));
  }
  return out;
}

int64_t ServerDiffTarget::CaseSize(const Case& c) const {
  const auto& sc = static_cast<const ServerCase&>(c);
  int64_t size = static_cast<int64_t>(sc.logs.size());
  auto count = [&](const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      size += 1 + static_cast<int64_t>(line.size());
    }
  };
  count(sc.setup);
  count(sc.writer);
  for (const std::vector<std::string>& log : sc.logs) count(log);
  return size;
}

}  // namespace testgen
}  // namespace strdb
