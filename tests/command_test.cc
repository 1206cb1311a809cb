// The shared command grammar (server/command.h): a golden transcript
// pinning the exact bytes both front-ends (strdb_shell, strdb_server)
// produce, plus the mode split (shell-only durable verbs) and the wire
// framing.  The transcript is the behavior-preservation contract for
// the shell-to-CommandProcessor extraction: these strings are the
// shell's historical printf outputs, byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "server/catalog.h"
#include "server/command.h"

namespace strdb {
namespace {

struct Exchange {
  std::string command;
  std::string output;       // expected `out` text
  bool ok = true;           // expected status.ok()
  std::string message_has;  // substring of the error message when !ok
};

void RunTranscript(CommandProcessor& proc,
                   const std::vector<Exchange>& transcript) {
  for (const Exchange& x : transcript) {
    std::string out;
    Status status = proc.Execute(x.command, &out);
    EXPECT_EQ(status.ok(), x.ok) << x.command << ": " << status.ToString();
    EXPECT_EQ(out, x.output) << x.command;
    if (!x.ok) {
      EXPECT_NE(status.ToString().find(x.message_has), std::string::npos)
          << x.command << ": " << status.ToString();
    }
  }
}

TEST(CommandTest, GoldenTranscript) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  RunTranscript(
      proc,
      {
          {"", "", true, ""},
          {"ping", "pong\n", true, ""},
          {"rel R ab ba", "defined R/1 with 2 tuples\n", true, ""},
          {"insert R aa", "inserted 1 tuple(s) into R\n", true, ""},
          {"rel Pairs ab,ba a,b",
           "defined Pairs/2 with 2 tuples\n", true, ""},
          {"show",
           "Pairs/2 = {(\"a\",\"b\"), (\"ab\",\"ba\")}\n"
           "R/1 = {(\"aa\"), (\"ab\"), (\"ba\")}\n",
           true, ""},
          {"x | R(x)", "{(\"aa\"), (\"ab\"), (\"ba\")}   (3 tuples)\n", true,
           ""},
          {"!1 x | R(x)", "{}   (0 tuples)\n", true, ""},
          {"engine off", "engine off\n", true, ""},
          {"x | R(x)", "{(\"aa\"), (\"ab\"), (\"ba\")}   (3 tuples)\n", true,
           ""},
          {"engine on", "engine on\n", true, ""},
          {"budget steps 1000 rows 50",
           "budget: steps=1000 rows=50 ms=- bytes=-\n", true, ""},
          {"budget off", "budget: steps=- rows=- ms=- bytes=-\n", true, ""},
          {"safe x | R(x)", "SAFE; inferred truncation W(db) = 2\n", true,
           ""},
          {"drop Pairs", "dropped Pairs\n", true, ""},
          {"drop Pairs", "", false, "not in database"},
          {"rel", "", false, "usage: rel NAME tuple [tuple ...]"},
          {"rel Bad ab a,b", "", false, "tuples of unequal arity"},
          {"insert Nope ab", "", false, "not in database"},
      });
}

TEST(CommandTest, EmptyTupleSpelledAsDash) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel E - a", &out).ok());
  EXPECT_EQ(out, "defined E/1 with 2 tuples\n");
  out.clear();
  ASSERT_TRUE(proc.Execute("show", &out).ok());
  EXPECT_EQ(out, "E/1 = {(\"\"), (\"a\")}\n");
}

TEST(CommandTest, PlanIsDeterministicText) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel R ab", &out).ok());
  std::string first;
  ASSERT_TRUE(proc.Execute("plan x | R(x)", &first).ok());
  EXPECT_NE(first.find("formula: "), std::string::npos);
  EXPECT_NE(first.find("plan:    "), std::string::npos);
  EXPECT_NE(first.find("finitely evaluable: "), std::string::npos);
  std::string second;
  ASSERT_TRUE(proc.Execute("plan x | R(x)", &second).ok());
  EXPECT_EQ(first, second);
}

TEST(CommandTest, BareVerbLinesGetTypedErrorsNotExceptions) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  // Regression: `safe`/`plan` with no argument used to slice past the
  // end of the line and throw std::out_of_range — fatal on the server,
  // whose pool workers swallow task exceptions and orphan the response.
  for (const char* line : {"safe", "plan", "explain", "safe ", "plan "}) {
    std::string out;
    Status status = proc.Execute(line, &out);
    EXPECT_FALSE(status.ok()) << line;  // empty query text: a parse error
  }
}

TEST(CommandTest, ServerModeRejectsDurableVerbsTyped) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
  for (const char* verb : {"open /tmp/nowhere", "save", "close"}) {
    std::string out;
    Status status = proc.Execute(verb, &out);
    ASSERT_FALSE(status.ok()) << verb;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << verb;
    EXPECT_NE(status.ToString().find("shell verb"), std::string::npos)
        << verb;
    EXPECT_EQ(out, "") << verb;
  }
}

TEST(CommandTest, ShellModeStillOwnsDurableVerbs) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);  // Mode::kShell
  std::string out;
  // No directory: `save`/`close` fail with the catalog's own error, not
  // the server-mode rejection — proof the verbs are dispatched.
  Status status = proc.Execute("save", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("no durable session"), std::string::npos);
}

TEST(CommandTest, QueriesSeeTheCatalogSnapshot) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor writer(&catalog);
  CommandProcessor reader(&catalog);
  std::string out;
  ASSERT_TRUE(writer.Execute("rel R ab", &out).ok());
  out.clear();
  ASSERT_TRUE(reader.Execute("x | R(x)", &out).ok());
  EXPECT_EQ(out, "{(\"ab\")}   (1 tuples)\n");
  out.clear();
  ASSERT_TRUE(writer.Execute("rel R ba bb", &out).ok());
  out.clear();
  ASSERT_TRUE(reader.Execute("x | R(x)", &out).ok());
  EXPECT_EQ(out, "{(\"ba\"), (\"bb\")}   (2 tuples)\n");
}

// "!N QUERY" takes only a decimal N in [0, Query::kMaxTruncation]: a
// non-number used to run at truncation 0, a negative N fell back to the
// inferred truncation, and an N past the cap ran anyway.
TEST(CommandTest, MalformedTruncationIsRejected) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel R ab ba", &out).ok());
  for (const char* line : {"!abc x | R(x)", "!-3 x | R(x)", "!4097 x | R(x)"}) {
    out.clear();
    Status status = proc.Execute(line, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(status.message(), "usage: !N QUERY") << line;
    EXPECT_EQ(out, "") << line;
  }
  out.clear();
  ASSERT_TRUE(proc.Execute("!4096 x | R(x)", &out).ok());
  EXPECT_EQ(out, "{(\"ab\"), (\"ba\")}   (2 tuples)\n");
}

// Numbers and on|off switches parse strictly.  Each refused line below
// used to answer ok: a non-number or negative budget turned the limit
// off, "12xyz" read as 12, an overflowing value saturated, `spill 12abc`
// opened a store with threshold 12, and any word but "off" switched
// on.  A refused command answers its usage line and leaves the session
// as it was.
TEST(CommandTest, MalformedNumbersAndSwitchesAreRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("strdb_spill_arg." + std::to_string(::getpid()));
  const std::string budget =
      "invalid-argument: usage: budget [steps|rows|ms|bytes N ...] | "
      "budget off";
  const std::string limits = "budget: steps=7000 rows=800 ms=9000 bytes=-\n";
  const std::string bare = "{(\"ab\")}   (1 tuples)\n";
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  RunTranscript(
      proc,
      {
          {"budget steps 7000 rows 800 ms 9000", limits, true, ""},
          {"rel R ab", "defined R/1 with 1 tuples\n", true, ""},
          {"budget ms abc", "", false, budget},
          {"budget steps -5", "", false, budget},
          {"budget rows 12xyz", "", false, budget},
          {"budget ms 99999999999999999999", "", false, budget},
          {"budget", limits, true, ""},
          {"open " + dir.string() + " spill 12abc", "", false,
           "invalid-argument: usage: open DIR [spill BYTES]"},
          // Stats print only with stats on and on the engine route.
          {"stats yes", "", false, "invalid-argument: usage: stats on|off"},
          {"x | R(x)", bare, true, ""},  // stats still off
          {"engine off", "engine off\n", true, ""},
          {"engine maybe", "", false, "invalid-argument: usage: engine on|off"},
          {"stats on", "stats on\n", true, ""},
          {"x | R(x)", bare, true, ""},  // engine still off
          // 0 still means "no limit"; the largest int64 is a number.
          {"budget ms 0 steps 9223372036854775807",
           "budget: steps=9223372036854775807 rows=800 ms=- bytes=-\n", true,
           ""},
      });
  EXPECT_FALSE(catalog.durable());
  EXPECT_FALSE(fs::exists(dir));
}

// A request sequence is a decimal that fits in int64.  A tag that would
// wrap (-1) or saturate is refused and applies nothing, so it cannot
// push its client's applied window past that client's later requests.
TEST(CommandTest, MalformedRequestSequencesAreRejected) {
  const std::string inserted = "inserted 1 tuple(s) into R\n";
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  RunTranscript(
      proc,
      {
          {"rel R a", "defined R/1 with 1 tuples\n", true, ""},
          {"req c:-1 insert R b", "", false,
           "invalid-argument: malformed request sequence in 'c:-1'"},
          {"req d:99999999999999999999999 insert R bb", "", false,
           "invalid-argument: malformed request sequence in "
           "'d:99999999999999999999999'"},
          {"req d:+7 insert R bb", "", false,
           "invalid-argument: malformed request sequence in 'd:+7'"},
          {"req c:1 insert R ab", inserted, true, ""},
          {"req d:7 insert R ba", inserted, true, ""},
          {"req d:9223372036854775807 insert R bb", inserted, true, ""},
          {"show", "R/1 = {(\"a\"), (\"ab\"), (\"ba\"), (\"bb\")}\n", true,
           ""},
      });
}

// Σ^l is counted before it is enumerated: a complement over Σ^{<=27}
// (2^28 - 1 strings) is refused at once, on both evaluators, instead of
// building every string until the allocator gives up.
TEST(CommandTest, OversizedDomainRefusesBeforeEnumerating) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
  proc.set_request_deadline_ms(2000);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel R1 ab ba", &out).ok());
  for (const char* engine : {"engine on", "engine off"}) {
    ASSERT_TRUE(proc.Execute(engine, &out).ok());
    out.clear();
    auto start = std::chrono::steady_clock::now();
    Status status = proc.Execute("!27 x | !R1(x)", &out);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << engine << ": " << status.ToString();
    EXPECT_LT(ms, 500) << engine;
  }
}

// `explain !N QUERY` plans at truncation N, as `!N QUERY` runs: a query
// outside §5's safe class can be explained, and a ↓l kept because N is
// below max(R, db) shows.  N parses as a query's does.
TEST(CommandTest, ExplainTakesAnExplicitTruncation) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog);
  std::string out;
  ASSERT_TRUE(proc.Execute("rel R ab", &out).ok());
  out.clear();
  ASSERT_TRUE(proc.Execute("explain !1 x | R(x)", &out).ok());
  EXPECT_EQ(out.rfind("restrict  (arity 1", 0), 0u) << out;
  EXPECT_NE(out.find("\n  scan R  (arity 1"), std::string::npos) << out;
  out.clear();
  ASSERT_TRUE(proc.Execute("explain x | R(x)", &out).ok());
  EXPECT_EQ(out.rfind("scan R  (arity 1", 0), 0u) << out;
  EXPECT_EQ(out.find("restrict"), std::string::npos) << out;
  out.clear();
  ASSERT_TRUE(proc.Execute("explain !3 x | !R(x)", &out).ok());
  EXPECT_EQ(out.rfind("difference", 0), 0u) << out;
  for (const char* line : {"explain !x x | R(x)", "explain !4097 x | R(x)",
                           "explain !2"}) {
    out.clear();
    Status status = proc.Execute(line, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(status.message(), "usage: !N QUERY") << line;
    EXPECT_EQ(out, "") << line;
  }
}

// A guarded negation tests its guard's tuples and never enumerates the
// domain: over a W holding a 20-character string (so l = 20) both
// negations answer under `budget rows` = 4·|W|, and neither plan holds
// a generator or a domain.  Enumerating Σ^{<=20} would charge the
// 2^20 - 1 strings that start with `a`.
TEST(CommandTest, GuardedNegationAnswersUnderARowBudgetOfItsGuard) {
  SharedCatalog catalog(Alphabet::Binary());
  CommandProcessor proc(&catalog, CommandProcessor::Mode::kServer);
  proc.set_request_deadline_ms(2000);
  const std::string starts_with_a = "x | W(x) & !([x]l(x = 'a'))";
  const std::string contains_ab =
      "x | W(x) & !(([x]l(true))* . [x]l(x = 'a') . [x]l(x = 'b'))";
  RunTranscript(
      proc,
      {
          {"rel W abba bab bbbb aaaaaaaaaabbbbbbbbbb",
           "defined W/1 with 4 tuples\n", true, ""},
          {"safe " + starts_with_a, "SAFE; inferred truncation W(db) = 20\n",
           true, ""},
          {"budget rows 16", "budget: steps=- rows=16 ms=- bytes=-\n", true,
           ""},
          {starts_with_a, "{(\"bab\"), (\"bbbb\")}   (2 tuples)\n", true,
           ""},
          {contains_ab, "{(\"bbbb\")}   (1 tuples)\n", true, ""},
      });
  for (const std::string& text : {starts_with_a, contains_ab}) {
    std::string out;
    ASSERT_TRUE(proc.Execute("explain " + text, &out).ok()) << text;
    EXPECT_EQ(out.find("gen-select"), std::string::npos) << out;
    EXPECT_EQ(out.find("domain"), std::string::npos) << out;
  }
}

TEST(CommandTest, FrameResponseTerminatesBodies) {
  EXPECT_EQ(FrameResponse(Status::OK(), ""), "ok\n");
  EXPECT_EQ(FrameResponse(Status::OK(), "pong\n"), "pong\nok\n");
  EXPECT_EQ(FrameResponse(Status::OK(), "no trailing newline"),
            "no trailing newline\nok\n");
  EXPECT_EQ(FrameResponse(Status::NotFound("nope"), ""),
            "err not-found nope\n");
  // Multi-line error messages must not break the one-line terminator.
  EXPECT_EQ(FrameResponse(Status::InvalidArgument("two\nlines"), "body\n"),
            "body\nerr invalid-argument two lines\n");
}

}  // namespace
}  // namespace strdb
