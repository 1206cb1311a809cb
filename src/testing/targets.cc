#include "testing/targets.h"

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "core/budget.h"
#include "core/io/fault_env.h"
#include "fsa/compile.h"
#include "fsa/serialize.h"
#include "storage/store.h"
#include "strform/parser.h"
#include "testing/corpus.h"
#include "testing/generators.h"

namespace strdb {
namespace testgen {

namespace {

// --- tiny text-format toolkit ----------------------------------------------
//
// Every case serialization below is line-oriented: fixed header lines,
// length-prefixed tuple fields (so empty strings and arbitrary alphabet
// characters survive), and embedded SerializeFsa blocks delimited by
// their own trailing "crc32 <hex>" line.

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

struct LineCursor {
  explicit LineCursor(const std::string& text) : lines(SplitLines(text)) {}

  bool Done() const { return i >= lines.size(); }
  Result<std::string> Take(const char* what) {
    if (Done()) {
      return Status::InvalidArgument(std::string("case text ends before ") +
                                     what);
    }
    return lines[i++];
  }

  std::vector<std::string> lines;
  size_t i = 0;
};

Result<int64_t> ParseInt(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty integer field");
  char* end = nullptr;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    return Status::InvalidArgument("bad integer '" + token + "'");
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseU64(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty integer field");
  char* end = nullptr;
  unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    return Status::InvalidArgument("bad integer '" + token + "'");
  }
  return static_cast<uint64_t>(v);
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::string AlphabetChars(const Alphabet& sigma) {
  std::string chars;
  for (int i = 0; i < sigma.size(); ++i) {
    chars.push_back(sigma.CharOf(static_cast<Sym>(i)));
  }
  return chars;
}

std::string EncodeTupleLine(const Tuple& tuple) {
  std::string line = "t";
  for (const std::string& field : tuple) {
    line += " " + std::to_string(field.size()) + ":" + field;
  }
  return line;
}

Result<Tuple> DecodeTupleLine(const std::string& line) {
  if (line.empty() || line[0] != 't') {
    return Status::InvalidArgument("expected tuple line, got '" + line + "'");
  }
  Tuple tuple;
  size_t p = 1;
  while (p < line.size()) {
    if (line[p] != ' ') {
      return Status::InvalidArgument("malformed tuple line '" + line + "'");
    }
    ++p;
    size_t colon = line.find(':', p);
    if (colon == std::string::npos) {
      return Status::InvalidArgument("malformed tuple field in '" + line +
                                     "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t len, ParseInt(line.substr(p, colon - p)));
    if (len < 0 || colon + 1 + static_cast<size_t>(len) > line.size()) {
      return Status::InvalidArgument("tuple field length out of range in '" +
                                     line + "'");
    }
    tuple.push_back(line.substr(colon + 1, static_cast<size_t>(len)));
    p = colon + 1 + static_cast<size_t>(len);
  }
  return tuple;
}

// Consumes an embedded SerializeFsa block: every line up to and
// including its "crc32 <hex>" trailer.
Result<std::string> TakeFsaBlock(LineCursor* cursor) {
  std::string block;
  while (true) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor->Take("fsa block"));
    block += line;
    block += '\n';
    if (line.rfind("crc32 ", 0) == 0) return block;
  }
}

std::string QuoteTuple(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + tuple[i] + "\"";
  }
  return out + ")";
}

Fsa CopyWithoutTransition(const Fsa& fsa, size_t skip) {
  Fsa out(fsa.alphabet(), fsa.num_tapes());
  while (out.num_states() < fsa.num_states()) out.AddState();
  for (int s = 0; s < fsa.num_states(); ++s) {
    if (fsa.IsFinal(s)) out.SetFinal(s);
  }
  out.SetStart(fsa.start());
  for (size_t i = 0; i < fsa.transitions().size(); ++i) {
    if (i == skip) continue;
    // Re-adding a transition that was already valid cannot fail.
    Status status = out.AddTransition(fsa.transitions()[i]);
    (void)status;
  }
  return out;
}

std::string DescribeStatus(const Result<AcceptStats>& r) {
  return r.ok() ? (r->accepted ? "accept" : "reject")
                : r.status().ToString();
}

}  // namespace

// --- KernelDiffTarget -------------------------------------------------------

Result<AcceptStats> KernelDiffTarget::FastVerdict(const AcceptKernel& kernel,
                                                  const Tuple& tuple) const {
  return scratch_.Accept(kernel, tuple);
}

DiffTarget::CasePtr KernelDiffTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = [&]() -> Fsa {
    if (rand.Range(0, 2) == 0) {
      // A compiled machine: the kernel must agree with the reference on
      // the automata the compiler actually emits, not just on raw
      // random transition soup.
      std::string text = RandomStringFormulaText(rand, sigma, 2);
      Result<StringFormula> formula = ParseStringFormula(text);
      if (formula.ok()) {
        Result<Fsa> compiled =
            CompileStringFormula(*formula, sigma, {"x", "y"});
        if (compiled.ok()) return std::move(*compiled);
      }
      // Fall through to a raw random machine on any failure: generation
      // never fails, it just redistributes.
    }
    FsaGenOptions options;
    options.one_way_only = rand.Coin();
    return RandomFsa(rand, sigma, options);
  }();

  auto c = std::make_unique<KernelCase>(std::move(fsa));
  int tapes = c->fsa.num_tapes();
  int n = rand.Range(1, 6);
  for (int i = 0; i < n; ++i) {
    if (rand.Coin()) {
      // Correlated tuple: components share a base string, so equality /
      // prefix / concatenation machines actually reach accepting runs.
      std::string base = rand.String(sigma, 0, 4);
      Tuple tuple;
      for (int tape = 0; tape < tapes; ++tape) {
        switch (rand.Range(0, 2)) {
          case 0:
            tuple.push_back(base);
            break;
          case 1:
            tuple.push_back(base.substr(
                0, rand.Below(static_cast<uint64_t>(base.size()) + 1)));
            break;
          default:
            tuple.push_back(rand.String(sigma, 0, 4));
        }
      }
      c->tuples.push_back(std::move(tuple));
    } else {
      c->tuples.push_back(RandomTuple(rand, sigma, tapes, 4));
    }
  }
  return c;
}

std::optional<Divergence> KernelDiffTarget::Run(const Case& c) const {
  const auto& kc = static_cast<const KernelCase&>(c);
  Result<AcceptKernel> kernel = AcceptKernel::Compile(kc.fsa);
  if (!kernel.ok()) {
    // Compile refusal (kResourceExhausted on absurd key spaces) is a
    // documented outcome, not a divergence — but our generator cannot
    // reach it, so surface anything else.
    if (kernel.status().code() == StatusCode::kResourceExhausted) {
      return std::nullopt;
    }
    return Divergence{"kernel compile failed unexpectedly: " +
                      kernel.status().ToString()};
  }
  bool two_way = HasBackwardMove(kc.fsa);
  if (kernel->one_way() == two_way) {
    return Divergence{
        std::string("one-way classification disagrees with the transition "
                    "table: kernel says ") +
        (kernel->one_way() ? "one-way" : "two-way") + "\n" +
        kc.fsa.ToString()};
  }
  for (const Tuple& tuple : kc.tuples) {
    Result<AcceptStats> reference = AcceptsWithStats(kc.fsa, tuple);
    Result<AcceptStats> fast = FastVerdict(*kernel, tuple);
    bool agree;
    if (reference.ok() != fast.ok()) {
      agree = false;
    } else if (reference.ok()) {
      agree = reference->accepted == fast->accepted;
    } else {
      agree = reference.status().code() == fast.status().code();
    }
    if (!agree) {
      return Divergence{"kernel disagrees with reference on tuple " +
                        QuoteTuple(tuple) + ": reference=" +
                        DescribeStatus(reference) + " kernel=" +
                        DescribeStatus(fast) + "\n" + kc.fsa.ToString()};
    }
  }
  return std::nullopt;
}

std::string KernelDiffTarget::Serialize(const Case& c) const {
  const auto& kc = static_cast<const KernelCase&>(c);
  std::string out = "kernel 1\n";
  out += "sigma " + AlphabetChars(kc.fsa.alphabet()) + "\n";
  out += "tuples " + std::to_string(kc.tuples.size()) + "\n";
  for (const Tuple& tuple : kc.tuples) out += EncodeTupleLine(tuple) + "\n";
  out += SerializeFsa(kc.fsa);
  return out;
}

Result<DiffTarget::CasePtr> KernelDiffTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "kernel 1") {
    return Status::InvalidArgument("bad kernel case header '" + header + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string count_line, cursor.Take("tuple count"));
  std::vector<std::string> count_tokens = SplitTokens(count_line);
  if (count_tokens.size() != 2 || count_tokens[0] != "tuples") {
    return Status::InvalidArgument("bad tuples line '" + count_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(count_tokens[1]));
  std::vector<Tuple> tuples;
  for (int64_t i = 0; i < n; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("tuple"));
    STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(line));
    tuples.push_back(std::move(tuple));
  }
  STRDB_ASSIGN_OR_RETURN(std::string fsa_text, TakeFsaBlock(&cursor));
  STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, fsa_text));
  auto c = std::make_unique<KernelCase>(std::move(fsa));
  c->tuples = std::move(tuples);
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> KernelDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& kc = static_cast<const KernelCase&>(c);
  std::vector<CasePtr> out;
  // Fewer tuples first: a one-tuple reproducer reads best.
  for (size_t i = 0; i < kc.tuples.size(); ++i) {
    auto cand = std::make_unique<KernelCase>(Fsa(kc.fsa));
    cand->tuples = kc.tuples;
    cand->tuples.erase(cand->tuples.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(cand));
  }
  // Then a sparser machine.
  for (size_t i = 0; i < kc.fsa.transitions().size(); ++i) {
    auto cand =
        std::make_unique<KernelCase>(CopyWithoutTransition(kc.fsa, i));
    cand->tuples = kc.tuples;
    out.push_back(std::move(cand));
  }
  {
    Fsa trimmed(kc.fsa);
    trimmed.PruneToTrim();
    auto cand = std::make_unique<KernelCase>(std::move(trimmed));
    cand->tuples = kc.tuples;
    out.push_back(std::move(cand));
  }
  // Then shorter strings.
  for (size_t i = 0; i < kc.tuples.size(); ++i) {
    for (size_t f = 0; f < kc.tuples[i].size(); ++f) {
      if (kc.tuples[i][f].empty()) continue;
      auto cand = std::make_unique<KernelCase>(Fsa(kc.fsa));
      cand->tuples = kc.tuples;
      cand->tuples[i][f] =
          cand->tuples[i][f].substr(0, kc.tuples[i][f].size() / 2);
      out.push_back(std::move(cand));
    }
  }
  return out;
}

int64_t KernelDiffTarget::CaseSize(const Case& c) const {
  const auto& kc = static_cast<const KernelCase&>(c);
  int64_t size = kc.fsa.num_states() + kc.fsa.num_transitions();
  for (const Tuple& tuple : kc.tuples) {
    size += 1;
    for (const std::string& field : tuple) {
      size += static_cast<int64_t>(field.size());
    }
  }
  return size;
}

// --- DfaDiffTarget ----------------------------------------------------------

namespace {

// The DFA tier's refusals, which send Acceptor::Compile on to the
// kernel; any other code out of DfaProgram::Compile is a bug.
bool IsSanctionedDfaRefusal(const Status& status) {
  return status.code() == StatusCode::kUnimplemented ||
         status.code() == StatusCode::kResourceExhausted;
}

// "Same outcome" for two acceptance runs: equal ok-ness, then equal
// verdicts (ok) or equal status codes (error).
bool OutcomesAgree(const Result<AcceptStats>& a, const Result<AcceptStats>& b) {
  if (a.ok() != b.ok()) return false;
  if (a.ok()) return a->accepted == b->accepted;
  return a.status().code() == b.status().code();
}

// A budgeted rerun is sound iff it reproduces the unbudgeted outcome or
// degrades to a typed kResourceExhausted — never a different verdict.
bool BudgetedOutcomeSound(const Result<AcceptStats>& unbudgeted,
                          const Result<AcceptStats>& budgeted) {
  if (!budgeted.ok() &&
      budgeted.status().code() == StatusCode::kResourceExhausted) {
    return true;
  }
  return OutcomesAgree(unbudgeted, budgeted);
}

ResourceBudget MakeStepBudget(int64_t max_steps) {
  ResourceLimits limits;
  limits.max_steps = max_steps;
  return ResourceBudget(limits);
}

}  // namespace

DiffTarget::CasePtr DfaDiffTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  Fsa fsa = [&]() -> Fsa {
    switch (rand.Range(0, 5)) {
      case 0: {
        // Compiled machine: the tier must hold on what the compiler
        // actually emits (equality scanners compile, concatenation
        // testers are refused — both paths are interesting).
        std::string text = RandomStringFormulaText(rand, sigma, 2);
        Result<StringFormula> formula = ParseStringFormula(text);
        if (formula.ok()) {
          Result<Fsa> compiled =
              CompileStringFormula(*formula, sigma, {"x", "y"});
          if (compiled.ok()) return std::move(*compiled);
        }
        break;  // fall through to a raw random machine
      }
      case 1:
        // Substring membership: single-tape, always compiles, and its
        // subset automaton genuinely exercises minimisation.
        return MakeMember(sigma, rand.String(sigma, 1, 5));
      case 2:
        // The 2^n blowup family: small n compiles, larger n must trip
        // the cap and be refused as kResourceExhausted.
        return MakeBlowup(sigma, static_cast<int>(rand.Range(2, 8)));
      default:
        break;
    }
    FsaGenOptions options;
    options.one_way_only = rand.Coin();
    return RandomFsa(rand, sigma, options);
  }();

  auto c = std::make_unique<DfaCase>(std::move(fsa));
  if (rand.Range(0, 3) == 0) c->budget_steps = rand.Range(1, 64);
  if (rand.Range(0, 4) == 0) c->max_states = 2;  // forced-fallback case
  int tapes = c->fsa.num_tapes();
  int n = static_cast<int>(rand.Range(1, 6));
  for (int i = 0; i < n; ++i) {
    if (rand.Coin()) {
      std::string base = rand.String(sigma, 0, 4);
      Tuple tuple;
      for (int tape = 0; tape < tapes; ++tape) {
        switch (rand.Range(0, 2)) {
          case 0:
            tuple.push_back(base);
            break;
          case 1:
            tuple.push_back(base.substr(
                0, rand.Below(static_cast<uint64_t>(base.size()) + 1)));
            break;
          default:
            tuple.push_back(rand.String(sigma, 0, 4));
        }
      }
      c->tuples.push_back(std::move(tuple));
    } else {
      c->tuples.push_back(RandomTuple(rand, sigma, tapes, 4));
    }
  }
  return c;
}

std::optional<Divergence> DfaDiffTarget::Run(const Case& c) const {
  const auto& dc = static_cast<const DfaCase&>(c);

  DfaBuildOptions build;
  if (dc.max_states > 0) build.max_states = dc.max_states;
  Result<DfaProgram> dfa = DfaProgram::Compile(dc.fsa, build);
  if (!dfa.ok() && !IsSanctionedDfaRefusal(dfa.status())) {
    return Divergence{"DFA compile failed with an unsanctioned code: " +
                      dfa.status().ToString() + "\n" + dc.fsa.ToString()};
  }
  if (!dfa.ok() && !HasBackwardMove(dc.fsa) &&
      dfa.status().code() == StatusCode::kUnimplemented &&
      dc.fsa.num_tapes() == 1) {
    // Single-tape one-way machines have no head schedule to be
    // nondeterministic about: every applicable move advances the one
    // head.  kUnimplemented here would mean the conflict detector is
    // broken.
    return Divergence{"single-tape one-way machine refused as " +
                      dfa.status().ToString() + "\n" + dc.fsa.ToString()};
  }

  Result<AcceptKernel> kernel = AcceptKernel::Compile(dc.fsa);
  if (!kernel.ok()) {
    // Same documented escape hatch as the kernel target.
    if (kernel.status().code() == StatusCode::kResourceExhausted) {
      return std::nullopt;
    }
    return Divergence{"kernel compile failed unexpectedly: " +
                      kernel.status().ToString()};
  }

  // Scalar three-way parity, unbudgeted.
  std::vector<Result<AcceptStats>> reference_out;
  for (const Tuple& tuple : dc.tuples) {
    Result<AcceptStats> reference = AcceptsWithStats(dc.fsa, tuple);
    Result<AcceptStats> fast = kernel_scratch_.Accept(*kernel, tuple);
    if (!OutcomesAgree(reference, fast)) {
      return Divergence{"kernel disagrees with reference on tuple " +
                        QuoteTuple(tuple) + ": reference=" +
                        DescribeStatus(reference) + " kernel=" +
                        DescribeStatus(fast) + "\n" + dc.fsa.ToString()};
    }
    if (dfa.ok()) {
      Result<AcceptStats> compiled = dfa->Accept(tuple, &dfa_scratch_);
      if (!OutcomesAgree(reference, compiled)) {
        return Divergence{"DFA disagrees with reference on tuple " +
                          QuoteTuple(tuple) + ": reference=" +
                          DescribeStatus(reference) + " dfa=" +
                          DescribeStatus(compiled) + "\n" + dc.fsa.ToString()};
      }
    }
    reference_out.push_back(std::move(reference));
  }

  // Batch interpreter parity: one AcceptBatch over the whole case must
  // reproduce the scalar outcomes tuple by tuple.
  if (dfa.ok() && !dc.tuples.empty()) {
    std::vector<const Tuple*> batch;
    for (const Tuple& tuple : dc.tuples) batch.push_back(&tuple);
    AcceptBatchResult batched = AcceptBatch(*dfa, batch, &dfa_scratch_);
    for (size_t i = 0; i < dc.tuples.size(); ++i) {
      const Result<AcceptStats>& reference = reference_out[i];
      bool agree;
      if (reference.ok() != batched.statuses[i].ok()) {
        agree = false;
      } else if (reference.ok()) {
        agree = (batched.accepted[i] != 0) == reference->accepted;
      } else {
        agree = reference.status().code() == batched.statuses[i].code();
      }
      if (!agree) {
        return Divergence{
            "DFA batch disagrees with scalar on tuple " +
            QuoteTuple(dc.tuples[i]) + ": reference=" +
            DescribeStatus(reference) + " batch=" +
            (batched.statuses[i].ok()
                 ? std::string(batched.accepted[i] ? "accept" : "reject")
                 : batched.statuses[i].ToString()) +
            "\n" + dc.fsa.ToString()};
      }
    }
  }

  // Budgeted reruns: every evaluator gets a fresh budget per tuple and
  // must land on the unbudgeted outcome or a typed exhaustion.
  if (dc.budget_steps > 0) {
    for (size_t i = 0; i < dc.tuples.size(); ++i) {
      const Tuple& tuple = dc.tuples[i];
      {
        ResourceBudget budget = MakeStepBudget(dc.budget_steps);
        AcceptOptions options;
        options.budget = &budget;
        Result<AcceptStats> budgeted = AcceptsWithStats(dc.fsa, tuple, options);
        if (!BudgetedOutcomeSound(reference_out[i], budgeted)) {
          return Divergence{"budgeted reference neither agrees nor exhausts "
                            "on tuple " +
                            QuoteTuple(tuple) + ": " +
                            DescribeStatus(budgeted) + "\n" +
                            dc.fsa.ToString()};
        }
      }
      if (dfa.ok()) {
        ResourceBudget budget = MakeStepBudget(dc.budget_steps);
        AcceptOptions options;
        options.budget = &budget;
        Result<AcceptStats> budgeted =
            dfa->Accept(tuple, &dfa_scratch_, options);
        if (!BudgetedOutcomeSound(reference_out[i], budgeted)) {
          return Divergence{"budgeted DFA neither agrees nor exhausts on "
                            "tuple " +
                            QuoteTuple(tuple) + ": " +
                            DescribeStatus(budgeted) + "\n" +
                            dc.fsa.ToString()};
        }
      }
    }
    if (dfa.ok() && !dc.tuples.empty()) {
      ResourceBudget budget = MakeStepBudget(dc.budget_steps);
      AcceptOptions options;
      options.budget = &budget;
      std::vector<const Tuple*> batch;
      for (const Tuple& tuple : dc.tuples) batch.push_back(&tuple);
      AcceptBatchResult batched =
          AcceptBatch(*dfa, batch, &dfa_scratch_, options);
      for (size_t i = 0; i < dc.tuples.size(); ++i) {
        AcceptStats stats;
        stats.accepted = batched.accepted[i] != 0;
        Result<AcceptStats> as_result =
            batched.statuses[i].ok() ? Result<AcceptStats>(stats)
                                     : Result<AcceptStats>(batched.statuses[i]);
        if (!BudgetedOutcomeSound(reference_out[i], as_result)) {
          return Divergence{"budgeted DFA batch neither agrees nor exhausts "
                            "on tuple " +
                            QuoteTuple(dc.tuples[i]) + ": " +
                            DescribeStatus(as_result) + "\n" +
                            dc.fsa.ToString()};
        }
      }
    }
  }
  return std::nullopt;
}

std::string DfaDiffTarget::Serialize(const Case& c) const {
  const auto& dc = static_cast<const DfaCase&>(c);
  std::string out = "dfa 1\n";
  out += "sigma " + AlphabetChars(dc.fsa.alphabet()) + "\n";
  out += "budget " + std::to_string(dc.budget_steps) + "\n";
  out += "maxstates " + std::to_string(dc.max_states) + "\n";
  out += "tuples " + std::to_string(dc.tuples.size()) + "\n";
  for (const Tuple& tuple : dc.tuples) out += EncodeTupleLine(tuple) + "\n";
  out += SerializeFsa(dc.fsa);
  return out;
}

Result<DiffTarget::CasePtr> DfaDiffTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "dfa 1") {
    return Status::InvalidArgument("bad dfa case header '" + header + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string budget_line, cursor.Take("budget"));
  std::vector<std::string> budget_tokens = SplitTokens(budget_line);
  if (budget_tokens.size() != 2 || budget_tokens[0] != "budget") {
    return Status::InvalidArgument("bad budget line '" + budget_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t budget_steps, ParseInt(budget_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string cap_line, cursor.Take("maxstates"));
  std::vector<std::string> cap_tokens = SplitTokens(cap_line);
  if (cap_tokens.size() != 2 || cap_tokens[0] != "maxstates") {
    return Status::InvalidArgument("bad maxstates line '" + cap_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t max_states, ParseInt(cap_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string count_line, cursor.Take("tuple count"));
  std::vector<std::string> count_tokens = SplitTokens(count_line);
  if (count_tokens.size() != 2 || count_tokens[0] != "tuples") {
    return Status::InvalidArgument("bad tuples line '" + count_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(count_tokens[1]));
  std::vector<Tuple> tuples;
  for (int64_t i = 0; i < n; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("tuple"));
    STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(line));
    tuples.push_back(std::move(tuple));
  }
  STRDB_ASSIGN_OR_RETURN(std::string fsa_text, TakeFsaBlock(&cursor));
  STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, fsa_text));
  auto c = std::make_unique<DfaCase>(std::move(fsa));
  c->tuples = std::move(tuples);
  c->budget_steps = budget_steps;
  c->max_states = static_cast<int>(max_states);
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> DfaDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& dc = static_cast<const DfaCase&>(c);
  std::vector<CasePtr> out;
  auto clone = [&](Fsa fsa) {
    auto cand = std::make_unique<DfaCase>(std::move(fsa));
    cand->tuples = dc.tuples;
    cand->budget_steps = dc.budget_steps;
    cand->max_states = dc.max_states;
    return cand;
  };
  // A reproducer without the budget / forced-cap knobs reads best.
  if (dc.budget_steps > 0) {
    auto cand = clone(Fsa(dc.fsa));
    cand->budget_steps = 0;
    out.push_back(std::move(cand));
  }
  if (dc.max_states > 0) {
    auto cand = clone(Fsa(dc.fsa));
    cand->max_states = 0;
    out.push_back(std::move(cand));
  }
  for (size_t i = 0; i < dc.tuples.size(); ++i) {
    auto cand = clone(Fsa(dc.fsa));
    cand->tuples.erase(cand->tuples.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(cand));
  }
  for (size_t i = 0; i < dc.fsa.transitions().size(); ++i) {
    out.push_back(clone(CopyWithoutTransition(dc.fsa, i)));
  }
  {
    Fsa trimmed(dc.fsa);
    trimmed.PruneToTrim();
    out.push_back(clone(std::move(trimmed)));
  }
  for (size_t i = 0; i < dc.tuples.size(); ++i) {
    for (size_t f = 0; f < dc.tuples[i].size(); ++f) {
      if (dc.tuples[i][f].empty()) continue;
      auto cand = clone(Fsa(dc.fsa));
      cand->tuples[i][f] =
          cand->tuples[i][f].substr(0, dc.tuples[i][f].size() / 2);
      out.push_back(std::move(cand));
    }
  }
  return out;
}

int64_t DfaDiffTarget::CaseSize(const Case& c) const {
  const auto& dc = static_cast<const DfaCase&>(c);
  int64_t size = dc.fsa.num_states() + dc.fsa.num_transitions();
  for (const Tuple& tuple : dc.tuples) {
    size += 1;
    for (const std::string& field : tuple) {
      size += static_cast<int64_t>(field.size());
    }
  }
  if (dc.budget_steps > 0) size += 1;
  if (dc.max_states > 0) size += 1;
  return size;
}

// --- EngineDiffTarget -------------------------------------------------------

namespace {

// S-expression rendering of an AlgebraExpr with selection automata
// interned into a side table (SerializeFsa text keyed, so structurally
// identical machines share one entry).

void CollectSelectFsas(const AlgebraExpr& expr, std::vector<std::string>* texts,
                       std::map<std::string, int>* index) {
  switch (expr.kind()) {
    case AlgebraExpr::Kind::kRelation:
    case AlgebraExpr::Kind::kSigmaStar:
    case AlgebraExpr::Kind::kSigmaL:
      return;
    case AlgebraExpr::Kind::kUnion:
    case AlgebraExpr::Kind::kDifference:
    case AlgebraExpr::Kind::kProduct:
      CollectSelectFsas(expr.Left(), texts, index);
      CollectSelectFsas(expr.Right(), texts, index);
      return;
    case AlgebraExpr::Kind::kSelect: {
      std::string text = SerializeFsa(expr.fsa());
      if (index->emplace(text, static_cast<int>(texts->size())).second) {
        texts->push_back(std::move(text));
      }
      CollectSelectFsas(expr.Left(), texts, index);
      return;
    }
    case AlgebraExpr::Kind::kProject:
    case AlgebraExpr::Kind::kRestrict:
      CollectSelectFsas(expr.Left(), texts, index);
      return;
  }
}

std::string WriteSexpr(const AlgebraExpr& expr,
                       const std::map<std::string, int>& index) {
  switch (expr.kind()) {
    case AlgebraExpr::Kind::kRelation:
      return "(rel " + expr.relation_name() + " " +
             std::to_string(expr.arity()) + ")";
    case AlgebraExpr::Kind::kSigmaStar:
      return "(sigmastar)";
    case AlgebraExpr::Kind::kSigmaL:
      return "(sigmal " + std::to_string(expr.sigma_l()) + ")";
    case AlgebraExpr::Kind::kUnion:
      return "(union " + WriteSexpr(expr.Left(), index) + " " +
             WriteSexpr(expr.Right(), index) + ")";
    case AlgebraExpr::Kind::kDifference:
      return "(diff " + WriteSexpr(expr.Left(), index) + " " +
             WriteSexpr(expr.Right(), index) + ")";
    case AlgebraExpr::Kind::kProduct:
      return "(product " + WriteSexpr(expr.Left(), index) + " " +
             WriteSexpr(expr.Right(), index) + ")";
    case AlgebraExpr::Kind::kProject: {
      std::string cols = "(";
      for (size_t i = 0; i < expr.columns().size(); ++i) {
        if (i) cols += " ";
        cols += std::to_string(expr.columns()[i]);
      }
      cols += ")";
      return "(project " + cols + " " + WriteSexpr(expr.Left(), index) + ")";
    }
    case AlgebraExpr::Kind::kSelect:
      return "(select " +
             std::to_string(index.at(SerializeFsa(expr.fsa()))) + " " +
             WriteSexpr(expr.Left(), index) + ")";
    case AlgebraExpr::Kind::kRestrict:
      return "(restrict " + WriteSexpr(expr.Left(), index) + ")";
  }
  return "";  // unreachable
}

std::vector<std::string> SexprTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (char ch : text) {
    if (ch == '(' || ch == ')') {
      flush();
      tokens.push_back(std::string(1, ch));
    } else if (ch == ' ' || ch == '\t') {
      flush();
    } else {
      cur.push_back(ch);
    }
  }
  flush();
  return tokens;
}

Result<AlgebraExpr> ParseSexpr(const std::vector<std::string>& tokens,
                               size_t* pos, const std::vector<Fsa>& fsas) {
  auto take = [&](const char* what) -> Result<std::string> {
    if (*pos >= tokens.size()) {
      return Status::InvalidArgument(std::string("expression ends before ") +
                                     what);
    }
    return tokens[(*pos)++];
  };
  STRDB_ASSIGN_OR_RETURN(std::string open, take("'('"));
  if (open != "(") {
    return Status::InvalidArgument("expected '(' in expression, got '" +
                                   open + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string op, take("operator"));
  auto close = [&]() -> Status {
    auto tok = take("')'");
    if (!tok.ok()) return tok.status();
    if (*tok != ")") {
      return Status::InvalidArgument("expected ')', got '" + *tok + "'");
    }
    return Status::OK();
  };
  if (op == "rel") {
    STRDB_ASSIGN_OR_RETURN(std::string name, take("relation name"));
    STRDB_ASSIGN_OR_RETURN(std::string arity_tok, take("relation arity"));
    STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(arity_tok));
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::Relation(name, static_cast<int>(arity));
  }
  if (op == "sigmastar") {
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::SigmaStar();
  }
  if (op == "sigmal") {
    STRDB_ASSIGN_OR_RETURN(std::string l_tok, take("sigma_l bound"));
    STRDB_ASSIGN_OR_RETURN(int64_t l, ParseInt(l_tok));
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::SigmaL(static_cast<int>(l));
  }
  if (op == "union" || op == "diff" || op == "product") {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr a, ParseSexpr(tokens, pos, fsas));
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr b, ParseSexpr(tokens, pos, fsas));
    STRDB_RETURN_IF_ERROR(close());
    if (op == "union") return AlgebraExpr::Union(a, b);
    if (op == "diff") return AlgebraExpr::Difference(a, b);
    return AlgebraExpr::Product(a, b);
  }
  if (op == "project") {
    STRDB_ASSIGN_OR_RETURN(std::string copen, take("column list"));
    if (copen != "(") {
      return Status::InvalidArgument("expected column list after project");
    }
    std::vector<int> cols;
    while (true) {
      STRDB_ASSIGN_OR_RETURN(std::string tok, take("column"));
      if (tok == ")") break;
      STRDB_ASSIGN_OR_RETURN(int64_t col, ParseInt(tok));
      cols.push_back(static_cast<int>(col));
    }
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr child, ParseSexpr(tokens, pos, fsas));
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::Project(child, cols);
  }
  if (op == "select") {
    STRDB_ASSIGN_OR_RETURN(std::string idx_tok, take("fsa index"));
    STRDB_ASSIGN_OR_RETURN(int64_t idx, ParseInt(idx_tok));
    if (idx < 0 || idx >= static_cast<int64_t>(fsas.size())) {
      return Status::InvalidArgument("fsa index " + idx_tok +
                                     " out of range");
    }
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr child, ParseSexpr(tokens, pos, fsas));
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::Select(child, Fsa(fsas[static_cast<size_t>(idx)]));
  }
  if (op == "restrict") {
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr child, ParseSexpr(tokens, pos, fsas));
    STRDB_RETURN_IF_ERROR(close());
    return AlgebraExpr::RestrictToDomain(child);
  }
  return Status::InvalidArgument("unknown expression operator '" + op + "'");
}

int64_t NodeCount(const AlgebraExpr& expr) {
  switch (expr.kind()) {
    case AlgebraExpr::Kind::kRelation:
    case AlgebraExpr::Kind::kSigmaStar:
    case AlgebraExpr::Kind::kSigmaL:
      return 1;
    case AlgebraExpr::Kind::kUnion:
    case AlgebraExpr::Kind::kDifference:
    case AlgebraExpr::Kind::kProduct:
      return 1 + NodeCount(expr.Left()) + NodeCount(expr.Right());
    case AlgebraExpr::Kind::kProject:
    case AlgebraExpr::Kind::kSelect:
    case AlgebraExpr::Kind::kRestrict:
      return 1 + NodeCount(expr.Left());
  }
  return 1;  // unreachable
}

EvalOptions EngineSweepOptions() {
  EvalOptions options;
  options.truncation = 2;
  options.max_tuples = 20000;
  options.max_steps = 5'000'000;
  return options;
}

EngineOptions PlainEngineOptions() {
  EngineOptions options;
  options.enable_rewrites = false;
  options.enable_cache = false;
  return options;
}

}  // namespace

EngineDiffTarget::EngineDiffTarget()
    : pool_(MakeFsaPool(Alphabet::Binary())),
      engine_(),
      plain_engine_(PlainEngineOptions()) {}

DiffTarget::CasePtr EngineDiffTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  Database db = RandomDatabase(rand, sigma);
  AlgebraExpr expr = RandomAlgebraExpr(rand, pool_, 4);
  auto c = std::make_unique<EngineCase>(std::move(db), std::move(expr));
  if (rand.Range(0, 2) == 0) {
    static constexpr int64_t kStepLimits[] = {1, 10, 100, 1000, 10000};
    static constexpr int64_t kRowLimits[] = {1, 5, 50, 500, 0};
    c->budgeted = true;
    c->budget_steps = kStepLimits[rand.Range(0, 4)];
    c->budget_rows = kRowLimits[rand.Range(0, 4)];
  }
  return c;
}

std::optional<Divergence> EngineDiffTarget::Run(const Case& c) const {
  const auto& ec = static_cast<const EngineCase&>(c);
  EvalOptions options = EngineSweepOptions();
  Result<StringRelation> naive = EvalAlgebra(ec.expr, ec.db, options);
  Result<StringRelation> opt = engine_.Execute(ec.expr, ec.db, options);
  Result<StringRelation> plain = plain_engine_.Execute(ec.expr, ec.db, options);
  if (!naive.ok()) {
    // A per-call limit error must surface on every route.
    if (opt.ok() || plain.ok()) {
      return Divergence{"naive evaluation failed (" +
                        naive.status().ToString() +
                        ") but an engine route succeeded: " +
                        ec.expr.ToString()};
    }
    return std::nullopt;
  }
  if (!opt.ok() || !plain.ok()) {
    return Divergence{"engine failed where the naive evaluator succeeded: " +
                      (opt.ok() ? plain.status() : opt.status()).ToString() +
                      " on " + ec.expr.ToString()};
  }
  if (opt->tuples() != naive->tuples()) {
    return Divergence{"optimised engine answer differs from naive: " +
                      ec.expr.ToString() + "\nnaive:  " + naive->ToString() +
                      "\nengine: " + opt->ToString()};
  }
  if (plain->tuples() != naive->tuples()) {
    return Divergence{"plain (rewrites/cache off) answer differs from naive: " +
                      ec.expr.ToString() + "\nnaive: " + naive->ToString() +
                      "\nplain: " + plain->ToString()};
  }
  if (ec.budgeted) {
    ResourceLimits limits;
    limits.max_steps = ec.budget_steps;
    limits.max_rows = ec.budget_rows;
    ResourceBudget budget(limits);
    EvalOptions budgeted = options;
    budgeted.budget = &budget;
    Result<StringRelation> out = engine_.Execute(ec.expr, ec.db, budgeted);
    if (out.ok()) {
      if (out->tuples() != naive->tuples()) {
        return Divergence{
            "budgeted run returned wrong tuples instead of failing: " +
            ec.expr.ToString() + "\nnaive:    " + naive->ToString() +
            "\nbudgeted: " + out->ToString()};
      }
    } else if (out.status().code() != StatusCode::kResourceExhausted) {
      return Divergence{"budgeted run failed with a non-budget code: " +
                        out.status().ToString() + " on " + ec.expr.ToString()};
    }
  }
  return std::nullopt;
}

std::string EngineDiffTarget::Serialize(const Case& c) const {
  const auto& ec = static_cast<const EngineCase&>(c);
  std::string out = "engine 1\n";
  out += "sigma " + AlphabetChars(ec.db.alphabet()) + "\n";
  out += "budget " + std::string(ec.budgeted ? "1" : "0") + " " +
         std::to_string(ec.budget_steps) + " " +
         std::to_string(ec.budget_rows) + "\n";
  out += "rels " + std::to_string(ec.db.relations().size()) + "\n";
  for (const auto& [name, rel] : ec.db.relations()) {
    out += "rel " + name + " " + std::to_string(rel.arity()) + " " +
           std::to_string(rel.size()) + "\n";
    for (const Tuple& tuple : rel.tuples()) out += EncodeTupleLine(tuple) + "\n";
  }
  std::vector<std::string> fsa_texts;
  std::map<std::string, int> fsa_index;
  CollectSelectFsas(ec.expr, &fsa_texts, &fsa_index);
  out += "fsas " + std::to_string(fsa_texts.size()) + "\n";
  for (const std::string& text : fsa_texts) out += text;
  out += "expr " + WriteSexpr(ec.expr, fsa_index) + "\n";
  return out;
}

Result<DiffTarget::CasePtr> EngineDiffTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "engine 1") {
    return Status::InvalidArgument("bad engine case header '" + header + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));

  STRDB_ASSIGN_OR_RETURN(std::string budget_line, cursor.Take("budget"));
  std::vector<std::string> budget_tokens = SplitTokens(budget_line);
  if (budget_tokens.size() != 4 || budget_tokens[0] != "budget") {
    return Status::InvalidArgument("bad budget line '" + budget_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t budgeted, ParseInt(budget_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(int64_t budget_steps, ParseInt(budget_tokens[2]));
  STRDB_ASSIGN_OR_RETURN(int64_t budget_rows, ParseInt(budget_tokens[3]));

  Database db(sigma);
  STRDB_ASSIGN_OR_RETURN(std::string rels_line, cursor.Take("rels"));
  std::vector<std::string> rels_tokens = SplitTokens(rels_line);
  if (rels_tokens.size() != 2 || rels_tokens[0] != "rels") {
    return Status::InvalidArgument("bad rels line '" + rels_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t num_rels, ParseInt(rels_tokens[1]));
  for (int64_t r = 0; r < num_rels; ++r) {
    STRDB_ASSIGN_OR_RETURN(std::string rel_line, cursor.Take("rel"));
    std::vector<std::string> rel_tokens = SplitTokens(rel_line);
    if (rel_tokens.size() != 4 || rel_tokens[0] != "rel") {
      return Status::InvalidArgument("bad rel line '" + rel_line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(rel_tokens[2]));
    STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(rel_tokens[3]));
    std::vector<Tuple> tuples;
    for (int64_t i = 0; i < n; ++i) {
      STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("tuple"));
      STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(line));
      tuples.push_back(std::move(tuple));
    }
    STRDB_RETURN_IF_ERROR(
        db.Put(rel_tokens[1], static_cast<int>(arity), std::move(tuples)));
  }

  STRDB_ASSIGN_OR_RETURN(std::string fsas_line, cursor.Take("fsas"));
  std::vector<std::string> fsas_tokens = SplitTokens(fsas_line);
  if (fsas_tokens.size() != 2 || fsas_tokens[0] != "fsas") {
    return Status::InvalidArgument("bad fsas line '" + fsas_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t num_fsas, ParseInt(fsas_tokens[1]));
  std::vector<Fsa> fsas;
  for (int64_t i = 0; i < num_fsas; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string block, TakeFsaBlock(&cursor));
    STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, block));
    fsas.push_back(std::move(fsa));
  }

  STRDB_ASSIGN_OR_RETURN(std::string expr_line, cursor.Take("expr"));
  if (expr_line.rfind("expr ", 0) != 0) {
    return Status::InvalidArgument("bad expr line '" + expr_line + "'");
  }
  std::vector<std::string> tokens = SexprTokens(expr_line.substr(5));
  size_t pos = 0;
  STRDB_ASSIGN_OR_RETURN(AlgebraExpr expr, ParseSexpr(tokens, &pos, fsas));
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after expression");
  }

  auto c = std::make_unique<EngineCase>(std::move(db), std::move(expr));
  c->budgeted = budgeted != 0;
  c->budget_steps = budget_steps;
  c->budget_rows = budget_rows;
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> EngineDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& ec = static_cast<const EngineCase&>(c);
  std::vector<CasePtr> out;
  auto with_expr = [&](AlgebraExpr expr) {
    auto cand = std::make_unique<EngineCase>(Database(ec.db), std::move(expr));
    cand->budgeted = ec.budgeted;
    cand->budget_steps = ec.budget_steps;
    cand->budget_rows = ec.budget_rows;
    out.push_back(std::move(cand));
  };
  // Replace the expression by a direct subexpression.
  switch (ec.expr.kind()) {
    case AlgebraExpr::Kind::kUnion:
    case AlgebraExpr::Kind::kDifference:
    case AlgebraExpr::Kind::kProduct:
      with_expr(ec.expr.Left());
      with_expr(ec.expr.Right());
      break;
    case AlgebraExpr::Kind::kProject:
    case AlgebraExpr::Kind::kSelect:
    case AlgebraExpr::Kind::kRestrict:
      with_expr(ec.expr.Left());
      break;
    default:
      break;
  }
  // Drop one database tuple.
  for (const auto& [name, rel] : ec.db.relations()) {
    for (size_t skip = 0; skip < static_cast<size_t>(rel.size()); ++skip) {
      Database db(ec.db.alphabet());
      for (const auto& [other_name, other_rel] : ec.db.relations()) {
        std::vector<Tuple> tuples(other_rel.tuples().begin(),
                                  other_rel.tuples().end());
        if (other_name == name) {
          tuples.erase(tuples.begin() + static_cast<ptrdiff_t>(skip));
        }
        Status status = db.Put(other_name, other_rel.arity(),
                               std::move(tuples));
        (void)status;  // re-adding validated tuples cannot fail
      }
      auto cand =
          std::make_unique<EngineCase>(std::move(db), AlgebraExpr(ec.expr));
      cand->budgeted = ec.budgeted;
      cand->budget_steps = ec.budget_steps;
      cand->budget_rows = ec.budget_rows;
      out.push_back(std::move(cand));
    }
  }
  // Drop the budget dimension entirely.
  if (ec.budgeted) {
    auto cand =
        std::make_unique<EngineCase>(Database(ec.db), AlgebraExpr(ec.expr));
    out.push_back(std::move(cand));
  }
  return out;
}

int64_t EngineDiffTarget::CaseSize(const Case& c) const {
  const auto& ec = static_cast<const EngineCase&>(c);
  int64_t size = NodeCount(ec.expr) + (ec.budgeted ? 1 : 0);
  for (const auto& [name, rel] : ec.db.relations()) {
    (void)name;
    for (const Tuple& tuple : rel.tuples()) {
      size += 1;
      for (const std::string& field : tuple) {
        size += static_cast<int64_t>(field.size());
      }
    }
  }
  return size;
}

// --- RoundtripTarget --------------------------------------------------------

DiffTarget::CasePtr RoundtripTarget::Generate(RandomSource& rand) const {
  auto c = std::make_unique<RoundtripCase>(
      RandomFsa(rand, Alphabet::Binary()));
  switch (rand.Range(0, 2)) {
    case 0:
      c->mutation = Mutation::kNone;
      break;
    case 1:
      c->mutation = Mutation::kFlip;
      break;
    default:
      c->mutation = Mutation::kCut;
      break;
  }
  c->offset = static_cast<int64_t>(rand.Next() & 0x7fffffff);
  c->bit = rand.Range(0, 7);
  return c;
}

std::optional<Divergence> RoundtripTarget::Run(const Case& c) const {
  const auto& rc = static_cast<const RoundtripCase&>(c);
  std::string text = SerializeFsa(rc.fsa);
  if (rc.mutation == Mutation::kNone) {
    Result<Fsa> back = DeserializeFsa(rc.fsa.alphabet(), text);
    if (!back.ok()) {
      return Divergence{"clean serialization was rejected: " +
                        back.status().ToString() + "\n" + text};
    }
    std::string again = SerializeFsa(*back);
    if (again != text) {
      return Divergence{
          "serialize→deserialize→serialize is not byte-identical\nfirst:\n" +
          text + "second:\n" + again};
    }
    return std::nullopt;
  }
  // Mutated input: rejection must be typed, acceptance must re-serialize
  // to a fixpoint.
  std::string mutated = text;
  size_t at = static_cast<size_t>(rc.offset) % text.size();
  if (rc.mutation == Mutation::kFlip) {
    mutated[at] = static_cast<char>(mutated[at] ^ (1u << rc.bit));
  } else {
    mutated = mutated.substr(0, at);
  }
  if (mutated == text) return std::nullopt;  // a no-op mutation
  Result<Fsa> back = DeserializeFsa(rc.fsa.alphabet(), mutated);
  if (!back.ok()) {
    StatusCode code = back.status().code();
    if (code != StatusCode::kInvalidArgument &&
        code != StatusCode::kUnimplemented && code != StatusCode::kDataLoss) {
      return Divergence{"mutated input rejected with an untyped code: " +
                        back.status().ToString() + "\n" + mutated};
    }
    return std::nullopt;
  }
  std::string again = SerializeFsa(*back);
  Result<Fsa> twice = DeserializeFsa(rc.fsa.alphabet(), again);
  if (!twice.ok() || SerializeFsa(*twice) != again) {
    return Divergence{
        "accepted mutated input does not re-serialize to a fixpoint\n" +
        mutated};
  }
  return std::nullopt;
}

std::string RoundtripTarget::Serialize(const Case& c) const {
  const auto& rc = static_cast<const RoundtripCase&>(c);
  const char* mutation = rc.mutation == Mutation::kNone   ? "none"
                         : rc.mutation == Mutation::kFlip ? "flip"
                                                          : "cut";
  std::string out = "roundtrip 1\n";
  out += "sigma " + AlphabetChars(rc.fsa.alphabet()) + "\n";
  out += "mutation " + std::string(mutation) + " " +
         std::to_string(rc.offset) + " " + std::to_string(rc.bit) + "\n";
  out += SerializeFsa(rc.fsa);
  return out;
}

Result<DiffTarget::CasePtr> RoundtripTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "roundtrip 1") {
    return Status::InvalidArgument("bad roundtrip case header '" + header +
                                   "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string mut_line, cursor.Take("mutation"));
  std::vector<std::string> mut_tokens = SplitTokens(mut_line);
  if (mut_tokens.size() != 4 || mut_tokens[0] != "mutation") {
    return Status::InvalidArgument("bad mutation line '" + mut_line + "'");
  }
  Mutation mutation;
  if (mut_tokens[1] == "none") {
    mutation = Mutation::kNone;
  } else if (mut_tokens[1] == "flip") {
    mutation = Mutation::kFlip;
  } else if (mut_tokens[1] == "cut") {
    mutation = Mutation::kCut;
  } else {
    return Status::InvalidArgument("unknown mutation '" + mut_tokens[1] + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t offset, ParseInt(mut_tokens[2]));
  STRDB_ASSIGN_OR_RETURN(int64_t bit, ParseInt(mut_tokens[3]));
  if (bit < 0 || bit > 7) {
    return Status::InvalidArgument("flip bit out of range");
  }
  STRDB_ASSIGN_OR_RETURN(std::string block, TakeFsaBlock(&cursor));
  STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, block));
  auto c = std::make_unique<RoundtripCase>(std::move(fsa));
  c->mutation = mutation;
  c->offset = offset;
  c->bit = static_cast<int>(bit);
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> RoundtripTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& rc = static_cast<const RoundtripCase&>(c);
  std::vector<CasePtr> out;
  auto with_fsa = [&](Fsa fsa) {
    auto cand = std::make_unique<RoundtripCase>(std::move(fsa));
    cand->mutation = rc.mutation;
    cand->offset = rc.offset;
    cand->bit = rc.bit;
    out.push_back(std::move(cand));
  };
  for (size_t i = 0; i < rc.fsa.transitions().size(); ++i) {
    with_fsa(CopyWithoutTransition(rc.fsa, i));
  }
  {
    Fsa trimmed(rc.fsa);
    trimmed.PruneToTrim();
    with_fsa(std::move(trimmed));
  }
  if (rc.mutation != Mutation::kNone) {
    auto cand = std::make_unique<RoundtripCase>(Fsa(rc.fsa));
    cand->mutation = Mutation::kNone;
    out.push_back(std::move(cand));
  }
  return out;
}

int64_t RoundtripTarget::CaseSize(const Case& c) const {
  const auto& rc = static_cast<const RoundtripCase&>(c);
  return rc.fsa.num_states() + rc.fsa.num_transitions() +
         (rc.mutation != Mutation::kNone ? 1 : 0);
}

// --- StorageRecoverTarget ---------------------------------------------------

std::string CatalogSignature(const Database& db) {
  std::string out;
  for (const auto& [name, rel] : db.relations()) {
    out += name + "/" + std::to_string(rel.arity()) + "=" + rel.ToString() +
           ";";
  }
  return out;
}

namespace {

constexpr char kStoreDir[] = "/store";

Status ApplyStorageOp(CatalogStore* store,
                      const StorageRecoverTarget::StorageOp& op) {
  using Kind = StorageRecoverTarget::StorageOp::Kind;
  switch (op.kind) {
    case Kind::kPut:
      return store->PutRelation(op.name, op.arity, op.tuples);
    case Kind::kInsert:
      return store->InsertTuples(op.name, op.tuples);
    case Kind::kDrop:
      return store->DropRelation(op.name);
    case Kind::kFsa:
      return store->InstallAutomatonText(op.key, op.fsa_text);
    case Kind::kCheckpoint:
      return store->Checkpoint();
  }
  return Status::Internal("unreachable");
}

Status ApplyStorageOpToShadow(const StorageRecoverTarget::StorageOp& op,
                              Database* db,
                              std::map<std::string, std::string>* automata) {
  using Kind = StorageRecoverTarget::StorageOp::Kind;
  switch (op.kind) {
    case Kind::kPut:
      return db->Put(op.name, op.arity, op.tuples);
    case Kind::kInsert:
      return db->InsertTuples(op.name, op.tuples);
    case Kind::kDrop:
      return db->Remove(op.name);
    case Kind::kFsa:
      (*automata)[op.key] = op.fsa_text;
      return Status::OK();
    case Kind::kCheckpoint:
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

}  // namespace

void StorageRecoverTarget::CorruptBeforeRecovery(MemEnv* env,
                                                 const std::string& dir) const {
  // Default: recovery sees exactly what the crash left behind.  The
  // planted-bug self-test overrides this to damage committed bytes and
  // prove the committed-prefix oracle notices.
  (void)env;
  (void)dir;
}

DiffTarget::CasePtr StorageRecoverTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  auto c = std::make_unique<StorageCase>();
  static const char* kNames[] = {"A", "B", "C", "D"};
  std::map<std::string, int> live;  // relation name -> arity

  int n_ops = rand.Range(3, 12);
  for (int i = 0; i < n_ops; ++i) {
    StorageOp op;
    int pick = rand.Range(0, 19);
    if (pick >= 7 && pick <= 11 && live.empty()) pick = 0;   // ins -> put
    if (pick >= 12 && pick <= 13 && live.empty()) pick = 0;  // drop -> put
    if (pick <= 6) {
      op.kind = StorageOp::Kind::kPut;
      op.name = kNames[rand.Range(0, 3)];
      op.arity = rand.Range(1, 2);
      int n = rand.Range(0, 2);
      for (int t = 0; t < n; ++t) {
        op.tuples.push_back(RandomTuple(rand, sigma, op.arity, 2));
      }
      live[op.name] = op.arity;
    } else if (pick <= 11) {
      op.kind = StorageOp::Kind::kInsert;
      auto it = live.begin();
      std::advance(it, static_cast<long>(
                           rand.Below(static_cast<uint64_t>(live.size()))));
      op.name = it->first;
      int n = rand.Range(1, 2);
      for (int t = 0; t < n; ++t) {
        op.tuples.push_back(RandomTuple(rand, sigma, it->second, 2));
      }
    } else if (pick <= 13) {
      op.kind = StorageOp::Kind::kDrop;
      if (rand.Range(0, 9) == 0) {
        op.name = "missing";  // exercise the semantic-rejection path
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(
                             rand.Below(static_cast<uint64_t>(live.size()))));
        op.name = it->first;
        live.erase(it);
      }
    } else if (pick <= 16) {
      op.kind = StorageOp::Kind::kFsa;
      op.key = std::string("k") + static_cast<char>('0' + rand.Range(0, 4));
      FsaGenOptions small;
      small.max_tapes = 2;
      small.max_states = 4;
      small.max_transitions = 6;
      op.fsa_text = SerializeFsa(RandomFsa(rand, sigma, small));
    } else {
      op.kind = StorageOp::Kind::kCheckpoint;
    }
    c->ops.push_back(std::move(op));
  }
  c->crash_at_raw = rand.Next();
  c->torn_seed = rand.Next();
  return c;
}

std::optional<Divergence> StorageRecoverTarget::Run(const Case& c) const {
  const auto& sc = static_cast<const StorageCase&>(c);
  Alphabet sigma = Alphabet::Binary();

  // Dry run on a throwaway env, to learn the fault-op count of the
  // workload (semantic rejections and all — they are deterministic).
  int64_t total_ops = 0;
  {
    MemEnv mem;
    FaultInjectingEnv fenv(&mem, 1);
    fenv.Reset({});
    StoreOptions options;
    options.env = &fenv;
    auto store = CatalogStore::Open(kStoreDir, sigma, options);
    if (!store.ok()) {
      return Divergence{"fault-free open failed: " +
                        store.status().ToString()};
    }
    for (const StorageOp& op : sc.ops) {
      Status status = ApplyStorageOp(store->get(), op);
      (void)status;  // semantic rejections are part of the workload
    }
    Status closed = (*store)->Close();
    if (!closed.ok()) {
      return Divergence{"fault-free close failed: " + closed.ToString()};
    }
    total_ops = fenv.ops();
  }

  // shadow[j] = (catalog, automata) after the first j successful
  // mutations, precomputed for the WHOLE workload — when the dying op's
  // WAL record reaches "disk" in full, recovery legitimately lands one
  // state past the last acknowledgement.  op_mutates[i] says whether op
  // i changes the catalog (checkpoints and deterministic semantic
  // rejections do not); semantic outcomes depend only on the prefix
  // state, so the shadow predicts them exactly.
  Database shadow_db(sigma);
  std::map<std::string, std::string> shadow_fsa;
  std::vector<std::pair<std::string, std::map<std::string, std::string>>>
      shadow;
  shadow.emplace_back(CatalogSignature(shadow_db), shadow_fsa);
  std::vector<bool> op_mutates;
  for (const StorageOp& op : sc.ops) {
    if (op.kind == StorageOp::Kind::kCheckpoint) {
      op_mutates.push_back(false);
      continue;
    }
    Status applied = ApplyStorageOpToShadow(op, &shadow_db, &shadow_fsa);
    op_mutates.push_back(applied.ok());
    if (applied.ok()) {
      shadow.emplace_back(CatalogSignature(shadow_db), shadow_fsa);
    }
  }

  // The real run: crash at a point derived from the case (the +4 slack
  // leaves a band of crash-free runs covering clean shutdown).
  MemEnv mem;
  FaultInjectingEnv fenv(&mem, sc.torn_seed);
  FaultPlan plan;
  plan.crash_at_op =
      static_cast<int64_t>(sc.crash_at_raw % static_cast<uint64_t>(total_ops + 4));
  fenv.Reset(plan);
  StoreOptions options;
  options.env = &fenv;

  int acked = 0;
  bool failed_op_mutates = false;
  {
    auto store = CatalogStore::Open(kStoreDir, sigma, options);
    if (store.ok()) {
      for (size_t i = 0; i < sc.ops.size(); ++i) {
        const StorageOp& op = sc.ops[i];
        Status status = ApplyStorageOp(store->get(), op);
        if (status.ok()) {
          if (op.kind != StorageOp::Kind::kCheckpoint) {
            if (!op_mutates[i]) {
              return Divergence{
                  "store acknowledged an op the shadow model rejects "
                  "(op " + std::to_string(i) + ")"};
            }
            ++acked;
          }
          continue;
        }
        if (fenv.crashed()) {
          failed_op_mutates = op_mutates[i];
          break;
        }
        // A semantic rejection on a healthy env: the shadow must have
        // predicted it (the only injected fault is the crash).
        if (op_mutates[i]) {
          return Divergence{"store rejected an op the shadow model accepts "
                            "(op " + std::to_string(i) + "): " +
                            status.ToString()};
        }
      }
      // The store object dies with the simulated process; its destructor
      // closing against a crashed env must be harmless.
    } else if (!fenv.crashed()) {
      return Divergence{"open failed without a crash: " +
                        store.status().ToString()};
    }
  }

  CorruptBeforeRecovery(&mem, kStoreDir);

  // Restart on a healthy filesystem.
  RecoveryReport report;
  StoreOptions recover_options;
  recover_options.env = &mem;
  auto recovered = CatalogStore::Open(kStoreDir, sigma, recover_options,
                                      &report);
  if (!recovered.ok()) {
    return Divergence{"recovery failed: " + recovered.status().ToString() +
                      " (report: " + report.ToString() + ")"};
  }
  std::string sig = CatalogSignature((*recovered)->db());
  int matched = -1;
  for (int j = acked; j <= acked + (failed_op_mutates ? 1 : 0); ++j) {
    if (j >= static_cast<int>(shadow.size())) break;
    if (sig == shadow[static_cast<size_t>(j)].first &&
        (*recovered)->automata() == shadow[static_cast<size_t>(j)].second) {
      matched = j;
      break;
    }
  }
  if (matched == -1) {
    return Divergence{
        "recovered state is not a committed prefix: acked=" +
        std::to_string(acked) + " crash_at=" +
        std::to_string(plan.crash_at_op) + "\nrecovered: " + sig +
        "\nexpected:  " + shadow[static_cast<size_t>(acked)].first +
        "\nreport: " + report.ToString()};
  }
  for (const auto& [key, text] : (*recovered)->automata()) {
    if (!DeserializeFsa(sigma, text).ok()) {
      return Divergence{"automaton '" + key +
                        "' recovered with a bad checksum"};
    }
  }
  return std::nullopt;
}

std::string StorageRecoverTarget::Serialize(const Case& c) const {
  const auto& sc = static_cast<const StorageCase&>(c);
  std::string out = "storage 1\n";
  out += "sigma " + AlphabetChars(Alphabet::Binary()) + "\n";
  out += "crash " + std::to_string(sc.crash_at_raw) + "\n";
  out += "torn " + std::to_string(sc.torn_seed) + "\n";
  out += "ops " + std::to_string(sc.ops.size()) + "\n";
  for (const StorageOp& op : sc.ops) {
    switch (op.kind) {
      case StorageOp::Kind::kPut:
        out += "put " + op.name + " " + std::to_string(op.arity) + " " +
               std::to_string(op.tuples.size()) + "\n";
        for (const Tuple& tuple : op.tuples) {
          out += EncodeTupleLine(tuple) + "\n";
        }
        break;
      case StorageOp::Kind::kInsert:
        out += "ins " + op.name + " " + std::to_string(op.tuples.size()) +
               "\n";
        for (const Tuple& tuple : op.tuples) {
          out += EncodeTupleLine(tuple) + "\n";
        }
        break;
      case StorageOp::Kind::kDrop:
        out += "drop " + op.name + "\n";
        break;
      case StorageOp::Kind::kFsa:
        out += "fsa " + op.key + "\n";
        out += op.fsa_text;
        break;
      case StorageOp::Kind::kCheckpoint:
        out += "ckpt\n";
        break;
    }
  }
  return out;
}

Result<DiffTarget::CasePtr> StorageRecoverTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "storage 1") {
    return Status::InvalidArgument("bad storage case header '" + header +
                                   "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  if (sigma_line.rfind("sigma ", 0) != 0) {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  auto c = std::make_unique<StorageCase>();
  STRDB_ASSIGN_OR_RETURN(std::string crash_line, cursor.Take("crash"));
  std::vector<std::string> crash_tokens = SplitTokens(crash_line);
  if (crash_tokens.size() != 2 || crash_tokens[0] != "crash") {
    return Status::InvalidArgument("bad crash line '" + crash_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(c->crash_at_raw, ParseU64(crash_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string torn_line, cursor.Take("torn"));
  std::vector<std::string> torn_tokens = SplitTokens(torn_line);
  if (torn_tokens.size() != 2 || torn_tokens[0] != "torn") {
    return Status::InvalidArgument("bad torn line '" + torn_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(c->torn_seed, ParseU64(torn_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string ops_line, cursor.Take("ops"));
  std::vector<std::string> ops_tokens = SplitTokens(ops_line);
  if (ops_tokens.size() != 2 || ops_tokens[0] != "ops") {
    return Status::InvalidArgument("bad ops line '" + ops_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t n_ops, ParseInt(ops_tokens[1]));
  for (int64_t i = 0; i < n_ops; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("op"));
    std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty()) {
      return Status::InvalidArgument("empty op line");
    }
    StorageOp op;
    if (tokens[0] == "put" && tokens.size() == 4) {
      op.kind = StorageOp::Kind::kPut;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(tokens[2]));
      op.arity = static_cast<int>(arity);
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[3]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "ins" && tokens.size() == 3) {
      op.kind = StorageOp::Kind::kInsert;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[2]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "drop" && tokens.size() == 2) {
      op.kind = StorageOp::Kind::kDrop;
      op.name = tokens[1];
    } else if (tokens[0] == "fsa" && tokens.size() == 2) {
      op.kind = StorageOp::Kind::kFsa;
      op.key = tokens[1];
      STRDB_ASSIGN_OR_RETURN(op.fsa_text, TakeFsaBlock(&cursor));
    } else if (tokens[0] == "ckpt" && tokens.size() == 1) {
      op.kind = StorageOp::Kind::kCheckpoint;
    } else {
      return Status::InvalidArgument("bad op line '" + line + "'");
    }
    c->ops.push_back(std::move(op));
  }
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> StorageRecoverTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& sc = static_cast<const StorageCase&>(c);
  std::vector<CasePtr> out;
  auto clone = [&] {
    auto cand = std::make_unique<StorageCase>();
    cand->ops = sc.ops;
    cand->crash_at_raw = sc.crash_at_raw;
    cand->torn_seed = sc.torn_seed;
    return cand;
  };
  for (size_t i = 0; i < sc.ops.size(); ++i) {
    auto cand = clone();
    cand->ops.erase(cand->ops.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(cand));
  }
  for (size_t i = 0; i < sc.ops.size(); ++i) {
    for (size_t t = 0; t < sc.ops[i].tuples.size(); ++t) {
      auto cand = clone();
      cand->ops[i].tuples.erase(cand->ops[i].tuples.begin() +
                                static_cast<ptrdiff_t>(t));
      out.push_back(std::move(cand));
    }
  }
  for (size_t i = 0; i < sc.ops.size(); ++i) {
    for (size_t t = 0; t < sc.ops[i].tuples.size(); ++t) {
      for (size_t f = 0; f < sc.ops[i].tuples[t].size(); ++f) {
        if (sc.ops[i].tuples[t][f].empty()) continue;
        auto cand = clone();
        std::string& field = cand->ops[i].tuples[t][f];
        field = field.substr(0, field.size() / 2);
        out.push_back(std::move(cand));
      }
    }
  }
  return out;
}

int64_t StorageRecoverTarget::CaseSize(const Case& c) const {
  const auto& sc = static_cast<const StorageCase&>(c);
  int64_t size = 0;
  for (const StorageOp& op : sc.ops) {
    size += 1 + static_cast<int64_t>(op.name.size() + op.key.size() +
                                     op.fsa_text.size());
    for (const Tuple& tuple : op.tuples) {
      size += 1;
      for (const std::string& field : tuple) {
        size += static_cast<int64_t>(field.size());
      }
    }
  }
  return size;
}

// --- PagerDiffTarget --------------------------------------------------------

namespace {

constexpr char kPagerDir[] = "/pagerstore";

// Truncation 3 (not the engine sweep's 2): spilling needs relations
// with more than a handful of distinct tuples, and length-3 strings
// over Σ = {a, b} give 15 distinct values per column while keeping the
// naive reference cheap.
EvalOptions PagerSweepOptions() {
  EvalOptions options;
  options.truncation = 3;
  options.max_tuples = 20000;
  options.max_steps = 5'000'000;
  return options;
}

Status ApplyPagerOp(CatalogStore* store,
                    const PagerDiffTarget::PagerOp& op) {
  using Kind = PagerDiffTarget::PagerOp::Kind;
  switch (op.kind) {
    case Kind::kPut:
      return store->PutRelation(op.name, op.arity, op.tuples);
    case Kind::kInsert:
      return store->InsertTuples(op.name, op.tuples);
    case Kind::kDrop:
      return store->DropRelation(op.name);
    case Kind::kCheckpoint:
      return store->Checkpoint();
  }
  return Status::Internal("unreachable");
}

Status ApplyPagerOpToShadow(const PagerDiffTarget::PagerOp& op,
                            Database* db) {
  using Kind = PagerDiffTarget::PagerOp::Kind;
  switch (op.kind) {
    case Kind::kPut:
      return db->Put(op.name, op.arity, op.tuples);
    case Kind::kInsert:
      return db->InsertTuples(op.name, op.tuples);
    case Kind::kDrop:
      return db->Remove(op.name);
    case Kind::kCheckpoint:
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

// The store's logical catalog with spilled relations folded back in by
// materialisation — representation (inline vs paged) never affects the
// comparison, only contents do.
Result<std::string> PagedCatalogSignature(const CatalogStore& store) {
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  store.SnapshotState(&snap, &paged);
  Database merged(*snap);
  for (const auto& [name, source] : *paged) {
    if (merged.Has(name)) {
      return Status::Internal("relation '" + name +
                              "' is in both the snapshot and the paged set");
    }
    STRDB_ASSIGN_OR_RETURN(StringRelation rel, source->Materialize());
    std::vector<Tuple> tuples(rel.tuples().begin(), rel.tuples().end());
    STRDB_RETURN_IF_ERROR(
        merged.Put(name, source->arity(), std::move(tuples)));
  }
  return CatalogSignature(merged);
}

std::string DescribeEval(const Result<StringRelation>& r) {
  return r.ok() ? r->ToString() : r.status().ToString();
}

}  // namespace

PagerDiffTarget::PagerDiffTarget()
    : pool_(MakeFsaPool(Alphabet::Binary())), engine_() {}

DiffTarget::CasePtr PagerDiffTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  auto c = std::make_unique<PagerCase>();
  if (rand.Range(0, 4) <= 2) {
    // diff mode (3/5 of cases).
    c->mode = Mode::kDiff;
    c->db = RandomDatabase(rand, sigma);
    if (rand.Range(0, 2) != 0) {
      // Bulk up the binary relation so the checkpoint writes a heap
      // with a real dictionary and multiple tuples per run, not just a
      // header.  Set semantics dedupe the draws.
      std::vector<Tuple> bulk;
      int n = rand.Range(40, 120);
      for (int i = 0; i < n; ++i) {
        bulk.push_back(RandomTuple(rand, sigma, 2, 3));
      }
      Status inflated = c->db.InsertTuples("P", std::move(bulk));
      (void)inflated;  // P always exists in RandomDatabase's schema
    }
    c->expr = RandomAlgebraExpr(rand, pool_, 3);
    // 1 spills every non-empty relation; the larger thresholds leave
    // the small unary relations inline so the mixed snapshot/paged
    // lookup path is exercised too.
    static constexpr int64_t kThresholds[] = {1, 1, 512, 4096};
    c->spill_threshold = kThresholds[rand.Range(0, 3)];
  } else {
    c->mode = Mode::kCrash;
    c->spill_threshold = rand.Coin() ? 1 : 256;
    static const char* kNames[] = {"A", "B", "C"};
    std::map<std::string, int> live;  // relation name -> arity
    int n_ops = rand.Range(4, 12);
    for (int i = 0; i < n_ops; ++i) {
      PagerOp op;
      int pick = rand.Range(0, 9);
      if (pick >= 4 && pick <= 6 && live.empty()) pick = 0;
      if (pick <= 3) {
        op.kind = PagerOp::Kind::kPut;
        op.name = kNames[rand.Range(0, 2)];
        if (rand.Range(0, 2) == 0) {
          // A put big enough that the next checkpoint spills it even at
          // the larger threshold.
          op.arity = 2;
          int n = rand.Range(16, 48);
          for (int t = 0; t < n; ++t) {
            op.tuples.push_back(RandomTuple(rand, sigma, 2, 3));
          }
        } else {
          op.arity = rand.Range(1, 2);
          int n = rand.Range(0, 3);
          for (int t = 0; t < n; ++t) {
            op.tuples.push_back(RandomTuple(rand, sigma, op.arity, 2));
          }
        }
        live[op.name] = op.arity;
      } else if (pick <= 6) {
        op.kind = PagerOp::Kind::kInsert;
        auto it = live.begin();
        std::advance(it, static_cast<long>(
                             rand.Below(static_cast<uint64_t>(live.size()))));
        op.name = it->first;
        int n = rand.Range(1, 3);
        for (int t = 0; t < n; ++t) {
          op.tuples.push_back(RandomTuple(rand, sigma, it->second, 2));
        }
      } else if (pick == 7) {
        op.kind = PagerOp::Kind::kDrop;
        if (live.empty() || rand.Range(0, 7) == 0) {
          op.name = "missing";  // the semantic-rejection path
        } else {
          auto it = live.begin();
          std::advance(it, static_cast<long>(
                               rand.Below(static_cast<uint64_t>(live.size()))));
          op.name = it->first;
          live.erase(it);
        }
      } else {
        // Checkpoints are the spill points, so they appear often.
        op.kind = PagerOp::Kind::kCheckpoint;
      }
      c->ops.push_back(std::move(op));
    }
    c->crash_at_raw = rand.Next();
    c->torn_seed = rand.Next();
  }
  c->pager_capacity =
      static_cast<int64_t>(4 + rand.Range(0, 4)) * kPageSize;
  return c;
}

std::optional<Divergence> PagerDiffTarget::Run(const Case& c) const {
  const auto& pc = static_cast<const PagerCase&>(c);
  return pc.mode == Mode::kDiff ? RunDiff(pc) : RunCrash(pc);
}

std::optional<Divergence> PagerDiffTarget::RunDiff(const PagerCase& pc) const {
  const Alphabet& sigma = pc.db.alphabet();
  MemEnv mem;
  StoreOptions store_options;
  store_options.env = &mem;
  store_options.spill_threshold_bytes = pc.spill_threshold;
  store_options.pager_capacity_bytes = pc.pager_capacity;
  auto store = CatalogStore::Open(kPagerDir, sigma, store_options);
  if (!store.ok()) {
    return Divergence{"paged store open failed: " +
                      store.status().ToString()};
  }
  for (const auto& [name, rel] : pc.db.relations()) {
    std::vector<Tuple> tuples(rel.tuples().begin(), rel.tuples().end());
    Status put = (*store)->PutRelation(name, rel.arity(), std::move(tuples));
    if (!put.ok()) {
      return Divergence{"put of '" + name + "' failed: " + put.ToString()};
    }
  }
  Status checkpointed = (*store)->Checkpoint();
  if (!checkpointed.ok()) {
    return Divergence{"spilling checkpoint failed: " +
                      checkpointed.ToString()};
  }

  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  (*store)->SnapshotState(&snap, &paged);
  for (const auto& [name, rel] : pc.db.relations()) {
    bool inline_rel = snap->Has(name);
    auto it = paged->find(name);
    if (inline_rel == (it != paged->end())) {
      return Divergence{
          "relation '" + name + "' is in " +
          (inline_rel ? "both the snapshot and the paged set"
                      : "neither the snapshot nor the paged set")};
    }
    if (it != paged->end()) {
      Result<StringRelation> back = it->second->Materialize();
      if (!back.ok()) {
        return Divergence{"spilled relation '" + name +
                          "' failed to materialise: " +
                          back.status().ToString()};
      }
      if (!(*back == rel)) {
        return Divergence{"spilled relation '" + name +
                          "' materialises to different tuples\nsource: " +
                          rel.ToString() + "\npaged:  " + back->ToString()};
      }
    }
  }

  EvalOptions options = PagerSweepOptions();
  Result<StringRelation> oracle = EvalAlgebra(pc.expr, pc.db, options);
  EvalOptions paged_options = options;
  paged_options.paged = paged.get();
  Result<StringRelation> naive_paged =
      EvalAlgebra(pc.expr, *snap, paged_options);
  Result<StringRelation> streamed =
      engine_.Execute(pc.expr, *snap, paged_options);
  if (!oracle.ok()) {
    // A per-call limit error must surface on every route.
    if (naive_paged.ok() || streamed.ok()) {
      return Divergence{"in-memory oracle failed (" +
                        oracle.status().ToString() +
                        ") but a paged route succeeded: " +
                        pc.expr.ToString()};
    }
  } else {
    struct Route {
      const char* label;
      const Result<StringRelation>* result;
    };
    const Route routes[] = {{"naive-paged", &naive_paged},
                            {"paged-scan engine", &streamed}};
    for (const Route& route : routes) {
      if (!route.result->ok()) {
        return Divergence{std::string(route.label) +
                          " failed where the in-memory oracle succeeded: " +
                          route.result->status().ToString() + " on " +
                          pc.expr.ToString()};
      }
      if ((*route.result)->tuples() != oracle->tuples()) {
        return Divergence{std::string(route.label) +
                          " answer differs from the in-memory oracle: " +
                          pc.expr.ToString() + "\noracle: " +
                          DescribeEval(oracle) + "\npaged:  " +
                          DescribeEval(*route.result)};
      }
    }
  }

  PagerStats stats = (*store)->pager_stats();
  if (stats.bytes_pinned != 0) {
    return Divergence{"buffer pool still holds " +
                      std::to_string(stats.bytes_pinned) +
                      " pinned bytes after evaluation"};
  }
  if (stats.peak_bytes_pinned > pc.pager_capacity) {
    return Divergence{"peak pinned bytes " +
                      std::to_string(stats.peak_bytes_pinned) +
                      " exceeded the pool cap " +
                      std::to_string(pc.pager_capacity)};
  }
  if (stats.bytes_cached > pc.pager_capacity) {
    return Divergence{"resident page bytes " +
                      std::to_string(stats.bytes_cached) +
                      " exceed the pool cap " +
                      std::to_string(pc.pager_capacity)};
  }

  size_t spilled = paged->size();
  Status closed = (*store)->Close();
  if (!closed.ok()) {
    return Divergence{"close failed: " + closed.ToString()};
  }
  RecoveryReport report;
  auto reopened = CatalogStore::Open(kPagerDir, sigma, store_options, &report);
  if (!reopened.ok()) {
    return Divergence{"reopen failed: " + reopened.status().ToString() +
                      " (report: " + report.ToString() + ")"};
  }
  if (static_cast<size_t>(report.spilled_relations) != spilled) {
    return Divergence{"reopen recovered " +
                      std::to_string(report.spilled_relations) +
                      " spilled relations, expected " +
                      std::to_string(spilled)};
  }
  Result<std::string> sig = PagedCatalogSignature(**reopened);
  if (!sig.ok()) {
    return Divergence{"recovered catalog failed to materialise: " +
                      sig.status().ToString()};
  }
  if (*sig != CatalogSignature(pc.db)) {
    return Divergence{"recovered catalog differs from the source\nsource:    " +
                      CatalogSignature(pc.db) + "\nrecovered: " + *sig};
  }
  return std::nullopt;
}

std::optional<Divergence> PagerDiffTarget::RunCrash(const PagerCase& pc) const {
  Alphabet sigma = Alphabet::Binary();
  StoreOptions base;
  base.spill_threshold_bytes = pc.spill_threshold;
  base.pager_capacity_bytes = pc.pager_capacity;

  // Dry run on a throwaway env, to learn the fault-op count of the
  // workload (semantic rejections included — they are deterministic).
  int64_t total_ops = 0;
  {
    MemEnv mem;
    FaultInjectingEnv fenv(&mem, 1);
    fenv.Reset({});
    StoreOptions options = base;
    options.env = &fenv;
    auto store = CatalogStore::Open(kPagerDir, sigma, options);
    if (!store.ok()) {
      return Divergence{"fault-free open failed: " +
                        store.status().ToString()};
    }
    for (const PagerOp& op : pc.ops) {
      Status status = ApplyPagerOp(store->get(), op);
      (void)status;
    }
    Status closed = (*store)->Close();
    if (!closed.ok()) {
      return Divergence{"fault-free close failed: " + closed.ToString()};
    }
    total_ops = fenv.ops();
  }

  // shadow[j] = logical catalog after the first j successful mutations
  // (checkpoints spill but never change the logical catalog).
  Database shadow_db(sigma);
  std::vector<std::string> shadow;
  shadow.push_back(CatalogSignature(shadow_db));
  std::vector<bool> op_mutates;
  for (const PagerOp& op : pc.ops) {
    if (op.kind == PagerOp::Kind::kCheckpoint) {
      op_mutates.push_back(false);
      continue;
    }
    Status applied = ApplyPagerOpToShadow(op, &shadow_db);
    op_mutates.push_back(applied.ok());
    if (applied.ok()) shadow.push_back(CatalogSignature(shadow_db));
  }

  // The real run: crash at a point derived from the case (+4 slack
  // keeps a band of crash-free runs covering clean shutdown).
  MemEnv mem;
  FaultInjectingEnv fenv(&mem, pc.torn_seed);
  FaultPlan plan;
  plan.crash_at_op = static_cast<int64_t>(
      pc.crash_at_raw % static_cast<uint64_t>(total_ops + 4));
  fenv.Reset(plan);
  StoreOptions options = base;
  options.env = &fenv;

  int acked = 0;
  bool failed_op_mutates = false;
  {
    auto store = CatalogStore::Open(kPagerDir, sigma, options);
    if (store.ok()) {
      for (size_t i = 0; i < pc.ops.size(); ++i) {
        const PagerOp& op = pc.ops[i];
        Status status = ApplyPagerOp(store->get(), op);
        if (status.ok()) {
          if (op.kind != PagerOp::Kind::kCheckpoint) {
            if (!op_mutates[i]) {
              return Divergence{
                  "store acknowledged an op the shadow model rejects (op " +
                  std::to_string(i) + ")"};
            }
            ++acked;
          }
          continue;
        }
        if (fenv.crashed()) {
          failed_op_mutates = op_mutates[i];
          break;
        }
        if (op_mutates[i]) {
          return Divergence{"store rejected an op the shadow model accepts "
                            "(op " + std::to_string(i) + "): " +
                            status.ToString()};
        }
      }
      // The store object dies with the simulated process; its destructor
      // closing against a crashed env must be harmless.
    } else if (!fenv.crashed()) {
      return Divergence{"open failed without a crash: " +
                        store.status().ToString()};
    }
  }

  // Restart on a healthy filesystem, spill options still engaged.
  RecoveryReport report;
  StoreOptions recover_options = base;
  recover_options.env = &mem;
  auto recovered = CatalogStore::Open(kPagerDir, sigma, recover_options,
                                      &report);
  if (!recovered.ok()) {
    return Divergence{"recovery failed: " + recovered.status().ToString() +
                      " (report: " + report.ToString() + ")"};
  }
  Result<std::string> sig = PagedCatalogSignature(**recovered);
  if (!sig.ok()) {
    return Divergence{"a recovered spilled relation failed to materialise: " +
                      sig.status().ToString() +
                      " (report: " + report.ToString() + ")"};
  }
  int matched = -1;
  for (int j = acked; j <= acked + (failed_op_mutates ? 1 : 0); ++j) {
    if (j >= static_cast<int>(shadow.size())) break;
    if (*sig == shadow[static_cast<size_t>(j)]) {
      matched = j;
      break;
    }
  }
  if (matched == -1) {
    return Divergence{
        "recovered state is not a committed prefix: acked=" +
        std::to_string(acked) + " crash_at=" +
        std::to_string(plan.crash_at_op) + "\nrecovered: " + *sig +
        "\nexpected:  " + shadow[static_cast<size_t>(acked)] +
        "\nreport: " + report.ToString()};
  }
  return std::nullopt;
}

std::string PagerDiffTarget::Serialize(const Case& c) const {
  const auto& pc = static_cast<const PagerCase&>(c);
  std::string out = "pager 1\n";
  out += "sigma " + AlphabetChars(pc.db.alphabet()) + "\n";
  out += std::string("mode ") +
         (pc.mode == Mode::kDiff ? "diff" : "crash") + "\n";
  out += "spill " + std::to_string(pc.spill_threshold) + "\n";
  out += "cap " + std::to_string(pc.pager_capacity) + "\n";
  out += "crash " + std::to_string(pc.crash_at_raw) + "\n";
  out += "torn " + std::to_string(pc.torn_seed) + "\n";
  if (pc.mode == Mode::kDiff) {
    out += "rels " + std::to_string(pc.db.relations().size()) + "\n";
    for (const auto& [name, rel] : pc.db.relations()) {
      out += "rel " + name + " " + std::to_string(rel.arity()) + " " +
             std::to_string(rel.size()) + "\n";
      for (const Tuple& tuple : rel.tuples()) {
        out += EncodeTupleLine(tuple) + "\n";
      }
    }
    std::vector<std::string> fsa_texts;
    std::map<std::string, int> fsa_index;
    CollectSelectFsas(pc.expr, &fsa_texts, &fsa_index);
    out += "fsas " + std::to_string(fsa_texts.size()) + "\n";
    for (const std::string& text : fsa_texts) out += text;
    out += "expr " + WriteSexpr(pc.expr, fsa_index) + "\n";
  } else {
    out += "ops " + std::to_string(pc.ops.size()) + "\n";
    for (const PagerOp& op : pc.ops) {
      switch (op.kind) {
        case PagerOp::Kind::kPut:
          out += "put " + op.name + " " + std::to_string(op.arity) + " " +
                 std::to_string(op.tuples.size()) + "\n";
          for (const Tuple& tuple : op.tuples) {
            out += EncodeTupleLine(tuple) + "\n";
          }
          break;
        case PagerOp::Kind::kInsert:
          out += "ins " + op.name + " " + std::to_string(op.tuples.size()) +
                 "\n";
          for (const Tuple& tuple : op.tuples) {
            out += EncodeTupleLine(tuple) + "\n";
          }
          break;
        case PagerOp::Kind::kDrop:
          out += "drop " + op.name + "\n";
          break;
        case PagerOp::Kind::kCheckpoint:
          out += "ckpt\n";
          break;
      }
    }
  }
  return out;
}

Result<DiffTarget::CasePtr> PagerDiffTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "pager 1") {
    return Status::InvalidArgument("bad pager case header '" + header + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));

  auto c = std::make_unique<PagerCase>();
  STRDB_ASSIGN_OR_RETURN(std::string mode_line, cursor.Take("mode"));
  std::vector<std::string> mode_tokens = SplitTokens(mode_line);
  if (mode_tokens.size() != 2 || mode_tokens[0] != "mode") {
    return Status::InvalidArgument("bad mode line '" + mode_line + "'");
  }
  if (mode_tokens[1] == "diff") {
    c->mode = Mode::kDiff;
  } else if (mode_tokens[1] == "crash") {
    c->mode = Mode::kCrash;
  } else {
    return Status::InvalidArgument("unknown pager mode '" + mode_tokens[1] +
                                   "'");
  }
  auto take_int = [&](const char* keyword, int64_t* out) -> Status {
    auto line = cursor.Take(keyword);
    if (!line.ok()) return line.status();
    std::vector<std::string> tokens = SplitTokens(*line);
    if (tokens.size() != 2 || tokens[0] != keyword) {
      return Status::InvalidArgument(std::string("bad ") + keyword +
                                     " line '" + *line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(*out, ParseInt(tokens[1]));
    return Status::OK();
  };
  STRDB_RETURN_IF_ERROR(take_int("spill", &c->spill_threshold));
  STRDB_RETURN_IF_ERROR(take_int("cap", &c->pager_capacity));
  if (c->spill_threshold < 0 || c->pager_capacity < kPageSize) {
    return Status::InvalidArgument("pager case limits out of range");
  }
  STRDB_ASSIGN_OR_RETURN(std::string crash_line, cursor.Take("crash"));
  std::vector<std::string> crash_tokens = SplitTokens(crash_line);
  if (crash_tokens.size() != 2 || crash_tokens[0] != "crash") {
    return Status::InvalidArgument("bad crash line '" + crash_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(c->crash_at_raw, ParseU64(crash_tokens[1]));
  STRDB_ASSIGN_OR_RETURN(std::string torn_line, cursor.Take("torn"));
  std::vector<std::string> torn_tokens = SplitTokens(torn_line);
  if (torn_tokens.size() != 2 || torn_tokens[0] != "torn") {
    return Status::InvalidArgument("bad torn line '" + torn_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(c->torn_seed, ParseU64(torn_tokens[1]));

  if (c->mode == Mode::kDiff) {
    Database db(sigma);
    STRDB_ASSIGN_OR_RETURN(std::string rels_line, cursor.Take("rels"));
    std::vector<std::string> rels_tokens = SplitTokens(rels_line);
    if (rels_tokens.size() != 2 || rels_tokens[0] != "rels") {
      return Status::InvalidArgument("bad rels line '" + rels_line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t num_rels, ParseInt(rels_tokens[1]));
    for (int64_t r = 0; r < num_rels; ++r) {
      STRDB_ASSIGN_OR_RETURN(std::string rel_line, cursor.Take("rel"));
      std::vector<std::string> rel_tokens = SplitTokens(rel_line);
      if (rel_tokens.size() != 4 || rel_tokens[0] != "rel") {
        return Status::InvalidArgument("bad rel line '" + rel_line + "'");
      }
      STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(rel_tokens[2]));
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(rel_tokens[3]));
      std::vector<Tuple> tuples;
      for (int64_t i = 0; i < n; ++i) {
        STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(line));
        tuples.push_back(std::move(tuple));
      }
      STRDB_RETURN_IF_ERROR(
          db.Put(rel_tokens[1], static_cast<int>(arity), std::move(tuples)));
    }
    STRDB_ASSIGN_OR_RETURN(std::string fsas_line, cursor.Take("fsas"));
    std::vector<std::string> fsas_tokens = SplitTokens(fsas_line);
    if (fsas_tokens.size() != 2 || fsas_tokens[0] != "fsas") {
      return Status::InvalidArgument("bad fsas line '" + fsas_line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t num_fsas, ParseInt(fsas_tokens[1]));
    std::vector<Fsa> fsas;
    for (int64_t i = 0; i < num_fsas; ++i) {
      STRDB_ASSIGN_OR_RETURN(std::string block, TakeFsaBlock(&cursor));
      STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, block));
      fsas.push_back(std::move(fsa));
    }
    STRDB_ASSIGN_OR_RETURN(std::string expr_line, cursor.Take("expr"));
    if (expr_line.rfind("expr ", 0) != 0) {
      return Status::InvalidArgument("bad expr line '" + expr_line + "'");
    }
    std::vector<std::string> tokens = SexprTokens(expr_line.substr(5));
    size_t pos = 0;
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr expr, ParseSexpr(tokens, &pos, fsas));
    if (pos != tokens.size()) {
      return Status::InvalidArgument("trailing tokens after expression");
    }
    c->db = std::move(db);
    c->expr = std::move(expr);
    return DiffTarget::CasePtr(std::move(c));
  }

  STRDB_ASSIGN_OR_RETURN(std::string ops_line, cursor.Take("ops"));
  std::vector<std::string> ops_tokens = SplitTokens(ops_line);
  if (ops_tokens.size() != 2 || ops_tokens[0] != "ops") {
    return Status::InvalidArgument("bad ops line '" + ops_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t n_ops, ParseInt(ops_tokens[1]));
  for (int64_t i = 0; i < n_ops; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("op"));
    std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty()) {
      return Status::InvalidArgument("empty op line");
    }
    PagerOp op;
    if (tokens[0] == "put" && tokens.size() == 4) {
      op.kind = PagerOp::Kind::kPut;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(tokens[2]));
      op.arity = static_cast<int>(arity);
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[3]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "ins" && tokens.size() == 3) {
      op.kind = PagerOp::Kind::kInsert;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[2]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "drop" && tokens.size() == 2) {
      op.kind = PagerOp::Kind::kDrop;
      op.name = tokens[1];
    } else if (tokens[0] == "ckpt" && tokens.size() == 1) {
      op.kind = PagerOp::Kind::kCheckpoint;
    } else {
      return Status::InvalidArgument("bad op line '" + line + "'");
    }
    c->ops.push_back(std::move(op));
  }
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> PagerDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& pc = static_cast<const PagerCase&>(c);
  std::vector<CasePtr> out;
  auto clone = [&] {
    auto cand = std::make_unique<PagerCase>();
    cand->mode = pc.mode;
    cand->spill_threshold = pc.spill_threshold;
    cand->pager_capacity = pc.pager_capacity;
    cand->db = pc.db;
    cand->expr = pc.expr;
    cand->ops = pc.ops;
    cand->crash_at_raw = pc.crash_at_raw;
    cand->torn_seed = pc.torn_seed;
    return cand;
  };
  if (pc.mode == Mode::kDiff) {
    // Replace the expression by a direct subexpression.
    switch (pc.expr.kind()) {
      case AlgebraExpr::Kind::kUnion:
      case AlgebraExpr::Kind::kDifference:
      case AlgebraExpr::Kind::kProduct: {
        auto left = clone();
        left->expr = pc.expr.Left();
        out.push_back(std::move(left));
        auto right = clone();
        right->expr = pc.expr.Right();
        out.push_back(std::move(right));
        break;
      }
      case AlgebraExpr::Kind::kProject:
      case AlgebraExpr::Kind::kSelect:
      case AlgebraExpr::Kind::kRestrict: {
        auto cand = clone();
        cand->expr = pc.expr.Left();
        out.push_back(std::move(cand));
        break;
      }
      default:
        break;
    }
    // Drop one database tuple.
    for (const auto& [name, rel] : pc.db.relations()) {
      for (size_t skip = 0; skip < static_cast<size_t>(rel.size()); ++skip) {
        auto cand = clone();
        Database db(pc.db.alphabet());
        for (const auto& [other_name, other_rel] : pc.db.relations()) {
          std::vector<Tuple> tuples(other_rel.tuples().begin(),
                                    other_rel.tuples().end());
          if (other_name == name) {
            tuples.erase(tuples.begin() + static_cast<ptrdiff_t>(skip));
          }
          Status status =
              db.Put(other_name, other_rel.arity(), std::move(tuples));
          (void)status;  // re-adding validated tuples cannot fail
        }
        cand->db = std::move(db);
        out.push_back(std::move(cand));
      }
    }
    return out;
  }
  // Crash mode: drop one op, then one tuple.
  for (size_t i = 0; i < pc.ops.size(); ++i) {
    auto cand = clone();
    cand->ops.erase(cand->ops.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(cand));
  }
  for (size_t i = 0; i < pc.ops.size(); ++i) {
    for (size_t t = 0; t < pc.ops[i].tuples.size(); ++t) {
      auto cand = clone();
      cand->ops[i].tuples.erase(cand->ops[i].tuples.begin() +
                                static_cast<ptrdiff_t>(t));
      out.push_back(std::move(cand));
    }
  }
  return out;
}

int64_t PagerDiffTarget::CaseSize(const Case& c) const {
  const auto& pc = static_cast<const PagerCase&>(c);
  int64_t size = 0;
  if (pc.mode == Mode::kDiff) {
    size += NodeCount(pc.expr);
    for (const auto& [name, rel] : pc.db.relations()) {
      (void)name;
      for (const Tuple& tuple : rel.tuples()) {
        size += 1;
        for (const std::string& field : tuple) {
          size += static_cast<int64_t>(field.size());
        }
      }
    }
    return size;
  }
  for (const PagerOp& op : pc.ops) {
    size += 1 + static_cast<int64_t>(op.name.size());
    for (const Tuple& tuple : op.tuples) {
      size += 1;
      for (const std::string& field : tuple) {
        size += static_cast<int64_t>(field.size());
      }
    }
  }
  return size;
}

// --- PlannerDiffTarget ------------------------------------------------------

namespace {

constexpr char kPlannerDir[] = "/plannerstore";

EngineOptions WrittenOrderEngineOptions() {
  EngineOptions options;
  options.rewrites.reorder_products = false;
  return options;
}

Status ApplyPlannerOp(CatalogStore* store,
                      const PlannerDiffTarget::PlannerOp& op) {
  using Kind = PlannerDiffTarget::PlannerOp::Kind;
  switch (op.kind) {
    case Kind::kPut:
      return store->PutRelation(op.name, op.arity, op.tuples);
    case Kind::kInsert:
      return store->InsertTuples(op.name, op.tuples);
    case Kind::kDrop:
      return store->DropRelation(op.name);
    case Kind::kCheckpoint:
      return store->Checkpoint();
  }
  return Status::Internal("unreachable");
}

// First difference between two statistics maps, for divergence reports.
std::string DescribeStatsDiff(const StatsMap& got, const StatsMap& want) {
  for (const auto& [name, stats] : want) {
    auto it = got.find(name);
    if (it == got.end()) {
      return "no stats entry for spilled relation '" + name + "'";
    }
    if (!(it->second == stats)) {
      return "stats for relation '" + name + "' differ\n got:  " +
             EncodeRelationStats(it->second) + "\n want: " +
             EncodeRelationStats(stats);
    }
  }
  for (const auto& [name, stats] : got) {
    (void)stats;
    if (want.count(name) == 0) {
      return "stats entry for '" + name + "' names no spilled relation";
    }
  }
  return "maps identical";
}

// The store's published statistics must cover exactly the spilled
// relations and equal a full recomputation from their heaps.  Returns
// them through `out` for the close/reopen comparison.
std::optional<Divergence> CheckStoreStats(const CatalogStore& store,
                                          const char* label, StatsMap* out) {
  std::shared_ptr<const Database> snap;
  std::shared_ptr<const PagedSet> paged;
  std::shared_ptr<const StatsMap> stats;
  store.SnapshotState(&snap, &paged, &stats);
  *out = *stats;
  StatsMap recomputed;
  for (const auto& [name, source] : *paged) {
    Result<StringRelation> rel = source->Materialize();
    if (!rel.ok()) {
      return Divergence{std::string(label) + ": spilled relation '" + name +
                        "' failed to materialise: " +
                        rel.status().ToString()};
    }
    recomputed[name] = ComputeRelationStats(*rel);
  }
  if (*stats != recomputed) {
    return Divergence{std::string(label) +
                      " statistics differ from a full recomputation: " +
                      DescribeStatsDiff(*stats, recomputed)};
  }
  return std::nullopt;
}

}  // namespace

PlannerDiffTarget::PlannerDiffTarget()
    : pool_(MakeFsaPool(Alphabet::Binary())),
      cost_engine_(),
      written_order_engine_(WrittenOrderEngineOptions()) {}

DiffTarget::CasePtr PlannerDiffTarget::Generate(RandomSource& rand) const {
  Alphabet sigma = Alphabet::Binary();
  auto c = std::make_unique<PlannerCase>();
  if (rand.Range(0, 3) != 0) {
    // diff mode (3/4 of cases).
    c->mode = Mode::kDiff;
    c->db = RandomDatabase(rand, sigma);
    if (rand.Range(0, 2) != 0) {
      // Skew the cardinalities: a bulked-up P gives the DP enumeration a
      // reason to deviate from the written order, which is exactly the
      // regime where plan shape could change answers.
      std::vector<Tuple> bulk;
      int n = rand.Range(20, 80);
      for (int i = 0; i < n; ++i) {
        bulk.push_back(RandomTuple(rand, sigma, 2, 3));
      }
      Status inflated = c->db.InsertTuples("P", std::move(bulk));
      (void)inflated;  // P always exists in RandomDatabase's schema
    }
    c->expr = RandomAlgebraExpr(rand, pool_, 4);
    if (rand.Coin()) {
      // Hand the planner statistics from a catalog that has since lost
      // tuples: c->db plays "after heavy deletes", stale_db "before".
      c->stale_stats = true;
      c->stale_db = c->db;
      std::vector<Tuple> extra;
      int n = rand.Range(1, 40);
      for (int i = 0; i < n; ++i) {
        extra.push_back(RandomTuple(rand, sigma, 2, 3));
      }
      Status grown = c->stale_db.InsertTuples("P", std::move(extra));
      (void)grown;
    }
  } else {
    c->mode = Mode::kCrash;
    c->spill_threshold = rand.Coin() ? 1 : 256;
    static const char* kNames[] = {"A", "B", "C"};
    std::map<std::string, int> live;  // relation name -> arity
    int n_ops = rand.Range(4, 12);
    for (int i = 0; i < n_ops; ++i) {
      PlannerOp op;
      int pick = rand.Range(0, 9);
      if (pick >= 4 && pick <= 6 && live.empty()) pick = 0;
      if (pick <= 3) {
        op.kind = PlannerOp::Kind::kPut;
        op.name = kNames[rand.Range(0, 2)];
        op.arity = rand.Range(1, 2);
        int n = rand.Range(0, 6);
        for (int t = 0; t < n; ++t) {
          op.tuples.push_back(RandomTuple(rand, sigma, op.arity, 2));
        }
        live[op.name] = op.arity;
      } else if (pick <= 6) {
        // An insert into a spilled relation materialises it, which must
        // take its statistics out of the store.
        op.kind = PlannerOp::Kind::kInsert;
        auto it = live.begin();
        std::advance(it, static_cast<long>(
                             rand.Below(static_cast<uint64_t>(live.size()))));
        op.name = it->first;
        int n = rand.Range(1, 4);
        for (int t = 0; t < n; ++t) {
          op.tuples.push_back(RandomTuple(rand, sigma, it->second, 2));
        }
      } else if (pick == 7) {
        op.kind = PlannerOp::Kind::kDrop;
        if (live.empty() || rand.Range(0, 7) == 0) {
          op.name = "missing";  // the semantic-rejection path
        } else {
          auto it = live.begin();
          std::advance(it, static_cast<long>(
                               rand.Below(static_cast<uint64_t>(live.size()))));
          op.name = it->first;
          live.erase(it);
        }
      } else {
        // Checkpoints spill relations and persist their statistics as
        // kStats side-ops, so they appear often.
        op.kind = PlannerOp::Kind::kCheckpoint;
      }
      c->ops.push_back(std::move(op));
    }
  }
  return c;
}

std::optional<Divergence> PlannerDiffTarget::Run(const Case& c) const {
  const auto& pc = static_cast<const PlannerCase&>(c);
  return pc.mode == Mode::kDiff ? RunDiff(pc) : RunCrash(pc);
}

std::optional<Divergence> PlannerDiffTarget::RunDiff(
    const PlannerCase& pc) const {
  // The naive evaluator is the oracle: reference BFS, no planner.
  EvalOptions options = EngineSweepOptions();
  Result<StringRelation> naive = EvalAlgebra(pc.expr, pc.db, options);

  StatsMap supplied;
  const Database& stats_src = pc.stale_stats ? pc.stale_db : pc.db;
  for (const auto& [name, rel] : stats_src.relations()) {
    supplied[name] = ComputeRelationStats(rel);
  }

  EvalOptions with_stats = options;
  with_stats.stats = &supplied;
  ExecStats exec;
  Result<StringRelation> costed =
      cost_engine_.Execute(pc.expr, pc.db, with_stats, &exec);
  Result<StringRelation> self_stats =
      cost_engine_.Execute(pc.expr, pc.db, options);
  Result<StringRelation> written_order =
      written_order_engine_.Execute(pc.expr, pc.db, options);

  if (!naive.ok()) {
    // A per-call limit error must surface on every route.
    if (costed.ok() || self_stats.ok() || written_order.ok()) {
      return Divergence{"naive evaluation failed (" +
                        naive.status().ToString() +
                        ") but a planner route succeeded: " +
                        pc.expr.ToString()};
    }
  } else {
    struct Route {
      const char* label;
      const Result<StringRelation>* result;
    };
    const Route routes[] = {
        {pc.stale_stats ? "cost planner (stale stats)"
                        : "cost planner (supplied stats)",
         &costed},
        {"cost planner (self-computed stats)", &self_stats},
        {"written order (reordering off)", &written_order}};
    for (const Route& route : routes) {
      if (!route.result->ok()) {
        return Divergence{std::string(route.label) +
                          " failed where the naive evaluator succeeded: " +
                          route.result->status().ToString() + " on " +
                          pc.expr.ToString()};
      }
      if ((*route.result)->tuples() != naive->tuples()) {
        return Divergence{std::string(route.label) +
                          " answer differs from naive: " + pc.expr.ToString() +
                          "\nnaive:   " + naive->ToString() + "\nplanner: " +
                          (*route.result)->ToString()};
      }
    }
  }

  // Estimates are advisory but must stay sane — also on a failed run,
  // whose partial counters the engine still fills in.
  for (const ExecStats::EstActRow& row : exec.operators) {
    if (!std::isfinite(row.est) || row.est < 0) {
      return Divergence{"operator '" + row.op +
                        "' has an insane cardinality estimate " +
                        std::to_string(row.est) + " on " + pc.expr.ToString()};
    }
    if (row.act < 0) {
      return Divergence{"operator '" + row.op +
                        "' reports a negative actual row count " +
                        std::to_string(row.act) + " on " + pc.expr.ToString()};
    }
  }
  return std::nullopt;
}

std::optional<Divergence> PlannerDiffTarget::RunCrash(
    const PlannerCase& pc) const {
  Alphabet sigma = Alphabet::Binary();
  MemEnv mem;
  StoreOptions options;
  options.env = &mem;
  options.spill_threshold_bytes = pc.spill_threshold;
  auto store = CatalogStore::Open(kPlannerDir, sigma, options);
  if (!store.ok()) {
    return Divergence{"store open failed: " + store.status().ToString()};
  }
  for (const PlannerOp& op : pc.ops) {
    Status status = ApplyPlannerOp(store->get(), op);
    (void)status;  // semantic rejections are part of the workload
  }
  StatsMap pre_close;
  if (auto d = CheckStoreStats(**store, "live", &pre_close)) return d;

  Status closed = (*store)->Close();
  if (!closed.ok()) {
    return Divergence{"close failed: " + closed.ToString()};
  }
  RecoveryReport report;
  auto reopened = CatalogStore::Open(kPlannerDir, sigma, options, &report);
  if (!reopened.ok()) {
    return Divergence{"reopen failed: " + reopened.status().ToString() +
                      " (report: " + report.ToString() + ")"};
  }
  StatsMap recovered;
  if (auto d = CheckStoreStats(**reopened, "recovered", &recovered)) return d;
  if (recovered != pre_close) {
    return Divergence{
        "reopened statistics differ from the pre-close map (report: " +
        report.ToString() + "): " + DescribeStatsDiff(recovered, pre_close)};
  }
  return std::nullopt;
}

std::string PlannerDiffTarget::Serialize(const Case& c) const {
  const auto& pc = static_cast<const PlannerCase&>(c);
  std::string out = "planner 1\n";
  out += "sigma " + AlphabetChars(pc.db.alphabet()) + "\n";
  out += std::string("mode ") +
         (pc.mode == Mode::kDiff ? "diff" : "crash") + "\n";
  out += "stale " + std::string(pc.stale_stats ? "1" : "0") + "\n";
  out += "spill " + std::to_string(pc.spill_threshold) + "\n";
  auto append_rels = [&out](const char* keyword, const Database& db) {
    out += std::string(keyword) + " " + std::to_string(db.relations().size()) +
           "\n";
    for (const auto& [name, rel] : db.relations()) {
      out += "rel " + name + " " + std::to_string(rel.arity()) + " " +
             std::to_string(rel.size()) + "\n";
      for (const Tuple& tuple : rel.tuples()) {
        out += EncodeTupleLine(tuple) + "\n";
      }
    }
  };
  if (pc.mode == Mode::kDiff) {
    append_rels("rels", pc.db);
    if (pc.stale_stats) append_rels("srels", pc.stale_db);
    std::vector<std::string> fsa_texts;
    std::map<std::string, int> fsa_index;
    CollectSelectFsas(pc.expr, &fsa_texts, &fsa_index);
    out += "fsas " + std::to_string(fsa_texts.size()) + "\n";
    for (const std::string& text : fsa_texts) out += text;
    out += "expr " + WriteSexpr(pc.expr, fsa_index) + "\n";
  } else {
    out += "ops " + std::to_string(pc.ops.size()) + "\n";
    for (const PlannerOp& op : pc.ops) {
      switch (op.kind) {
        case PlannerOp::Kind::kPut:
          out += "put " + op.name + " " + std::to_string(op.arity) + " " +
                 std::to_string(op.tuples.size()) + "\n";
          for (const Tuple& tuple : op.tuples) {
            out += EncodeTupleLine(tuple) + "\n";
          }
          break;
        case PlannerOp::Kind::kInsert:
          out += "ins " + op.name + " " + std::to_string(op.tuples.size()) +
                 "\n";
          for (const Tuple& tuple : op.tuples) {
            out += EncodeTupleLine(tuple) + "\n";
          }
          break;
        case PlannerOp::Kind::kDrop:
          out += "drop " + op.name + "\n";
          break;
        case PlannerOp::Kind::kCheckpoint:
          out += "ckpt\n";
          break;
      }
    }
  }
  return out;
}

Result<DiffTarget::CasePtr> PlannerDiffTarget::Deserialize(
    const std::string& text) const {
  LineCursor cursor(text);
  STRDB_ASSIGN_OR_RETURN(std::string header, cursor.Take("header"));
  if (header != "planner 1") {
    return Status::InvalidArgument("bad planner case header '" + header + "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string sigma_line, cursor.Take("sigma"));
  std::vector<std::string> sigma_tokens = SplitTokens(sigma_line);
  if (sigma_tokens.size() != 2 || sigma_tokens[0] != "sigma") {
    return Status::InvalidArgument("bad sigma line '" + sigma_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(Alphabet sigma, Alphabet::Create(sigma_tokens[1]));

  auto c = std::make_unique<PlannerCase>();
  STRDB_ASSIGN_OR_RETURN(std::string mode_line, cursor.Take("mode"));
  std::vector<std::string> mode_tokens = SplitTokens(mode_line);
  if (mode_tokens.size() != 2 || mode_tokens[0] != "mode") {
    return Status::InvalidArgument("bad mode line '" + mode_line + "'");
  }
  if (mode_tokens[1] == "diff") {
    c->mode = Mode::kDiff;
  } else if (mode_tokens[1] == "crash") {
    c->mode = Mode::kCrash;
  } else {
    return Status::InvalidArgument("unknown planner mode '" + mode_tokens[1] +
                                   "'");
  }
  STRDB_ASSIGN_OR_RETURN(std::string stale_line, cursor.Take("stale"));
  std::vector<std::string> stale_tokens = SplitTokens(stale_line);
  if (stale_tokens.size() != 2 || stale_tokens[0] != "stale") {
    return Status::InvalidArgument("bad stale line '" + stale_line + "'");
  }
  c->stale_stats = stale_tokens[1] == "1";
  STRDB_ASSIGN_OR_RETURN(std::string spill_line, cursor.Take("spill"));
  std::vector<std::string> spill_tokens = SplitTokens(spill_line);
  if (spill_tokens.size() != 2 || spill_tokens[0] != "spill") {
    return Status::InvalidArgument("bad spill line '" + spill_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(c->spill_threshold, ParseInt(spill_tokens[1]));
  if (c->spill_threshold < 0) {
    return Status::InvalidArgument("negative spill threshold");
  }

  auto take_rels = [&cursor, &sigma](const char* keyword,
                                     Database* db) -> Status {
    auto rels_line = cursor.Take(keyword);
    if (!rels_line.ok()) return rels_line.status();
    std::vector<std::string> rels_tokens = SplitTokens(*rels_line);
    if (rels_tokens.size() != 2 || rels_tokens[0] != keyword) {
      return Status::InvalidArgument(std::string("bad ") + keyword +
                                     " line '" + *rels_line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t num_rels, ParseInt(rels_tokens[1]));
    for (int64_t r = 0; r < num_rels; ++r) {
      STRDB_ASSIGN_OR_RETURN(std::string rel_line, cursor.Take("rel"));
      std::vector<std::string> rel_tokens = SplitTokens(rel_line);
      if (rel_tokens.size() != 4 || rel_tokens[0] != "rel") {
        return Status::InvalidArgument("bad rel line '" + rel_line + "'");
      }
      STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(rel_tokens[2]));
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(rel_tokens[3]));
      std::vector<Tuple> tuples;
      for (int64_t i = 0; i < n; ++i) {
        STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(line));
        tuples.push_back(std::move(tuple));
      }
      STRDB_RETURN_IF_ERROR(
          db->Put(rel_tokens[1], static_cast<int>(arity), std::move(tuples)));
    }
    return Status::OK();
  };

  if (c->mode == Mode::kDiff) {
    Database db(sigma);
    STRDB_RETURN_IF_ERROR(take_rels("rels", &db));
    c->db = std::move(db);
    if (c->stale_stats) {
      Database stale(sigma);
      STRDB_RETURN_IF_ERROR(take_rels("srels", &stale));
      c->stale_db = std::move(stale);
    }
    STRDB_ASSIGN_OR_RETURN(std::string fsas_line, cursor.Take("fsas"));
    std::vector<std::string> fsas_tokens = SplitTokens(fsas_line);
    if (fsas_tokens.size() != 2 || fsas_tokens[0] != "fsas") {
      return Status::InvalidArgument("bad fsas line '" + fsas_line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(int64_t num_fsas, ParseInt(fsas_tokens[1]));
    std::vector<Fsa> fsas;
    for (int64_t i = 0; i < num_fsas; ++i) {
      STRDB_ASSIGN_OR_RETURN(std::string block, TakeFsaBlock(&cursor));
      STRDB_ASSIGN_OR_RETURN(Fsa fsa, DeserializeFsa(sigma, block));
      fsas.push_back(std::move(fsa));
    }
    STRDB_ASSIGN_OR_RETURN(std::string expr_line, cursor.Take("expr"));
    if (expr_line.rfind("expr ", 0) != 0) {
      return Status::InvalidArgument("bad expr line '" + expr_line + "'");
    }
    std::vector<std::string> tokens = SexprTokens(expr_line.substr(5));
    size_t pos = 0;
    STRDB_ASSIGN_OR_RETURN(AlgebraExpr expr, ParseSexpr(tokens, &pos, fsas));
    if (pos != tokens.size()) {
      return Status::InvalidArgument("trailing tokens after expression");
    }
    c->expr = std::move(expr);
    return DiffTarget::CasePtr(std::move(c));
  }

  STRDB_ASSIGN_OR_RETURN(std::string ops_line, cursor.Take("ops"));
  std::vector<std::string> ops_tokens = SplitTokens(ops_line);
  if (ops_tokens.size() != 2 || ops_tokens[0] != "ops") {
    return Status::InvalidArgument("bad ops line '" + ops_line + "'");
  }
  STRDB_ASSIGN_OR_RETURN(int64_t n_ops, ParseInt(ops_tokens[1]));
  for (int64_t i = 0; i < n_ops; ++i) {
    STRDB_ASSIGN_OR_RETURN(std::string line, cursor.Take("op"));
    std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty()) {
      return Status::InvalidArgument("empty op line");
    }
    PlannerOp op;
    if (tokens[0] == "put" && tokens.size() == 4) {
      op.kind = PlannerOp::Kind::kPut;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t arity, ParseInt(tokens[2]));
      op.arity = static_cast<int>(arity);
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[3]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "ins" && tokens.size() == 3) {
      op.kind = PlannerOp::Kind::kInsert;
      op.name = tokens[1];
      STRDB_ASSIGN_OR_RETURN(int64_t n, ParseInt(tokens[2]));
      for (int64_t t = 0; t < n; ++t) {
        STRDB_ASSIGN_OR_RETURN(std::string tline, cursor.Take("tuple"));
        STRDB_ASSIGN_OR_RETURN(Tuple tuple, DecodeTupleLine(tline));
        op.tuples.push_back(std::move(tuple));
      }
    } else if (tokens[0] == "drop" && tokens.size() == 2) {
      op.kind = PlannerOp::Kind::kDrop;
      op.name = tokens[1];
    } else if (tokens[0] == "ckpt" && tokens.size() == 1) {
      op.kind = PlannerOp::Kind::kCheckpoint;
    } else {
      return Status::InvalidArgument("bad op line '" + line + "'");
    }
    c->ops.push_back(std::move(op));
  }
  return DiffTarget::CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> PlannerDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& pc = static_cast<const PlannerCase&>(c);
  std::vector<CasePtr> out;
  auto clone = [&] {
    auto cand = std::make_unique<PlannerCase>();
    cand->mode = pc.mode;
    cand->db = pc.db;
    cand->expr = pc.expr;
    cand->stale_stats = pc.stale_stats;
    cand->stale_db = pc.stale_db;
    cand->ops = pc.ops;
    cand->spill_threshold = pc.spill_threshold;
    return cand;
  };
  if (pc.mode == Mode::kDiff) {
    // Replace the expression by a direct subexpression.
    switch (pc.expr.kind()) {
      case AlgebraExpr::Kind::kUnion:
      case AlgebraExpr::Kind::kDifference:
      case AlgebraExpr::Kind::kProduct: {
        auto left = clone();
        left->expr = pc.expr.Left();
        out.push_back(std::move(left));
        auto right = clone();
        right->expr = pc.expr.Right();
        out.push_back(std::move(right));
        break;
      }
      case AlgebraExpr::Kind::kProject:
      case AlgebraExpr::Kind::kSelect:
      case AlgebraExpr::Kind::kRestrict: {
        auto cand = clone();
        cand->expr = pc.expr.Left();
        out.push_back(std::move(cand));
        break;
      }
      default:
        break;
    }
    // Drop the stale-statistics dimension entirely.
    if (pc.stale_stats) {
      auto cand = clone();
      cand->stale_stats = false;
      cand->stale_db = Database(pc.db.alphabet());
      out.push_back(std::move(cand));
    }
    // Drop one database tuple (the stale catalog keeps its copy, so the
    // statistics stay just as wrong while the case shrinks).
    for (const auto& [name, rel] : pc.db.relations()) {
      for (size_t skip = 0; skip < static_cast<size_t>(rel.size()); ++skip) {
        auto cand = clone();
        Database db(pc.db.alphabet());
        for (const auto& [other_name, other_rel] : pc.db.relations()) {
          std::vector<Tuple> tuples(other_rel.tuples().begin(),
                                    other_rel.tuples().end());
          if (other_name == name) {
            tuples.erase(tuples.begin() + static_cast<ptrdiff_t>(skip));
          }
          Status status =
              db.Put(other_name, other_rel.arity(), std::move(tuples));
          (void)status;  // re-adding validated tuples cannot fail
        }
        cand->db = std::move(db);
        out.push_back(std::move(cand));
      }
    }
    return out;
  }
  // Crash mode: drop one op, then one tuple.
  for (size_t i = 0; i < pc.ops.size(); ++i) {
    auto cand = clone();
    cand->ops.erase(cand->ops.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(cand));
  }
  for (size_t i = 0; i < pc.ops.size(); ++i) {
    for (size_t t = 0; t < pc.ops[i].tuples.size(); ++t) {
      auto cand = clone();
      cand->ops[i].tuples.erase(cand->ops[i].tuples.begin() +
                                static_cast<ptrdiff_t>(t));
      out.push_back(std::move(cand));
    }
  }
  return out;
}

int64_t PlannerDiffTarget::CaseSize(const Case& c) const {
  const auto& pc = static_cast<const PlannerCase&>(c);
  int64_t size = 0;
  auto count_db = [&size](const Database& db) {
    for (const auto& [name, rel] : db.relations()) {
      (void)name;
      for (const Tuple& tuple : rel.tuples()) {
        size += 1;
        for (const std::string& field : tuple) {
          size += static_cast<int64_t>(field.size());
        }
      }
    }
  };
  if (pc.mode == Mode::kDiff) {
    size += NodeCount(pc.expr) + (pc.stale_stats ? 1 : 0);
    count_db(pc.db);
    if (pc.stale_stats) count_db(pc.stale_db);
    return size;
  }
  for (const PlannerOp& op : pc.ops) {
    size += 1 + static_cast<int64_t>(op.name.size());
    for (const Tuple& tuple : op.tuples) {
      size += 1;
      for (const std::string& field : tuple) {
        size += static_cast<int64_t>(field.size());
      }
    }
  }
  return size;
}

}  // namespace testgen
}  // namespace strdb
