#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "calculus/eval.h"
#include "calculus/parser.h"
#include "calculus/query.h"
#include "testing/targets.h"

namespace strdb {
namespace testgen {

namespace {

using TranslationCase = TranslationDiffTarget::TranslationCase;

const Alphabet& CaseAlphabet() {
  static const Alphabet* const alphabet = new Alphabet(Alphabet::Binary());
  return *alphabet;
}

// Catalog strings are at most this long, so the truncations 0..max+1
// stay at most kMaxLen + 1 and the calculus evaluator's Σ^{<=l} small.
constexpr int kMaxLen = 3;

// The calculus evaluator enumerates |Σ^{<=l}|^(variables); a case past
// this many steps at some l is not compared there.
constexpr int64_t kNaiveSteps = 300'000;

ResourceLimits CaseLimits() {
  ResourceLimits limits;
  limits.max_steps = 400'000;
  limits.max_rows = 100'000;
  return limits;
}

struct RelationShape {
  const char* name;
  int arity;
};
constexpr RelationShape kRelations[] = {{"U", 1}, {"B", 2}, {"T", 3}};
const char* const kVars[] = {"x", "y", "z"};

// R(args) of arity at most `max_arity`, every argument drawn from the
// first `nvars` of x, y, z: repeated variables (B(x, x), T(y, x, y)) and
// permuted orders (B(y, x)) both come up often.
std::string RandomAtom(RandomSource& rand, int nvars, int max_arity = 3) {
  const RelationShape& rel =
      kRelations[rand.Below(static_cast<uint64_t>(max_arity))];
  std::string out = std::string(rel.name) + "(";
  for (int i = 0; i < rel.arity; ++i) {
    out += (i > 0 ? ", " : "") + std::string(kVars[rand.Below(nvars)]);
  }
  return out + ")";
}

// An atom over exactly `vars` (each at least once, in a random order,
// extra positions repeating one of them): the body of a guarded
// negation with the guard's free variables.
std::string AtomOver(RandomSource& rand, std::vector<std::string> vars) {
  std::vector<const RelationShape*> fits;
  for (const RelationShape& rel : kRelations) {
    if (rel.arity >= static_cast<int>(vars.size())) fits.push_back(&rel);
  }
  const RelationShape& rel = *fits[rand.Below(fits.size())];
  std::vector<std::string> args = vars;
  while (static_cast<int>(args.size()) < rel.arity) {
    args.push_back(vars[rand.Below(vars.size())]);
  }
  for (size_t i = args.size(); i > 1; --i) {
    std::swap(args[i - 1], args[rand.Below(i)]);
  }
  std::string out = std::string(rel.name) + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    out += (i > 0 ? ", " : "") + args[i];
  }
  return out + ")";
}

// A string formula over exactly `vars` (one or two of them): a fixed
// shape (a first letter, "contains ab", all b, equality, prefix) or a
// RandomStringFormulaText leaf with x and y renamed.
std::string StringOver(RandomSource& rand,
                       const std::vector<std::string>& vars) {
  const std::string v = vars[0];
  const std::string w = vars.size() > 1 ? vars[1] : vars[0];
  const std::string text = RandomStringFormulaText(rand, CaseAlphabet(), 2);
  // A window never lists one variable twice.
  if (rand.Coin() && (vars.size() > 1 || text.find('y') == std::string::npos)) {
    std::string out;
    for (char c : text) {
      out += c == 'x' ? v : c == 'y' ? w : std::string(1, c);
    }
    return "(" + out + ")";
  }
  if (vars.size() == 1) {
    switch (rand.Below(3)) {
      case 0:
        return "([" + v + "]l(" + v + " = 'a'))";
      case 1:
        return "(([" + v + "]l(true))* . [" + v + "]l(" + v + " = 'a') . [" +
               v + "]l(" + v + " = 'b'))";
      default:
        return "(([" + v + "]l(" + v + " = 'b'))* . [" + v + "]l(" + v +
               " = ~))";
    }
  }
  const std::string tapes = "[" + v + "," + w + "]l";
  return rand.Coin() ? "((" + tapes + "(" + v + " = " + w + "))* . " + tapes +
                           "(" + v + " = " + w + " = ~))"
                     : "((" + tapes + "(" + v + " = " + w + "))* . [" + v +
                           "]l(" + v + " = ~))";
}

std::vector<std::string> FreeVarsOf(const std::string& text) {
  Result<CalcFormula> f = ParseCalcFormula(text);
  return f.ok() ? f->FreeVars() : std::vector<std::string>{};
}

// A query body: atoms, joins, string formulae, guarded negation over
// relational and string bodies, a disjunction outside §5's class, and ∃
// over any of the positive shapes.
std::string RandomBody(RandomSource& rand) {
  const int nvars = rand.Range(1, 3);
  std::string atom = RandomAtom(rand, nvars);
  std::vector<std::string> free = FreeVarsOf(atom);
  // A join compiles one automaton over both atoms' columns, whose size
  // grows steeply with the tape count: keep joins to four columns.
  const int join_arity = atom[0] == 'T' ? 1 : 2;
  std::string body;
  switch (rand.Below(7)) {
    case 0:
      body = atom;
      break;
    case 1:
      body = atom + " & " + RandomAtom(rand, nvars, join_arity);
      break;
    case 2:
      body = atom + " & " +
             StringOver(rand, free.size() > 2
                                  ? std::vector<std::string>{free[0], free[1]}
                                  : free);
      break;
    case 3:
      body = atom + " & !" + AtomOver(rand, free);
      break;
    case 4:
      body = free.size() > 2 ? atom + " & !" + AtomOver(rand, free)
                             : atom + " & !" + StringOver(rand, free);
      break;
    case 5:
      body = atom + " | " + AtomOver(rand, free);
      break;
    default:
      body = atom + " & " + RandomAtom(rand, nvars, join_arity) + " & " +
             StringOver(rand, {free[0]});
      break;
  }
  free = FreeVarsOf(body);
  if (free.size() >= 2 && rand.Below(3) == 0) {
    body = "exists " + free[rand.Below(free.size())] + ": (" + body + ")";
  }
  return body;
}

// Half the texts have no head, so their outputs ascend; the others list
// the free variables in a random order.
std::string RandomText(RandomSource& rand) {
  std::string body = RandomBody(rand);
  std::vector<std::string> head = FreeVarsOf(body);
  if (head.empty() || rand.Coin()) return body;
  for (size_t i = head.size(); i > 1; --i) {
    std::swap(head[i - 1], head[rand.Below(i)]);
  }
  std::string out;
  for (size_t i = 0; i < head.size(); ++i) out += (i > 0 ? ", " : "") + head[i];
  return out + " | " + body;
}

std::vector<Tuple> RandomTuples(RandomSource& rand, int arity) {
  std::vector<Tuple> tuples;
  const int n = rand.Range(0, 4);
  for (int i = 0; i < n; ++i) {
    Tuple t = RandomTuple(rand, CaseAlphabet(), arity, kMaxLen);
    // Repeated columns, so repeated variables have something to match.
    if (arity > 1 && rand.Below(3) == 0) t[static_cast<size_t>(arity) - 1] = t[0];
    tuples.push_back(std::move(t));
  }
  return tuples;
}

// `rel`'s columns, given in `from` variable order, put in `to` order.
Result<StringRelation> Reorder(const StringRelation& rel,
                               const std::vector<std::string>& from,
                               const std::vector<std::string>& to) {
  StringRelation out(rel.arity());
  for (const Tuple& t : rel.tuples()) {
    Tuple reordered;
    for (const std::string& v : to) {
      auto it = std::find(from.begin(), from.end(), v);
      reordered.push_back(t[static_cast<size_t>(it - from.begin())]);
    }
    STRDB_RETURN_IF_ERROR(out.Insert(std::move(reordered)));
  }
  return out;
}

std::unique_ptr<TranslationCase> Clone(const TranslationCase& c) {
  auto copy = std::make_unique<TranslationCase>();
  copy->db = c.db;
  copy->text = c.text;
  return copy;
}

}  // namespace

Result<AlgebraExpr> TranslationDiffTarget::Algebra(const Query& query) const {
  return query.plan();
}

DiffTarget::CasePtr TranslationDiffTarget::Generate(RandomSource& rand) const {
  auto c = std::make_unique<TranslationCase>();
  c->text = RandomText(rand);
  for (const RelationShape& rel : kRelations) {
    (void)c->db.Put(rel.name, rel.arity, RandomTuples(rand, rel.arity));
  }
  return c;
}

std::optional<Divergence> TranslationDiffTarget::Run(const Case& c) const {
  const auto& tc = static_cast<const TranslationCase&>(c);
  Result<Query> q = Query::Compile(tc.text, tc.db.alphabet());
  if (!q.ok()) return std::nullopt;  // generated texts parse; shrunk ones may not
  const std::vector<std::string> vars = q->formula().FreeVars();
  const std::vector<std::string>& outputs = q->outputs();
  Result<AlgebraExpr> algebra = Algebra(*q);
  if (!algebra.ok()) {
    return Divergence{"translation failed: " + algebra.status().ToString()};
  }

  // ⟦φ⟧^l from the calculus evaluator, in the head's column order.
  auto calculus = [&](int l) -> Result<StringRelation> {
    CalcEvalOptions options;
    options.truncation = l;
    options.max_steps = kNaiveSteps;
    STRDB_ASSIGN_OR_RETURN(StringRelation rel,
                           EvalCalcNaive(q->formula(), tc.db, options));
    return Reorder(rel, vars, outputs);
  };
  auto diverge = [&](const std::string& where, const std::string& route,
                     const Result<StringRelation>& got,
                     const Result<StringRelation>& want) {
    return Divergence{tc.text + " at " + where + ": " + route +
                      " differs from the calculus evaluator\n  " + route +
                      ": " + Answer(got) + "\n  calculus: " + Answer(want) +
                      "\n  algebra: " + algebra->ToString()};
  };

  // Every l up to max(R, db)+1, and the inferred one, which the Query
  // facade also serves as deployed.
  std::set<int> truncations;
  for (int l = 0; l <= tc.db.MaxStringLength() + 1; ++l) truncations.insert(l);
  Result<int> inferred = q->InferTruncation(tc.db);
  if (inferred.ok() && *inferred <= kMaxLen + 1) truncations.insert(*inferred);
  for (int l : truncations) {
    Result<StringRelation> want = calculus(l);
    if (!want.ok() && want.status().code() == StatusCode::kResourceExhausted) {
      continue;
    }
    const std::string where = "l=" + std::to_string(l);
    EvalOptions options;
    options.truncation = l;
    options.max_tuples = 100'000;
    ResourceBudget naive_budget(CaseLimits());
    options.budget = &naive_budget;
    Result<StringRelation> naive = EvalAlgebra(*algebra, tc.db, options);
    if (!SameAnswer(naive, want)) {
      return diverge(where, "EvalAlgebra", naive, want);
    }
    ResourceBudget engine_budget(CaseLimits());
    options.budget = &engine_budget;
    Result<StringRelation> engine = engine_.Execute(*algebra, tc.db, options);
    if (!SameAnswer(engine, want)) return diverge(where, "engine", engine, want);
    if (inferred.ok() && l == *inferred) {
      QueryOptions served_options;
      served_options.limits = CaseLimits();
      Result<StringRelation> served = q->Execute(tc.db, served_options);
      if (!SameAnswer(served, want)) {
        return diverge("the inferred " + where, "Query::Execute", served,
                       want);
      }
    }
  }
  return std::nullopt;
}

std::string TranslationDiffTarget::Serialize(const Case& c) const {
  const auto& tc = static_cast<const TranslationCase&>(c);
  std::ostringstream out;
  out << "text " << tc.text << "\n";
  for (const auto& [name, rel] : tc.db.relations()) {
    out << "rel " << name << " " << rel.arity()
        << TupleWords({rel.tuples().begin(), rel.tuples().end()}) << "\n";
  }
  return out.str();
}

Result<DiffTarget::CasePtr> TranslationDiffTarget::Deserialize(
    const std::string& text) const {
  std::istringstream in(text);
  auto c = std::make_unique<TranslationCase>();
  std::string line;
  if (!std::getline(in, line) || line.rfind("text ", 0) != 0) {
    return Status::InvalidArgument("translation case must start with 'text '");
  }
  c->text = line.substr(5);
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string verb, name;
    int arity = 0;
    if (!(fields >> verb >> name >> arity) || verb != "rel" || arity < 1) {
      return Status::InvalidArgument("bad relation line '" + line + "'");
    }
    STRDB_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                           ParseTupleWords(fields, arity));
    STRDB_RETURN_IF_ERROR(c->db.Put(name, arity, std::move(tuples)));
  }
  return CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> TranslationDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& tc = static_cast<const TranslationCase&>(c);
  std::vector<CasePtr> out;
  for (const auto& [name, rel] : tc.db.relations()) {
    std::vector<Tuple> tuples(rel.tuples().begin(), rel.tuples().end());
    for (size_t i = 0; i < tuples.size(); ++i) {
      // Without tuple i, and with tuple i's longest string one letter
      // shorter.
      for (bool shorten : {false, true}) {
        std::vector<Tuple> fewer = tuples;
        if (shorten) {
          auto longest = std::max_element(
              fewer[i].begin(), fewer[i].end(),
              [](const std::string& a, const std::string& b) {
                return a.size() < b.size();
              });
          if (longest->empty()) continue;
          longest->pop_back();
        } else {
          fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
        }
        auto copy = Clone(tc);
        if (copy->db.Put(name, rel.arity(), std::move(fewer)).ok()) {
          out.push_back(std::move(copy));
        }
      }
    }
  }
  // Without the head.
  size_t pipe = tc.text.find(" | ");
  if (pipe != std::string::npos &&
      tc.text.find_first_of("&!:(", 0) > pipe) {
    auto copy = Clone(tc);
    copy->text = tc.text.substr(pipe + 3);
    out.push_back(std::move(copy));
  }
  return out;
}

int64_t TranslationDiffTarget::CaseSize(const Case& c) const {
  const auto& tc = static_cast<const TranslationCase&>(c);
  int64_t size = static_cast<int64_t>(tc.text.size());
  for (const auto& [name, rel] : tc.db.relations()) {
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) size += 1 + static_cast<int64_t>(s.size());
    }
  }
  return size;
}

}  // namespace testgen
}  // namespace strdb
