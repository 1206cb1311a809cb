#include "testing/generators.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "fsa/compile.h"
#include "strform/parser.h"
#include "testing/corpus.h"

namespace strdb {
namespace testgen {

namespace {

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "generator setup failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

Fsa CompileText(const char* text, const Alphabet& sigma,
                const std::vector<std::string>& vars) {
  return OrDie(CompileStringFormula(OrDie(ParseStringFormula(text), text),
                                    sigma, vars),
               text);
}

}  // namespace

Fsa RandomFsa(RandomSource& rand, const Alphabet& sigma,
              const FsaGenOptions& options) {
  int tapes = rand.Range(options.min_tapes, options.max_tapes);
  Fsa fsa(sigma, tapes);
  int states = rand.Range(options.min_states, options.max_states);
  while (fsa.num_states() < states) fsa.AddState();
  for (int s = 0; s < states; ++s) {
    if (rand.Range(0, 3) == 0) fsa.SetFinal(s);
  }
  int want = rand.Range(options.min_transitions, options.max_transitions);
  for (int t = 0; t < want; ++t) {
    Transition tr;
    tr.from = rand.Range(0, states - 1);
    tr.to = rand.Range(0, states - 1);
    for (int i = 0; i < tapes; ++i) {
      int pick = rand.Range(0, sigma.size() + 1);
      Sym read = pick < sigma.size()    ? static_cast<Sym>(pick)
                 : pick == sigma.size() ? kLeftEnd
                                        : kRightEnd;
      Move move = options.one_way_only
                      ? static_cast<Move>(rand.Range(0, 1))
                      : static_cast<Move>(rand.Range(-1, 1));
      if (read == kLeftEnd && move == kBack) move = kStay;
      if (read == kRightEnd && move == kFwd) move = kStay;
      tr.read.push_back(read);
      tr.move.push_back(move);
    }
    Status s = fsa.AddTransition(std::move(tr));
    if (!s.ok()) {
      // Unreachable by construction: the draw above satisfies the
      // endmarker discipline.
      std::fprintf(stderr, "RandomFsa produced an invalid transition: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  }
  return fsa;
}

bool HasBackwardMove(const Fsa& fsa) {
  for (const Transition& t : fsa.transitions()) {
    for (Move m : t.move) {
      if (m == kBack) return true;
    }
  }
  return false;
}

Tuple RandomTuple(RandomSource& rand, const Alphabet& sigma, int tapes,
                  int max_len) {
  Tuple tuple;
  tuple.reserve(static_cast<size_t>(tapes));
  for (int i = 0; i < tapes; ++i) {
    tuple.push_back(rand.String(sigma, 0, max_len));
  }
  return tuple;
}

std::string TupleWords(const std::vector<Tuple>& tuples) {
  std::string out;
  for (const Tuple& t : tuples) {
    out += ' ';
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ',';
      out += t[i].empty() ? "-" : t[i];
    }
  }
  return out;
}

Result<std::vector<Tuple>> ParseTupleWords(std::istream& in, int arity) {
  std::vector<Tuple> tuples;
  std::string word;
  while (in >> word) {
    Tuple tuple;
    std::istringstream parts(word);
    std::string part;
    while (std::getline(parts, part, ',')) {
      tuple.push_back(part == "-" ? "" : part);
    }
    if (static_cast<int>(tuple.size()) != arity) {
      return Status::InvalidArgument("tuple '" + word + "' is not of arity " +
                                     std::to_string(arity));
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

std::string Answer(const Result<StringRelation>& r) {
  return r.ok() ? "ok " + r->ToString() : r.status().ToString();
}

bool SameAnswer(const Result<StringRelation>& a,
                const Result<StringRelation>& b) {
  for (const Result<StringRelation>* r : {&a, &b}) {
    if (!r->ok() && r->status().code() == StatusCode::kResourceExhausted) {
      return true;
    }
  }
  if (a.ok() != b.ok()) return false;
  return a.ok() ? a->tuples() == b->tuples()
                : a.status().code() == b.status().code();
}

Database RandomDatabase(RandomSource& rand, const Alphabet& sigma) {
  Database db(sigma);
  auto fill = [&](const std::string& name, int arity) {
    std::vector<Tuple> tuples;
    int n = rand.Range(0, 3);
    for (int i = 0; i < n; ++i) {
      tuples.push_back(RandomTuple(rand, sigma, arity, 2));
    }
    Status s = db.Put(name, arity, std::move(tuples));
    if (!s.ok()) {
      std::fprintf(stderr, "RandomDatabase Put failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  };
  fill("R0", 1);
  fill("R1", 1);
  fill("P", 2);
  return db;
}

FsaPool MakeFsaPool(const Alphabet& sigma) {
  return FsaPool{
      CompileText("([x]l(!(x = ~)) . [x]l(!(x = ~)))* . [x]l(x = ~)", sigma,
                  {"x"}),
      CompileText("([x,y]l(x = y))* . [x,y]l(x = ~ & y = ~)", sigma,
                  {"x", "y"}),
      CompileText("([x,y]l(x = y))* . [x,y]l(x = ~)", sigma, {"x", "y"}),
      CompileText("([x,y]l(x = y))* . ([x,z]l(x = z))* . "
                  "[x,y,z]l(x = ~ & y = ~ & z = ~)",
                  sigma, {"x", "y", "z"}),
  };
}

const Fsa& PoolMachine(const FsaPool& pool, RandomSource& rand, int tapes) {
  switch (tapes) {
    case 1:
      return pool.even1;
    case 2:
      return rand.Coin() ? pool.eq2 : pool.prefix2;
    default:
      return pool.concat3;
  }
}

AlgebraExpr RandomAlgebraExpr(RandomSource& rand, const FsaPool& pool,
                              int depth) {
  if (depth <= 0 || rand.Range(0, 5) == 0) {
    switch (rand.Range(0, 3)) {
      case 0:
        return AlgebraExpr::Relation("R0", 1);
      case 1:
        return AlgebraExpr::Relation("R1", 1);
      case 2:
        return AlgebraExpr::Relation("P", 2);
      default:
        return AlgebraExpr::SigmaL(rand.Range(0, 2));
    }
  }
  switch (rand.Range(0, 6)) {
    case 0: {  // union / difference of equal-arity parts
      AlgebraExpr a = RandomAlgebraExpr(rand, pool, depth - 1);
      AlgebraExpr b = RandomAlgebraExpr(rand, pool, depth - 1);
      if (a.arity() == b.arity()) {
        Result<AlgebraExpr> r = rand.Coin() ? AlgebraExpr::Union(a, b)
                                            : AlgebraExpr::Difference(a, b);
        if (r.ok()) return *r;
      }
      return a;
    }
    case 1: {  // product, capped at arity 3
      AlgebraExpr a = RandomAlgebraExpr(rand, pool, depth - 1);
      AlgebraExpr b = RandomAlgebraExpr(rand, pool, depth - 1);
      if (a.arity() + b.arity() <= 3) return AlgebraExpr::Product(a, b);
      return a;
    }
    case 2: {  // random projection (a permutation of a subset)
      AlgebraExpr child = RandomAlgebraExpr(rand, pool, depth - 1);
      std::vector<int> cols;
      for (int c = 0; c < child.arity(); ++c) {
        if (rand.Coin()) cols.push_back(c);
      }
      if (rand.Coin() && cols.size() > 1) std::swap(cols.front(), cols.back());
      Result<AlgebraExpr> r = AlgebraExpr::Project(child, cols);
      return r.ok() ? *r : child;
    }
    case 3: {  // filtering selection
      AlgebraExpr child = RandomAlgebraExpr(rand, pool, depth - 1);
      Result<AlgebraExpr> r = AlgebraExpr::Select(
          child, Fsa(PoolMachine(pool, rand, child.arity())));
      return r.ok() ? *r : child;
    }
    case 4: {  // generator selection σ_A(... × Σ* × ...)
      if (rand.Coin()) {
        AlgebraExpr f = RandomAlgebraExpr(rand, pool, 0);  // a leaf
        if (f.arity() == 1) {
          AlgebraExpr body =
              rand.Coin()
                  ? AlgebraExpr::Product(AlgebraExpr::SigmaStar(), f)
                  : AlgebraExpr::Product(f, AlgebraExpr::SigmaStar());
          Result<AlgebraExpr> r = AlgebraExpr::Select(
              body, rand.Coin() ? Fsa(pool.eq2) : Fsa(pool.prefix2));
          if (r.ok()) return *r;
        }
      }
      // E8 shape: σ_concat(Σ* × F1 × F2).
      AlgebraExpr f1 = RandomAlgebraExpr(rand, pool, 0);
      AlgebraExpr f2 = RandomAlgebraExpr(rand, pool, 0);
      if (f1.arity() == 1 && f2.arity() == 1) {
        AlgebraExpr body = AlgebraExpr::Product(
            AlgebraExpr::SigmaStar(), AlgebraExpr::Product(f1, f2));
        Result<AlgebraExpr> r = AlgebraExpr::Select(body, Fsa(pool.concat3));
        if (r.ok()) return *r;
      }
      return f1;
    }
    default:
      return AlgebraExpr::RestrictToDomain(
          RandomAlgebraExpr(rand, pool, depth - 1));
  }
}

std::string RandomStringFormulaText(RandomSource& rand, const Alphabet& sigma,
                                    int depth) {
  if (depth <= 0 || rand.Range(0, 4) == 0) {
    // Atoms.  The pool mixes the paper's workhorses: constants,
    // equalities, end-of-string tests and (for y only) right transposes,
    // so generated formulae stay right-restricted.
    switch (rand.Range(0, 7)) {
      case 0: {
        char c = sigma.CharOf(static_cast<Sym>(
            rand.Below(static_cast<uint64_t>(sigma.size()))));
        return std::string("[x]l(x = '") + c + "')";
      }
      case 1:
        return "[x,y]l(x = y)";
      case 2:
        return "[x]l(!(x = ~))";
      case 3:
        return "[x,y]l(x = y = ~)";
      case 4:
        return "[y]r(!(y = ~))";
      case 5:
        return "[y]r(y = ~)";
      case 6:
        return "[y]l(true)";
      default:
        return "[x]l(x = ~)";
    }
  }
  switch (rand.Range(0, 3)) {
    case 0:
      return "(" + RandomStringFormulaText(rand, sigma, depth - 1) + " . " +
             RandomStringFormulaText(rand, sigma, depth - 1) + ")";
    case 1:
      return "(" + RandomStringFormulaText(rand, sigma, depth - 1) + " + " +
             RandomStringFormulaText(rand, sigma, depth - 1) + ")";
    default:
      return "(" + RandomStringFormulaText(rand, sigma, depth - 1) + ")*";
  }
}

}  // namespace testgen
}  // namespace strdb
