#ifndef STRDB_TESTING_GENERATORS_H_
#define STRDB_TESTING_GENERATORS_H_

#include <istream>
#include <string>
#include <vector>

#include "fsa/fsa.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "testing/random_source.h"

namespace strdb {
namespace testgen {

// Distribution knobs for RandomFsa.  The defaults reproduce the sweep
// the kernel differential suite has always used: 1-3 tapes, 2-6 states,
// 3-12 transitions, ~1/4 of states final, endmarker discipline enforced
// by construction (⊢ never moves back, ⊣ never moves forward).
struct FsaGenOptions {
  int min_tapes = 1;
  int max_tapes = 3;
  int min_states = 2;
  int max_states = 6;
  int min_transitions = 3;
  int max_transitions = 12;
  // Restrict every tape to {0, +1} moves (a one-way machine — the
  // kernel's bitset fast path).  Off = moves drawn from {-1, 0, +1}.
  bool one_way_only = false;
};

// A random k-FSA over `sigma`: random tape count, state count, final
// set and transitions, with the endmarker restriction repaired rather
// than rejected (a draw of (⊢, -1) becomes (⊢, 0)) so every draw yields
// a valid machine.
Fsa RandomFsa(RandomSource& rand, const Alphabet& sigma,
              const FsaGenOptions& options = {});

// True iff some transition moves some tape backwards (the machine is
// genuinely two-way).
bool HasBackwardMove(const Fsa& fsa);

// A random tuple for `tapes` tapes, each string of length [0, max_len].
Tuple RandomTuple(RandomSource& rand, const Alphabet& sigma, int tapes,
                  int max_len);

// Tuples in the shell's syntax, as case files hold them: each tuple one
// word after a space, components joined by ',', "-" for ε.
std::string TupleWords(const std::vector<Tuple>& tuples);

// The inverse of TupleWords over the words left in `in`, each a tuple
// of `arity` components.
Result<std::vector<Tuple>> ParseTupleWords(std::istream& in, int arity);

// An evaluation's answer as a divergence message shows it.
std::string Answer(const Result<StringRelation>& r);

// Answers agree when both hold the same tuples or both fail with one
// code (the evaluators word some errors differently).  An answer that
// exhausted its resource budget on either side is not compared.
bool SameAnswer(const Result<StringRelation>& a,
                const Result<StringRelation>& b);

// The small database every engine-vs-naive sweep runs against: unary
// R0 and R1, binary P, each holding 0-3 random tuples of strings of
// length <= 2 (kept tiny so the naïve reference stays cheap at
// truncation 2-4).
Database RandomDatabase(RandomSource& rand, const Alphabet& sigma);

// The fixed pool of compiled selection machines RandomAlgebraExpr draws
// from (compiling per-case would dominate the sweep): even-length,
// equality, prefix and concatenation testers.
struct FsaPool {
  Fsa even1;    // 1 tape: even-length strings
  Fsa eq2;      // 2 tapes: x = y
  Fsa prefix2;  // 2 tapes: x a prefix of y
  Fsa concat3;  // 3 tapes: x = y.z
};
FsaPool MakeFsaPool(const Alphabet& sigma);

// A pool machine of the given arity (coin-flipped where two exist).
const Fsa& PoolMachine(const FsaPool& pool, RandomSource& rand, int tapes);

// A random algebra expression of arity <= 3 and depth <= `depth` over
// the relations of RandomDatabase.  Bare Σ* appears only in the
// finitely-evaluable form σ_A(F × (Σ*)^n), mirroring the class the
// paper evaluates; everything else would make the naïve reference
// explode.
AlgebraExpr RandomAlgebraExpr(RandomSource& rand, const FsaPool& pool,
                              int depth);

// A random string formula (as parseable text) over variables {x, y}:
// window-formula atoms with random constants and equalities combined by
// '.', '+', '*', '^n'.  Right transposes are limited to y so the result
// stays right-restricted (the decidable class); compiled machines stay
// small at the default depth.
std::string RandomStringFormulaText(RandomSource& rand, const Alphabet& sigma,
                                    int depth = 3);

}  // namespace testgen
}  // namespace strdb

#endif  // STRDB_TESTING_GENERATORS_H_
