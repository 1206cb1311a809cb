#ifndef STRDB_CORE_ALPHABET_H_
#define STRDB_CORE_ALPHABET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/status.h"

namespace strdb {

// A tape symbol: either an alphabet character id in [0, Alphabet::size())
// or one of the two endmarker sentinels below.  The paper writes the
// endmarkers as ⊢ (left) and ⊣ (right); a head scanning either corresponds
// to the window-formula value "undefined" (x = ε).
using Sym = int16_t;

inline constexpr Sym kLeftEnd = -1;   // ⊢: before the first character
inline constexpr Sym kRightEnd = -2;  // ⊣: after the last character

// True iff `s` is one of the endmarker sentinels.
inline bool IsEndmarker(Sym s) { return s < 0; }

// The fixed finite alphabet Σ the database designer chooses up front
// (paper §2: "this alphabet Σ is fixed beforehand ... at least two
// characters").  Immutable once constructed; cheap to copy.
class Alphabet {
 public:
  // Creates an alphabet from the distinct characters of `chars`, in order.
  // Fails unless `chars` has >= 2 distinct printable characters.
  static Result<Alphabet> Create(const std::string& chars);

  // Convenience alphabets used throughout tests, examples and benches.
  static Alphabet Binary();  // {a, b}
  static Alphabet Dna();     // {a, c, g, t}

  int size() const { return static_cast<int>(chars_.size()); }
  // The characters of Σ in symbol-id order.
  const std::string& chars() const { return chars_; }

  // The character rendered for symbol id `s`; endmarkers render as '<'
  // and '>' (only used in debug output).
  char CharOf(Sym s) const;

  // The symbol id of `c`, or kInvalidArgument if `c` is not in Σ.
  Result<Sym> SymOf(char c) const;

  // True iff every character of `s` belongs to Σ.
  bool Contains(const std::string& s) const;

  // Encodes a Σ-string into symbol ids.  Fails on foreign characters.
  Result<std::vector<Sym>> Encode(const std::string& s) const;

  // Decodes symbol ids back into characters.  Endmarkers are rejected.
  Result<std::string> Decode(const std::vector<Sym>& syms) const;

  // All strings over Σ of length exactly `len`, in lexicographic order of
  // symbol ids.  |Σ|^len strings: callers must keep `len` small.
  std::vector<std::string> StringsOfLength(int len) const;

  // All strings over Σ of length <= `max_len` (the paper's Σ^l domain
  // symbol).  Σ^0 = {ε}.
  std::vector<std::string> StringsUpTo(int max_len) const;

  // The set of tape symbols a k-FSA head can scan: Σ ∪ {⊢, ⊣}.
  std::vector<Sym> TapeSymbols() const;

  bool operator==(const Alphabet& other) const { return chars_ == other.chars_; }

 private:
  explicit Alphabet(std::string chars) : chars_(std::move(chars)) {}

  std::string chars_;
};

}  // namespace strdb

#endif  // STRDB_CORE_ALPHABET_H_
