#ifndef STRDB_RELATIONAL_STATS_H_
#define STRDB_RELATIONAL_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/result.h"
#include "relational/relation.h"

namespace strdb {

// Per-column summaries of a string relation, the cost planner's raw
// material: the total string length (its mean sizes Σ* generation and
// the DFA acceptance-density chain) and per-byte character frequency
// (weights the density walk's transitions).  Nothing else is kept,
// because the planner reads nothing else.
struct ColumnStats {
  int64_t total_chars = 0;
  std::array<int64_t, 256> char_freq{};

  // Mean string length over `rows` strings (0 for an empty column).
  double ExpectedLength(int64_t rows) const;

  bool operator==(const ColumnStats& other) const = default;
};

// Statistics for one relation: cardinality plus per-column summaries.
struct RelationStats {
  int arity = 0;
  int64_t rows = 0;
  std::vector<ColumnStats> columns;

  bool operator==(const RelationStats& other) const = default;
};

// Statistics keyed by relation name.  The durable store keeps one for
// its spilled relations, whose tuples are not in memory; the engine's
// StatsCatalog summarises in-memory relations on demand.
using StatsMap = std::map<std::string, RelationStats>;

// Computes the statistics of `relation` in one pass over its tuples.
RelationStats ComputeRelationStats(const StringRelation& relation);

// Deterministic text codec, byte-identical across encode→decode→encode.
// The encoder writes version 2; the decoder also reads version 1, whose
// length histogram, maximum length and prefix set it skips.  Malformed
// text, out-of-range numbers and negative counts give kInvalidArgument.
std::string EncodeRelationStats(const RelationStats& stats);
Result<RelationStats> DecodeRelationStats(const std::string& text);

}  // namespace strdb

#endif  // STRDB_RELATIONAL_STATS_H_
