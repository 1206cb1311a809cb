#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/rng.h"
#include "relational/relation.h"

namespace servebench {

// One relation of a generated catalog.
struct RelationSpec {
  std::string name;
  int arity = 1;
  std::vector<strdb::Tuple> tuples;
};

// One query text of a workload's fixed pool, drawn with `weight`.
struct FixedQuery {
  std::string text;
  double weight = 1;
};

// Everything one workload needs, generated from its seed: the catalog
// the server is loaded with, the query mix each connection draws from,
// and the writer's stream.  The server receives only command lines
// built from this.
struct WorkloadSpec {
  std::string name;
  uint64_t seed = 0;
  bool durable = false;
  // Spill every relation at a shutdown checkpoint, then serve it from a
  // restarted server whose buffer pool holds half of the heap bytes.
  bool spill = false;
  int readers = 1;               // closed-loop query connections
  double insert_rate_per_s = 0;  // > 0: one open-loop writer connection
  std::string write_relation;    // relation the writer inserts into
  std::vector<RelationSpec> catalog;
  std::vector<FixedQuery> fixed;
  // Share of queries that are member queries with a fresh random needle
  // over `fresh_relation` (never drawn from the fixed pool).
  double fresh_share = 0;
  std::string fresh_relation;
  // Traced replay: reader commands replayed, and one writer insert
  // after every `replay_insert_every` of them (0 = no inserts).
  int replay_queries = 0;
  int replay_insert_every = 0;
};

// Builds workload `name` from `seed`; kInvalidArgument for an unknown
// name.
strdb::Result<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed);

// The query commands of one reader connection: a deterministic function
// of (seed, connection).
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, int connection);
  std::string Next();

 private:
  const WorkloadSpec& spec_;
  strdb::Rng rng_;
  double total_weight_ = 0;
};

// The writer's single-tuple inserts: distinct strings longer than any
// string of the initial catalog, so every acknowledged insert adds
// exactly one tuple.
class InsertStream {
 public:
  explicit InsertStream(const WorkloadSpec& spec);
  std::string Next(strdb::Tuple* tuple);

 private:
  const WorkloadSpec& spec_;
  strdb::Rng rng_;
  std::set<std::string> issued_;
};

// "rel NAME t1 t2 ..." in the command grammar's tuple syntax.
std::string RelCommand(const RelationSpec& rel);

// The substring-membership query: tuples of `relation` whose first
// column contains `needle`.
std::string MemberQuery(const std::string& relation, int arity,
                        const std::string& needle);

// The catalog as an in-memory Database (the oracle's input).
strdb::Database BuildDatabase(const WorkloadSpec& spec);

// Σ of the string lengths of every tuple: the logical user bytes.
int64_t LogicalBytes(const std::vector<RelationSpec>& catalog);

// 64-bit FNV-1a, chained through `h`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes);
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
