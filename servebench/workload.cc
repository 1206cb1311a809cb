#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

namespace servebench {

using strdb::Alphabet;
using strdb::Rng;
using strdb::Tuple;

namespace {

const Alphabet& Sigma() {
  static const Alphabet* sigma = new Alphabet(Alphabet::Binary());
  return *sigma;
}

// The i-th length of a cycle through [min_len, max_len].  Lengths follow
// this fixed schedule and only the letters are random, so every seed
// gives relations and answers of about the same size and cost.
int CycleLength(size_t i, int min_len, int max_len) {
  return min_len +
         static_cast<int>(i % static_cast<size_t>(max_len - min_len + 1));
}

// `count` distinct strings with lengths cycling through [min_len, max_len].
std::vector<std::string> DistinctStrings(Rng& rng, int count, int min_len,
                                         int max_len) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  // A collision moves on to the next length, so a length with fewer
  // strings than its share of the cycle fills up and the rest go on.
  size_t collisions = 0;
  while (static_cast<int>(out.size()) < count) {
    std::string s = rng.String(
        Sigma(), CycleLength(out.size() + collisions, min_len, max_len));
    if (seen.insert(s).second) {
      out.push_back(std::move(s));
    } else {
      ++collisions;
    }
  }
  return out;
}

RelationSpec Unary(const std::string& name, std::vector<std::string> values) {
  RelationSpec rel{name, 1, {}};
  for (std::string& v : values) rel.tuples.push_back({std::move(v)});
  return rel;
}

// Pairs of which half are equal (x, x): the σ-equality filter keeps
// half its input.
RelationSpec EqualityPairs(const std::string& name, Rng& rng, int count,
                           int min_len, int max_len) {
  RelationSpec rel{name, 2, {}};
  std::set<Tuple> seen;
  while (static_cast<int>(rel.tuples.size()) < count) {
    const size_t i = rel.tuples.size();
    std::string x = rng.String(Sigma(), CycleLength(i / 2, min_len, max_len));
    std::string y =
        i % 2 == 0 ? x
                   : rng.String(Sigma(), CycleLength(i / 2, min_len, max_len));
    Tuple t{std::move(x), std::move(y)};
    if (seen.insert(t).second) rel.tuples.push_back(std::move(t));
  }
  return rel;
}

// Triples (x, y, z) of which half satisfy x = y·z, the §4 concatenation
// the triple filter checks.
RelationSpec ConcatTriples(const std::string& name, Rng& rng, int count,
                           int min_len, int max_len) {
  RelationSpec rel{name, 3, {}};
  std::set<Tuple> seen;
  while (static_cast<int>(rel.tuples.size()) < count) {
    const size_t i = rel.tuples.size();
    std::string y = rng.String(Sigma(), CycleLength(i / 2, min_len, max_len));
    std::string z =
        rng.String(Sigma(), CycleLength(i / 2 + 3, min_len, max_len));
    std::string x =
        i % 2 == 0 ? y + z
                   : rng.String(Sigma(), static_cast<int>(y.size() + z.size()));
    Tuple t{std::move(x), std::move(y), std::move(z)};
    if (seen.insert(t).second) rel.tuples.push_back(std::move(t));
  }
  return rel;
}

// Zipf-like weights 1/k over `texts`, scaled to sum to `share`.
std::vector<FixedQuery> Zipf(std::vector<std::string> texts, double share) {
  double total = 0;
  for (size_t k = 1; k <= texts.size(); ++k) {
    total += 1.0 / static_cast<double>(k);
  }
  std::vector<FixedQuery> out;
  for (size_t k = 1; k <= texts.size(); ++k) {
    out.push_back({std::move(texts[k - 1]),
                   share / (total * static_cast<double>(k))});
  }
  return out;
}

// Parse, compile, inference and planning dominate: a handful of
// relations of at most 24 tuples, whose filter inputs stay below the
// engine's parallel threshold of 32 rows, and eight texts repeated with
// Zipf-like weights beside fresh member needles.
WorkloadSpec PointQueries(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 1);
  WorkloadSpec w;
  w.name = "point_queries";
  w.readers = 2;
  w.catalog.push_back(Unary("R1", DistinctStrings(rng, 7, 2, 5)));
  w.catalog.push_back(Unary("R3", DistinctStrings(rng, 4, 1, 4)));
  RelationSpec p = EqualityPairs("P", rng, 12, 2, 8);
  RelationSpec q{"Q", 2, {}};
  std::set<Tuple> seen;
  while (q.tuples.size() < 2) {
    // Q's first column reuses P's second column, so the join matches.
    const Tuple& from = p.tuples[rng.Below(p.tuples.size())];
    Tuple t{from[1], rng.String(Sigma(), 1, 4)};
    if (seen.insert(t).second) q.tuples.push_back(std::move(t));
  }
  w.catalog.push_back(std::move(p));
  w.catalog.push_back(std::move(q));
  w.catalog.push_back(Unary("M", DistinctStrings(rng, 24, 4, 12)));
  w.fixed = Zipf(
      {// prefix
       "x | exists y: R1(y) & ([x,y]l(x = y))* . [x]l(x = ~)",
       // σ-equality
       "x, y | P(x, y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)",
       // the §4 concatenation
       "x | exists y, z: R1(y) & R3(z) & "
       "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
       // join
       "x, z | exists y: P(x, y) & Q(y, z)",
       // guarded negation
       "x | M(x) & !([x]l(x = 'a'))",
       // member
       MemberQuery("M", 1, "abb"),
       // anti-join
       "x | R1(x) & !R3(x)",
       // copy
       "x | exists y: R3(y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)"},
      0.8);
  w.fresh_share = 0.2;
  w.fresh_relation = "M";
  w.replay_queries = 600;
  return w;
}

// Pager/heap decode, σ_A acceptance and the executor dominate: a pair
// and a triple relation spilled to paged heaps and read through a
// buffer pool half their size, one connection.
WorkloadSpec ScanFilters(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 2);
  WorkloadSpec w;
  w.name = "scan_filters";
  w.durable = true;
  w.spill = true;
  w.readers = 1;
  w.catalog.push_back(EqualityPairs("PW", rng, 2000, 8, 24));
  w.catalog.push_back(ConcatTriples("TW", rng, 1000, 4, 12));
  w.fixed = {
      // σ-equality (DFA tier)
      {"x, y | PW(x, y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)", 1.0},
      // the §4 concatenation (kernel tier)
      {"x, y, z | TW(x, y, z) & "
       "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = ~)",
       1.0}};
  for (int i = 0; i < 4; ++i) {
    w.fixed.push_back(
        {MemberQuery("PW", 2, rng.String(Sigma(), 5 + i % 3)), 0.25});
  }
  w.replay_queries = 60;
  return w;
}

// WAL commit, whole-catalog publish and snapshot reads under a changing
// catalog of about 10 000 tuples: an open-loop writer inserting into W
// (4 000 tuples) and a closed-loop reader of member needles over W.
// H (6 000 tuples) is never queried; it doubles what every publish
// copies while a reader scan of W stays near 11 ms, so a run holds over
// 1 000 queries.  A larger H made the reader's tail bimodal from run to
// run.
WorkloadSpec ReadWriteMix(uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 3);
  WorkloadSpec w;
  w.name = "read_write_mix";
  w.durable = true;
  w.readers = 1;
  w.insert_rate_per_s = 50;
  w.write_relation = "W";
  w.catalog.push_back(Unary("R1", DistinctStrings(rng, 8, 2, 5)));
  w.catalog.push_back(Unary("R3", DistinctStrings(rng, 8, 1, 4)));
  w.catalog.push_back(Unary("W", DistinctStrings(rng, 4000, 6, 16)));
  w.catalog.push_back(Unary("H", DistinctStrings(rng, 6000, 6, 16)));
  for (int i = 0; i < 6; ++i) {
    w.fixed.push_back(
        {MemberQuery("W", 1, rng.String(Sigma(), 8 + i % 3)), 1.0});
  }
  w.replay_queries = 240;
  w.replay_insert_every = 4;
  return w;
}

}  // namespace

strdb::Result<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed) {
  WorkloadSpec w;
  if (name == "point_queries") {
    w = PointQueries(seed);
  } else if (name == "scan_filters") {
    w = ScanFilters(seed);
  } else if (name == "read_write_mix") {
    w = ReadWriteMix(seed);
  } else {
    return strdb::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.seed = seed;
  return w;
}

QueryStream::QueryStream(const WorkloadSpec& spec, int connection)
    : spec_(spec),
      rng_(spec.seed * 0x9e3779b97f4a7c15ULL +
           static_cast<uint64_t>(connection) * 7919 + 11) {
  for (const FixedQuery& q : spec_.fixed) total_weight_ += q.weight;
}

std::string QueryStream::Next() {
  double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
  if (u < spec_.fresh_share) {
    return MemberQuery(spec_.fresh_relation, 1, rng_.String(Sigma(), 3, 9));
  }
  double pick = (u - spec_.fresh_share) / (1 - spec_.fresh_share) *
                total_weight_;
  for (const FixedQuery& q : spec_.fixed) {
    if (pick < q.weight) return q.text;
    pick -= q.weight;
  }
  return spec_.fixed.back().text;
}

InsertStream::InsertStream(const WorkloadSpec& spec)
    : spec_(spec), rng_(spec.seed * 0x9e3779b97f4a7c15ULL + 0x5157) {}

std::string InsertStream::Next(Tuple* tuple) {
  // Strings of length 17..20 cannot collide with W's initial 6..16.
  std::string s;
  do {
    s = rng_.String(Sigma(), 17, 20);
  } while (!issued_.insert(s).second);
  *tuple = {s};
  return "insert " + spec_.write_relation + " " + s;
}

std::string RelCommand(const RelationSpec& rel) {
  std::string out = "rel " + rel.name;
  for (const Tuple& t : rel.tuples) {
    out += ' ';
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ',';
      out += t[i].empty() ? "-" : t[i];
    }
  }
  return out;
}

std::string MemberQuery(const std::string& relation, int arity,
                        const std::string& needle) {
  static const char* kVars[] = {"x", "y", "z"};
  std::string head;
  for (int i = 0; i < arity; ++i) {
    head += (i > 0 ? ", " : "") + std::string(kVars[i]);
  }
  std::string out = head + " | " + relation + "(" + head + ") & ([x]l(true))*";
  for (char c : needle) out += std::string(" . [x]l(x = '") + c + "')";
  return out;
}

strdb::Database BuildDatabase(const WorkloadSpec& spec) {
  strdb::Database db(Sigma());
  for (const RelationSpec& rel : spec.catalog) {
    strdb::Status put = db.Put(rel.name, rel.arity, rel.tuples);
    if (!put.ok()) {
      std::fprintf(stderr, "servebench: catalog %s: %s\n", rel.name.c_str(),
                   put.ToString().c_str());
      std::abort();
    }
  }
  return db;
}

int64_t LogicalBytes(const std::vector<RelationSpec>& catalog) {
  int64_t bytes = 0;
  for (const RelationSpec& rel : catalog) {
    for (const Tuple& t : rel.tuples) {
      for (const std::string& s : t) bytes += static_cast<int64_t>(s.size());
    }
  }
  return bytes;
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace servebench
