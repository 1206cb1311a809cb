#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "calculus/query.h"
#include "testing/targets.h"

namespace strdb {
namespace testgen {

namespace {

using QueryCacheCase = QueryCacheDiffTarget::QueryCacheCase;
using Op = QueryCacheDiffTarget::Op;

// Every case runs over Σ = {a, b}: the cache keys on (Σ, text), and one
// alphabet lets texts recur across cases, so later cases also run
// queries compiled while earlier cases' catalogs were live.
const Alphabet& CaseAlphabet() {
  static const Alphabet* const alphabet = new Alphabet(Alphabet::Binary());
  return *alphabet;
}

// Inferred limits above this run at it instead (⟦φ⟧^l at l = kCap on
// both sides), so a large certified bound cannot blow up the sweep.
constexpr int kCap = 6;

// The same budget on both sides: a runaway generation or Σ^l product
// ends in kResourceExhausted, whose answer the oracle skips, instead of
// stalling the sweep.
ResourceLimits CaseLimits() {
  ResourceLimits limits;
  limits.max_steps = 400'000;
  limits.max_rows = 100'000;
  return limits;
}

// A query text over unary R0, R1, Z and binary P: relational atoms,
// RandomStringFormulaText leaves (over x and y) and guarded negation,
// plus shapes outside the §5 class that only explicit truncation runs.
std::string RandomQueryText(RandomSource& rand) {
  auto leaf = [&] {
    return "(" + RandomStringFormulaText(rand, CaseAlphabet(), 2) + ")";
  };
  switch (rand.Below(11)) {
    case 0:
      return "x | R0(x)";
    case 1:
      return "x | R0(x) & Z(x)";
    case 2:
      return "x | exists y: P(x, y) & R1(y)";
    case 3:
      return "P(x, y) & " + leaf();
    case 4:
      return "R0(x) & " + leaf();
    case 5:
      return "R1(x) & exists y: R0(y) & " + leaf();
    case 6:
      return "x | R0(x) & !R1(x)";
    case 7:
      return "P(x, y) & !" + leaf();
    case 8:
      return "R0(x) & !(exists y: P(x, y) & " + leaf() + ")";
    case 9:
      return "x | !R0(x)";
    default:
      return "x | R0(x) | R1(x)";
  }
}

std::string RelationName(RandomSource& rand, int* arity) {
  static const char* const kNames[] = {"R0", "R1", "P", "Z"};
  const char* name = kNames[rand.Below(4)];
  *arity = std::string(name) == "P" ? 2 : 1;
  return name;
}

std::vector<Tuple> RandomTuples(RandomSource& rand, int arity, int min_count,
                                int max_count, int max_len) {
  std::vector<Tuple> tuples;
  int n = rand.Range(min_count, max_count);
  for (int i = 0; i < n; ++i) {
    tuples.push_back(RandomTuple(rand, CaseAlphabet(), arity, max_len));
  }
  return tuples;
}

// A status rendered for comparison: code and message.
std::string Describe(const Status& s) {
  return s.ok() ? "ok" : s.ToString();
}

std::string Describe(const Result<int>& r) {
  return r.ok() ? "ok " + std::to_string(*r) : Describe(r.status());
}

std::unique_ptr<QueryCacheCase> Clone(const QueryCacheCase& c) {
  auto copy = std::make_unique<QueryCacheCase>();
  *copy = c;
  return copy;
}

}  // namespace

DiffTarget::CasePtr QueryCacheDiffTarget::Generate(RandomSource& rand) const {
  auto c = std::make_unique<QueryCacheCase>();
  int texts = rand.Range(2, 4);
  for (int i = 0; i < texts; ++i) c->texts.push_back(RandomQueryText(rand));
  for (const char* name : {"R0", "R1", "P"}) {
    Op op;
    op.kind = Op::Kind::kRel;
    op.name = name;
    op.arity = op.name == "P" ? 2 : 1;
    op.tuples = RandomTuples(rand, op.arity, 1, 3, 2);
    c->ops.push_back(std::move(op));
  }
  int steps = rand.Range(6, 14);
  for (int i = 0; i < steps; ++i) {
    Op op;
    if (rand.Below(5) < 3) {
      op.kind = Op::Kind::kQuery;
      op.text = rand.Range(0, texts - 1);
      op.truncation = rand.Coin() ? -1 : rand.Range(0, 3);
    } else {
      switch (rand.Below(3)) {
        case 0:
          op.kind = Op::Kind::kInsert;
          break;
        case 1:
          op.kind = Op::Kind::kRel;
          break;
        default:
          op.kind = Op::Kind::kDrop;
          break;
      }
      op.name = RelationName(rand, &op.arity);
      if (op.kind != Op::Kind::kDrop) {
        // Longer strings than the initial catalog's, so inserts move
        // Eq. (2)'s max(R, db) and with it the inferred limit.
        op.tuples = RandomTuples(rand, op.arity, 1, 2, 4);
      }
    }
    c->ops.push_back(std::move(op));
  }
  return c;
}

std::optional<Divergence> QueryCacheDiffTarget::Run(const Case& c) const {
  const auto& qc = static_cast<const QueryCacheCase&>(c);
  Database db(CaseAlphabet());
  QueryOptions cached_opts;
  cached_opts.limits = CaseLimits();
  QueryOptions fresh_opts = cached_opts;
  fresh_opts.use_engine = false;
  for (size_t i = 0; i < qc.ops.size(); ++i) {
    const Op& op = qc.ops[i];
    switch (op.kind) {
      // Mutations may fail (insert into a dropped relation); both sides
      // see the same catalog either way.
      case Op::Kind::kInsert:
        (void)db.InsertTuples(op.name, op.tuples);
        continue;
      case Op::Kind::kRel:
        (void)db.Put(op.name, op.arity, op.tuples);
        continue;
      case Op::Kind::kDrop:
        (void)db.Remove(op.name);
        continue;
      case Op::Kind::kQuery:
        break;
    }
    if (op.text < 0 || op.text >= static_cast<int>(qc.texts.size())) continue;
    const std::string& text = qc.texts[static_cast<size_t>(op.text)];
    auto diverge = [&](const std::string& what, const std::string& cached,
                       const std::string& fresh) {
      return Divergence{"op " + std::to_string(i) + " (" + text + "): " +
                        what + " differs\n  cached: " + cached +
                        "\n  fresh:  " + fresh};
    };
    // The cached route: Query::Parse, normally a hit on the entry an
    // earlier op (or case) compiled, whatever the catalog was then.
    Result<Query> cached = Query::Parse(text, CaseAlphabet());
    Result<Query> fresh = Query::Compile(text, CaseAlphabet());
    if (cached.ok() != fresh.ok() ||
        (!cached.ok() && cached.status().ToString() !=
                             fresh.status().ToString())) {
      return diverge("parse", Describe(cached.status()),
                     Describe(fresh.status()));
    }
    if (!cached.ok()) continue;
    if (cached->outputs() != fresh->outputs()) {
      return diverge("outputs", cached->formula().ToString(),
                     fresh->formula().ToString());
    }
    int truncation = op.truncation;
    if (truncation < 0) {
      Result<int> w_cached = cached->InferTruncation(db);
      Result<int> w_fresh = fresh->InferTruncation(db);
      if (Describe(w_cached) != Describe(w_fresh)) {
        return diverge("InferTruncation", Describe(w_cached),
                       Describe(w_fresh));
      }
      if (!w_cached.ok()) continue;
      if (*w_cached <= kCap) {
        Result<StringRelation> a = cached->Execute(db, cached_opts);
        Result<StringRelation> b = fresh->Execute(db, fresh_opts);
        if (!SameAnswer(a, b)) {
          return diverge("Execute answer", Answer(a), Answer(b));
        }
        continue;
      }
      truncation = kCap;
    }
    Result<StringRelation> a =
        cached->ExecuteTruncated(db, truncation, cached_opts);
    Result<StringRelation> b =
        fresh->ExecuteTruncated(db, truncation, fresh_opts);
    if (!SameAnswer(a, b)) {
      return diverge("answer at truncation " + std::to_string(truncation),
                     Answer(a), Answer(b));
    }
  }
  return std::nullopt;
}

std::string QueryCacheDiffTarget::Serialize(const Case& c) const {
  const auto& qc = static_cast<const QueryCacheCase&>(c);
  std::ostringstream out;
  out << "texts " << qc.texts.size() << "\n";
  for (const std::string& text : qc.texts) out << text << "\n";
  out << "ops " << qc.ops.size() << "\n";
  for (const Op& op : qc.ops) {
    switch (op.kind) {
      case Op::Kind::kQuery:
        out << "query " << op.text << " " << op.truncation << "\n";
        break;
      case Op::Kind::kInsert:
        out << "insert " << op.name << " " << op.arity
            << TupleWords(op.tuples) << "\n";
        break;
      case Op::Kind::kRel:
        out << "rel " << op.name << " " << op.arity << TupleWords(op.tuples)
            << "\n";
        break;
      case Op::Kind::kDrop:
        out << "drop " << op.name << "\n";
        break;
    }
  }
  return out.str();
}

Result<DiffTarget::CasePtr> QueryCacheDiffTarget::Deserialize(
    const std::string& text) const {
  std::istringstream in(text);
  auto count = [&](const std::string& keyword) -> Result<int64_t> {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("query_cache case truncated before '" +
                                     keyword + "'");
    }
    std::istringstream fields(line);
    std::string word;
    int64_t n = 0;
    if (!(fields >> word >> n) || word != keyword || n < 0) {
      return Status::InvalidArgument("expected '" + keyword + " N', got '" +
                                     line + "'");
    }
    return n;
  };
  auto c = std::make_unique<QueryCacheCase>();
  STRDB_ASSIGN_OR_RETURN(int64_t texts, count("texts"));
  for (int64_t i = 0; i < texts; ++i) {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("query_cache case truncated in texts");
    }
    c->texts.push_back(std::move(line));
  }
  STRDB_ASSIGN_OR_RETURN(int64_t ops, count("ops"));
  for (int64_t i = 0; i < ops; ++i) {
    std::string line;
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("query_cache case truncated in ops");
    }
    std::istringstream fields(line);
    std::string verb;
    fields >> verb;
    Op op;
    if (verb == "query") {
      op.kind = Op::Kind::kQuery;
      if (!(fields >> op.text >> op.truncation)) {
        return Status::InvalidArgument("bad query op '" + line + "'");
      }
    } else if (verb == "drop") {
      op.kind = Op::Kind::kDrop;
      if (!(fields >> op.name)) {
        return Status::InvalidArgument("bad drop op '" + line + "'");
      }
    } else if (verb == "insert" || verb == "rel") {
      op.kind = verb == "insert" ? Op::Kind::kInsert : Op::Kind::kRel;
      if (!(fields >> op.name >> op.arity) || op.arity < 1) {
        return Status::InvalidArgument("bad " + verb + " op '" + line + "'");
      }
      STRDB_ASSIGN_OR_RETURN(op.tuples, ParseTupleWords(fields, op.arity));
    } else {
      return Status::InvalidArgument("unknown op '" + line + "'");
    }
    c->ops.push_back(std::move(op));
  }
  return CasePtr(std::move(c));
}

std::vector<DiffTarget::CasePtr> QueryCacheDiffTarget::ShrinkCandidates(
    const Case& c) const {
  const auto& qc = static_cast<const QueryCacheCase&>(c);
  std::vector<CasePtr> out;
  for (size_t i = 0; i < qc.ops.size(); ++i) {
    auto copy = Clone(qc);
    copy->ops.erase(copy->ops.begin() + static_cast<ptrdiff_t>(i));
    out.push_back(std::move(copy));
  }
  for (size_t i = 0; i < qc.ops.size(); ++i) {
    for (size_t t = 0; t < qc.ops[i].tuples.size(); ++t) {
      auto copy = Clone(qc);
      copy->ops[i].tuples.erase(copy->ops[i].tuples.begin() +
                                static_cast<ptrdiff_t>(t));
      out.push_back(std::move(copy));
    }
  }
  // Texts no op refers to.
  for (size_t t = 0; t < qc.texts.size(); ++t) {
    bool used = false;
    for (const Op& op : qc.ops) {
      used |= op.kind == Op::Kind::kQuery && op.text == static_cast<int>(t);
    }
    if (used) continue;
    auto copy = Clone(qc);
    copy->texts.erase(copy->texts.begin() + static_cast<ptrdiff_t>(t));
    for (Op& op : copy->ops) {
      if (op.kind == Op::Kind::kQuery && op.text > static_cast<int>(t)) {
        --op.text;
      }
    }
    out.push_back(std::move(copy));
  }
  return out;
}

int64_t QueryCacheDiffTarget::CaseSize(const Case& c) const {
  const auto& qc = static_cast<const QueryCacheCase&>(c);
  int64_t size = 0;
  for (const std::string& text : qc.texts) {
    size += 1 + static_cast<int64_t>(text.size());
  }
  for (const Op& op : qc.ops) {
    size += 1;
    for (const Tuple& t : op.tuples) {
      for (const std::string& s : t) size += 1 + static_cast<int64_t>(s.size());
    }
  }
  return size;
}

}  // namespace testgen
}  // namespace strdb
