#include "relational/relation.h"

#include <algorithm>
#include <atomic>

namespace strdb {

namespace {

// Process-wide epoch source: distinct mutations — even of equally named
// relations in unrelated databases — never share an epoch, so a stats
// cache keyed (name, epoch) can never serve data for the wrong content.
uint64_t NextStatsEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Result<StringRelation> StringRelation::Create(int arity,
                                              std::vector<Tuple> tuples) {
  if (arity < 0) return Status::InvalidArgument("negative arity");
  StringRelation out(arity);
  for (Tuple& t : tuples) {
    STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
  }
  return out;
}

Status StringRelation::Insert(Tuple tuple) {
  if (static_cast<int>(tuple.size()) != arity_) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " differs from relation arity " + std::to_string(arity_));
  }
  for (const std::string& s : tuple) {
    max_len_ = std::max(max_len_, static_cast<int>(s.size()));
  }
  tuples_.insert(std::move(tuple));
  return Status::OK();
}

StringRelation StringRelation::TruncatedTo(int l) const {
  StringRelation out(arity_);
  for (const Tuple& t : tuples_) {
    int longest = 0;
    for (const std::string& s : t) {
      longest = std::max(longest, static_cast<int>(s.size()));
    }
    if (longest > l) continue;
    out.tuples_.insert(out.tuples_.end(), t);
    out.max_len_ = std::max(out.max_len_, longest);
  }
  return out;
}

std::string StringRelation::ToString() const {
  std::string out = "{";
  bool first_tuple = true;
  for (const Tuple& t : tuples_) {
    if (!first_tuple) out += ", ";
    first_tuple = false;
    out += "(";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + t[i] + "\"";
    }
    out += ")";
  }
  out += "}";
  return out;
}

Status Database::Put(const std::string& name, StringRelation relation) {
  for (const Tuple& t : relation.tuples()) {
    for (const std::string& s : t) {
      if (!alphabet_.Contains(s)) {
        return Status::InvalidArgument("string \"" + s + "\" in relation '" +
                                       name +
                                       "' leaves the database alphabet");
      }
    }
  }
  relations_.insert_or_assign(name, std::move(relation));
  epochs_[name] = NextStatsEpoch();
  return Status::OK();
}

Status Database::Put(const std::string& name, int arity,
                     std::vector<Tuple> tuples) {
  STRDB_ASSIGN_OR_RETURN(StringRelation rel,
                         StringRelation::Create(arity, std::move(tuples)));
  return Put(name, std::move(rel));
}

Status Database::InsertTuples(const std::string& name,
                              std::vector<Tuple> tuples) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not in database");
  }
  // Validate everything before mutating so a failed call leaves the
  // relation untouched.
  for (const Tuple& t : tuples) {
    if (static_cast<int>(t.size()) != it->second.arity()) {
      return Status::InvalidArgument(
          "tuple arity " + std::to_string(t.size()) +
          " differs from relation arity " +
          std::to_string(it->second.arity()));
    }
    for (const std::string& s : t) {
      if (!alphabet_.Contains(s)) {
        return Status::InvalidArgument("string \"" + s + "\" in relation '" +
                                       name +
                                       "' leaves the database alphabet");
      }
    }
  }
  for (Tuple& t : tuples) {
    STRDB_RETURN_IF_ERROR(it->second.Insert(std::move(t)));
  }
  epochs_[name] = NextStatsEpoch();
  return Status::OK();
}

Status Database::Remove(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation '" + name + "' not in database");
  }
  epochs_.erase(name);
  return Status::OK();
}

Result<const StringRelation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not in database");
  }
  return &it->second;
}

uint64_t Database::stats_epoch(const std::string& name) const {
  auto it = epochs_.find(name);
  return it == epochs_.end() ? 0 : it->second;
}

int Database::MaxStringLength() const {
  int max_len = 0;
  for (const auto& [name, rel] : relations_) {
    max_len = std::max(max_len, rel.MaxStringLength());
  }
  return max_len;
}

}  // namespace strdb
