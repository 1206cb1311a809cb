#include "relational/stats.h"

#include <algorithm>
#include <string>

namespace strdb {

namespace {

// Buckets of the version 1 length histogram, which the decoder skips.
constexpr int kV1LenBuckets = 17;

// Cursor over the text codec: whitespace-separated non-negative decimal
// tokens and words, plus the `<len>:<bytes>` strings of version 1.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  Result<int64_t> Int() {
    SkipSpace();
    size_t start = pos_;
    int64_t value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const int digit = text_[pos_] - '0';
      if (value > (INT64_MAX - digit) / 10) {
        return Status::InvalidArgument("stats: number out of range");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("stats: expected a non-negative int");
    }
    return value;
  }

  Result<std::string> Str() {
    STRDB_ASSIGN_OR_RETURN(int64_t len, Int());
    if (pos_ >= text_.size() || text_[pos_] != ':' ||
        static_cast<size_t>(len) > text_.size() - pos_ - 1) {
      return Status::InvalidArgument("stats: bad string prefix");
    }
    std::string out = text_.substr(pos_ + 1, static_cast<size_t>(len));
    pos_ += 1 + static_cast<size_t>(len);
    return out;
  }

  Status Expect(const std::string& word) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\n') {
      ++pos_;
    }
    if (text_.compare(start, pos_ - start, word) != 0) {
      return Status::InvalidArgument("stats: expected '" + word + "'");
    }
    return Status::OK();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

double ColumnStats::ExpectedLength(int64_t rows) const {
  if (rows <= 0) return 0.0;
  return static_cast<double>(total_chars) / static_cast<double>(rows);
}

RelationStats ComputeRelationStats(const StringRelation& relation) {
  RelationStats stats;
  stats.arity = relation.arity();
  stats.rows = relation.size();
  stats.columns.resize(static_cast<size_t>(std::max(relation.arity(), 0)));
  for (const Tuple& tuple : relation.tuples()) {
    for (size_t c = 0; c < tuple.size() && c < stats.columns.size(); ++c) {
      ColumnStats& col = stats.columns[c];
      col.total_chars += static_cast<int64_t>(tuple[c].size());
      for (unsigned char ch : tuple[c]) ++col.char_freq[ch];
    }
  }
  return stats;
}

std::string EncodeRelationStats(const RelationStats& stats) {
  std::string out = "rstats 2 " + std::to_string(stats.arity) + " " +
                    std::to_string(stats.rows) + "\n";
  for (const ColumnStats& col : stats.columns) {
    int nonzero = 0;
    for (int64_t f : col.char_freq) nonzero += f != 0 ? 1 : 0;
    out += "col " + std::to_string(col.total_chars) + "\nfreq " +
           std::to_string(nonzero);
    for (int b = 0; b < 256; ++b) {
      if (col.char_freq[static_cast<size_t>(b)] == 0) continue;
      out += " " + std::to_string(b) + " " +
             std::to_string(col.char_freq[static_cast<size_t>(b)]);
    }
    out += "\n";
  }
  return out;
}

Result<RelationStats> DecodeRelationStats(const std::string& text) {
  Cursor cur(text);
  STRDB_RETURN_IF_ERROR(cur.Expect("rstats"));
  STRDB_ASSIGN_OR_RETURN(int64_t version, cur.Int());
  if (version != 1 && version != 2) {
    return Status::InvalidArgument("stats: bad version");
  }
  RelationStats stats;
  STRDB_ASSIGN_OR_RETURN(int64_t arity, cur.Int());
  STRDB_ASSIGN_OR_RETURN(stats.rows, cur.Int());
  if (arity > 1024) return Status::InvalidArgument("stats: bad arity");
  stats.arity = static_cast<int>(arity);
  stats.columns.resize(static_cast<size_t>(arity));
  for (ColumnStats& col : stats.columns) {
    STRDB_RETURN_IF_ERROR(cur.Expect("col"));
    STRDB_ASSIGN_OR_RETURN(col.total_chars, cur.Int());
    if (version == 1) {
      // Maximum length, then the length histogram.
      STRDB_RETURN_IF_ERROR(cur.Int().status());
      STRDB_RETURN_IF_ERROR(cur.Expect("hist"));
      for (int i = 0; i < kV1LenBuckets; ++i) {
        STRDB_RETURN_IF_ERROR(cur.Int().status());
      }
    }
    STRDB_RETURN_IF_ERROR(cur.Expect("freq"));
    STRDB_ASSIGN_OR_RETURN(int64_t nonzero, cur.Int());
    if (nonzero > 256) return Status::InvalidArgument("stats: bad freq count");
    for (int64_t i = 0; i < nonzero; ++i) {
      STRDB_ASSIGN_OR_RETURN(int64_t byte, cur.Int());
      STRDB_ASSIGN_OR_RETURN(int64_t count, cur.Int());
      if (byte > 255) return Status::InvalidArgument("stats: bad freq byte");
      col.char_freq[static_cast<size_t>(byte)] = count;
    }
    if (version == 1) {
      // The saturation flag, then the prefix list.
      STRDB_RETURN_IF_ERROR(cur.Expect("pfx"));
      STRDB_RETURN_IF_ERROR(cur.Int().status());
      STRDB_ASSIGN_OR_RETURN(int64_t num_prefixes, cur.Int());
      for (int64_t i = 0; i < num_prefixes; ++i) {
        STRDB_RETURN_IF_ERROR(cur.Str().status());
      }
    }
  }
  return stats;
}

}  // namespace strdb
