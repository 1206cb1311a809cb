#ifndef STRDB_RELATIONAL_TUPLE_SOURCE_H_
#define STRDB_RELATIONAL_TUPLE_SOURCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "relational/relation.h"

namespace strdb {

// A relation that lives somewhere other than RAM.  The storage layer's
// paged heap implements this interface; it is declared here (below the
// storage layer) so the evaluator and the engine can stream tuples out
// of a spilled relation without depending on src/storage.
//
// Tuples are delivered in strict lexicographic order with no duplicates
// (heap runs are sorted at write time), so a consumer that needs set
// semantics can rely on ordering instead of re-deduplicating.
class TupleSource {
 public:
  virtual ~TupleSource() = default;

  virtual int arity() const = 0;
  virtual int64_t tuple_count() const = 0;
  // Length of the longest string in the relation — the paper's
  // max(R, db), which truncation inference needs *without* scanning.
  virtual int max_string_length() const = 0;

  // Streams every tuple, in order, as a sequence of batches.  A non-OK
  // status from `on_batch` aborts the scan and is returned unchanged.
  // The batch belongs to the callback for its duration: it may move
  // tuples out (a filter keeps its survivors without copying them), and
  // whatever it leaves behind is discarded when it returns.
  virtual Status Scan(
      const std::function<Status(std::vector<Tuple>&)>& on_batch) const = 0;

  // Materialises the whole relation in memory (the differential oracle,
  // and the write path when a spilled relation receives new tuples).
  // Default implementation drains Scan().
  virtual Result<StringRelation> Materialize() const;
};

// Named out-of-core relations riding alongside a Database.  Invariant
// maintained by CatalogStore: a relation name appears in exactly one of
// Database::relations() and the PagedSet.
using PagedSet = std::map<std::string, std::shared_ptr<const TupleSource>>;

}  // namespace strdb

#endif  // STRDB_RELATIONAL_TUPLE_SOURCE_H_
