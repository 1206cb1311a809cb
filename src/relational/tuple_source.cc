#include "relational/tuple_source.h"

namespace strdb {

Result<StringRelation> TupleSource::Materialize() const {
  StringRelation out(arity());
  Status status = Scan([&out](std::vector<Tuple>& batch) -> Status {
    for (Tuple& t : batch) {
      STRDB_RETURN_IF_ERROR(out.Insert(std::move(t)));
    }
    return Status::OK();
  });
  if (!status.ok()) return status;
  return out;
}

}  // namespace strdb
