// libFuzzer: the compiled-query cache behind Query::Parse vs a fresh
// Query::Compile — repeated query texts interleaved with catalog
// mutations must keep the parse verdict, the InferTruncation Result and
// the answer bytes of the uncached builder on the naive evaluator.
#include "fuzz_common.h"
#include "testing/targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const strdb::testgen::QueryCacheDiffTarget target;
  strdb::testgen::FuzzDifferentialTarget(target, data, size);
  return 0;
}
