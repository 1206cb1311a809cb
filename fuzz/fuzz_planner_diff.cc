// libFuzzer: cost-based planner vs the written product order vs the
// naive evaluator — four routes over one random catalog must agree
// tuple-for-tuple
// (stale statistics included), plus statistics persistence through a
// CatalogStore close/reopen (crash mode), fully in memory (MemEnv).
#include "fuzz_common.h"
#include "testing/targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const strdb::testgen::PlannerDiffTarget target;
  strdb::testgen::FuzzDifferentialTarget(target, data, size);
  return 0;
}
