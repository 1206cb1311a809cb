// libFuzzer: the Theorem 4.2 translation vs the calculus evaluator —
// random queries over small catalogs, answered by EvalAlgebra and the
// engine on the translated algebra at every truncation up to
// max(R, db)+1 and by Query::Execute at the inferred one, must equal
// EvalCalcNaive's ⟦φ⟧^l.
#include "fuzz_common.h"
#include "testing/targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const strdb::testgen::TranslationDiffTarget target;
  strdb::testgen::FuzzDifferentialTarget(target, data, size);
  return 0;
}
