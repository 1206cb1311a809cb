#include "fsa/acceptor.h"

#include <utility>

namespace strdb {

Acceptor Acceptor::Compile(std::shared_ptr<const Fsa> fsa) {
  Acceptor acceptor;
  Result<DfaProgram> dfa = DfaProgram::Compile(*fsa);
  if (dfa.ok()) {
    acceptor.dfa_ = std::make_unique<const DfaProgram>(std::move(dfa).value());
    return acceptor;
  }
  Result<AcceptKernel> kernel = AcceptKernel::Compile(*fsa);
  if (kernel.ok()) {
    acceptor.kernel_ =
        std::make_unique<const AcceptKernel>(std::move(kernel).value());
    return acceptor;
  }
  acceptor.fsa_ = std::move(fsa);
  return acceptor;
}

int64_t Acceptor::MemoryCost() const {
  int64_t bytes = static_cast<int64_t>(sizeof(Acceptor));
  if (dfa_ != nullptr) bytes += dfa_->MemoryCost();
  if (kernel_ != nullptr) bytes += kernel_->MemoryCost();
  return bytes;
}

AcceptBatchResult Acceptor::AcceptBatch(
    std::span<const std::vector<std::string>* const> tuples,
    const AcceptOptions& options) const {
  switch (tier()) {
    case Tier::kDfa: {
      thread_local DfaScratch scratch;
      return strdb::AcceptBatch(*dfa_, tuples, &scratch, options);
    }
    case Tier::kKernel: {
      thread_local AcceptScratch scratch;
      return strdb::AcceptBatch(*kernel_, tuples, &scratch, options);
    }
    case Tier::kBfs:
      break;
  }
  return AcceptEach(tuples, [&](const std::vector<std::string>& tuple) {
    return AcceptsWithStats(*fsa_, tuple, options);
  });
}

}  // namespace strdb
