// The traced direct path: one job run by the benchmark itself through each
// layer's public functions, with a span around every call, over a
// forwarding ExecutionBackend handed to fuzzer::Campaign.
#ifndef MFBENCH_DIRECT_H_
#define MFBENCH_DIRECT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "evm/execution_backend.h"
#include "fuzzer/campaign.h"

namespace mfbench {

/// Forwards every ExecutionBackend call to a SessionBackend, timing the
/// evm layer's calls as spans and counting the work they did. Batches use
/// the base class's synchronous SubmitBatch/WaitBatch, which execute
/// through the (forwarded) ExecuteSequenceInto, so every sequence the
/// campaign runs passes through here.
class TracingBackend : public mufuzz::evm::ExecutionBackend {
 public:
  explicit TracingBackend(mufuzz::evm::SessionBackend* inner)
      : inner_(inner) {}

  void Bind(mufuzz::evm::Host* host, mufuzz::evm::BlockContext block,
            mufuzz::evm::EvmConfig config) override;
  void Unbind() override { inner_->Unbind(); }
  mufuzz::Result<mufuzz::Address> DeployContract(
      const mufuzz::Bytes& runtime_code, const mufuzz::Bytes& ctor_code,
      const mufuzz::Bytes& ctor_args, const mufuzz::Address& deployer,
      const mufuzz::U256& value) override;
  void FundAccount(const mufuzz::Address& addr,
                   const mufuzz::U256& balance) override {
    inner_->FundAccount(addr, balance);
  }
  void MarkDeployed() override { inner_->MarkDeployed(); }
  void Rewind() override;
  mufuzz::evm::SequenceOutcome ExecuteSequence(
      const mufuzz::evm::SequencePlan& plan) override;
  void ExecuteSequenceInto(const mufuzz::evm::SequencePlan& plan,
                           mufuzz::evm::SequenceOutcome* out) override;
  mufuzz::evm::CodeCacheStats code_cache_stats() const override {
    return inner_->code_cache_stats();
  }
  const mufuzz::evm::WorldState& state() const override {
    return inner_->state();
  }

  uint64_t transactions() const { return transactions_; }
  uint64_t instructions() const { return instructions_; }

 private:
  mufuzz::evm::SessionBackend* inner_;
  uint64_t transactions_ = 0;
  uint64_t instructions_ = 0;
};

/// Compiles `source` and fuzzes it under `config` through `backend`:
/// CompileContract, AnalyzeDataflow, DependencyGraph::Build, DecodeCode,
/// then Campaign's constructor, SeedCorpus, StepRound(max_executions) and
/// Finalize — the stepped equivalent of the service's streamed run. Empty
/// when the source does not compile. The analysis and decode calls repeat
/// work the campaign and the code cache do anyway; they are there to time
/// those layers on their own.
std::optional<mufuzz::fuzzer::CampaignResult> RunDirectJob(
    const std::string& source, const mufuzz::fuzzer::CampaignConfig& config,
    TracingBackend* backend);

/// Runs RunDirectJob twice, traced through `traced` and untraced through
/// `untraced`, in an order that alternates with `job` so drift in host
/// speed cancels out, and checks the two results agree. Adds the untraced
/// run's wall time to `*untraced_ms`; the traced run's time is its job
/// span. Empty when the source does not compile or the runs disagree.
std::optional<mufuzz::fuzzer::CampaignResult> RunDirectJobPair(
    const std::string& source, const mufuzz::fuzzer::CampaignConfig& config,
    uint64_t job, TracingBackend* traced, TracingBackend* untraced,
    double* untraced_ms);

}  // namespace mfbench

#endif  // MFBENCH_DIRECT_H_
