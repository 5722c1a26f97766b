#include "direct.h"

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "evm/code_cache.h"
#include "lang/compiler.h"
#include "trace.h"

namespace mfbench {

using mufuzz::evm::SequenceOutcome;
using mufuzz::evm::SequencePlan;

void TracingBackend::Bind(mufuzz::evm::Host* host,
                          mufuzz::evm::BlockContext block,
                          mufuzz::evm::EvmConfig config) {
  ScopedSpan span(SpanName::kBind);
  inner_->Bind(host, block, config);
}

mufuzz::Result<mufuzz::Address> TracingBackend::DeployContract(
    const mufuzz::Bytes& runtime_code, const mufuzz::Bytes& ctor_code,
    const mufuzz::Bytes& ctor_args, const mufuzz::Address& deployer,
    const mufuzz::U256& value) {
  ScopedSpan span(SpanName::kDeploy);
  return inner_->DeployContract(runtime_code, ctor_code, ctor_args, deployer,
                                value);
}

void TracingBackend::Rewind() {
  ScopedSpan span(SpanName::kRewind);
  inner_->Rewind();
}

SequenceOutcome TracingBackend::ExecuteSequence(const SequencePlan& plan) {
  SequenceOutcome out;
  ExecuteSequenceInto(plan, &out);
  return out;
}

void TracingBackend::ExecuteSequenceInto(const SequencePlan& plan,
                                         SequenceOutcome* out) {
  {
    ScopedSpan span(SpanName::kExec);
    inner_->ExecuteSequenceInto(plan, out);
  }
  transactions_ += out->txs.size();
  instructions_ += out->instructions;
}

std::optional<mufuzz::fuzzer::CampaignResult> RunDirectJob(
    const std::string& source, const mufuzz::fuzzer::CampaignConfig& config,
    TracingBackend* backend) {
  ScopedSpan job(SpanName::kJob);
  std::optional<mufuzz::lang::ContractArtifact> artifact;
  {
    ScopedSpan span(SpanName::kCompile);
    auto compiled = mufuzz::lang::CompileContract(source);
    if (!compiled.ok()) return std::nullopt;
    artifact = std::move(compiled).value();
  }
  {
    mufuzz::analysis::ContractDataflow dataflow;
    {
      ScopedSpan span(SpanName::kDataflow);
      dataflow = mufuzz::analysis::AnalyzeDataflow(*artifact->ast);
    }
    ScopedSpan span(SpanName::kDepGraph);
    mufuzz::analysis::DependencyGraph::Build(dataflow);
  }
  {
    ScopedSpan span(SpanName::kDecode);
    mufuzz::evm::DecodeCode(artifact->runtime_code);
  }
  std::optional<mufuzz::fuzzer::Campaign> campaign;
  {
    ScopedSpan span(SpanName::kCampaignCtor);
    campaign.emplace(&*artifact, config, backend);
  }
  {
    ScopedSpan span(SpanName::kSeedCorpus);
    campaign->SeedCorpus();
  }
  {
    ScopedSpan span(SpanName::kStepRound);
    campaign->StepRound(static_cast<uint64_t>(config.max_executions));
  }
  ScopedSpan span(SpanName::kFinalize);
  return campaign->Finalize();
}

std::optional<mufuzz::fuzzer::CampaignResult> RunDirectJobPair(
    const std::string& source, const mufuzz::fuzzer::CampaignConfig& config,
    uint64_t job, TracingBackend* traced, TracingBackend* untraced,
    double* untraced_ms) {
  SetCurrentJob(job);
  std::optional<mufuzz::fuzzer::CampaignResult> traced_result, plain_result;
  for (int leg = 0; leg < 2; ++leg) {
    if ((leg + job) % 2 == 0) {
      traced_result = RunDirectJob(source, config, traced);
      continue;
    }
    ScopedUntraced off;
    int64_t start = NowNs();
    plain_result = RunDirectJob(source, config, untraced);
    *untraced_ms += (NowNs() - start) / 1e6;
  }
  if (!traced_result.has_value() || !plain_result.has_value() ||
      !(*traced_result == *plain_result)) {
    return std::nullopt;
  }
  return traced_result;
}

}  // namespace mfbench
