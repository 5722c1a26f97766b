// Span recorder for the traced benchmark run.
//
// Spans are placed by the benchmark around its own calls into each mufuzz
// layer's public functions (nothing inside the library is instrumented).
// Every span records its name, the job it belongs to, the thread, its
// parent (the innermost open span of the same thread) and its start and end
// on steady_clock. Spans are kept in per-thread buffers in memory and only
// written out when the run ends. Recording is off unless Enable() was
// called, so the timed (untraced) run pays one relaxed load per call site.
#ifndef MFBENCH_TRACE_H_
#define MFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mfbench {

/// Every span the benchmark places, with the layer it times.
enum class SpanName : uint8_t {
  kJob,             ///< bench: one job, root of its spans
  kCompile,         ///< lang::CompileContract
  kDataflow,        ///< analysis::AnalyzeDataflow
  kDepGraph,        ///< analysis::DependencyGraph::Build
  kDecode,          ///< evm::DecodeCode
  kBind,            ///< evm::ExecutionBackend::Bind
  kDeploy,          ///< evm::ExecutionBackend::DeployContract
  kExec,            ///< evm::ExecutionBackend::ExecuteSequenceInto
  kRewind,          ///< evm::ExecutionBackend::Rewind
  kCampaignCtor,    ///< fuzzer::Campaign constructor
  kSeedCorpus,      ///< fuzzer::Campaign::SeedCorpus
  kStepRound,       ///< fuzzer::Campaign::StepRound
  kFinalize,        ///< fuzzer::Campaign::Finalize
  kServiceSubmit,   ///< engine::FuzzService::Submit
  kServicePoll,     ///< engine::FuzzService::Poll
  kServiceWait,     ///< engine::FuzzService::Wait
  kServiceStats,    ///< engine::FuzzService::Stats
  kClientSubmit,    ///< server::MufuzzClient::Submit
  kClientPoll,      ///< server::MufuzzClient::Poll
  kClientWait,      ///< server::MufuzzClient::Wait
  kEncodeOutcome,   ///< server::EncodeOutcome
  kDecodeOutcome,   ///< server::DecodeOutcome
  kAllocStats,      ///< common::CurrentAllocStats
  kCount,
};

const char* SpanNameString(SpanName name);
const char* SpanLayer(SpanName name);

struct Span {
  SpanName name = SpanName::kJob;
  uint32_t thread = 0;
  uint64_t job = 0;
  int64_t parent = -1;  ///< index into the same thread's buffer, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One finished span with its thread-buffer-independent identity and the
/// self time (duration minus what its children cover).
struct FlatSpan {
  Span span;
  uint64_t id = 0;         ///< unique over the run
  int64_t parent_id = -1;  ///< id of the parent span, -1 = root
  int64_t self_ns = 0;
};

bool TracingEnabled();
void EnableTracing(bool on);

/// While alive, spans opened by this thread are not recorded, even with
/// tracing on: the untraced half of the tracing-overhead comparison.
class ScopedUntraced {
 public:
  ScopedUntraced();
  ~ScopedUntraced();
  ScopedUntraced(const ScopedUntraced&) = delete;
  ScopedUntraced& operator=(const ScopedUntraced&) = delete;
};

/// Sets the job id that spans opened by this thread carry.
void SetCurrentJob(uint64_t job);

int64_t NowNs();

/// RAII span: opens on construction when tracing is on, closes on scope
/// exit.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

/// Collects every thread's spans (all spans must be closed), computes ids
/// and self times, and clears the buffers.
std::vector<FlatSpan> DrainSpans();

/// Writes the spans as CSV (one span per line) to `path`. Returns false on
/// an I/O error.
bool WriteSpansCsv(const std::vector<FlatSpan>& spans, const std::string& path);

}  // namespace mfbench

#endif  // MFBENCH_TRACE_H_
