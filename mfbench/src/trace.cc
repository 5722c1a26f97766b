#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace mfbench {
namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"job", "bench"},
    {"CompileContract", "lang"},
    {"AnalyzeDataflow", "analysis"},
    {"DependencyGraph::Build", "analysis"},
    {"DecodeCode", "evm"},
    {"Bind", "evm"},
    {"DeployContract", "evm"},
    {"ExecuteSequence", "evm"},
    {"Rewind", "evm"},
    {"Campaign::Campaign", "fuzzer"},
    {"SeedCorpus", "fuzzer"},
    {"StepRound", "fuzzer"},
    {"Finalize", "fuzzer"},
    {"FuzzService::Submit", "engine"},
    {"FuzzService::Poll", "engine"},
    {"FuzzService::Wait", "engine"},
    {"FuzzService::Stats", "engine"},
    {"MufuzzClient::Submit", "server"},
    {"MufuzzClient::Poll", "server"},
    {"MufuzzClient::Wait", "server"},
    {"EncodeOutcome", "server"},
    {"DecodeOutcome", "server"},
    {"CurrentAllocStats", "common"},
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<size_t>(SpanName::kCount));

/// One thread's spans. Owned by the registry so buffers outlive the
/// threads that filled them (service and client threads end before the
/// run writes its spans).
struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t job = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  ///< indices of the open spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mu
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local bool t_untraced = false;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_registry.back().get();
    t_buffer->thread = static_cast<uint32_t>(g_registry.size() - 1);
  }
  return t_buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  return kNames[static_cast<size_t>(name)].name;
}

const char* SpanLayer(SpanName name) {
  return kNames[static_cast<size_t>(name)].layer;
}

bool TracingEnabled() {
  return g_enabled.load(std::memory_order_relaxed) && !t_untraced;
}

ScopedUntraced::ScopedUntraced() { t_untraced = true; }

ScopedUntraced::~ScopedUntraced() { t_untraced = false; }

void EnableTracing(bool on) { g_enabled.store(on); }

void SetCurrentJob(uint64_t job) {
  if (TracingEnabled()) Buffer()->job = job;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(SpanName name) {
  if (!TracingEnabled()) return;
  ThreadBuffer* buffer = Buffer();
  Span span;
  span.name = name;
  span.thread = buffer->thread;
  span.job = buffer->job;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  index_ = static_cast<int64_t>(buffer->spans.size());
  buffer->spans.push_back(span);
  buffer->open.push_back(index_);
  buffer->spans.back().start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  int64_t end = NowNs();
  ThreadBuffer* buffer = Buffer();
  buffer->spans[static_cast<size_t>(index_)].end_ns = end;
  buffer->open.pop_back();
}

std::vector<FlatSpan> DrainSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<FlatSpan> out;
  for (const auto& buffer : g_registry) {
    const uint64_t base = out.size();
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const Span& span : buffer->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      FlatSpan flat;
      flat.span = span;
      flat.id = base + i;
      flat.parent_id =
          span.parent < 0 ? -1 : static_cast<int64_t>(base) + span.parent;
      // Children run nested and one after another on the parent's thread,
      // so their summed durations are exactly the time they cover.
      flat.self_ns = span.end_ns - span.start_ns - child_ns[i];
      out.push_back(flat);
    }
    buffer->spans.clear();
  }
  return out;
}

bool WriteSpansCsv(const std::vector<FlatSpan>& spans,
                   const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().span.start_ns;
  for (const FlatSpan& s : spans) {
    if (s.span.start_ns < origin) origin = s.span.start_ns;
  }
  std::fprintf(f, "id,parent,layer,name,job,thread,start_us,dur_us,self_us\n");
  for (const FlatSpan& s : spans) {
    std::fprintf(f, "%llu,%lld,%s,%s,%llu,%u,%.3f,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent_id), SpanLayer(s.span.name),
                 SpanNameString(s.span.name),
                 static_cast<unsigned long long>(s.span.job), s.span.thread,
                 (s.span.start_ns - origin) / 1e3,
                 (s.span.end_ns - s.span.start_ns) / 1e3, s.self_ns / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace mfbench
