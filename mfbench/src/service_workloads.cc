// d1_deep_serial and d2_multiseed: closed-loop clients driving an
// in-process engine::FuzzService through a fixed job list.
//
// Clients take the list's slots in order and wrap around when a run gets
// past its end; a repeated slot must reproduce its first result exactly.
// The deterministic figures (coverage, recall, precision) come from a fixed
// prefix of the list that every run completes, so they depend on the seed
// only. Rates are medians over chunks: runs of consecutive jobs with the
// same make-up, timed from the previous chunk's last completion to their
// own.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/alloc_stats.h"
#include "corpus/datasets.h"
#include "direct.h"
#include "engine/fuzz_service.h"
#include "layers.h"
#include "lang/compiler.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"

namespace mfbench {
namespace {

using mufuzz::corpus::CorpusEntry;
using mufuzz::engine::FuzzJob;
using mufuzz::engine::FuzzService;
using mufuzz::engine::JobOutcome;
using mufuzz::fuzzer::CampaignConfig;
using mufuzz::fuzzer::CampaignResult;

/// One slot of the repeating job list.
struct JobSpec {
  std::string name;
  const CorpusEntry* entry = nullptr;
  CampaignConfig config;
};

/// A workload's inputs: the corpus, the job list, and how it is driven and
/// measured.
struct JobMix {
  std::vector<CorpusEntry> corpus;
  std::vector<JobSpec> jobs;
  int workers = 1;      ///< service workers (and direct replay threads)
  int clients = 1;      ///< closed-loop clients, one job in flight each
  size_t chunk = 1;     ///< jobs per rate sample
  size_t scored = 1;    ///< leading slots the deterministic figures use
  size_t replayed = 1;  ///< leading slots the traced run replays directly
  int warmup_jobs = 1;
};

uint64_t CampaignSeed(uint64_t workload_seed, uint64_t slot) {
  return workload_seed * 1000003ULL + slot;
}

// d1_deep_serial: fig6's D1 ratio of two small contracts per large one,
// enough distinct contracts that no job repeats before the latency sample
// is complete.
constexpr int kD1Chunks = 11;
constexpr int kD1ChunkLarge = 32;
constexpr int kD1Large = kD1Chunks * kD1ChunkLarge;
constexpr int kD1Small = 2 * kD1Large;
constexpr int kD1Budget = 1000;

std::unique_ptr<JobMix> BuildD1Mix(uint64_t seed) {
  auto mix = std::make_unique<JobMix>();
  std::vector<CorpusEntry> small = mufuzz::corpus::BuildD1Small(kD1Small, seed);
  std::vector<CorpusEntry> large = mufuzz::corpus::BuildD1Large(kD1Large, seed);
  // Interleave small, small, large so the warm-up and every chunk have the
  // corpus's mix.
  for (int i = 0; i < kD1Large; ++i) {
    mix->corpus.push_back(std::move(small[2 * i]));
    mix->corpus.push_back(std::move(small[2 * i + 1]));
    mix->corpus.push_back(std::move(large[i]));
  }
  for (size_t i = 0; i < mix->corpus.size(); ++i) {
    JobSpec job;
    job.entry = &mix->corpus[i];
    job.name = job.entry->name;
    job.config.strategy = mufuzz::fuzzer::StrategyConfig::MuFuzz();
    job.config.seed = CampaignSeed(seed, i);
    job.config.max_executions = kD1Budget;
    mix->jobs.push_back(std::move(job));
  }
  mix->workers = 1;
  mix->clients = 1;
  mix->chunk = 3 * kD1ChunkLarge;
  mix->scored = (kD1Chunks - 1) * mix->chunk;
  mix->replayed = mix->chunk;
  mix->warmup_jobs = 3;
  return mix;
}

// d2_multiseed: the whole D2 suite under several campaign seeds at table
// III's budget.
constexpr int kD2Seeds = 3;
constexpr int kD2Budget = 400;
/// Enough jobs in flight that every service round has work for both
/// workers; with one job per worker, rounds are so short that thread
/// hand-offs, whose cost swings with host load, set the pace.
constexpr int kD2Clients = 8;

std::unique_ptr<JobMix> BuildD2Mix(uint64_t seed) {
  auto mix = std::make_unique<JobMix>();
  mix->corpus = mufuzz::corpus::BuildD2();
  for (int s = 0; s < kD2Seeds; ++s) {
    for (size_t i = 0; i < mix->corpus.size(); ++i) {
      JobSpec job;
      job.entry = &mix->corpus[i];
      job.name = job.entry->name + "#" + std::to_string(s);
      job.config.strategy = mufuzz::fuzzer::StrategyConfig::MuFuzz();
      job.config.seed = CampaignSeed(seed, s * mix->corpus.size() + i);
      job.config.max_executions = kD2Budget;
      mix->jobs.push_back(std::move(job));
    }
  }
  mix->workers = 2;
  mix->clients = kD2Clients;
  mix->chunk = mix->corpus.size();
  mix->scored = mix->jobs.size();
  mix->replayed = mix->jobs.size();
  mix->warmup_jobs = 2 * kD2Clients;
  return mix;
}

FuzzJob ToFuzzJob(const JobSpec& spec) {
  FuzzJob job;
  job.name = spec.name;
  job.source = spec.entry->source;
  job.config = spec.config;
  return job;
}

/// The ready-to-run state one set-up produces.
struct Bench {
  std::unique_ptr<JobMix> mix;
  std::unique_ptr<FuzzService> service;
};

std::unique_ptr<Bench> SetUp(std::unique_ptr<JobMix> (*build)(uint64_t),
                             uint64_t seed, RunReport* report) {
  auto bench = std::make_unique<Bench>();
  bench->mix = build(seed);
  mufuzz::engine::ServiceOptions options;
  options.workers = bench->mix->workers;
  bench->service = std::make_unique<FuzzService>(options);
  for (int i = 0; i < bench->mix->warmup_jobs; ++i) {
    auto ticket = bench->service->Submit(ToFuzzJob(bench->mix->jobs[i]));
    if (!ticket.ok() ||
        !bench->service->Wait(ticket.value()).result.has_value()) {
      report->Fail("warm-up job " + bench->mix->jobs[i].name + " failed");
    }
  }
  return bench;
}

/// What one closed-loop phase over the service measured.
struct Phase {
  double wall_s = 0;
  uint64_t service_rounds = 0;
  double busy_ms = 0;  ///< summed JobOutcome::elapsed_ms
  double rss_mb = 0;   ///< peak RSS when kMinLatencySamples jobs finished
  std::vector<double> latency_ms;
  std::vector<double> active_ms;
  /// First result seen per slot of the job list.
  std::vector<std::optional<CampaignResult>> first;
  /// Complete chunks, in job order: wall and CPU time at their last
  /// completion, and the executions they ran.
  struct Chunk {
    double end_s = 0;
    double cpu_s = 0;
    uint64_t executions = 0;
  };
  std::vector<Chunk> chunks;
};

/// Drives `bench` with `mix.clients` closed-loop clients: each takes the
/// next slot of the job list, submits it, polls once, and waits for its
/// outcome. Clients stop taking jobs once `seconds` passed and at least
/// `min_jobs` finished (or at kMaxRunFactor x `seconds`), then finish the
/// job they hold.
Phase RunPhase(Bench* bench, double seconds, size_t min_jobs,
               RunReport* report) {
  const JobMix& mix = *bench->mix;
  FuzzService& service = *bench->service;
  const size_t slots = mix.jobs.size();

  Phase phase;
  phase.first.resize(slots);
  std::mutex mu;
  size_t next = 0;
  bool stop = false;
  struct Partial {
    size_t done = 0;
    uint64_t executions = 0;
  };
  std::map<size_t, Partial> partial;  // chunk index -> progress
  std::map<size_t, Phase::Chunk> complete;

  uint64_t rounds_before = 0;
  {
    ScopedSpan span(SpanName::kServiceStats);
    rounds_before = service.Stats().rounds;
  }
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();

  auto client = [&]() {
    for (;;) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        double elapsed = SecondsSince(start);
        if ((elapsed >= seconds && phase.latency_ms.size() >= min_jobs) ||
            elapsed >= kMaxRunFactor * seconds) {
          stop = true;
        }
        if (stop) return;
        index = next++;
      }
      const JobSpec& spec = mix.jobs[index % slots];
      SetCurrentJob(index);
      const Clock::time_point submitted = Clock::now();
      mufuzz::Result<mufuzz::engine::JobTicket> ticket =
          mufuzz::Status::Internal("not submitted");
      {
        ScopedSpan span(SpanName::kServiceSubmit);
        ticket = service.Submit(ToFuzzJob(spec));
      }
      if (!ticket.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++report->ops.submitted;
        ++report->ops.rejected;
        report->Fail("submit of " + spec.name +
                     " refused: " + ticket.status().ToString());
        stop = true;
        return;
      }
      {
        ScopedSpan span(SpanName::kServicePoll);
        service.Poll(ticket.value());
      }
      JobOutcome outcome;
      {
        ScopedSpan span(SpanName::kServiceWait);
        outcome = service.Wait(ticket.value());
      }
      const double latency_ms = SecondsSince(submitted) * 1e3;
      const double done_s = SecondsSince(start);
      const double cpu_s = ProcessCpuSeconds() - cpu_start;

      std::lock_guard<std::mutex> lock(mu);
      ++report->ops.submitted;
      if (!outcome.result.has_value()) {
        ++report->ops.errored;
        report->Fail("job " + spec.name + " failed: " + outcome.error);
        stop = true;
        return;
      }
      ++report->ops.completed;
      const CampaignResult& result = *outcome.result;
      phase.latency_ms.push_back(latency_ms);
      if (phase.latency_ms.size() == kMinLatencySamples) {
        phase.rss_mb = PeakRssMb();
      }
      phase.active_ms.push_back(outcome.elapsed_ms);
      phase.busy_ms += outcome.elapsed_ms;
      std::optional<CampaignResult>& first = phase.first[index % slots];
      if (!first.has_value()) {
        first = result;
      } else if (!(*first == result)) {
        report->Fail("job " + spec.name +
                     " gave a different result when repeated");
      }
      Partial& p = partial[index / mix.chunk];
      p.executions += result.executions;
      if (++p.done == mix.chunk) {
        complete[index / mix.chunk] = {done_s, cpu_s, p.executions};
      }
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < mix.clients; ++i) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  phase.wall_s = SecondsSince(start);
  {
    ScopedSpan span(SpanName::kServiceStats);
    phase.service_rounds = service.Stats().rounds - rounds_before;
  }
  // Chunk c is timed from the last completion of the chunks before it.
  double prev_end = 0;
  for (auto& [index, chunk] : complete) {
    double end = chunk.end_s;
    chunk.end_s = std::max(end, prev_end);
    prev_end = chunk.end_s;
    phase.chunks.push_back(chunk);
  }
  if (phase.chunks.empty()) report->Fail("no chunk of jobs completed");
  return phase;
}

/// Checks every slot's first result against an independent JUMPI count of
/// its contract. Scores the bugs and averages the coverage of the first
/// `mix.scored` slots, which must all have results when `require_scored`.
BugScore CheckSlots(const JobMix& mix, const Phase& phase, bool require_scored,
                    RunReport* report, double* mean_coverage) {
  std::map<const CorpusEntry*, int> jumpis;
  BugScore score;
  double coverage = 0;
  size_t missing = 0;
  for (size_t i = 0; i < mix.jobs.size(); ++i) {
    const JobSpec& spec = mix.jobs[i];
    if (!phase.first[i].has_value()) {
      if (i < mix.scored) ++missing;
      continue;
    }
    auto it = jumpis.find(spec.entry);
    if (it == jumpis.end()) {
      auto artifact = mufuzz::lang::CompileContract(spec.entry->source);
      if (!artifact.ok()) {
        report->Fail("reference compile of " + spec.entry->name + " failed");
        continue;
      }
      it = jumpis.emplace(spec.entry, CountJumpis(artifact->runtime_code))
               .first;
    }
    std::string problem = CheckResult(*phase.first[i], it->second);
    if (!problem.empty()) report->Fail(spec.name + ": " + problem);
    if (i < mix.scored) {
      score.Add(*spec.entry, *phase.first[i]);
      coverage += phase.first[i]->branch_coverage;
    }
  }
  if (missing > 0 && require_scored) {
    report->Fail(std::to_string(missing) + " of the first " +
                 std::to_string(mix.scored) +
                 " jobs, which the figures are scored on, never ran");
  }
  *mean_coverage = coverage / mix.scored;
  return score;
}

void AddEndToEnd(const Phase& phase, const JobMix& mix, double setup_s,
                 RunReport* report) {
  WallClock wall;
  std::vector<double> execs_per_cpu_s, cpu_ms_per_job;
  double prev_end = 0, prev_cpu = 0;
  for (const Phase::Chunk& chunk : phase.chunks) {
    double seconds = chunk.end_s - prev_end;
    double cpu = chunk.cpu_s - prev_cpu;
    prev_end = chunk.end_s;
    prev_cpu = chunk.cpu_s;
    if (seconds <= 0 || cpu <= 0) continue;
    wall.execs_per_s.push_back(chunk.executions / seconds);
    wall.jobs_per_s.push_back(mix.chunk / seconds);
    execs_per_cpu_s.push_back(chunk.executions / cpu);
    cpu_ms_per_job.push_back(cpu * 1e3 / mix.chunk);
  }
  wall.latency_ms = phase.latency_ms;
  double coverage = 0;
  BugScore score = CheckSlots(mix, phase, true, report, &coverage);
  AddBoundedMetrics(Median(execs_per_cpu_s), Median(cpu_ms_per_job), coverage,
                    score, phase.rss_mb, setup_s, report);
  report->notes.push_back(
      "timed phase: " + std::to_string(phase.wall_s) + " s, " +
      std::to_string(phase.chunks.size()) + " complete chunks of " +
      std::to_string(mix.chunk) + " jobs, " +
      std::to_string(phase.latency_ms.size()) + " latency samples");
  report->notes.push_back(wall.Describe());
}

/// Replays the first `mix.replayed` slots directly through fuzzer::Campaign,
/// with spans, on as many threads as the service has workers, and checks
/// each result equals the service's.
void DirectReplay(const JobMix& mix, const Phase& phase, LayerInputs* in,
                  RunReport* report) {
  std::mutex mu;
  std::atomic<size_t> next{0};
  mufuzz::AllocCounters before;
  {
    ScopedSpan span(SpanName::kAllocStats);
    before = mufuzz::CurrentAllocStats();
  }
  auto worker = [&]() {
    mufuzz::evm::SessionBackend session, untraced_session;
    TracingBackend backend(&session), untraced(&untraced_session);
    uint64_t masks = 0, kept = 0, executions = 0;
    double untraced_ms = 0;
    for (size_t i = next++; i < mix.replayed; i = next++) {
      SetCurrentJob(i);
      const JobSpec& spec = mix.jobs[i];
      auto result = RunDirectJobPair(spec.entry->source, spec.config, i,
                                     &backend, &untraced, &untraced_ms);
      std::lock_guard<std::mutex> lock(mu);
      ++report->ops.cross_checks;
      if (!result.has_value()) {
        ++report->ops.errored;
        report->Fail("direct replay of " + spec.name +
                     " did not compile or did not repeat untraced");
        continue;
      }
      if (!phase.first[i].has_value() || !(*phase.first[i] == *result)) {
        report->Fail("direct Campaign result of " + spec.name +
                     " differs from the service's");
      }
      masks += result->masks_computed;
      kept += result->queue_stats.admitted;
      executions += result->executions;
    }
    std::lock_guard<std::mutex> lock(mu);
    in->direct_executions += executions;
    in->untraced_job_ms += untraced_ms;
    in->direct_transactions += backend.transactions();
    in->direct_instructions += backend.instructions();
    in->direct_masks += masks;
    in->direct_kept += kept;
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < mix.workers; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  ScopedSpan span(SpanName::kAllocStats);
  in->direct_allocs = mufuzz::CurrentAllocStats().allocs - before.allocs;
}

/// Sends the first jobs of the list through an in-process mufuzzd and
/// checks the wire outcomes against the service's results; times the client
/// verbs and the outcome codec.
constexpr size_t kWireJobs = 8;

void WireLeg(const JobMix& mix, const Phase& phase, LayerInputs* in,
             RunReport* report) {
  mufuzz::server::ServerOptions options;
  options.service.workers = mix.workers;
  mufuzz::server::MufuzzServer server(options);
  mufuzz::server::MufuzzClient client;
  if (!server.Start().ok() ||
      !client.Connect("127.0.0.1", server.port()).ok()) {
    ++report->ops.transport_errors;
    report->Fail("could not start or reach the in-process daemon");
    return;
  }
  for (size_t i = 0; i < kWireJobs && i < mix.jobs.size(); ++i) {
    const JobSpec& spec = mix.jobs[i];
    SetCurrentJob(i);
    mufuzz::server::SubmitRequest request;
    request.tenant = "wire";
    request.name = spec.name;
    request.source = spec.entry->source;
    request.config = spec.config;
    ++report->ops.cross_checks;
    mufuzz::Result<uint64_t> ticket = mufuzz::Status::Internal("unsent");
    {
      ScopedSpan span(SpanName::kClientSubmit);
      ticket = client.Submit(request);
    }
    mufuzz::Result<mufuzz::server::WireOutcome> outcome =
        mufuzz::Status::Internal("unsent");
    if (ticket.ok()) {
      for (int p = 0; p < 2; ++p) {
        ScopedSpan span(SpanName::kClientPoll);
        if (!client.Poll(ticket.value()).ok()) ++report->ops.transport_errors;
      }
      ScopedSpan span(SpanName::kClientWait);
      outcome = client.Wait(ticket.value());
    }
    if (!outcome.ok() || !outcome.value().has_result) {
      ++report->ops.transport_errors;
      report->Fail("wire job " + spec.name + " failed");
      continue;
    }
    if (!phase.first[i].has_value() ||
        !(outcome.value().result == *phase.first[i])) {
      report->Fail("wire outcome of " + spec.name +
                   " differs from the service's");
      continue;
    }
    JobOutcome local;
    local.name = spec.name;
    local.result = *phase.first[i];
    mufuzz::Bytes bytes;
    {
      ScopedSpan span(SpanName::kEncodeOutcome);
      bytes = mufuzz::server::EncodeOutcome(local);
    }
    mufuzz::server::WireOutcome decoded;
    mufuzz::Status status = mufuzz::Status::OK();
    {
      ScopedSpan span(SpanName::kDecodeOutcome);
      status = mufuzz::server::DecodeOutcome(bytes, &decoded);
    }
    if (!status.ok() || !(decoded.result == *phase.first[i])) {
      report->Fail("outcome codec round trip of " + spec.name + " differs");
    }
    in->outcome_bytes.push_back(static_cast<double>(bytes.size()));
  }
}

RunReport RunServiceWorkload(const RunOptions& options,
                             std::unique_ptr<JobMix> (*build)(uint64_t)) {
  RunReport report;
  double setup_s = 0;
  std::unique_ptr<Bench> bench = TimeSetup(
      kSetupRepeats,
      [&]() { return SetUp(build, options.seed, &report); }, &setup_s);
  if (!report.errors.empty()) return report;

  if (!options.trace) {
    Phase phase = RunPhase(bench.get(), options.seconds, kMinLatencySamples,
                           &report);
    AddEndToEnd(phase, *bench->mix, setup_s, &report);
    return report;
  }

  EnableTracing(true);
  Phase phase = RunPhase(bench.get(), options.seconds / 2,
                         bench->mix->replayed, &report);
  double coverage = 0;
  CheckSlots(*bench->mix, phase, false, &report, &coverage);
  LayerInputs in;
  in.latency_ms = phase.latency_ms;
  in.active_ms = phase.active_ms;
  in.service_wall_s = phase.wall_s;
  in.service_workers = bench->mix->workers;
  in.service_rounds = phase.service_rounds;
  in.service_busy_ms = phase.busy_ms;
  if (phase.chunks.empty()) return report;
  DirectReplay(*bench->mix, phase, &in, &report);
  WireLeg(*bench->mix, phase, &in, &report);
  FinishTrace(options, in, &report);
  return report;
}

}  // namespace

RunReport RunD1DeepSerial(const RunOptions& options) {
  return RunServiceWorkload(options, BuildD1Mix);
}

RunReport RunD2Multiseed(const RunOptions& options) {
  return RunServiceWorkload(options, BuildD2Mix);
}

}  // namespace mfbench
