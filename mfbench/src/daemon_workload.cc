// mufuzzd_two_tenant: an in-process MufuzzServer on loopback with two
// service workers, driven by closed-loop client connections of two tenants.
//
//  - "interactive": one connection submitting small-budget D2 jobs one
//    after another (SUBMIT, two POLLs, WAIT), cycling through the suite;
//    latency runs from SUBMIT sent to outcome decoded.
//  - "batch": two connections each keeping one deep D1-large job running
//    (SUBMIT, WAIT).
//
// Each interactive cycle and each batch cycle repeats the same jobs with the
// same campaign seeds, so coverage, recall and precision come from the first
// interactive cycle and every repeat must reproduce its first result.

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/alloc_stats.h"
#include "corpus/datasets.h"
#include "direct.h"
#include "lang/compiler.h"
#include "layers.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"

namespace mfbench {
namespace {

using mufuzz::corpus::CorpusEntry;
using mufuzz::fuzzer::CampaignConfig;
using mufuzz::fuzzer::CampaignResult;
using mufuzz::server::MufuzzClient;
using mufuzz::server::MufuzzServer;
using mufuzz::server::SubmitRequest;
using mufuzz::server::WireOutcome;

constexpr int kWorkers = 2;
constexpr int kInteractiveBudget = 100;
constexpr int kBatchContracts = 32;
constexpr int kBatchBudget = 3000;
constexpr int kBatchConnections = 2;
constexpr int kPollsPerJob = 2;
constexpr double kWindowS = 0.5;
/// Span job ids of batch jobs start here; interactive jobs count from 0.
constexpr uint64_t kBatchJobIds = 1000000;

/// One tenant's repeating job list.
struct Tenant {
  std::string name;
  std::vector<CorpusEntry> corpus;
  std::vector<CampaignConfig> configs;  ///< parallel to corpus

  SubmitRequest Request(size_t index) const {
    size_t slot = index % corpus.size();
    SubmitRequest request;
    request.tenant = name;
    request.name = corpus[slot].name;
    request.source = corpus[slot].source;
    request.config = configs[slot];
    return request;
  }
};

Tenant MakeTenant(std::string name, std::vector<CorpusEntry> corpus,
                  int budget, uint64_t seed_base) {
  Tenant tenant;
  tenant.name = std::move(name);
  tenant.corpus = std::move(corpus);
  for (size_t i = 0; i < tenant.corpus.size(); ++i) {
    CampaignConfig config;
    config.strategy = mufuzz::fuzzer::StrategyConfig::MuFuzz();
    config.seed = seed_base + i;
    config.max_executions = budget;
    tenant.configs.push_back(config);
  }
  return tenant;
}

struct Bench {
  Tenant interactive;
  Tenant batch;
  std::unique_ptr<MufuzzServer> server;
};

/// One closed-loop request cycle: SUBMIT, `polls` POLLs, WAIT.
mufuzz::Result<WireOutcome> RunJob(MufuzzClient* client,
                                   const SubmitRequest& request, int polls,
                                   uint64_t* ticket_out) {
  mufuzz::Result<uint64_t> ticket = mufuzz::Status::Internal("unsent");
  {
    ScopedSpan span(SpanName::kClientSubmit);
    ticket = client->Submit(request);
  }
  if (!ticket.ok()) return ticket.status();
  *ticket_out = ticket.value();
  for (int p = 0; p < polls; ++p) {
    ScopedSpan span(SpanName::kClientPoll);
    auto progress = client->Poll(ticket.value());
    if (!progress.ok()) return progress.status();
  }
  ScopedSpan span(SpanName::kClientWait);
  return client->Wait(ticket.value());
}

std::unique_ptr<Bench> SetUp(uint64_t seed, RunReport* report) {
  auto bench = std::make_unique<Bench>();
  bench->interactive = MakeTenant("interactive", mufuzz::corpus::BuildD2(),
                                  kInteractiveBudget, seed * 1000003ULL);
  bench->batch = MakeTenant(
      "batch", mufuzz::corpus::BuildD1Large(kBatchContracts, seed),
      kBatchBudget, seed * 1000003ULL + 500000);
  mufuzz::server::ServerOptions options;
  options.service.workers = kWorkers;
  bench->server = std::make_unique<MufuzzServer>(options);
  MufuzzClient client;
  if (!bench->server->Start().ok() ||
      !client.Connect("127.0.0.1", bench->server->port()).ok()) {
    report->Fail("could not start or reach the in-process daemon");
    return bench;
  }
  uint64_t ticket = 0;
  for (const SubmitRequest& request :
       {bench->interactive.Request(0), bench->interactive.Request(1),
        bench->batch.Request(0)}) {
    auto outcome = RunJob(&client, request, kPollsPerJob, &ticket);
    if (!outcome.ok() || !outcome.value().has_result) {
      report->Fail("warm-up job " + request.name + " failed");
    }
  }
  return bench;
}

/// First result seen per slot of a tenant's job list, with the repeat check.
struct Slots {
  std::vector<std::optional<CampaignResult>> first;

  void Record(size_t index, const CampaignResult& result,
              const std::string& name, RunReport* report) {
    std::optional<CampaignResult>& slot = first[index % first.size()];
    if (!slot.has_value()) {
      slot = result;
    } else if (!(*slot == result)) {
      report->Fail("job " + name + " gave a different result when repeated");
    }
  }
};

struct Phase {
  double wall_s = 0;
  std::vector<double> latency_ms;  ///< interactive
  std::vector<double> active_ms;   ///< interactive, traced runs only
  double busy_ms = 0;              ///< both tenants, traced runs only
  uint64_t service_rounds = 0;
  Slots interactive;
  Slots batch;
  /// Per window: executions/s of both tenants, interactive jobs/s, and
  /// executions per process CPU second.
  std::vector<double> execs_per_s, jobs_per_s, execs_per_cpu_s;
  double cpu_s = 0;     ///< process CPU over the phase
  uint64_t jobs = 0;    ///< jobs of both tenants finished in the phase
  double rss_mb = 0;    ///< peak RSS when kMinLatencySamples jobs finished
  std::vector<double> outcome_bytes;
};

Phase RunPhase(Bench* bench, double seconds, size_t min_jobs, bool traced,
               RunReport* report) {
  Phase phase;
  phase.interactive.first.resize(bench->interactive.corpus.size());
  phase.batch.first.resize(bench->batch.corpus.size());
  mufuzz::engine::FuzzService& service = bench->server->service();
  const int port = bench->server->port();
  std::mutex mu;
  bool stop = false;
  std::atomic<uint64_t> interactive_done{0};
  size_t next_batch = 0;

  auto fail_transport = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++report->ops.transport_errors;
    report->Fail(what);
    stop = true;
  };
  auto stopped = [&]() {
    std::lock_guard<std::mutex> lock(mu);
    return stop;
  };
  // Engine view of a finished job (traced runs): active time for the queue
  // wait, and the outcome codec timed on it.
  auto engine_outcome = [&](uint64_t ticket, const CampaignResult& wire,
                            const std::string& name) {
    mufuzz::engine::JobOutcome local;
    {
      ScopedSpan span(SpanName::kServiceWait);
      local = service.Wait(ticket);
    }
    mufuzz::Bytes bytes;
    {
      ScopedSpan span(SpanName::kEncodeOutcome);
      bytes = mufuzz::server::EncodeOutcome(local);
    }
    WireOutcome decoded;
    mufuzz::Status status = mufuzz::Status::OK();
    {
      ScopedSpan span(SpanName::kDecodeOutcome);
      status = mufuzz::server::DecodeOutcome(bytes, &decoded);
    }
    std::lock_guard<std::mutex> lock(mu);
    if (!status.ok() || !local.result.has_value() ||
        !(decoded.result == wire) || !(*local.result == wire)) {
      report->Fail("engine or codec view of " + name +
                   " differs from the wire outcome");
    }
    phase.outcome_bytes.push_back(static_cast<double>(bytes.size()));
    phase.busy_ms += local.elapsed_ms;
    return local.elapsed_ms;
  };

  uint64_t rounds_before = service.Stats().rounds;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();

  auto interactive = [&]() {
    MufuzzClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      fail_transport("interactive client could not connect");
      return;
    }
    for (size_t i = 0; !stopped(); ++i) {
      SetCurrentJob(i);
      SubmitRequest request = bench->interactive.Request(i);
      uint64_t ticket = 0;
      const Clock::time_point submitted = Clock::now();
      auto outcome = RunJob(&client, request, kPollsPerJob, &ticket);
      const double latency_ms = SecondsSince(submitted) * 1e3;
      {
        std::lock_guard<std::mutex> lock(mu);
        ++report->ops.submitted;
      }
      if (!outcome.ok()) {
        fail_transport("interactive job " + request.name + ": " +
                       outcome.status().ToString());
        return;
      }
      if (!outcome.value().has_result) {
        std::lock_guard<std::mutex> lock(mu);
        ++report->ops.errored;
        report->Fail("interactive job " + request.name +
                     " failed: " + outcome.value().error);
        stop = true;
        return;
      }
      const CampaignResult& result = outcome.value().result;
      double active_ms =
          traced ? engine_outcome(ticket, result, request.name) : 0;
      std::lock_guard<std::mutex> lock(mu);
      ++report->ops.completed;
      phase.latency_ms.push_back(latency_ms);
      if (phase.latency_ms.size() == kMinLatencySamples) {
        phase.rss_mb = PeakRssMb();
      }
      if (traced) phase.active_ms.push_back(active_ms);
      phase.interactive.Record(i, result, request.name, report);
      interactive_done.fetch_add(1);
    }
  };
  auto batch = [&]() {
    MufuzzClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      fail_transport("batch client could not connect");
      return;
    }
    for (;;) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop) return;
        index = next_batch++;
        ++report->ops.submitted;
      }
      SetCurrentJob(kBatchJobIds + index);
      SubmitRequest request = bench->batch.Request(index);
      uint64_t ticket = 0;
      auto outcome = RunJob(&client, request, 0, &ticket);
      if (!outcome.ok()) {
        fail_transport("batch job " + request.name + ": " +
                       outcome.status().ToString());
        return;
      }
      if (outcome.value().has_result && traced) {
        engine_outcome(ticket, outcome.value().result, request.name);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!outcome.value().has_result) {
        ++report->ops.errored;
        report->Fail("batch job " + request.name +
                     " failed: " + outcome.value().error);
        stop = true;
        return;
      }
      ++report->ops.completed;
      phase.batch.Record(index, outcome.value().result, request.name, report);
    }
  };

  std::vector<std::thread> clients;
  clients.emplace_back(interactive);
  for (int i = 0; i < kBatchConnections; ++i) clients.emplace_back(batch);

  // Window sampler: executions from the service's metrics plane (finished
  // jobs plus live progress, so it moves smoothly), interactive completions
  // and process CPU.
  uint64_t prev_execs = service.Stats().executions;
  uint64_t prev_jobs = 0;
  double prev_cpu = ProcessCpuSeconds();
  double prev_t = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    mufuzz::engine::ServiceStats stats;
    {
      ScopedSpan span(SpanName::kServiceStats);
      stats = service.Stats();
    }
    double t = SecondsSince(start);
    uint64_t jobs = interactive_done.load();
    double cpu = ProcessCpuSeconds();
    double dt = t - prev_t;
    uint64_t dexecs = stats.executions - prev_execs;
    if (dexecs > 0 && cpu > prev_cpu) {
      phase.execs_per_s.push_back(dexecs / dt);
      phase.execs_per_cpu_s.push_back(dexecs / (cpu - prev_cpu));
    }
    phase.jobs_per_s.push_back((jobs - prev_jobs) / dt);
    prev_execs = stats.executions;
    prev_jobs = jobs;
    prev_cpu = cpu;
    prev_t = t;
    if ((t >= seconds && jobs >= min_jobs) ||
        t >= kMaxRunFactor * seconds || stopped()) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  phase.jobs = report->ops.completed;
  phase.service_rounds = service.Stats().rounds - rounds_before;
  return phase;
}

/// Checks each tenant's first results against independent JUMPI counts;
/// scores bugs and averages coverage over `scored`'s slots.
void CheckTenant(const Tenant& tenant, const Slots& slots, RunReport* report,
                 BugScore* score, double* coverage) {
  size_t counted = 0;
  double sum = 0;
  for (size_t i = 0; i < slots.first.size(); ++i) {
    if (!slots.first[i].has_value()) continue;
    auto artifact = mufuzz::lang::CompileContract(tenant.corpus[i].source);
    if (!artifact.ok()) {
      report->Fail("reference compile of " + tenant.corpus[i].name +
                   " failed");
      continue;
    }
    std::string problem =
        CheckResult(*slots.first[i], CountJumpis(artifact->runtime_code));
    if (!problem.empty()) report->Fail(tenant.corpus[i].name + ": " + problem);
    if (score != nullptr) score->Add(tenant.corpus[i], *slots.first[i]);
    sum += slots.first[i]->branch_coverage;
    ++counted;
  }
  if (coverage != nullptr) *coverage = counted == 0 ? 0 : sum / counted;
}

/// Re-runs the first `limit` slots of `tenant` that have results directly
/// and checks each equals the daemon's outcome: through RunCampaign, or
/// with `traced` (and its untraced twin) through the traced path.
void CrossCheck(const Tenant& tenant, const Slots& slots, size_t limit,
                TracingBackend* traced, TracingBackend* untraced,
                uint64_t job_id_base, LayerInputs* in, RunReport* report) {
  size_t done = 0;
  for (size_t i = 0; i < slots.first.size() && done < limit; ++i) {
    if (!slots.first[i].has_value()) continue;
    ++done;
    ++report->ops.cross_checks;
    std::optional<CampaignResult> direct;
    if (traced != nullptr) {
      direct = RunDirectJobPair(tenant.corpus[i].source, tenant.configs[i],
                                job_id_base + i, traced, untraced,
                                &in->untraced_job_ms);
    } else {
      auto artifact = mufuzz::lang::CompileContract(tenant.corpus[i].source);
      if (artifact.ok()) {
        direct = mufuzz::fuzzer::RunCampaign(*artifact, tenant.configs[i]);
      }
    }
    if (!direct.has_value()) {
      ++report->ops.errored;
      report->Fail("direct run of " + tenant.corpus[i].name + " failed");
      continue;
    }
    if (!(*direct == *slots.first[i])) {
      report->Fail("daemon outcome of " + tenant.corpus[i].name +
                   " differs from a direct RunCampaign");
    }
    if (in != nullptr) {
      in->direct_executions += direct->executions;
      in->direct_masks += direct->masks_computed;
      in->direct_kept += direct->queue_stats.admitted;
    }
  }
}

/// Cross-check sample of the untimed run: the first interactive jobs and
/// the first batch job.
constexpr size_t kSampleInteractive = 4;
constexpr size_t kSampleBatch = 1;
/// The traced run replays a whole interactive cycle and two batch jobs.
constexpr size_t kTracedBatch = 2;

}  // namespace

RunReport RunMufuzzdTwoTenant(const RunOptions& options) {
  RunReport report;
  double setup_s = 0;
  std::unique_ptr<Bench> bench = TimeSetup(
      kSetupRepeats, [&]() { return SetUp(options.seed, &report); },
      &setup_s);
  if (!report.errors.empty()) return report;

  if (options.trace) EnableTracing(true);
  Phase phase = RunPhase(bench.get(), options.trace ? options.seconds / 2
                                                    : options.seconds,
                         options.trace ? bench->interactive.corpus.size()
                                       : kMinLatencySamples,
                         options.trace, &report);
  bench->server->Stop();

  for (const auto& slot : phase.interactive.first) {
    if (!slot.has_value()) {
      report.Fail("the interactive tenant did not complete one cycle of " +
                  std::to_string(phase.interactive.first.size()) + " jobs");
      break;
    }
  }
  BugScore score;
  double coverage = 0;
  CheckTenant(bench->interactive, phase.interactive, &report, &score,
              &coverage);
  CheckTenant(bench->batch, phase.batch, &report, nullptr, nullptr);

  if (!options.trace) {
    CrossCheck(bench->interactive, phase.interactive, kSampleInteractive,
               nullptr, nullptr, 0, nullptr, &report);
    CrossCheck(bench->batch, phase.batch, kSampleBatch, nullptr, nullptr, 0,
               nullptr, &report);
    AddBoundedMetrics(Median(phase.execs_per_cpu_s),
                      phase.jobs == 0 ? 0 : phase.cpu_s * 1e3 / phase.jobs,
                      coverage, score, phase.rss_mb, setup_s, &report);
    WallClock wall;
    wall.execs_per_s = phase.execs_per_s;
    wall.jobs_per_s = phase.jobs_per_s;
    wall.latency_ms = phase.latency_ms;
    report.notes.push_back(wall.Describe());
    report.notes.push_back(
        "timed phase: " + std::to_string(phase.wall_s) + " s, " +
        std::to_string(phase.latency_ms.size()) + " interactive jobs, " +
        std::to_string(phase.execs_per_s.size()) + " windows of " +
        std::to_string(kWindowS) + " s");
    return report;
  }

  LayerInputs in;
  in.latency_ms = phase.latency_ms;
  in.active_ms = phase.active_ms;
  in.service_busy_ms = phase.busy_ms;
  in.service_wall_s = phase.wall_s;
  in.service_workers = kWorkers;
  in.service_rounds = phase.service_rounds;
  in.outcome_bytes = phase.outcome_bytes;
  mufuzz::AllocCounters before;
  {
    ScopedSpan span(SpanName::kAllocStats);
    before = mufuzz::CurrentAllocStats();
  }
  mufuzz::evm::SessionBackend session, untraced_session;
  TracingBackend backend(&session), untraced(&untraced_session);
  CrossCheck(bench->interactive, phase.interactive,
             phase.interactive.first.size(), &backend, &untraced, 0, &in,
             &report);
  CrossCheck(bench->batch, phase.batch, kTracedBatch, &backend, &untraced,
             kBatchJobIds, &in, &report);
  {
    ScopedSpan span(SpanName::kAllocStats);
    in.direct_allocs = mufuzz::CurrentAllocStats().allocs - before.allocs;
  }
  in.direct_transactions = backend.transactions();
  in.direct_instructions = backend.instructions();
  FinishTrace(options, in, &report);
  return report;
}

}  // namespace mfbench
