#include "layers.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <map>

namespace mfbench {
namespace {

constexpr char kOutDir[] = ".bench_out";

struct NameTotals {
  uint64_t count = 0;
  int64_t dur_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> dur_us;  ///< for medians of request-like spans

  double MeanUs() const { return count == 0 ? 0 : dur_ns / 1e3 / count; }
};

using Totals = std::array<NameTotals, static_cast<size_t>(SpanName::kCount)>;

Totals Summarize(const std::vector<FlatSpan>& spans) {
  Totals totals;
  for (const FlatSpan& s : spans) {
    NameTotals& t = totals[static_cast<size_t>(s.span.name)];
    int64_t dur = s.span.end_ns - s.span.start_ns;
    ++t.count;
    t.dur_ns += dur;
    t.self_ns += s.self_ns;
    t.dur_us.push_back(dur / 1e3);
  }
  return totals;
}

const NameTotals& Get(const Totals& totals, SpanName name) {
  return totals[static_cast<size_t>(name)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}


}  // namespace

void AddLayerMetrics(const std::vector<FlatSpan>& spans,
                     const LayerInputs& in, RunReport* report) {
  const Totals t = Summarize(spans);
  auto mean_us = [&](SpanName name) { return Get(t, name).MeanUs(); };
  auto median_us = [&](SpanName name) { return Median(Get(t, name).dur_us); };

  report->Add("lang.compile_us", mean_us(SpanName::kCompile), "us");
  report->Add("analysis.dataflow_us", mean_us(SpanName::kDataflow), "us");
  report->Add("analysis.depgraph_us", mean_us(SpanName::kDepGraph), "us");
  report->Add("evm.decode_us", mean_us(SpanName::kDecode), "us");
  report->Add("evm.deploy_us", mean_us(SpanName::kDeploy), "us");

  const NameTotals& exec = Get(t, SpanName::kExec);
  report->Add("evm.exec_us_per_seq", exec.MeanUs(), "us");
  report->Add("evm.exec_ns_per_insn",
              Ratio(exec.dur_ns, in.direct_instructions), "ns");
  report->Add("evm.busy_share",
              Ratio(exec.dur_ns, Get(t, SpanName::kJob).dur_ns), "share");
  report->Add("evm.tx_per_seq",
              Ratio(in.direct_transactions, exec.count), "count");
  report->Add("evm.insns_per_tx",
              Ratio(in.direct_instructions, in.direct_transactions), "count");

  // Campaign-call time minus the evm (and allocation-counter) time inside
  // it: the self time of the fuzzer spans.
  int64_t fuzzer_self_ns = 0;
  for (SpanName name : {SpanName::kCampaignCtor, SpanName::kSeedCorpus,
                        SpanName::kStepRound, SpanName::kFinalize}) {
    fuzzer_self_ns += Get(t, name).self_ns;
  }
  report->Add("fuzzer.self_us_per_exec",
              Ratio(fuzzer_self_ns / 1e3, in.direct_executions), "us");
  report->Add("fuzzer.seed_corpus_ms",
              mean_us(SpanName::kSeedCorpus) / 1e3, "ms");
  report->Add("fuzzer.finalize_us", mean_us(SpanName::kFinalize), "us");
  report->Add("fuzzer.masks_per_kexec",
              Ratio(1000.0 * in.direct_masks, in.direct_executions), "count");
  report->Add("fuzzer.kept_per_kexec",
              Ratio(1000.0 * in.direct_kept, in.direct_executions), "count");

  std::vector<double> queue_wait;
  for (size_t i = 0; i < in.latency_ms.size() && i < in.active_ms.size();
       ++i) {
    queue_wait.push_back(in.latency_ms[i] - in.active_ms[i]);
  }
  report->Add("engine.queue_wait_ms", Mean(queue_wait), "ms");
  report->Add("engine.active_ms_per_job", Mean(in.active_ms), "ms");
  report->Add("engine.worker_busy_share",
              Ratio(in.service_busy_ms / 1e3,
                    in.service_workers * in.service_wall_s),
              "share");
  report->Add("engine.rounds_per_s",
              Ratio(in.service_rounds, in.service_wall_s), "1/s");

  report->Add("server.submit_rtt_us", median_us(SpanName::kClientSubmit),
              "us");
  report->Add("server.poll_rtt_us", median_us(SpanName::kClientPoll), "us");
  report->Add("server.outcome_bytes", Mean(in.outcome_bytes), "bytes");
  report->Add("server.outcome_codec_us",
              mean_us(SpanName::kEncodeOutcome) +
                  mean_us(SpanName::kDecodeOutcome),
              "us");

  // The replay runs every job twice (traced and untraced).
  report->Add("common.allocs_per_exec",
              Ratio(in.direct_allocs, 2.0 * in.direct_executions), "count");

  // Each replayed job ran twice, traced and untraced, back to back.
  double traced =
      Ratio(in.direct_executions, Get(t, SpanName::kJob).dur_ns / 1e9);
  double untraced = Ratio(in.direct_executions, in.untraced_job_ms / 1e3);
  report->Add("trace.traced_execs_per_s", traced, "1/s");
  report->Add("trace.untraced_execs_per_s", untraced, "1/s");
  report->Add("trace.overhead_pct", 100.0 * (Ratio(untraced, traced) - 1),
              "%");
}

bool WriteRollup(const std::vector<FlatSpan>& spans, const RunOptions& options,
                 const RunReport& report, const std::string& path) {
  const Totals t = Summarize(spans);
  std::map<std::string, int64_t> layer_self_ns;
  int64_t total_self_ns = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    layer_self_ns[SpanLayer(static_cast<SpanName>(i))] += t[i].self_ns;
    total_self_ns += t[i].self_ns;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"spans\": %zu,\n  \"layers\": {\n", spans.size());
  size_t n = 0;
  for (const auto& [layer, ns] : layer_self_ns) {
    std::fprintf(f, "    \"%s\": {\"self_ms\": %.3f, \"share\": %.4f}%s\n",
                 layer.c_str(), ns / 1e6, Ratio(ns, total_self_ns),
                 ++n < layer_self_ns.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"calls\": {\n");
  for (size_t i = 0; i < t.size(); ++i) {
    std::fprintf(f,
                 "    \"%s.%s\": {\"count\": %llu, \"mean_us\": %.3f, "
                 "\"self_ms\": %.3f}%s\n",
                 SpanLayer(static_cast<SpanName>(i)),
                 SpanNameString(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(t[i].count), t[i].MeanUs(),
                 t[i].self_ns / 1e6, i + 1 < t.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"metrics\": {\n");
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                 m.name.c_str(), m.value, m.unit.c_str(),
                 i + 1 < report.metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

void FinishTrace(const RunOptions& options, const LayerInputs& inputs,
                 RunReport* report) {
  EnableTracing(false);
  std::vector<FlatSpan> spans = DrainSpans();
  AddLayerMetrics(spans, inputs, report);
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  std::string stem = std::string(kOutDir) + "/" + options.workload + ".seed" +
                     std::to_string(options.seed);
  if (ec || !WriteSpansCsv(spans, stem + ".spans.csv") ||
      !WriteRollup(spans, options, *report, stem + ".rollup.json")) {
    report->Fail(std::string("could not write the spans under ") + kOutDir);
    return;
  }
  report->notes.push_back("spans: " + std::to_string(spans.size()) +
                          " written to " + stem + ".spans.csv, roll-up " +
                          stem + ".rollup.json");
}

}  // namespace mfbench
