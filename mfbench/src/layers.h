// Per-layer metrics of the traced run, computed from the recorded spans
// and the counts taken at the same boundaries.
#ifndef MFBENCH_LAYERS_H_
#define MFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace mfbench {

/// Counts and timings gathered by a traced run besides its spans.
struct LayerInputs {
  // Direct (traced) replay through fuzzer::Campaign.
  uint64_t direct_executions = 0;
  uint64_t direct_transactions = 0;
  uint64_t direct_instructions = 0;
  uint64_t direct_masks = 0;
  uint64_t direct_kept = 0;    ///< seeds admitted to the queue
  uint64_t direct_allocs = 0;  ///< heap allocations over the replay's
                               ///< two passes (traced and untraced)
  /// Wall time of the untraced twin of each replayed job.
  double untraced_job_ms = 0;
  // Service or daemon phase (engine spans only, no per-execution spans).
  std::vector<double> latency_ms;  ///< per job, submit to outcome
  std::vector<double> active_ms;   ///< per job, JobOutcome::elapsed_ms
  double service_busy_ms = 0;      ///< elapsed_ms summed over every job
  double service_wall_s = 0;
  int service_workers = 1;
  uint64_t service_rounds = 0;
  // Wire codec.
  std::vector<double> outcome_bytes;
};

/// Adds every per-layer metric to `report`.
void AddLayerMetrics(const std::vector<FlatSpan>& spans,
                     const LayerInputs& inputs, RunReport* report);

/// Writes the self-time roll-up per layer and per span name, with the
/// tracing overhead, as JSON. Returns false on an I/O error.
bool WriteRollup(const std::vector<FlatSpan>& spans, const RunOptions& options,
                 const RunReport& report, const std::string& path);

/// Drains the spans, adds the per-layer metrics and writes the spans and
/// roll-up files under .bench_out/ in the working directory.
void FinishTrace(const RunOptions& options, const LayerInputs& inputs,
                 RunReport* report);

}  // namespace mfbench

#endif  // MFBENCH_LAYERS_H_
