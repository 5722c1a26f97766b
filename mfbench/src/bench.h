// Shared types of the mfbench program: run options, the report every
// workload fills, and small statistics and process helpers.
#ifndef MFBENCH_BENCH_H_
#define MFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operations of one run, by kind. `attempted`/`failed` of the result line
/// are derived from these.
struct OpCounts {
  uint64_t submitted = 0;         ///< jobs handed to the service or daemon
  uint64_t completed = 0;         ///< jobs whose outcome carries a result
  uint64_t errored = 0;           ///< jobs whose outcome has no result
  uint64_t rejected = 0;          ///< admission rejections
  uint64_t transport_errors = 0;  ///< client calls that lost the connection
  uint64_t cross_checks = 0;      ///< results compared against a second run

  uint64_t failed() const { return errored + rejected + transport_errors; }
};

struct RunReport {
  std::vector<std::string> errors;  ///< failed checks; empty = correct
  OpCounts ops;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< informational lines for stdout

  void Fail(std::string what) { errors.push_back(std::move(what)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double Median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 100] (0 when empty).
double Percentile(std::vector<double> v, double p);

/// CPU seconds consumed by all threads of the process so far.
double ProcessCpuSeconds();

/// Peak resident set size of the process, in MB (VmHWM).
double PeakRssMb();

/// Sets up `times` times with `make`, which returns the ready-to-run state,
/// and stores the median process CPU time one set-up took, in seconds
/// (CPU time, like the other bounded times, leaves out the time the host
/// steals from this machine's CPUs). Returns the state of the last set-up;
/// earlier ones are torn down outside the measured interval.
template <typename Fn>
auto TimeSetup(int times, Fn&& make, double* median_cpu_s) {
  std::vector<double> samples;
  decltype(make()) state;
  for (int i = 0; i < times; ++i) {
    double start = ProcessCpuSeconds();
    auto fresh = make();
    samples.push_back(ProcessCpuSeconds() - start);
    state = std::move(fresh);
  }
  *median_cpu_s = Median(samples);
  return state;
}

/// Number of times a run sets up; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Latency percentiles need at least this many jobs so that p99 has ten
/// samples beyond it; a timed phase runs on past --seconds until it has
/// them, up to kMaxRunFactor times as long. peak_rss_mb is read when this
/// many jobs have finished, so it does not grow with host speed.
inline constexpr size_t kMinLatencySamples = 1000;
inline constexpr double kMaxRunFactor = 3;

struct BugScore;

/// Wall-clock figures of a timed phase: rates per chunk or window, and job
/// latencies. They are printed but carry no bound: on a host that steals
/// CPU time in bursts they move by up to half between runs of the same
/// code (see README.md).
struct WallClock {
  std::vector<double> execs_per_s;
  std::vector<double> jobs_per_s;
  std::vector<double> latency_ms;

  /// One line: medians of the rates, p50 and p99 of the latencies.
  std::string Describe() const;
};

/// Adds the end-to-end metrics, in BENCHMARK.json's order. `rss_mb` of 0
/// (the phase ended before kMinLatencySamples jobs) reads the peak now.
void AddBoundedMetrics(double execs_per_cpu_s, double cpu_ms_per_job,
                       double coverage, const BugScore& score, double rss_mb,
                       double setup_s, RunReport* report);

RunReport RunD1DeepSerial(const RunOptions& options);
RunReport RunD2Multiseed(const RunOptions& options);
RunReport RunMufuzzdTwoTenant(const RunOptions& options);

}  // namespace mfbench

#endif  // MFBENCH_BENCH_H_
