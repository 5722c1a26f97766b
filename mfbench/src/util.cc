#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "checks.h"

namespace mfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string WallClock::Describe() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "wall clock (unbounded): execs_per_s %.1f, jobs_per_s %.2f, "
                "job_latency_ms p50 %.3f p99 %.3f over %zu jobs",
                Median(execs_per_s), Median(jobs_per_s),
                Percentile(latency_ms, 50), Percentile(latency_ms, 99),
                latency_ms.size());
  return line;
}

void AddBoundedMetrics(double execs_per_cpu_s, double cpu_ms_per_job,
                       double coverage, const BugScore& score, double rss_mb,
                       double setup_s, RunReport* report) {
  report->Add("execs_per_cpu_s", execs_per_cpu_s, "1/s");
  report->Add("cpu_ms_per_job", cpu_ms_per_job, "ms");
  report->Add("coverage_pct", 100.0 * coverage, "%");
  report->Add("bug_recall_pct", score.RecallPct(), "%");
  report->Add("bug_precision_pct", score.PrecisionPct(), "%");
  report->Add("peak_rss_mb", rss_mb > 0 ? rss_mb : PeakRssMb(), "MB");
  report->Add("setup_s", setup_s, "s");
}

}  // namespace mfbench
