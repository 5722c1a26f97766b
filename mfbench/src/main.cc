// mfbench: runs one named workload against the mufuzz library and prints
// its metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// of a traced run (which also writes spans and a roll-up under
// .bench_out/). Exits 1 when an output check fails, 2 on bad arguments.
//
// Usage: mfbench --workload NAME --seed N --seconds S --trace 0|1

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mfbench --workload d1_deep_serial|d2_multiseed|"
               "mufuzzd_two_tenant --seed N --seconds S --trace 0|1\n");
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  mfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();

  mfbench::RunReport report;
  if (options.workload == "d1_deep_serial") {
    report = mfbench::RunD1DeepSerial(options);
  } else if (options.workload == "d2_multiseed") {
    report = mfbench::RunD2Multiseed(options);
  } else if (options.workload == "mufuzzd_two_tenant") {
    report = mfbench::RunMufuzzdTwoTenant(options);
  } else {
    return Usage();
  }

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  const mfbench::OpCounts& ops = report.ops;
  std::printf(
      "operations: submitted=%llu completed=%llu errored=%llu "
      "rejected=%llu transport_errors=%llu cross_checks=%llu\n",
      static_cast<unsigned long long>(ops.submitted),
      static_cast<unsigned long long>(ops.completed),
      static_cast<unsigned long long>(ops.errored),
      static_cast<unsigned long long>(ops.rejected),
      static_cast<unsigned long long>(ops.transport_errors),
      static_cast<unsigned long long>(ops.cross_checks));
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  for (const mfbench::Metric& m : report.metrics) {
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = report.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.submitted +
                                              ops.cross_checks),
              static_cast<unsigned long long>(ops.failed()));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const mfbench::Metric& m = report.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
