#include "checks.h"

#include <cmath>
#include <cstdio>

namespace mfbench {

int CountJumpis(const mufuzz::Bytes& code) {
  constexpr uint8_t kPush1 = 0x60;
  constexpr uint8_t kPush32 = 0x7f;
  constexpr uint8_t kJumpi = 0x57;
  int jumpis = 0;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    uint8_t op = code[pc];
    if (op == kJumpi) ++jumpis;
    if (op >= kPush1 && op <= kPush32) pc += op - kPush1 + 1;
  }
  return jumpis;
}

std::string CheckResult(const mufuzz::fuzzer::CampaignResult& result,
                        int jumpis) {
  char buf[160];
  if (result.total_jumpis != jumpis) {
    std::snprintf(buf, sizeof(buf), "total_jumpis %d != %d JUMPIs in code",
                  result.total_jumpis, jumpis);
    return buf;
  }
  const size_t directions = 2 * static_cast<size_t>(jumpis);
  if (result.covered_branches > directions) {
    std::snprintf(buf, sizeof(buf), "covered_branches %zu > 2 x %d",
                  result.covered_branches, jumpis);
    return buf;
  }
  if (jumpis > 0) {
    double expected = static_cast<double>(result.covered_branches) /
                      static_cast<double>(directions);
    if (std::fabs(result.branch_coverage - expected) > 1e-12) {
      std::snprintf(buf, sizeof(buf), "branch_coverage %.17g != %zu / %zu",
                    result.branch_coverage, result.covered_branches,
                    directions);
      return buf;
    }
  }
  if (result.coverage_curve.empty()) return "empty coverage curve";
  for (size_t i = 1; i < result.coverage_curve.size(); ++i) {
    const auto& [prev_at, prev] = result.coverage_curve[i - 1];
    const auto& [at, value] = result.coverage_curve[i];
    if (value < prev || at < prev_at) return "coverage curve decreases";
  }
  if (result.coverage_curve.back().second != result.branch_coverage) {
    return "coverage curve does not end at the final coverage";
  }
  if (result.executions == 0) return "no executions";
  if (result.transactions < result.executions) {
    return "fewer transactions than executions";
  }
  if (result.instructions == 0) return "no instructions";
  if (result.cancelled) return "campaign cancelled";
  return "";
}

void BugScore::Add(const mufuzz::corpus::CorpusEntry& entry,
                   const mufuzz::fuzzer::CampaignResult& result) {
  for (mufuzz::analysis::BugClass bug : result.bug_classes) {
    if (entry.HasBug(bug)) {
      ++true_positives;
    } else {
      ++false_positives;
    }
  }
  for (mufuzz::analysis::BugClass bug : entry.ground_truth) {
    if (!result.Found(bug)) ++false_negatives;
  }
}

double BugScore::RecallPct() const {
  uint64_t labeled = true_positives + false_negatives;
  return labeled == 0 ? 100.0 : 100.0 * true_positives / labeled;
}

double BugScore::PrecisionPct() const {
  uint64_t reported = true_positives + false_positives;
  return reported == 0 ? 100.0 : 100.0 * true_positives / reported;
}

}  // namespace mfbench
