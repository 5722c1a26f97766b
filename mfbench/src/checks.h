// Output checks made apart from the program: an independent JUMPI count
// over the runtime bytecode, the coverage arithmetic and curve shape, the
// execution counters, and bug scoring against the corpus's hand-written
// ground-truth labels.
#ifndef MFBENCH_CHECKS_H_
#define MFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "corpus/builtin.h"
#include "fuzzer/campaign_result.h"

namespace mfbench {

/// JUMPI (0x57) opcodes in `code`, walking opcodes and skipping PUSH1..32
/// immediates.
int CountJumpis(const mufuzz::Bytes& code);

/// Checks one finished campaign against the JUMPI count of its contract's
/// runtime code. Returns an empty string when every check holds, otherwise
/// the first violation.
std::string CheckResult(const mufuzz::fuzzer::CampaignResult& result,
                        int jumpis);

/// Bug-finding tally over (contract, bug class) pairs, scored against
/// CorpusEntry::ground_truth.
struct BugScore {
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  uint64_t false_negatives = 0;

  void Add(const mufuzz::corpus::CorpusEntry& entry,
           const mufuzz::fuzzer::CampaignResult& result);
  /// Labeled bugs found, in percent; 100 when nothing is labeled (no label
  /// was missed).
  double RecallPct() const;
  /// Findings that are labeled, in percent; 100 when nothing was reported
  /// (no false alarm was raised).
  double PrecisionPct() const;
};

}  // namespace mfbench

#endif  // MFBENCH_CHECKS_H_
