// Golden decision-trace regression: committed snapshots of scheduler
// behaviour on reference workloads.
//
// A golden file under data/golden/ records the exact decision trace of
// one (workload, scheduler) pair. `check_golden_csv` compares a run's
// recorded decisions against it; `bless_golden_csv` regenerates the
// snapshot after an intentional policy change (`swf_tool validate
// <trace> <spec> <golden> --bless`). On a mismatch the actual trace is
// written next to the golden file as `<golden>.actual`, so CI can
// upload the pair as a reviewable diff artifact.
#pragma once

#include <string>

namespace pjsb::validate {

struct GoldenResult {
  bool ok = false;
  /// Diagnostic: diff location, I/O failure, or bless confirmation.
  std::string message;
  /// Path of the `.actual` dump written on a mismatch (empty if none).
  std::string actual_path;
};

/// Compare a decision-trace CSV (validate::decisions_to_csv of a run's
/// recorded decisions) against the snapshot at `golden_path`. A missing
/// snapshot is a failure (run --bless once to create it). `label` only
/// flavors diagnostics.
GoldenResult check_golden_csv(const std::string& actual_csv,
                              const std::string& golden_path,
                              const std::string& label);
/// Regenerate the snapshot at `golden_path` from `actual_csv`.
GoldenResult bless_golden_csv(const std::string& actual_csv,
                              const std::string& golden_path,
                              const std::string& label);

}  // namespace pjsb::validate
