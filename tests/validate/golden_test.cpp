// Golden decision-trace snapshots: the committed references under
// data/golden/ must match fresh replays, and the bless/check/diff
// machinery must round-trip.
#include "validate/golden.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/swf/reader.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

swf::Trace load_tiny() {
  auto result = swf::read_swf_file(source_path("data/tiny.swf"));
  EXPECT_TRUE(result.errors.empty());
  return result.trace;
}

std::string temp_golden_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Replay `trace` under `scheduler` and check the decision trace against
/// the snapshot at `path` (or, with `bless`, regenerate it).
validate::GoldenResult golden(const swf::Trace& trace,
                              const std::string& scheduler,
                              const std::string& path, bool bless = false) {
  const auto csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, scheduler));
  return bless ? validate::bless_golden_csv(csv, path, scheduler)
               : validate::check_golden_csv(csv, path, scheduler);
}

TEST(Golden, CommittedConservativeSnapshotMatches) {
  const auto result = golden(
      load_tiny(), "conservative",
      source_path("data/golden/tiny_conservative.decisions"));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(Golden, CommittedEasySnapshotMatches) {
  const auto result = golden(
      load_tiny(), "easy", source_path("data/golden/tiny_easy.decisions"));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(Golden, ContentionSnapshotsMatchAndDiscriminatePolicies) {
  auto result = swf::read_swf_file(source_path("data/contention.swf"));
  ASSERT_TRUE(result.errors.empty());
  const auto& trace = result.trace;
  const auto cons = golden(
      trace, "conservative",
      source_path("data/golden/contention_conservative.decisions"));
  EXPECT_TRUE(cons.ok) << cons.message;
  const auto easy = golden(
      trace, "easy", source_path("data/golden/contention_easy.decisions"));
  EXPECT_TRUE(easy.ok) << easy.message;
  // The whole point of this workload: the snapshots must differ, so a
  // regression collapsing one policy into the other cannot pass both.
  const auto cons_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "conservative"));
  const auto easy_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "easy"));
  const auto fcfs_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "fcfs"));
  EXPECT_NE(cons_csv, easy_csv);
  EXPECT_NE(cons_csv, fcfs_csv);
  EXPECT_NE(easy_csv, fcfs_csv);
}

TEST(Golden, BlessThenCheckRoundTrips) {
  const auto trace = validate::fuzz_workload(77, 40, 32);
  const std::string path = temp_golden_path("bless_roundtrip.decisions");
  const auto blessed = golden(trace, "easy", path, /*bless=*/true);
  ASSERT_TRUE(blessed.ok) << blessed.message;
  const auto checked = golden(trace, "easy", path);
  EXPECT_TRUE(checked.ok) << checked.message;
  std::remove(path.c_str());
}

TEST(Golden, MismatchReportsFirstDivergenceAndWritesActual) {
  const auto trace = validate::fuzz_workload(78, 40, 32);
  const std::string path = temp_golden_path("mismatch.decisions");
  ASSERT_TRUE(golden(trace, "easy", path, /*bless=*/true).ok);
  // Checking a different policy against the easy snapshot must fail,
  // name the first divergent line, and dump the actual trace for CI.
  const auto checked = golden(trace, "fcfs", path);
  ASSERT_FALSE(checked.ok);
  EXPECT_NE(checked.message.find("diverge"), std::string::npos)
      << checked.message;
  ASSERT_FALSE(checked.actual_path.empty());
  std::ifstream actual(checked.actual_path);
  EXPECT_TRUE(actual.good());
  std::string header;
  std::getline(actual, header);
  EXPECT_EQ(header, "time,job,procs,virtual");
  std::remove(path.c_str());
  std::remove(checked.actual_path.c_str());
}

TEST(Golden, MissingSnapshotFailsWithBlessHint) {
  const auto trace = validate::fuzz_workload(79, 10, 32);
  const auto result = golden(
      trace, "easy", temp_golden_path("does_not_exist.decisions"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("--bless"), std::string::npos);
}

TEST(DecisionCsv, StableHeaderAndShape) {
  const auto trace = validate::fuzz_workload(80, 20, 32);
  const auto decisions = validate::replay_decisions(trace, "fcfs");
  ASSERT_FALSE(decisions.empty());
  const auto csv = validate::decisions_to_csv(decisions);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "time,job,procs,virtual");
  // One line per decision plus the header.
  EXPECT_EQ(std::size_t(std::count(csv.begin(), csv.end(), '\n')),
            decisions.size() + 1);
}

TEST(DecisionCsv, DiffPinpointsFirstDivergentLine) {
  const std::string a = "time,job,procs,virtual\n1,1,4,0\n2,2,8,0\n";
  const std::string b = "time,job,procs,virtual\n1,1,4,0\n3,2,8,0\n";
  EXPECT_TRUE(validate::diff_decision_csv(a, a).empty());
  const auto diff = validate::diff_decision_csv(a, b);
  EXPECT_NE(diff.find("line 3"), std::string::npos) << diff;
  // A truncated trace reports the end-of-trace side.
  const auto truncated =
      validate::diff_decision_csv(a, "time,job,procs,virtual\n1,1,4,0\n");
  EXPECT_NE(truncated.find("<end of trace>"), std::string::npos);
}

}  // namespace
}  // namespace pjsb
