#include "core/swf/checkpoint.hpp"

#include <gtest/gtest.h>

#include "core/swf/validator.hpp"

namespace pjsb::swf {
namespace {

CheckpointedJob sample_job() {
  CheckpointedJob job;
  job.base.job_number = 1;
  job.base.submit_time = 100;
  job.base.allocated_procs = 8;
  job.base.user_id = 1;
  job.base.status = Status::kCompleted;
  job.bursts = {{10, 300}, {50, 200}, {20, 500}};
  return job;
}

TEST(Checkpoint, TotalRunTime) {
  EXPECT_EQ(sample_job().total_run_time(), 1000);
}

TEST(Checkpoint, EncodeProducesSummaryPlusBursts) {
  const auto lines = encode_checkpointed(sample_job());
  ASSERT_EQ(lines.size(), 4u);
  // Summary line first, status whole-job, runtime = sum.
  EXPECT_EQ(lines[0].status, Status::kCompleted);
  EXPECT_EQ(lines[0].run_time, 1000);
  EXPECT_EQ(lines[0].submit_time, 100);
  // First burst has the submit time; later bursts only wait times.
  EXPECT_EQ(lines[1].status, Status::kPartial);
  EXPECT_EQ(lines[1].submit_time, 100);
  EXPECT_EQ(lines[2].submit_time, kUnknown);
  EXPECT_EQ(lines[2].wait_time, 50);
  // Last burst carries completion code 3.
  EXPECT_EQ(lines[3].status, Status::kPartialLastOk);
  EXPECT_EQ(lines[3].run_time, 500);
  // All share the job number.
  for (const auto& l : lines) EXPECT_EQ(l.job_number, 1);
}

TEST(Checkpoint, KilledJobUsesCode4) {
  auto job = sample_job();
  job.base.status = Status::kKilled;
  const auto lines = encode_checkpointed(job);
  EXPECT_EQ(lines.back().status, Status::kPartialLastKilled);
  EXPECT_EQ(lines.front().status, Status::kKilled);
}

TEST(Checkpoint, EncodedFormValidates) {
  Trace t;
  for (const auto& l : encode_checkpointed(sample_job())) {
    t.records.push_back(l);
  }
  const auto report = validate(t);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Checkpoint, DecodeRoundTrip) {
  Trace t;
  for (const auto& l : encode_checkpointed(sample_job())) {
    t.records.push_back(l);
  }
  const auto decoded = decode_checkpointed(t);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].bursts.size(), 3u);
  EXPECT_EQ(decoded[0].bursts[1].wait_time, 50);
  EXPECT_EQ(decoded[0].bursts[2].run_time, 500);
  EXPECT_EQ(decoded[0].total_run_time(), 1000);
}

TEST(Checkpoint, SingleBurstRoundTrip) {
  CheckpointedJob job;
  job.base.job_number = 1;
  job.base.submit_time = 40;
  job.base.allocated_procs = 4;
  job.base.user_id = 2;
  job.base.status = Status::kCompleted;
  job.bursts = {{15, 700}};

  const auto lines = encode_checkpointed(job);
  ASSERT_EQ(lines.size(), 2u);  // summary + one burst
  EXPECT_EQ(lines[0].run_time, 700);
  // A single burst is both first and last: it carries the submit time
  // AND the final completion code.
  EXPECT_EQ(lines[1].submit_time, 40);
  EXPECT_EQ(lines[1].status, Status::kPartialLastOk);

  Trace t;
  for (const auto& l : lines) t.records.push_back(l);
  EXPECT_TRUE(validate(t).clean());
  const auto result = decode_checkpointed_checked(t);
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_EQ(result.jobs[0].bursts.size(), 1u);
  EXPECT_EQ(result.jobs[0].bursts[0].wait_time, 15);
  EXPECT_EQ(result.jobs[0].bursts[0].run_time, 700);
}

TEST(Checkpoint, ContinuationLinesCarryUnknownSubmit) {
  // Per section 2.3, continuation bursts "only have a wait time since
  // the previous burst" — their submit field is -1. The round trip
  // must preserve the per-burst wait times through that encoding.
  const auto lines = encode_checkpointed(sample_job());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2].submit_time, kUnknown);
  EXPECT_EQ(lines[3].submit_time, kUnknown);

  Trace t;
  for (const auto& l : lines) t.records.push_back(l);
  const auto result = decode_checkpointed_checked(t);
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.jobs.size(), 1u);
  const auto& bursts = result.jobs[0].bursts;
  ASSERT_EQ(bursts.size(), 3u);
  EXPECT_EQ(bursts[0].wait_time, 10);
  EXPECT_EQ(bursts[1].wait_time, 50);
  EXPECT_EQ(bursts[2].wait_time, 20);
  // And the group re-encodes to the identical lines.
  const auto relines = encode_checkpointed(result.jobs[0]);
  ASSERT_EQ(relines.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(relines[i].status, lines[i].status) << "line " << i;
    EXPECT_EQ(relines[i].submit_time, lines[i].submit_time) << "line " << i;
    EXPECT_EQ(relines[i].wait_time, lines[i].wait_time) << "line " << i;
    EXPECT_EQ(relines[i].run_time, lines[i].run_time) << "line " << i;
  }
}

TEST(Checkpoint, DecodeSkipsOrphanPartials) {
  Trace t;
  JobRecord orphan;
  orphan.job_number = 9;
  orphan.status = Status::kPartialLastOk;
  orphan.run_time = 10;
  t.records.push_back(orphan);
  EXPECT_TRUE(decode_checkpointed(t).empty());
}

TEST(Checkpoint, CheckedDecodeReportsMissingSummary) {
  Trace t;
  // Two partial lines for job 9, no summary line anywhere.
  for (int i = 0; i < 2; ++i) {
    JobRecord orphan;
    orphan.job_number = 9;
    orphan.status = i == 0 ? Status::kPartial : Status::kPartialLastOk;
    orphan.run_time = 10;
    t.records.push_back(orphan);
  }
  const auto result = decode_checkpointed_checked(t);
  EXPECT_TRUE(result.jobs.empty());
  // Reported once per group (not per line), by job number.
  ASSERT_EQ(result.missing_summary.size(), 1u);
  EXPECT_EQ(result.missing_summary[0], 9);
  EXPECT_FALSE(result.clean());
  // The validator reports the same group under partial-structure.
  const auto report = validate(t);
  EXPECT_GE(report.count(Rule::kPartialStructure), 1u);
}

TEST(Checkpoint, CheckedDecodeReportsBurstSumMismatch) {
  auto job = sample_job();
  auto lines = encode_checkpointed(job);
  lines[0].run_time = 999;  // summary disagrees with 300+200+500
  Trace t;
  for (const auto& l : lines) t.records.push_back(l);

  const auto result = decode_checkpointed_checked(t);
  // The group still decodes — the mismatch is reported, not dropped.
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_EQ(result.sum_mismatches.size(), 1u);
  EXPECT_EQ(result.sum_mismatches[0].job_number, 1);
  EXPECT_EQ(result.sum_mismatches[0].summary_run_time, 999);
  EXPECT_EQ(result.sum_mismatches[0].burst_sum, 1000);
  EXPECT_FALSE(result.clean());
  // Same group under the validator's partial-runtime-sum rule.
  const auto report = validate(t);
  EXPECT_EQ(report.count(Rule::kPartialRuntimeSum), 1u);
}

TEST(Checkpoint, CheckedDecodeUnknownRuntimeExemptsSumCheck) {
  auto lines = encode_checkpointed(sample_job());
  lines[2].run_time = kUnknown;  // one burst runtime unrecorded
  Trace t;
  for (const auto& l : lines) t.records.push_back(l);
  const auto result = decode_checkpointed_checked(t);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.sum_mismatches.empty());
}

TEST(Checkpoint, DecodeIgnoresPlainJobs) {
  Trace t;
  JobRecord plain;
  plain.job_number = 1;
  plain.status = Status::kCompleted;
  plain.run_time = 10;
  t.records.push_back(plain);
  EXPECT_TRUE(decode_checkpointed(t).empty());
}

}  // namespace
}  // namespace pjsb::swf
