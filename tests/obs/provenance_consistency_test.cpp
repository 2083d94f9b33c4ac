// Provenance annotations must mean what they say: a start labelled
// `backfill` only makes sense while an earlier-arriving job is still
// waiting (that is what the job jumped past), a `queue_head` start
// must not have jumped past anyone older, and `reservation` starts
// must honour the promised time they carry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/swf/reader.hpp"
#include "sim/observer.hpp"
#include "sim/provenance.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::obs {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

/// Records the queue state the scheduler saw: which jobs were waiting
/// when each decision was taken, ordered by arrival. Arrival order is
/// tracked as a sequence number assigned at on_job_submit — exactly
/// the FCFS queue order, robust to same-second submit ties.
class QueueTracker final : public sim::SimObserver {
 public:
  struct CheckedDecision {
    sim::Decision decision;
    /// Queue-entry time and arrival sequence of the started job.
    std::int64_t submit = 0;
    std::uint64_t seq = 0;
    /// Smallest arrival sequence among the jobs still waiting when
    /// this one started (UINT64_MAX when the queue emptied).
    std::uint64_t oldest_waiting_seq = 0;
  };

  const std::vector<CheckedDecision>& decisions() const {
    return decisions_;
  }

  void on_job_submit(std::int64_t time, const sim::SimJob& job) override {
    queued_[job.id] = Entry{time, next_seq_++};
  }

  void on_job_kill(std::int64_t /*time*/, const sim::SimJob& job,
                   const sim::KillInfo& /*info*/) override {
    // Killed jobs requeue; the engine re-announces them via
    // on_job_submit, so just forget the old entry here.
    queued_.erase(job.id);
  }

  void on_decision(const sim::Decision& decision) override {
    CheckedDecision checked;
    checked.decision = decision;
    const auto it = queued_.find(decision.job_id);
    ASSERT_NE(it, queued_.end())
        << "decision for job " << decision.job_id << " never submitted";
    checked.submit = it->second.submit;
    checked.seq = it->second.seq;
    queued_.erase(it);
    checked.oldest_waiting_seq = UINT64_MAX;
    for (const auto& [id, entry] : queued_) {
      if (entry.seq < checked.oldest_waiting_seq) {
        checked.oldest_waiting_seq = entry.seq;
      }
    }
    decisions_.push_back(checked);
  }

 private:
  struct Entry {
    std::int64_t submit = 0;
    std::uint64_t seq = 0;
  };
  std::unordered_map<std::int64_t, Entry> queued_;
  std::uint64_t next_seq_ = 0;
  std::vector<CheckedDecision> decisions_;
};

void check_provenance(const swf::Trace& trace,
                      const std::string& scheduler_spec) {
  SCOPED_TRACE(scheduler_spec);
  QueueTracker tracker;
  sim::ReplayHooks hooks;
  hooks.observe(tracker);
  const auto spec = sim::SimulationSpec{}.with_scheduler(scheduler_spec);
  sim::replay(trace, spec, hooks);

  ASSERT_FALSE(tracker.decisions().empty());
  std::uint64_t backfills = 0;
  for (const auto& checked : tracker.decisions()) {
    const auto& d = checked.decision;
    // Every start from these policies carries an annotation.
    EXPECT_NE(d.provenance, sim::StartProvenance::kUnspecified)
        << "job " << d.job_id;
    switch (d.provenance) {
      case sim::StartProvenance::kBackfill:
        // The ISSUE-mandated invariant: a backfill start happened
        // while at least one earlier-arriving job was still queued —
        // otherwise the job WAS the head and the label is a lie.
        ++backfills;
        EXPECT_LT(checked.oldest_waiting_seq, checked.seq)
            << "job " << d.job_id << " labelled backfill at t=" << d.time
            << " but no earlier-arriving job was waiting";
        break;
      case sim::StartProvenance::kQueueHead:
        // Head starts never jump past an older waiter.
        EXPECT_GT(checked.oldest_waiting_seq, checked.seq)
            << "job " << d.job_id << " labelled queue_head at t=" << d.time
            << " but an earlier-arriving job was still waiting";
        break;
      case sim::StartProvenance::kReservation:
        // A promoted reservation carries the start time it was
        // promised. The promise may sit past `time` (a compressed
        // start honours an improved profile early) but was made after
        // the job entered the queue, never before.
        ASSERT_GE(d.reserved_start, 0) << "job " << d.job_id;
        EXPECT_GE(d.reserved_start, checked.submit) << "job " << d.job_id;
        break;
      default:
        break;
    }
  }
  // The fixture is contended enough that the label is exercised.
  EXPECT_GT(backfills, 0u);
}

swf::Trace contended_synthetic() {
  util::Rng rng(17);
  workload::ModelConfig config;
  config.jobs = 400;
  config.machine_nodes = 64;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config,
                                  rng);
  return workload::scale_to_load(trace, 1.4, 64);
}

TEST(ProvenanceConsistency, EasyOnContentionFixture) {
  const auto result =
      swf::read_swf_file(source_path("data/contention.swf"));
  ASSERT_TRUE(result.errors.empty());
  check_provenance(result.trace, "easy");
}

TEST(ProvenanceConsistency, ConservativeOnContentionFixture) {
  const auto result =
      swf::read_swf_file(source_path("data/contention.swf"));
  ASSERT_TRUE(result.errors.empty());
  check_provenance(result.trace, "conservative");
}

TEST(ProvenanceConsistency, BackfillPoliciesOnSyntheticOverload) {
  const auto trace = contended_synthetic();
  check_provenance(trace, "easy");
  check_provenance(trace, "conservative reserve_depth=4");
}

}  // namespace
}  // namespace pjsb::obs
