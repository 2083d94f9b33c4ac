#include <gtest/gtest.h>

#include "core/outage/record.hpp"
#include "sched/conservative.hpp"
#include "sched/easy.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"

namespace pjsb::sched {
namespace {

swf::JobRecord job(std::int64_t num, std::int64_t submit, std::int64_t procs,
                   std::int64_t runtime, std::int64_t estimate = 0) {
  swf::JobRecord r;
  r.job_number = num;
  r.submit_time = submit;
  r.run_time = runtime;
  r.allocated_procs = procs;
  r.requested_time = estimate > 0 ? estimate : runtime;
  r.status = swf::Status::kCompleted;
  return r;
}

sim::CompletedJob find(const sim::ReplayResult& result, std::int64_t id) {
  for (const auto& c : result.completed) {
    if (c.id == id) return c;
  }
  throw std::runtime_error("job not found");
}

/// Spec-based replay configuration for a named scheduler.
sim::SimulationSpec spec_for(const std::string& scheduler) {
  return sim::SimulationSpec{}.with_scheduler(scheduler);
}

TEST(Easy, BackfillDoesNotDelayHeadReservation) {
  swf::Trace t;
  t.header.max_nodes = 4;
  t.records.push_back(job(1, 0, 2, 100));
  t.records.push_back(job(2, 1, 4, 50));       // head, shadow at 100
  t.records.push_back(job(3, 2, 2, 200, 200)); // would delay shadow
  t.records.push_back(job(4, 3, 2, 50, 50));   // fits before shadow
  const auto result = sim::replay(t, spec_for("easy"));
  EXPECT_EQ(find(result, 4).start, 3);    // backfilled
  EXPECT_EQ(find(result, 2).start, 100);  // guarantee intact
  EXPECT_GE(find(result, 3).start, 150);  // had to wait its turn
}

TEST(Easy, LooseEstimatesBlockBackfill) {
  swf::Trace t;
  t.header.max_nodes = 4;
  t.records.push_back(job(1, 0, 2, 100));
  t.records.push_back(job(2, 1, 4, 50));
  // Same runtime as the backfill-able job above, but estimate 300 > 100
  // so it *appears* to delay the shadow and is not backfilled.
  t.records.push_back(job(3, 2, 2, 50, 300));
  const auto result = sim::replay(t, spec_for("easy"));
  EXPECT_GE(find(result, 3).start, 100);
}

TEST(Easy, EarlyCompletionCompressesSchedule) {
  swf::Trace t;
  t.header.max_nodes = 4;
  // Job 1 estimates 1000 but really runs 10.
  t.records.push_back(job(1, 0, 4, 10, 1000));
  t.records.push_back(job(2, 1, 4, 10, 10));
  const auto result = sim::replay(t, spec_for("easy"));
  EXPECT_EQ(find(result, 2).start, 10);  // not 1000
}

TEST(Conservative, NoQueuedJobDelayedByBackfill) {
  swf::Trace t;
  t.header.max_nodes = 4;
  t.records.push_back(job(1, 0, 2, 100));
  t.records.push_back(job(2, 1, 4, 50));
  t.records.push_back(job(3, 2, 2, 200, 200));
  t.records.push_back(job(4, 3, 2, 50, 50));
  const auto result = sim::replay(t, spec_for("conservative"));
  // Job 4 backfills (its 50s <= job1's remaining window), job 2 keeps
  // its reservation at 100, job 3 starts after 2 as reserved.
  EXPECT_EQ(find(result, 4).start, 3);
  EXPECT_EQ(find(result, 2).start, 100);
  EXPECT_EQ(find(result, 3).start, 150);
}

TEST(Conservative, DeepQueueJobsGetReservations) {
  // Conservative protects job 3 from a later long job; EASY might let
  // it slip. Construct a case where EASY delays the third job but
  // conservative does not.
  swf::Trace t;
  t.header.max_nodes = 4;
  t.records.push_back(job(1, 0, 4, 100));
  t.records.push_back(job(2, 1, 3, 100, 100));
  t.records.push_back(job(3, 2, 3, 100, 100));
  t.records.push_back(job(4, 3, 1, 500, 500));
  const auto cons = sim::replay(t, spec_for("conservative"));
  // Reservations in order: j2 at 100, j3 at 200; j4 (1 proc) backfills
  // beside j2 at 100 only if it doesn't delay j3 — it would (runs to
  // 600 using the 4th node while j3 needs 3 of 4 from 200: 3 free -> ok
  // actually j3 needs 3, j4 uses 1, both fit). Either way j3 must start
  // by its reservation time 200.
  EXPECT_LE(find(cons, 3).start, 200);
}

TEST(Backfill, AnnouncedOutageDrainsSchedule) {
  // Maintenance on the whole machine announced in advance: an
  // outage-aware EASY must not start a job that would run into the
  // window (it would be killed); it delays it to after the outage.
  swf::Trace t;
  t.header.max_nodes = 4;
  t.records.push_back(job(1, 0, 4, 100, 100));

  outage::OutageLog log;
  outage::OutageRecord o;
  o.announce_time = 0;
  o.start_time = 50;
  o.end_time = 200;
  o.type = outage::OutageType::kScheduledMaintenance;
  o.nodes_affected = 4;
  o.components = {0, 1, 2, 3};
  log.records.push_back(o);

  auto spec = spec_for("easy");
  const auto result =
      sim::replay(t, spec, sim::ReplayHooks{}.with_outages(log));
  const auto& c = find(result, 1);
  EXPECT_EQ(c.start, 200);  // drained around the window
  EXPECT_EQ(c.restarts, 0);

  spec.deliver_announcements = false;
  const auto blind_result =
      sim::replay(t, spec, sim::ReplayHooks{}.with_outages(log));
  const auto& cb = find(blind_result, 1);
  EXPECT_GE(cb.restarts, 1);  // started into the outage and was killed
}

TEST(Backfill, TryReserveChecksProfile) {
  sim::EngineConfig cfg;
  cfg.nodes = 4;
  sim::Engine engine(cfg, make_scheduler("conservative"));
  // Whole machine free: a future reservation fits.
  AdvanceReservation ok;
  ok.start = 100;
  ok.duration = 50;
  ok.procs = 4;
  EXPECT_TRUE(engine.request_reservation(ok));
  // Overlapping second whole-machine reservation must be rejected.
  AdvanceReservation clash;
  clash.start = 120;
  clash.duration = 50;
  clash.procs = 4;
  EXPECT_FALSE(engine.request_reservation(clash));
  // Disjoint window is fine.
  AdvanceReservation later;
  later.start = 150;
  later.duration = 50;
  later.procs = 4;
  EXPECT_TRUE(engine.request_reservation(later));
}

TEST(Backfill, ReservationBlocksLocalJobs) {
  sim::EngineConfig cfg;
  cfg.nodes = 4;
  sim::Engine engine(cfg, make_scheduler("easy"));
  AdvanceReservation res;
  res.start = 50;
  res.duration = 100;
  res.procs = 4;
  ASSERT_TRUE(engine.request_reservation(res));

  sim::SimJob j;
  j.submit = 0;
  j.procs = 4;
  j.runtime = 100;
  j.estimate = 100;
  engine.submit_job(j);
  engine.run();
  ASSERT_EQ(engine.completed().size(), 1u);
  // The job would overlap [50,150): it must wait until 150.
  EXPECT_EQ(engine.completed()[0].start, 150);
}

TEST(Backfill, FcfsRejectsReservations) {
  sim::EngineConfig cfg;
  cfg.nodes = 4;
  sim::Engine engine(cfg, make_scheduler("fcfs"));
  AdvanceReservation res;
  res.start = 50;
  res.duration = 10;
  res.procs = 1;
  EXPECT_FALSE(engine.request_reservation(res));
}

TEST(Backfill, PredictStartReflectsLoad) {
  sim::EngineConfig cfg;
  cfg.nodes = 4;
  sim::Engine engine(cfg, make_scheduler("conservative"));
  swf::Trace t;
  t.records.push_back(job(1, 0, 4, 1000, 1000));
  t.records.push_back(job(2, 1, 4, 1000, 1000));
  engine.load_trace(t);
  engine.run_until(10);
  // Queue: job2 reserved at 1000. A hypothetical 4-proc job should be
  // predicted to start at ~2000.
  const auto start = engine.scheduler().predict_start(10, 4, 100);
  ASSERT_TRUE(start);
  EXPECT_EQ(*start, 2000);
  // A 1-proc short job cannot start now either (machine full).
  const auto narrow = engine.scheduler().predict_start(10, 1, 100);
  ASSERT_TRUE(narrow);
  EXPECT_GT(*narrow, 10);
}

}  // namespace
}  // namespace pjsb::sched
