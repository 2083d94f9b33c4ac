// Campaign telemetry's live-event counts, kept by
// metrics::OnlineMetricsObserver: queue entries (requeues included),
// engine steps, starts by provenance and, for a watched profile-based
// scheduler, the capacity profile's peak step count.
#include "metrics/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/outage/record.hpp"
#include "sched/backfill.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::metrics {
namespace {

swf::Trace small_trace(std::uint64_t seed = 3) {
  util::Rng rng(seed);
  workload::ModelConfig config;
  config.jobs = 200;
  config.machine_nodes = 64;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config,
                                  rng);
  return workload::scale_to_load(trace, 1.1, 64);
}

std::uint64_t total_starts(const OnlineMetricsObserver& online) {
  std::uint64_t starts = 0;
  for (std::size_t p = 0; p < sim::kProvenanceCount; ++p) {
    starts += online.starts(sim::StartProvenance(p));
  }
  return starts;
}

TEST(LiveCounts, MatchTheEngineOnARealReplay) {
  const auto trace = small_trace();
  auto scheduler = sched::make_scheduler("easy");
  const auto* backfill =
      dynamic_cast<const sched::BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);
  OnlineMetricsObserver online;
  online.watch(*scheduler);
  // An independent tally of the same notifications.
  std::uint64_t steps = 0;
  std::uint64_t peak = 0;
  sim::FunctionObserver probe;
  probe.step = [&](const sim::StepSnapshot&) {
    ++steps;
    peak = std::max<std::uint64_t>(peak, backfill->profile().step_count());
  };
  sim::ReplayHooks hooks;
  hooks.observe(online).observe(probe);
  const auto result = sim::replay(trace, std::move(scheduler),
                                  sim::SimulationSpec{}.with_nodes(64), hooks);

  EXPECT_EQ(online.submits(), trace.records.size());
  EXPECT_EQ(online.jobs(), result.stats.jobs_completed);
  EXPECT_EQ(total_starts(online), online.jobs());  // no kills, no requeues
  EXPECT_GT(online.steps(), 0u);
  EXPECT_EQ(online.steps(), steps);
  EXPECT_GT(online.profile_steps_peak(), 0u);
  EXPECT_EQ(online.profile_steps_peak(), peak);
}

TEST(LiveCounts, RequeuesAreQueueEntries) {
  // One 4-node job, killed at t=50 by a one-node failure and requeued:
  // two queue entries and two starts for one completion.
  swf::Trace trace;
  trace.header.max_nodes = 4;
  swf::JobRecord r;
  r.job_number = 1;
  r.submit_time = 0;
  r.run_time = 100;
  r.allocated_procs = 4;
  r.requested_time = 100;
  r.status = swf::Status::kCompleted;
  trace.records.push_back(r);
  outage::OutageLog log;
  outage::OutageRecord o;
  o.start_time = 50;
  o.end_time = 80;
  o.type = outage::OutageType::kCpuFailure;
  o.nodes_affected = 1;
  o.components = {0};
  log.records.push_back(o);

  OnlineMetricsObserver online;
  sim::ReplayHooks hooks;
  hooks.with_outages(log).observe(online);
  const auto result =
      sim::replay(trace, sim::SimulationSpec{}.with_scheduler("fcfs"), hooks);
  ASSERT_EQ(result.stats.jobs_killed, 1);
  EXPECT_EQ(online.submits(), 2u);
  EXPECT_EQ(total_starts(online), 2u);
  EXPECT_EQ(online.jobs(), 1u);
}

TEST(LiveCounts, ProfilePeakOnlyForWatchedProfileSchedulers) {
  for (const std::string name : {"easy", "conservative", "fcfs", "gang4"}) {
    auto scheduler = sched::make_scheduler(name);
    OnlineMetricsObserver online;
    online.watch(*scheduler);
    sim::ReplayHooks hooks;
    hooks.observe(online);
    sim::replay(small_trace(), std::move(scheduler),
                sim::SimulationSpec{}.with_scheduler(name).with_nodes(64),
                hooks);
    if (name == "easy" || name == "conservative") {
      EXPECT_GT(online.profile_steps_peak(), 0u) << name;
    } else {
      EXPECT_EQ(online.profile_steps_peak(), 0u) << name;
    }
  }
  // Unwatched, the peak stays 0 under a profile scheduler too.
  OnlineMetricsObserver unwatched;
  sim::ReplayHooks hooks;
  hooks.observe(unwatched);
  sim::replay(small_trace(),
              sim::SimulationSpec{}.with_scheduler("easy").with_nodes(64),
              hooks);
  EXPECT_GT(unwatched.steps(), 0u);
  EXPECT_EQ(unwatched.profile_steps_peak(), 0u);
}

}  // namespace
}  // namespace pjsb::metrics
