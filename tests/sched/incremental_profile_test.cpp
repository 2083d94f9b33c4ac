// The backfill schedulers maintain their capacity profile incrementally
// across events instead of rebuilding it per event, and conservative
// keeps its full profile (base + standing claims) across passes too.
// These tests force the debug cross-check on (it throws if either
// profile ever diverges from a from-scratch rebuild) and drive the
// schedulers through the situations that mutate the profile: early
// completions, outage windows (announced and surprise), advance
// reservations, failure-induced kills with requeue, and overruns.
#include <gtest/gtest.h>

#include "sched/backfill.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::sched {
namespace {

swf::Trace model_trace(std::size_t jobs, std::int64_t nodes, double load,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  config.mean_interarrival = 300;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config, rng);
  return workload::scale_to_load(trace, load, nodes);
}

outage::OutageLog make_outages(std::int64_t nodes, std::int64_t horizon,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  outage::OutageLog log;
  for (int i = 0; i < 6; ++i) {
    outage::OutageRecord rec;
    rec.start_time = rng.uniform_int(1, std::max<std::int64_t>(horizon, 2));
    rec.end_time = rec.start_time + rng.uniform_int(600, 7200);
    // Announce half of them in advance (drain behaviour), surprise the
    // rest.
    rec.announce_time = (i % 2 == 0)
                            ? std::max<std::int64_t>(0, rec.start_time - 1800)
                            : -1;
    rec.type = outage::OutageType::kCpuFailure;
    const std::int64_t first = rng.uniform_int(0, nodes / 2);
    const std::int64_t span = rng.uniform_int(1, nodes / 4);
    for (std::int64_t n = first; n < std::min(first + span, nodes); ++n) {
      rec.components.push_back(n);
    }
    rec.nodes_affected = std::int64_t(rec.components.size());
    log.records.push_back(rec);
  }
  return log;
}

/// Replay with the incremental-vs-rebuild cross-check armed; the
/// scheduler throws std::logic_error on the first divergence, failing
/// the test.
void run_checked(const std::string& scheduler_name, bool with_outages,
                 bool with_reservations) {
  const std::int64_t nodes = 64;
  const auto trace = model_trace(400, nodes, 0.8, 42);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = make_scheduler(scheduler_name);
  auto* backfill = dynamic_cast<BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);
  backfill->set_cross_check(true);

  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);
  if (with_outages) {
    engine.add_outages(make_outages(nodes, trace.horizon(), 7));
  }
  if (with_reservations) {
    util::Rng rng(11);
    for (int i = 0; i < 12; ++i) {
      AdvanceReservation res;
      res.start = rng.uniform_int(1, std::max<std::int64_t>(trace.horizon(), 2));
      res.duration = rng.uniform_int(600, 3600);
      res.procs = rng.uniform_int(nodes / 8, nodes / 2);
      engine.request_reservation(res);  // some may be rejected; fine
    }
  }
  ASSERT_NO_THROW(engine.run());
  EXPECT_GT(engine.completed().size(), 0u);
}

TEST(IncrementalProfile, ConservativeMatchesRebuild) {
  run_checked("conservative", false, false);
}

TEST(IncrementalProfile, EasyMatchesRebuild) {
  run_checked("easy", false, false);
}

TEST(IncrementalProfile, ConservativeWithOutagesMatchesRebuild) {
  run_checked("conservative", true, false);
}

TEST(IncrementalProfile, EasyWithOutagesMatchesRebuild) {
  run_checked("easy", true, false);
}

TEST(IncrementalProfile, ConservativeWithReservationsMatchesRebuild) {
  run_checked("conservative", false, true);
}

TEST(IncrementalProfile, EasyWithEverythingMatchesRebuild) {
  run_checked("easy", true, true);
}

TEST(IncrementalProfile, ConservativeWithFaultsMatchesRebuild) {
  // Crash kills with requeue (checkpointed, retry-limited) and jobs that
  // overrun their estimates: base changes land under standing claims
  // between passes, and the persistent full profile must track them.
  const std::int64_t nodes = 64;
  auto trace = model_trace(400, nodes, 0.8, 42);
  for (std::size_t i = 0; i < trace.records.size(); i += 4) {
    auto& r = trace.records[i];
    if (r.run_time > 1) r.requested_time = r.run_time / 2;
  }
  sim::SimulationSpec spec;
  spec.scheduler = "conservative";
  spec.faults = 7;
  spec.mtbf = 20000;
  spec.repair = 600;
  spec.checkpoint = 300;
  spec.dump = 20;
  spec.read = 40;
  spec.retry_limit = 3;
  const auto config = sim::spec_engine_config(spec, nodes);

  auto scheduler = make_scheduler(spec.scheduler);
  auto* backfill = dynamic_cast<BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);
  backfill->set_cross_check(true);
  sim::Engine engine(config, std::move(scheduler));
  engine.add_outages(sim::fault::generate_crashes(spec.fault_model(),
                                                  trace.horizon(), nodes));
  engine.load_trace(trace);
  ASSERT_NO_THROW(engine.run());
  EXPECT_GT(engine.stats().jobs_killed, 0);
  EXPECT_GT(engine.completed().size(), 0u);
}

TEST(IncrementalProfile, StepCountStaysBounded) {
  // Satellite: with per-pass compaction the profile's step count must
  // stay O(running + reservations + outages) — independent of how many
  // jobs have flowed through — so million-job traces run in bounded
  // memory.
  const std::int64_t nodes = 64;
  const auto trace = model_trace(1500, nodes, 0.9, 5);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = make_scheduler("conservative");
  auto* backfill = dynamic_cast<BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);

  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);

  std::size_t max_steps = 0;
  std::size_t max_live = 0;
  while (engine.step()) {
    max_steps = std::max(max_steps, backfill->profile().step_count());
    max_live = std::max(max_live,
                        engine.running_jobs() + engine.queued_jobs());
  }
  EXPECT_GT(engine.completed().size(), 1000u);
  // Each live entity contributes at most two step points (start fold +
  // end), plus a couple of boundary steps from compaction.
  EXPECT_LE(max_steps, 2 * max_live + 4);
  // And the bound is about *running* state: far fewer steps than jobs
  // processed.
  EXPECT_LT(max_steps, engine.completed().size() / 4);
}

}  // namespace
}  // namespace pjsb::sched
