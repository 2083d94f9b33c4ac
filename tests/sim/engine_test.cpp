#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/outage/record.hpp"
#include "sched/registry.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb::sim {
namespace {

swf::Trace tiny_trace() {
  swf::Trace t;
  t.header.max_nodes = 4;
  auto add = [&](std::int64_t num, std::int64_t submit, std::int64_t procs,
                 std::int64_t runtime) {
    swf::JobRecord r;
    r.job_number = num;
    r.submit_time = submit;
    r.run_time = runtime;
    r.allocated_procs = procs;
    r.requested_time = runtime;
    r.status = swf::Status::kCompleted;
    r.user_id = 1;
    t.records.push_back(r);
  };
  add(1, 0, 2, 100);
  add(2, 10, 4, 50);   // must wait for job 1 (needs all 4)
  add(3, 20, 2, 30);
  return t;
}

TEST(Engine, FcfsOrderAndTimes) {
  const auto result =
      replay(tiny_trace(), SimulationSpec{}.with_scheduler("fcfs"));
  ASSERT_EQ(result.completed.size(), 3u);
  // Job 1: starts at 0, ends 100. Job 2 needs 4 procs -> starts 100.
  // Job 3 (FCFS, no backfill) waits behind job 2 -> starts 150.
  auto find = [&](std::int64_t id) {
    for (const auto& c : result.completed) {
      if (c.id == id) return c;
    }
    throw std::runtime_error("missing job");
  };
  EXPECT_EQ(find(1).start, 0);
  EXPECT_EQ(find(1).end, 100);
  EXPECT_EQ(find(2).start, 100);
  EXPECT_EQ(find(2).end, 150);
  EXPECT_EQ(find(3).start, 150);
  EXPECT_EQ(find(3).end, 180);
}

TEST(Engine, EasyBackfillsShortJob) {
  const auto result =
      replay(tiny_trace(), SimulationSpec{}.with_scheduler("easy"));
  auto find = [&](std::int64_t id) {
    for (const auto& c : result.completed) {
      if (c.id == id) return c;
    }
    throw std::runtime_error("missing job");
  };
  // Job 3 (2 procs, 30s est) fits beside job 1 and ends at 50 <= 100,
  // so it cannot delay job 2's shadow start at t=100: backfilled at 20.
  EXPECT_EQ(find(3).start, 20);
  EXPECT_EQ(find(2).start, 100);  // guarantee held
}

TEST(Engine, StatsAccounting) {
  const auto result = replay(tiny_trace(), SimulationSpec{}.with_scheduler("fcfs"));
  // work = 2*100 + 4*50 + 2*30 = 460 node-seconds; makespan 180.
  EXPECT_EQ(result.stats.work_node_seconds, 460);
  EXPECT_EQ(result.stats.makespan, 180);
  EXPECT_EQ(result.stats.capacity_node_seconds, 4 * 180);
  EXPECT_NEAR(result.stats.utilization(), 460.0 / 720.0, 1e-9);
  EXPECT_EQ(result.stats.jobs_killed, 0);
}

TEST(Engine, ClosedLoopDefersDependentJobs) {
  auto t = tiny_trace();
  // Job 3 depends on job 1 with 60s think time: submitted at 100+60.
  t.records[2].preceding_job = 1;
  t.records[2].think_time = 60;

  const auto result =
      replay(t, SimulationSpec{}.with_scheduler("fcfs").closed());
  ASSERT_EQ(result.completed.size(), 3u);
  for (const auto& c : result.completed) {
    if (c.id == 3) {
      EXPECT_EQ(c.submit, 160);
    }
  }
}

TEST(Engine, OpenLoopIgnoresDependencies) {
  auto t = tiny_trace();
  t.records[2].preceding_job = 1;
  t.records[2].think_time = 60;
  const auto result = replay(t, SimulationSpec{}.with_scheduler("fcfs"));
  for (const auto& c : result.completed) {
    if (c.id == 3) {
      EXPECT_EQ(c.submit, 20);
    }
  }
}

TEST(Engine, OutageKillsAndRequeuesJob) {
  swf::Trace t;
  t.header.max_nodes = 4;
  swf::JobRecord r;
  r.job_number = 1;
  r.submit_time = 0;
  r.run_time = 100;
  r.allocated_procs = 4;
  r.requested_time = 100;
  r.status = swf::Status::kCompleted;
  t.records.push_back(r);

  outage::OutageLog log;
  outage::OutageRecord o;
  o.start_time = 50;
  o.end_time = 80;
  o.announce_time = 50;
  o.type = outage::OutageType::kCpuFailure;
  o.nodes_affected = 1;
  o.components = {0};
  log.records.push_back(o);

  const auto result = replay(t, SimulationSpec{}.with_scheduler("fcfs"),
                             ReplayHooks{}.with_outages(log));
  ASSERT_EQ(result.completed.size(), 1u);
  const auto& c = result.completed[0];
  EXPECT_EQ(c.restarts, 1);
  // Killed at 50 (work lost), restarts when node returns at 80 with all
  // 4 nodes available; full rerun of 100s -> ends at 180.
  EXPECT_EQ(c.end, 180);
  EXPECT_EQ(result.stats.wasted_node_seconds, 4 * 50);
  EXPECT_EQ(result.stats.jobs_killed, 1);
}

TEST(Engine, OutageOnFreeNodesKillsNothing) {
  swf::Trace t;
  t.header.max_nodes = 8;
  swf::JobRecord r;
  r.job_number = 1;
  r.submit_time = 0;
  r.run_time = 100;
  r.allocated_procs = 2;
  r.status = swf::Status::kCompleted;
  t.records.push_back(r);

  outage::OutageLog log;
  outage::OutageRecord o;
  o.start_time = 10;
  o.end_time = 60;
  o.nodes_affected = 2;
  o.components = {6, 7};  // job holds nodes 0,1
  log.records.push_back(o);

  const auto result = replay(t, SimulationSpec{}.with_scheduler("fcfs"),
                             ReplayHooks{}.with_outages(log));
  EXPECT_EQ(result.completed[0].restarts, 0);
  EXPECT_EQ(result.completed[0].end, 100);
  // Capacity integral reflects the downtime: 8*100 - 2*50.
  EXPECT_EQ(result.stats.capacity_node_seconds, 700);
}

TEST(Engine, SubmitExternalJob) {
  EngineConfig cfg;
  cfg.nodes = 4;
  Engine engine(cfg, sched::make_scheduler("fcfs"));
  SimJob j;
  j.submit = 10;
  j.procs = 2;
  j.runtime = 30;
  j.estimate = 30;
  const auto id = engine.submit_job(j);
  EXPECT_GT(id, 0);
  engine.run();
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_EQ(engine.completed()[0].end, 40);
}

TEST(Engine, IncrementalSteppingMatchesRun) {
  Engine a(EngineConfig{.nodes = 4}, sched::make_scheduler("easy"));
  Engine b(EngineConfig{.nodes = 4}, sched::make_scheduler("easy"));
  a.load_trace(tiny_trace());
  b.load_trace(tiny_trace());
  a.run();
  while (b.step()) {
  }
  ASSERT_EQ(a.completed().size(), b.completed().size());
  for (std::size_t i = 0; i < a.completed().size(); ++i) {
    EXPECT_EQ(a.completed()[i].end, b.completed()[i].end);
  }
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  e.run_until(500);
  EXPECT_EQ(e.now(), 500);
  EXPECT_FALSE(e.next_event_time());
}

TEST(Engine, CompletionObserverFires) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  int count = 0;
  FunctionObserver observer;
  observer.job_complete = [&](const CompletedJob&) { ++count; };
  e.add_observer(observer);
  e.load_trace(tiny_trace());
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, ObserverListReceivesDecisionsCompletionsAndEnd) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  std::vector<Decision> decisions;
  int completions = 0;
  int ends = 0;
  FunctionObserver a;
  a.decision = [&](const Decision& d) { decisions.push_back(d); };
  a.job_complete = [&](const CompletedJob&) { ++completions; };
  a.end = [&](const EngineStats& stats) {
    ++ends;
    EXPECT_EQ(stats.jobs_completed, 3);
  };
  // A second observer proves fan-out; attach order is notification
  // order, so it sees the same counts.
  int other_completions = 0;
  FunctionObserver b;
  b.job_complete = [&](const CompletedJob&) { ++other_completions; };
  e.add_observer(a);
  e.add_observer(b);
  e.load_trace(tiny_trace());
  e.run();
  e.notify_run_end();
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& d : decisions) {
    EXPECT_FALSE(d.virtual_start);  // fcfs starts via the machine
    EXPECT_GT(d.procs, 0);
  }
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(other_completions, 3);
  EXPECT_EQ(ends, 1);
}

TEST(Engine, VirtualStartsAreMarkedInDecisions) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("gang2"));
  int virtual_starts = 0;
  FunctionObserver observer;
  observer.decision = [&](const Decision& d) {
    if (d.virtual_start) ++virtual_starts;
  };
  e.add_observer(observer);
  e.load_trace(tiny_trace());
  e.run();
  EXPECT_EQ(virtual_starts, 3);  // gang does its own space accounting
}

TEST(Engine, RejectsPastSubmission) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  e.run_until(100);
  SimJob j;
  j.submit = 50;
  EXPECT_THROW(e.submit_job(j), std::invalid_argument);

  // Times above kMaxTime are refused too, naming the job and the field,
  // and the engine keeps nothing of the job.
  const auto refusal = [&e](SimJob job) -> std::string {
    try {
      e.submit_job(job);
    } catch (const std::invalid_argument& err) {
      return err.what();
    }
    ADD_FAILURE() << "job " << job.id << " was accepted";
    return "";
  };
  SimJob late;
  late.id = 7;
  late.submit = 9223372036854775000;
  EXPECT_NE(refusal(late).find("job 7: submit time 9223372036854775000"),
            std::string::npos);
  SimJob long_run;
  long_run.id = 8;
  long_run.submit = 100;
  long_run.runtime = kMaxTime + 1;
  EXPECT_NE(refusal(long_run).find("job 8: runtime"), std::string::npos);
  SimJob wide_estimate;
  wide_estimate.id = 9;
  wide_estimate.submit = 100;
  wide_estimate.estimate = kMaxTime + 1;
  EXPECT_NE(refusal(wide_estimate).find("job 9: estimate"),
            std::string::npos);
  // So are the checkpoint fields, and a checkpointed burst (the read,
  // the runtime and one dump per completed interval) above the bound:
  // 2^20 + 1 s of work with a 2^20 s dump after every second.
  SimJob sparse_checkpoints;
  sparse_checkpoints.id = 10;
  sparse_checkpoints.submit = 100;
  sparse_checkpoints.checkpoint_interval = kMaxTime + 1;
  EXPECT_NE(refusal(sparse_checkpoints).find("job 10: checkpoint interval"),
            std::string::npos);
  SimJob slow_dump;
  slow_dump.id = 11;
  slow_dump.submit = 100;
  slow_dump.checkpoint_interval = 1;
  slow_dump.dump_time = kMaxTime + 1;
  EXPECT_NE(refusal(slow_dump).find("job 11: dump time"), std::string::npos);
  SimJob slow_read;
  slow_read.id = 12;
  slow_read.submit = 100;
  slow_read.checkpoint_interval = 1;
  slow_read.read_time = kMaxTime + 1;
  EXPECT_NE(refusal(slow_read).find("job 12: read time"), std::string::npos);
  SimJob long_burst;
  long_burst.id = 13;
  long_burst.submit = 100;
  long_burst.runtime = (std::int64_t(1) << 20) + 1;
  long_burst.estimate = long_burst.runtime;
  long_burst.checkpoint_interval = 1;
  long_burst.dump_time = std::int64_t(1) << 20;
  EXPECT_NE(refusal(long_burst).find("job 13: checkpointed burst"),
            std::string::npos);
  // The largest id would leave no id for the engine to pick next.
  SimJob last_id;
  last_id.id = std::numeric_limits<std::int64_t>::max();
  last_id.submit = 100;
  EXPECT_EQ(refusal(last_id),
            "job 9223372036854775807: job number is above the bound "
            "9223372036854775806");
  for (const std::int64_t id : {std::int64_t(7), std::int64_t(8),
                                std::int64_t(9), std::int64_t(10),
                                std::int64_t(11), std::int64_t(12),
                                std::int64_t(13), last_id.id}) {
    EXPECT_EQ(e.find_job(id), nullptr);
  }
  SimJob bound;
  bound.submit = kMaxTime;
  bound.runtime = kMaxTime;
  bound.estimate = kMaxTime;
  EXPECT_NO_THROW(e.submit_job(bound));
  // Each checkpoint field at the bound, and a burst of exactly 2^40 s.
  SimJob rare_dumps;
  rare_dumps.submit = 100;
  rare_dumps.checkpoint_interval = kMaxTime;
  rare_dumps.dump_time = kMaxTime;
  EXPECT_NO_THROW(e.submit_job(rare_dumps));
  SimJob no_checkpoints;  // reads only follow banked work
  no_checkpoints.submit = 100;
  no_checkpoints.read_time = kMaxTime;
  EXPECT_NO_THROW(e.submit_job(no_checkpoints));
  long_burst.runtime = std::int64_t(1) << 20;
  long_burst.estimate = long_burst.runtime;
  EXPECT_NO_THROW(e.submit_job(long_burst));

  // The burst counts the engine's recovery defaults a job inherits.
  EngineConfig checkpointing{.nodes = 4};
  checkpointing.recovery.checkpoint_interval = 1;
  checkpointing.recovery.dump_time = std::int64_t(1) << 20;
  Engine defaults(checkpointing, sched::make_scheduler("fcfs"));
  SimJob inherits;
  inherits.id = 14;
  inherits.runtime = (std::int64_t(1) << 20) + 1;
  inherits.estimate = inherits.runtime;
  EXPECT_THROW(defaults.submit_job(inherits), std::invalid_argument);
  EXPECT_EQ(defaults.find_job(14), nullptr);

  // Trace admission applies the same bound.
  auto trace = tiny_trace();
  trace.records[1].submit_time = 9223372036854775000;
  try {
    replay(trace, SimulationSpec{}.with_scheduler("fcfs"));
    ADD_FAILURE() << "a submit time above the bound was admitted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "job 2: submit time 9223372036854775000"),
              std::string::npos)
        << err.what();
  }
  trace = tiny_trace();
  trace.records.back().job_number = std::numeric_limits<std::int64_t>::max();
  try {
    replay(trace, SimulationSpec{}.with_scheduler("fcfs"));
    ADD_FAILURE() << "the largest job number was admitted";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(),
                 "job 9223372036854775807: job number is above the bound "
                 "9223372036854775806");
  }
  trace = tiny_trace();
  trace.records[1].run_time = (std::int64_t(1) << 20) + 1;
  auto spec = SimulationSpec{}.with_scheduler("fcfs");
  spec.checkpoint = 1;
  spec.dump = std::int64_t(1) << 20;
  try {
    replay(trace, spec);
    ADD_FAILURE() << "a checkpointed burst above the bound was admitted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("job 2: checkpointed burst"),
              std::string::npos)
        << err.what();
  }
}

TEST(Engine, RefusedTraceLoadRunsTheAdmittedPrefix) {
  // The third record repeats job 2: load_trace refuses it after
  // admitting jobs 1 and 2 from an adapter local to load_trace, so the
  // engine must not pull from that adapter again when it runs dry.
  auto trace = tiny_trace();
  trace.records[2].job_number = 2;
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  EXPECT_THROW(e.load_trace(trace), std::invalid_argument);
  e.run();
  ASSERT_EQ(e.completed().size(), 2u);
  EXPECT_EQ(e.completed()[0].id, 1);
  EXPECT_EQ(e.completed()[1].id, 2);
  EXPECT_EQ(e.completed()[1].end, 150);
}

TEST(Engine, OutagesPastTheInstantBoundAreRefusedWhole) {
  // Every outage instant is held to kMaxInstant, as snapshot restore
  // holds it; one bad record refuses the log, and nothing of it
  // (the good first record included) is queued.
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  const std::string before = e.snapshot();
  outage::OutageRecord good;
  good.start_time = 10;
  good.end_time = 20;
  good.nodes_affected = 1;
  good.components = {0};
  const auto refusal = [&](outage::OutageRecord bad) -> std::string {
    outage::OutageLog log;
    log.records = {good, bad};
    try {
      e.add_outages(log);
    } catch (const std::invalid_argument& err) {
      return err.what();
    }
    ADD_FAILURE() << "an outage past the bound was queued";
    return "";
  };
  auto bad = good;
  bad.end_time = kMaxInstant + 1;
  EXPECT_EQ(refusal(bad),
            "outage 2: end time 1152921504606846977 is above the time "
            "bound 1152921504606846976 s");
  bad = good;
  bad.start_time = std::numeric_limits<std::int64_t>::max();
  EXPECT_NE(refusal(bad).find("outage 2: start time"), std::string::npos);
  bad = good;
  bad.announce_time = kMaxInstant + 1;
  EXPECT_NE(refusal(bad).find("outage 2: announce time"), std::string::npos);
  EXPECT_EQ(e.snapshot(), before);

  // At the bound, the window is queued and the state still restores.
  good.end_time = kMaxInstant;
  outage::OutageLog log;
  log.records = {good};
  e.add_outages(log);
  EXPECT_NE(e.snapshot(), before);
  EXPECT_NO_THROW(Engine::restore(e.snapshot()));
}

TEST(Engine, ReservationsEndingPastTheInstantBoundAreRefused) {
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("conservative"));
  sched::AdvanceReservation res;
  res.start = kMaxInstant - 100;
  res.duration = 101;
  res.procs = 1;
  EXPECT_FALSE(e.request_reservation(res));
  res.duration = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(e.request_reservation(res));
  res.duration = 100;
  EXPECT_TRUE(e.request_reservation(res));
  EXPECT_NO_THROW(Engine::restore(e.snapshot()));
}

TEST(Engine, ObserverMaySubmitJobsDuringCompletion) {
  // The completion observer is allowed to submit follow-up work; the
  // submission may grow the engine's job storage mid-completion, which
  // must not disturb the rest of the completion (dangling-reference
  // regression).
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  int chained = 0;
  FunctionObserver observer;
  observer.job_complete = [&](const CompletedJob& done) {
    if (chained < 50) {
      ++chained;
      SimJob follow;
      follow.submit = done.end + 1;
      follow.runtime = 5;
      follow.estimate = 5;
      follow.procs = 1;
      e.submit_job(follow);
    }
  };
  e.add_observer(observer);
  SimJob first;
  first.submit = 0;
  first.runtime = 5;
  first.estimate = 5;
  first.procs = 1;
  e.submit_job(first);
  e.run();
  EXPECT_EQ(e.completed().size(), 51u);
}

TEST(Engine, SparseJobIdsCoexistWithDenseOnes) {
  // Caller-chosen ids far beyond the trace population (the meta layer
  // bases its ids at 1'000'000) must work alongside dense trace ids —
  // and without a million-slot allocation, though the test can only
  // check behavior.
  Engine e(EngineConfig{.nodes = 4}, sched::make_scheduler("fcfs"));
  e.load_trace(tiny_trace());
  SimJob meta;
  meta.id = 1'000'000;
  meta.submit = 1;
  meta.runtime = 7;
  meta.estimate = 7;
  meta.procs = 1;
  const std::int64_t id = e.submit_job(meta);
  EXPECT_EQ(id, 1'000'000);
  EXPECT_EQ(e.job(id).runtime, 7);
  e.run();
  bool meta_done = false;
  for (const auto& c : e.completed()) {
    if (c.id == id) meta_done = true;
  }
  EXPECT_TRUE(meta_done);
  // A later dense id still resolves to the same job population.
  EXPECT_THROW(e.job(999'999), std::out_of_range);
}

TEST(Engine, TerminatedJobsHoldNoNodeRuns) {
  // A job's node runs are freed, capacity included, when it finishes or
  // is killed. After every step each running job holds exactly its
  // width and no other job holds run capacity; after the run no
  // terminated job does, plain and with crashes, checkpoints, requeues
  // and retry-limit drops.
  constexpr std::int64_t kNodes = 32;
  const auto trace = validate::fuzz_workload(20261017, 300, kNodes);
  for (const bool crashes : {false, true}) {
    SCOPED_TRACE(crashes ? "with crashes" : "plain");
    auto spec = SimulationSpec{}.with_scheduler("easy");
    if (crashes) {
      spec.faults = 7;
      spec.mtbf = 9000;
      spec.repair = 600;
      spec.checkpoint = 300;
      spec.retry_limit = 3;
    }
    const auto config = spec_engine_config(spec, kNodes);
    Engine e(config, sched::make_scheduler(spec.scheduler));
    if (crashes) {
      e.add_outages(fault::generate_crashes(spec.fault_model(),
                                            trace.horizon(), config.nodes));
    }
    e.load_trace(trace);
    const auto check = [](const SimJob& j) {
      if (j.state != JobState::kRunning) {
        EXPECT_EQ(j.nodes.capacity(), 0u) << "job " << j.id;
        return;
      }
      std::int64_t held = 0;
      for (const NodeRun& run : j.nodes) held += run.count;
      EXPECT_EQ(held, j.procs) << "job " << j.id;
    };
    std::size_t most_running = 0;
    while (e.step()) {
      most_running = std::max(most_running, e.running_jobs());
      e.for_each_job(check);
    }
    EXPECT_GT(most_running, 1u);
    std::size_t terminated = 0;
    e.for_each_job([&](const SimJob& j) {
      EXPECT_EQ(j.state, JobState::kFinished) << "job " << j.id;
      check(j);
      ++terminated;
    });
    EXPECT_EQ(terminated, trace.records.size());
    if (crashes) {
      EXPECT_GT(e.stats().jobs_killed, 0);
      EXPECT_GT(e.stats().jobs_dropped, 0);
    }
  }
}

TEST(Engine, OversizedJobClampedToMachine) {
  swf::Trace t;
  t.header.max_nodes = 4;
  swf::JobRecord r;
  r.job_number = 1;
  r.submit_time = 0;
  r.run_time = 10;
  r.allocated_procs = 64;  // bigger than machine
  r.status = swf::Status::kCompleted;
  t.records.push_back(r);
  const auto result = replay(t, SimulationSpec{}.with_scheduler("fcfs"));
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_EQ(result.completed[0].procs, 4);
}

}  // namespace
}  // namespace pjsb::sim
