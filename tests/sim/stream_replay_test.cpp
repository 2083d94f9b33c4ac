// Streaming replay: byte-identical decisions vs the in-memory path,
// bounded-memory modes, unbounded-source brakes and the closed-loop
// lookahead window.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/stream.hpp"

namespace pjsb::sim {
namespace {

swf::Trace model_trace(std::size_t jobs, std::uint64_t seed = 4242) {
  util::Rng rng(seed);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = 64;
  config.mean_interarrival = 450.0;
  return workload::generate(workload::ModelKind::kLublin99, config, rng);
}

/// Decision dump in completion order — "same string" means the
/// scheduler made the same choices in the same sequence. A lambda-based
/// FunctionObserver keeps bounded-memory tests free of retained
/// records; the primary path uses sim::CompletionCsvObserver.
FunctionObserver csv_into(std::string& out) {
  FunctionObserver observer;
  observer.job_complete = [&out](const CompletedJob& c) {
    out += std::to_string(c.id) + ',' + std::to_string(c.submit) + ',' +
           std::to_string(c.start) + ',' + std::to_string(c.end) + ',' +
           std::to_string(c.procs) + ',' + std::to_string(c.restarts) + '\n';
  };
  return observer;
}

std::string replay_inmem_csv(const swf::Trace& trace,
                             const std::string& scheduler) {
  std::ostringstream csv;
  CompletionCsvObserver observer(csv, /*header=*/false);
  replay(trace, SimulationSpec{}.with_scheduler(scheduler),
         ReplayHooks{}.observe(observer));
  return csv.str();
}

std::string replay_stream_csv(const swf::Trace& trace,
                              const std::string& scheduler,
                              std::size_t lookahead, bool bounded_memory) {
  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");

  auto spec = SimulationSpec{}.with_scheduler(scheduler).with_lookahead(
      lookahead);
  if (bounded_memory) spec.streaming_memory();
  std::ostringstream csv;
  CompletionCsvObserver observer(csv, /*header=*/false);
  replay(source, spec, ReplayHooks{}.observe(observer));
  return csv.str();
}

TEST(StreamReplay, ByteIdenticalDecisionsAcrossLookaheads) {
  const auto trace = model_trace(1500);
  for (const char* scheduler : {"easy", "conservative", "fcfs"}) {
    const auto expected = replay_inmem_csv(trace, scheduler);
    ASSERT_FALSE(expected.empty());
    for (const std::size_t lookahead : {std::size_t(1), std::size_t(16),
                                        std::size_t(100000)}) {
      EXPECT_EQ(replay_stream_csv(trace, scheduler, lookahead, false),
                expected)
          << scheduler << " lookahead=" << lookahead;
    }
  }
}

/// One long job among many short ones: on 2 nodes job 1 runs 10^6 s
/// while 2048 one-node 10 s jobs (ids 2..2049) arrive 10 s apart and
/// run one after another on the other node.
swf::Trace long_job_trace() {
  swf::Trace trace;
  trace.header.max_nodes = 2;
  const auto rec = [](std::int64_t id, std::int64_t submit,
                      std::int64_t runtime) {
    swf::JobRecord r;
    r.job_number = id;
    r.submit_time = submit;
    r.run_time = runtime;
    r.allocated_procs = 1;
    r.requested_procs = 1;
    r.requested_time = runtime;
    r.status = swf::Status::kCompleted;
    return r;
  };
  trace.records.push_back(rec(1, 0, 1'000'000));
  for (std::int64_t id = 2; id <= 2049; ++id) {
    trace.records.push_back(rec(id, 10 * (id - 2), 10));
  }
  return trace;
}

TEST(StreamReplay, ALongJobsSlotStaysWhileShortJobsPassIt) {
  // A recycled engine finds a job through the ring cell its id maps
  // to. At lookahead 4 it holds about six jobs, so the ring stays
  // small and every ring's width of ids one maps to the long job's
  // cell, which it holds for the whole run: those ids take the
  // fallback path, and each of their lookups and releases must find
  // them there.
  const auto trace = long_job_trace();
  for (const char* scheduler : {"fcfs", "easy", "conservative"}) {
    const auto expected = replay_inmem_csv(trace, scheduler);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(replay_stream_csv(trace, scheduler, 4, true), expected)
        << scheduler;
  }
}

TEST(StreamReplay, BoundedMemoryModeKeepsDecisionsAndStats) {
  const auto trace = model_trace(1200);
  const auto expected = replay_inmem_csv(trace, "easy");

  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");
  std::string csv;
  auto observer = csv_into(csv);
  const auto result = replay(
      source,
      SimulationSpec{}.with_scheduler("easy").with_lookahead(64)
          .streaming_memory(),
      ReplayHooks{}.observe(observer));

  EXPECT_EQ(csv, expected);
  EXPECT_TRUE(result.completed.empty());  // not retained...
  EXPECT_EQ(result.stats.jobs_completed, 1200);  // ...but still counted
  EXPECT_EQ(result.source_pulled, 1200u);
  EXPECT_GT(result.stats.utilization(), 0.0);
}

TEST(StreamReplay, MaxJobsBoundsAnUnboundedGeneratorSource) {
  workload::GeneratorSpec spec;
  spec.kind = workload::ModelKind::kLublin99;
  spec.config.machine_nodes = 64;
  spec.seed = 7;
  spec.max_jobs = 0;  // never exhausts on its own
  workload::ModelJobSource source(spec);

  SimulationSpec replay_spec;
  replay_spec.with_scheduler("easy").with_max_jobs(300).with_lookahead(32);
  replay_spec.recycle_slots = true;
  replay_spec.retain_completed = false;
  const auto result = replay(source, replay_spec);
  EXPECT_EQ(result.source_pulled, 300u);
  EXPECT_EQ(result.stats.jobs_completed, 300);
}

TEST(StreamReplay, GeneratorSourceReplayIsDeterministic) {
  // A generator stream is deterministic in its seed: two replays of the
  // same spec make byte-identical decisions, bounded-memory or not.
  constexpr std::size_t kJobs = 800;
  workload::GeneratorSpec spec;
  spec.kind = workload::ModelKind::kLublin99;
  spec.config.jobs = kJobs;
  spec.config.machine_nodes = 64;
  spec.seed = 31;
  spec.max_jobs = kJobs;

  const auto run = [&spec](bool bounded) {
    workload::ModelJobSource source(spec);
    std::string csv;
    auto observer = csv_into(csv);
    auto replay_spec = SimulationSpec{}.with_scheduler("easy")
                           .with_nodes(64)
                           .with_lookahead(64);
    if (bounded) replay_spec.streaming_memory();
    replay(source, replay_spec, ReplayHooks{}.observe(observer));
    return csv;
  };

  const auto a = run(true);
  const auto b = run(true);
  const auto c = run(false);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);  // slot recycling must not change any decision
}

swf::Trace dependency_trace() {
  // Job 1 runs [0, 100); job 2 depends on it with think time 50;
  // job 3 is independent.
  swf::Trace trace;
  trace.header.max_nodes = 4;
  auto rec = [](std::int64_t id, std::int64_t submit, std::int64_t runtime,
                std::int64_t pred, std::int64_t think) {
    swf::JobRecord r;
    r.job_number = id;
    r.submit_time = submit;
    r.run_time = runtime;
    r.allocated_procs = 1;
    r.requested_procs = 1;
    r.requested_time = runtime;
    r.status = swf::Status::kCompleted;
    r.preceding_job = pred;
    r.think_time = think;
    return r;
  };
  trace.records = {rec(1, 0, 100, -1, -1), rec(2, 10, 30, 1, 50),
                   rec(3, 20, 40, -1, -1)};
  return trace;
}

TEST(StreamReplay, ClosedLoopMatchesBatchWhenWindowCoversDependency) {
  const auto trace = dependency_trace();

  const auto batch =
      replay(trace, SimulationSpec{}.with_scheduler("fcfs").closed());

  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");
  // Window covers the whole trace.
  const auto stream = replay(
      source,
      SimulationSpec{}.with_scheduler("fcfs").closed().with_lookahead(10));

  ASSERT_EQ(stream.completed.size(), batch.completed.size());
  for (std::size_t i = 0; i < stream.completed.size(); ++i) {
    EXPECT_EQ(stream.completed[i].id, batch.completed[i].id);
    EXPECT_EQ(stream.completed[i].submit, batch.completed[i].submit);
    EXPECT_EQ(stream.completed[i].end, batch.completed[i].end);
  }
  // Dependent released at predecessor end (100) + think (50).
  bool saw_dependent = false;
  for (const auto& c : stream.completed) {
    if (c.id == 2) {
      EXPECT_EQ(c.submit, 150);
      saw_dependent = true;
    }
  }
  EXPECT_TRUE(saw_dependent);
}

TEST(StreamReplay, ClosedLoopLatePullResolvesViaResidentPredecessor) {
  // With lookahead 1 the dependent is pulled long after its predecessor
  // finished; the engine releases it relative to the recorded end time.
  swf::Trace trace;
  trace.header.max_nodes = 4;
  auto rec = [](std::int64_t id, std::int64_t submit, std::int64_t runtime) {
    swf::JobRecord r;
    r.job_number = id;
    r.submit_time = submit;
    r.run_time = runtime;
    r.allocated_procs = 1;
    r.requested_procs = 1;
    r.requested_time = runtime;
    r.status = swf::Status::kCompleted;
    return r;
  };
  trace.records = {rec(1, 0, 10)};
  for (std::int64_t i = 2; i <= 6; ++i) {
    trace.records.push_back(rec(i, 1000 + i, 10));
  }
  swf::JobRecord dep = rec(7, 1010, 10);
  dep.preceding_job = 1;
  dep.think_time = 5;
  trace.records.push_back(dep);

  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");
  const auto result = replay(
      source,
      SimulationSpec{}.with_scheduler("fcfs").closed().with_lookahead(1));

  ASSERT_EQ(result.stats.jobs_completed, 7);
  for (const auto& c : result.completed) {
    if (c.id == 7) {
      // Predecessor ended at 10; 10 + think 5 = 15 is in the past when
      // the record is pulled (clock is at ~1000), so it submits "now" —
      // never in the past, never lost.
      EXPECT_GE(c.submit, 15);
    }
  }
}

TEST(StreamReplay, EagerLoadDefersForwardReferencedDependents) {
  // A dependent whose record precedes its predecessor's in the file
  // (legal under ascending-submit ties; job numbers still ascend, so
  // job 1 names job 2). The eager load must register the edge and
  // defer, exactly like the historical all-up-front load; a bounded
  // stream instead falls back to open loop (it cannot wait on a
  // predecessor that may never arrive).
  swf::Trace trace;
  trace.header.max_nodes = 4;
  swf::JobRecord dep;
  dep.job_number = 1;
  dep.submit_time = 0;
  dep.run_time = 10;
  dep.allocated_procs = 1;
  dep.requested_procs = 1;
  dep.requested_time = 10;
  dep.status = swf::Status::kCompleted;
  dep.preceding_job = 2;
  dep.think_time = 7;
  swf::JobRecord pred = dep;
  pred.job_number = 2;
  pred.run_time = 50;
  pred.preceding_job = -1;
  pred.think_time = -1;
  trace.records = {dep, pred};

  const auto batch =
      replay(trace, SimulationSpec{}.with_scheduler("fcfs").closed());
  ASSERT_EQ(batch.completed.size(), 2u);
  for (const auto& c : batch.completed) {
    if (c.id == 1) {
      EXPECT_EQ(c.submit, 57);  // pred end (50) + think (7)
    }
  }

  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");
  const auto stream = replay(
      source,
      SimulationSpec{}.with_scheduler("fcfs").closed().with_lookahead(1));
  ASSERT_EQ(stream.stats.jobs_completed, 2);
  for (const auto& c : stream.completed) {
    if (c.id == 1) {
      EXPECT_EQ(c.submit, 0);  // bounded stream: open-loop fallback
    }
  }
}

TEST(StreamReplay, OrphanedDependentsDoNotJamTheLookaheadWindow) {
  // Closed loop + an outage that kills a predecessor, which a retry
  // limit of 1 drops at that first kill: its dependents never run
  // (batch semantics), but they must release their lookahead-gauge
  // slots or a small window stops pulling and silently truncates the
  // stream.
  swf::Trace trace;
  trace.header.max_nodes = 2;
  auto rec = [](std::int64_t id, std::int64_t submit, std::int64_t runtime,
                std::int64_t pred) {
    swf::JobRecord r;
    r.job_number = id;
    r.submit_time = submit;
    r.run_time = runtime;
    r.allocated_procs = 2;  // whole machine: the outage is fatal
    r.requested_procs = 2;
    r.requested_time = runtime;
    r.status = swf::Status::kCompleted;
    r.preceding_job = pred;
    r.think_time = pred > 0 ? 0 : -1;
    return r;
  };
  trace.records = {rec(1, 0, 100, -1), rec(2, 1, 10, 1)};
  for (std::int64_t i = 3; i <= 10; ++i) {
    trace.records.push_back(rec(i, 1000 + i, 10, -1));
  }

  outage::OutageLog outages;
  outage::OutageRecord kill;
  kill.start_time = 5;
  kill.end_time = 6;
  kill.nodes_affected = 1;
  kill.components = {0};
  outages.records = {kill};

  EngineConfig config;
  config.nodes = 2;
  config.closed_loop = true;
  config.recovery.retry_limit = 1;
  Engine engine(config, sched::make_scheduler("fcfs"));
  engine.add_outages(outages);

  swf::TraceSource source(trace);
  JobSourceOptions options;
  options.lookahead = 1;  // the orphaned dependent would fill the window
  engine.set_job_source(source, options);
  engine.run();

  // Jobs 3..10 must all have been pulled and completed; job 1 was
  // killed, job 2 (its dependent) dropped.
  EXPECT_EQ(engine.source_pulled(), 10u);
  EXPECT_EQ(engine.stats().jobs_completed, 8);
  EXPECT_EQ(engine.stats().jobs_killed, 1);
}

TEST(StreamReplay, OutOfOrderRecordsAreClampedNotLost) {
  swf::Trace trace = dependency_trace();
  // Violate the ascending-submit contract: last record jumps backwards.
  trace.records[2].submit_time = 1;
  const auto text = swf::write_swf_string(trace);
  auto in = std::make_unique<std::istringstream>(text);
  swf::TraceReader source(std::move(in), "test");
  // Lookahead 1 forces the straggler to be pulled late.
  const auto result = replay(
      source, SimulationSpec{}.with_scheduler("fcfs").with_lookahead(1));
  EXPECT_EQ(result.stats.jobs_completed, 3);
  EXPECT_GE(result.source_clamped, 1u);
}

TEST(StreamReplay, TraceReplayStatsUnchangedByRefactor) {
  // The in-memory path now routes through TraceSource + the pull
  // machinery; spot-check an end-to-end invariant against first
  // principles (all jobs complete, accounting is self-consistent).
  const auto trace = model_trace(400);
  const auto result =
      replay(trace, SimulationSpec{}.with_scheduler("easy"));
  EXPECT_EQ(result.stats.jobs_completed, 400);
  EXPECT_EQ(result.completed.size(), 400u);
  EXPECT_GT(result.stats.work_node_seconds, 0);
  EXPECT_LE(result.stats.utilization(), 1.0);
}

}  // namespace
}  // namespace pjsb::sim
