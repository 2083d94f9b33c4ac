// SimulationSpec: grammar round-trips, validation, and the determinism
// guarantee that a spec parsed from its own to_string() reproduces
// byte-identical decision CSVs.
#include "sim/spec.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::sim {
namespace {

swf::Trace small_trace() {
  util::Rng rng(7);
  workload::ModelConfig config;
  config.jobs = 300;
  config.machine_nodes = 64;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config,
                                  rng);
  return workload::scale_to_load(trace, 0.8, 64);
}

TEST(SimulationSpec, DefaultsRoundTrip) {
  const SimulationSpec spec;
  EXPECT_EQ(spec.to_string(), "scheduler=fcfs");
  const auto parsed = SimulationSpec::parse(spec.to_string());
  EXPECT_EQ(parsed.to_string(), spec.to_string());
}

TEST(SimulationSpec, EveryFieldRoundTrips) {
  SimulationSpec spec;
  spec.scheduler = "easy reserve_depth=2";
  spec.nodes = 256;
  spec.closed_loop = true;
  spec.deliver_announcements = false;
  spec.lookahead = 512;
  spec.max_jobs = 100000;
  spec.retain_completed = false;
  spec.recycle_slots = true;

  const std::string text = spec.to_string();
  // The embedded scheduler spec contains a space, so it must be quoted.
  EXPECT_NE(text.find("scheduler='easy reserve_depth=2'"),
            std::string::npos)
      << text;
  const auto parsed = SimulationSpec::parse(text);
  EXPECT_EQ(parsed.scheduler, spec.scheduler);
  EXPECT_EQ(parsed.nodes, spec.nodes);
  EXPECT_EQ(parsed.closed_loop, spec.closed_loop);
  EXPECT_EQ(parsed.deliver_announcements, spec.deliver_announcements);
  EXPECT_EQ(parsed.lookahead, spec.lookahead);
  EXPECT_EQ(parsed.max_jobs, spec.max_jobs);
  EXPECT_EQ(parsed.retain_completed, spec.retain_completed);
  EXPECT_EQ(parsed.recycle_slots, spec.recycle_slots);
  EXPECT_EQ(parsed.to_string(), text);
}

TEST(SimulationSpec, FaultAndRecoveryKeysRoundTrip) {
  SimulationSpec spec;
  spec.scheduler = "easy";
  spec.faults = 42;
  spec.mtbf = 86400;
  spec.repair = 1800;
  spec.checkpoint = 3600;
  spec.dump = 30;
  spec.read = 60;
  spec.retry_limit = 3;
  spec.backoff = 120;
  spec.overrun = fault::OverrunPolicy::kGrace;
  spec.grace = 600;

  const std::string text = spec.to_string();
  EXPECT_EQ(text,
            "scheduler=easy faults=42 mtbf=86400 repair=1800 "
            "checkpoint=3600 dump=30 read=60 retry_limit=3 backoff=120 "
            "overrun=grace grace=600");
  const auto parsed = SimulationSpec::parse(text);
  EXPECT_EQ(parsed.faults, spec.faults);
  EXPECT_EQ(parsed.mtbf, spec.mtbf);
  EXPECT_EQ(parsed.repair, spec.repair);
  EXPECT_EQ(parsed.checkpoint, spec.checkpoint);
  EXPECT_EQ(parsed.dump, spec.dump);
  EXPECT_EQ(parsed.read, spec.read);
  EXPECT_EQ(parsed.retry_limit, spec.retry_limit);
  EXPECT_EQ(parsed.backoff, spec.backoff);
  EXPECT_EQ(parsed.overrun, spec.overrun);
  EXPECT_EQ(parsed.grace, spec.grace);
  EXPECT_EQ(parsed.to_string(), text);

  // The structured views agree with the fields.
  const auto model = parsed.fault_model();
  EXPECT_TRUE(model.enabled());
  EXPECT_EQ(model.seed, 42u);
  EXPECT_EQ(model.mtbf_seconds, 86400);
  EXPECT_EQ(model.repair_mean_seconds, 1800);
  const auto recovery = parsed.recovery_config();
  EXPECT_EQ(recovery.checkpoint_interval, 3600);
  EXPECT_EQ(recovery.dump_time, 30);
  EXPECT_EQ(recovery.read_time, 60);
  EXPECT_EQ(recovery.retry_limit, 3);
  EXPECT_EQ(recovery.backoff_seconds, 120);
  EXPECT_EQ(recovery.overrun, fault::OverrunPolicy::kGrace);
  EXPECT_EQ(recovery.grace_seconds, 600);
}

TEST(SimulationSpec, ValidateRejectsFaultNonsense) {
  // Crash-schedule distributions without the seed that enables them.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy mtbf=1000").validate(),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy repair=60").validate(),
               std::invalid_argument);
  // Checkpoint costs without a checkpoint interval.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy dump=5").validate(),
               std::invalid_argument);
  // overrun=grace needs a positive grace, and grace needs overrun=grace.
  EXPECT_THROW(
      SimulationSpec::parse("scheduler=easy overrun=grace").validate(),
      std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy grace=60").validate(),
               std::invalid_argument);
  // Malformed values die in parse with the key named.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy faults=lots"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy overrun=forgiving"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy retry_limit=-1"),
               std::invalid_argument);
  // faults=0 is the documented "disabled" spelling, not an error.
  EXPECT_NO_THROW(SimulationSpec::parse("scheduler=easy faults=0").validate());
  // Durations above kMaxTime (2^40 s) are refused naming the key; the
  // bound itself is accepted.
  for (const auto& [prefix, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"faults=7 mtbf=", "mtbf="},
           {"faults=7 repair=", "repair="},
           {"checkpoint=", "checkpoint="},
           {"checkpoint=60 dump=", "dump="},
           {"checkpoint=60 read=", "read="},
           {"backoff=", "backoff="},
           {"overrun=grace grace=", "grace="},
           {"timeseries=/tmp/x.csv sample_every=", "sample_every="}}) {
    const std::string head = "scheduler=easy " + prefix;
    EXPECT_NO_THROW(SimulationSpec::parse(head + std::to_string(kMaxTime)))
        << prefix;
    try {
      SimulationSpec::parse(head + "9223372036854775000");
      ADD_FAILURE() << prefix << " above the bound was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(SimulationSpec, AutoNodesSpelledAuto) {
  const auto parsed = SimulationSpec::parse("scheduler=easy nodes=auto");
  EXPECT_FALSE(parsed.nodes.has_value());
  const auto pinned = SimulationSpec::parse("scheduler=easy nodes=64");
  EXPECT_EQ(pinned.nodes, 64);
}

TEST(SimulationSpec, ThreadsKeyRoundTrips) {
  // The default stays silent in the canonical form.
  EXPECT_EQ(SimulationSpec{}.to_string().find("threads="), std::string::npos);
  const auto parsed = SimulationSpec::parse("scheduler=easy threads=8");
  EXPECT_EQ(parsed.threads, 8);
  const std::string text = parsed.to_string();
  EXPECT_NE(text.find("threads=8"), std::string::npos) << text;
  EXPECT_EQ(SimulationSpec::parse(text).to_string(), text);
  // Any thread count is valid on its own; there is no backend to pick.
  SimulationSpec threaded;
  threaded.threads = 4;
  EXPECT_NO_THROW(threaded.validate());
}

TEST(SimulationSpec, ParserIsNotAKey) {
  // One reader remains: parser= is rejected like any unknown key.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy parser=fast"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy threads=0"),
               std::invalid_argument);
  SimulationSpec bad_threads;
  bad_threads.threads = 0;
  EXPECT_THROW(bad_threads.validate(), std::invalid_argument);
  // with_parser only forwards the thread count, and still rejects names
  // that never were backends.
  EXPECT_EQ(SimulationSpec{}.with_parser("fast", 8).threads, 8);
  EXPECT_EQ(SimulationSpec{}.with_parser("stream").threads, 1);
  EXPECT_THROW(SimulationSpec{}.with_parser("turbo"), std::invalid_argument);
}

TEST(SimulationSpec, BuilderChains) {
  const auto spec = SimulationSpec{}
                        .with_scheduler("conservative")
                        .with_nodes(128)
                        .closed()
                        .with_lookahead(64)
                        .streaming_memory();
  EXPECT_EQ(spec.scheduler, "conservative");
  EXPECT_EQ(spec.nodes, 128);
  EXPECT_TRUE(spec.closed_loop);
  EXPECT_EQ(spec.lookahead, 64u);
  EXPECT_FALSE(spec.retain_completed);
  EXPECT_TRUE(spec.recycle_slots);
  EXPECT_NO_THROW(spec.validate());
}

TEST(SimulationSpec, ValidateRejectsNonsense) {
  // Unresolvable scheduler spec (bad name / bad parameter).
  EXPECT_THROW(SimulationSpec{}.with_scheduler("nope").validate(),
               std::invalid_argument);
  EXPECT_THROW(
      SimulationSpec{}.with_scheduler("easy reserve_depth=0").validate(),
      std::invalid_argument);
  // Machine size bounds.
  EXPECT_THROW(SimulationSpec{}.with_nodes(0).validate(),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec{}.with_nodes(kMaxSpecNodes + 1).validate(),
               std::invalid_argument);
  // Zero lookahead jams the ingestion window shut.
  EXPECT_THROW(SimulationSpec{}.with_lookahead(0).validate(),
               std::invalid_argument);
  // Dropping records while retaining every slot: all the memory cost,
  // none of the output.
  SimulationSpec leaky;
  leaky.retain_completed = false;
  leaky.recycle_slots = false;
  EXPECT_THROW(leaky.validate(), std::invalid_argument);
}

TEST(SimulationSpec, ParseRejectsMalformedInput) {
  // Unknown key, with the valid keys named.
  try {
    SimulationSpec::parse("scheduler=easy lookhaed=3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
  }
  // Repeated key.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy scheduler=fcfs"),
               std::invalid_argument);
  // Bare token (the scheduler must be spelled scheduler=...).
  EXPECT_THROW(SimulationSpec::parse("easy nodes=64"),
               std::invalid_argument);
  // Malformed values.
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy nodes=many"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy closed_loop=maybe"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy lookahead=0"),
               std::invalid_argument);
  EXPECT_THROW(SimulationSpec::parse("scheduler=easy max_jobs=-1"),
               std::invalid_argument);
}

TEST(SimulationSpec, TraceReplayRejectsStreamingBrake) {
  SimulationSpec spec;
  spec.max_jobs = 10;
  EXPECT_THROW(replay(small_trace(), spec), std::invalid_argument);
}

TEST(SimulationSpec, InstanceOverloadAcceptsUnregisteredSchedulerLabel) {
  // A caller-built scheduler may carry any spec.scheduler label (for
  // logging); only the spec-only overloads resolve it via the registry.
  auto spec = SimulationSpec{}.with_scheduler("my-custom-policy");
  EXPECT_THROW(replay(small_trace(), spec), std::invalid_argument);
  const auto result =
      replay(small_trace(), sched::make_scheduler("fcfs"), spec);
  EXPECT_EQ(result.completed.size(), 300u);
}

/// Decision CSV of a completed run, in completion order.
std::string decisions_csv(const ReplayResult& result) {
  std::ostringstream os;
  for (const auto& c : result.completed) {
    os << c.id << ',' << c.submit << ',' << c.start << ',' << c.end << ','
       << c.procs << '\n';
  }
  return os.str();
}

TEST(SimulationSpec, ParsedSpecReproducesByteIdenticalDecisions) {
  // The determinism contract behind logging a cell's spec string: a
  // spec parsed from its own to_string() drives an identical replay.
  const auto trace = small_trace();
  for (const std::string scheduler :
       {"easy", "conservative", "easy reserve_depth=4", "sjf tie=widest",
        "gang slots=2"}) {
    SimulationSpec spec;
    spec.scheduler = scheduler;
    spec.nodes = 64;
    const auto direct = replay(trace, spec);
    const auto round_tripped =
        replay(trace, SimulationSpec::parse(spec.to_string()));
    EXPECT_EQ(decisions_csv(direct), decisions_csv(round_tripped))
        << scheduler;
    EXPECT_FALSE(direct.completed.empty()) << scheduler;
  }
}

}  // namespace
}  // namespace pjsb::sim
