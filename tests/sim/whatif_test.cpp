// WhatIfService: hypothetical queries answered off a frozen snapshot
// must agree with the scheduler's own predictions, must not perturb the
// donor run, and must fall back to exact forward simulation when asked.
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/estimate.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/whatif.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb::sim {
namespace {

constexpr std::uint64_t kSeed = 424242;
constexpr std::int64_t kNodes = 32;

/// A donor engine run to roughly the middle of a fuzz workload.
struct Donor {
  swf::Trace trace;
  std::unique_ptr<Engine> engine;
  validate::DecisionRecorder recorder;
};

Donor make_donor(const std::string& scheduler, std::uint64_t seed,
                 bool exact_estimates = false) {
  Donor d;
  d.trace = validate::fuzz_workload(seed, 100, kNodes);
  if (exact_estimates) set_exact_estimates(d.trace);
  const auto config = spec_engine_config(
      SimulationSpec{}.with_scheduler(scheduler),
      d.trace.header.max_nodes.value_or(kDefaultNodes));
  d.engine =
      std::make_unique<Engine>(config, sched::make_scheduler(scheduler));
  d.engine->add_observer(d.recorder);
  d.engine->load_trace(d.trace);
  d.engine->run_until(d.trace.horizon() / 2);
  return d;
}

TEST(WhatIf, PredictionsMatchTheDonorSchedulerDirectly) {
  auto donor = make_donor("conservative", kSeed);
  auto service = WhatIfService::from_engine(*donor.engine);
  EXPECT_EQ(service.snapshot_time(), donor.engine->now());

  for (const std::int64_t procs : {1, 4, 16, 32}) {
    for (const std::int64_t estimate : {60, 3600, 86400}) {
      WhatIfQuery q;
      q.procs = procs;
      q.estimate = estimate;
      const auto answer = service.query(q);
      const auto direct = donor.engine->scheduler().predict_start(
          donor.engine->now(), procs, estimate);
      ASSERT_EQ(answer.start.has_value(), direct.has_value());
      if (direct) {
        EXPECT_EQ(*answer.start, *direct) << procs << "x" << estimate;
        EXPECT_EQ(*answer.wait, *direct - donor.engine->now());
      }
    }
  }
}

TEST(WhatIf, QueriesDoNotPerturbTheDonorRun) {
  // Control: the donor finishes uninterrupted.
  auto control = make_donor("easy", kSeed + 1);
  control.engine->run();
  const auto expected =
      validate::decisions_to_csv(control.recorder.decisions());

  // Probe: same donor, but a service snapshots it mid-run and answers a
  // barrage of queries (both modes) before the donor continues.
  auto probed = make_donor("easy", kSeed + 1);
  auto service = WhatIfService::from_engine(*probed.engine);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 8; ++i) {
    WhatIfQuery q;
    q.procs = 1 + i * 4;
    q.estimate = 600 * (i + 1);
    q.submit_offset = i * 30;
    q.simulate = (i % 2) == 1;
    queries.push_back(q);
  }
  const auto answers = service.batch(queries);
  ASSERT_EQ(answers.size(), queries.size());
  probed.engine->run();
  EXPECT_EQ(validate::decisions_to_csv(probed.recorder.decisions()),
            expected);
}

TEST(WhatIf, SimulateModeObservesARealStart) {
  auto donor = make_donor("fcfs", kSeed + 2);
  auto service = WhatIfService::from_engine(*donor.engine);

  WhatIfQuery q;
  q.procs = 2;
  q.estimate = 1200;
  q.simulate = true;
  const auto answer = service.query(q);
  ASSERT_TRUE(answer.simulated);
  ASSERT_TRUE(answer.start.has_value());
  EXPECT_GE(*answer.start, service.snapshot_time());
  EXPECT_EQ(*answer.wait, *answer.start - service.snapshot_time());

  // Offsets shift the hypothetical submit; negative offsets clamp to
  // the snapshot clock (a snapshot cannot answer about its own past).
  WhatIfQuery late = q;
  late.submit_offset = 3600;
  const auto late_answer = service.query(late);
  ASSERT_TRUE(late_answer.start.has_value());
  EXPECT_GE(*late_answer.start, service.snapshot_time() + 3600);
  WhatIfQuery past = q;
  past.submit_offset = -1000;
  const auto past_answer = service.query(past);
  ASSERT_TRUE(past_answer.start.has_value());
  EXPECT_EQ(*past_answer.start, *answer.start);

  // Offsets and estimates above kMaxTime are refused in both modes.
  for (const bool simulate : {false, true}) {
    WhatIfQuery far = q;
    far.simulate = simulate;
    far.submit_offset = kMaxTime + 1;
    EXPECT_THROW(service.query(far), std::invalid_argument);
    WhatIfQuery huge = q;
    huge.simulate = simulate;
    huge.estimate = std::numeric_limits<std::int64_t>::max();
    EXPECT_THROW(service.query(huge), std::invalid_argument);
  }
}

TEST(WhatIf, PredictAndSimulateAgreeUnderConservative) {
  // With exact estimates the conservative profile is the exact future,
  // so the profile-sweep prediction and the forward simulation must
  // land the hypothetical job at the same instant. (With loose
  // estimates real completions free capacity early and the simulated
  // start legitimately beats the promise.)
  auto donor = make_donor("conservative", kSeed + 3,
                          /*exact_estimates=*/true);
  auto service = WhatIfService::from_engine(*donor.engine);
  // A job wider than the machine is clamped to it in both modes.
  for (const std::int64_t procs :
       std::initializer_list<std::int64_t>{1, 8, 32, 4 * kNodes}) {
    WhatIfQuery q;
    q.procs = procs;
    q.estimate = 1800;
    const auto predicted = service.query(q);
    q.simulate = true;
    const auto simulated = service.query(q);
    ASSERT_TRUE(predicted.start.has_value());
    ASSERT_TRUE(simulated.start.has_value());
    EXPECT_EQ(*predicted.start, *simulated.start) << procs << " procs";
  }
}

TEST(WhatIf, RejectsSnapshotsThatNeedAJobSource) {
  const auto trace = validate::fuzz_workload(kSeed + 4, 60, kNodes);
  swf::TraceSource source(trace);
  const auto config = spec_engine_config(
      SimulationSpec{}.with_scheduler("easy"),
      trace.header.max_nodes.value_or(kDefaultNodes));
  Engine engine(config, sched::make_scheduler("easy"));
  JobSourceOptions options;
  options.lookahead = 8;
  engine.set_job_source(source, options);
  for (int i = 0; i < 20 && engine.step(); ++i) {
  }
  EXPECT_THROW(WhatIfService service(engine.snapshot()),
               std::invalid_argument);
}

}  // namespace
}  // namespace pjsb::sim
