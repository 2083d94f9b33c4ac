// Snapshot/restore determinism: freezing a run mid-flight and resuming
// from the bytes must reproduce the uninterrupted run's decision trace
// byte for byte — for every registered scheduler spec, at several event
// boundaries, with and without fault injection. The decision trace pins
// the policy's observable behaviour exactly (validate/decisions.hpp),
// so byte-identical CSVs mean byte-identical simulations.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/swf/reader.hpp"
#include "sched/conservative.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/codec.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "sim/snapshot/whatif.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb::sim {
namespace {

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kJobs = 120;
constexpr std::int64_t kNodes = 32;

/// The fault variant every spec is also exercised under: aggressive
/// MTBF so the small fuzz workload actually sees crashes, plus
/// checkpointing and a retry limit so the recovery paths serialize.
SimulationSpec crashy(SimulationSpec spec) {
  spec.faults = 7;
  spec.mtbf = 9000;
  spec.repair = 600;
  spec.checkpoint = 300;
  spec.dump = 20;
  spec.read = 40;
  spec.retry_limit = 3;
  return spec;
}

/// Build the engine exactly as replay() would (same config mapping,
/// same seeded crash schedule) so interrupted and uninterrupted runs
/// share every input.
std::unique_ptr<Engine> make_engine(const swf::Trace& trace,
                                    const SimulationSpec& spec) {
  const auto config = spec_engine_config(
      spec, trace.header.max_nodes.value_or(kDefaultNodes));
  auto engine = std::make_unique<Engine>(
      config, sched::make_scheduler(spec.scheduler));
  if (spec.faults != 0) {
    const auto crashes = fault::generate_crashes(
        spec.fault_model(), trace.horizon(), config.nodes);
    engine->add_outages(crashes);
  }
  return engine;
}

std::string uninterrupted_csv(const swf::Trace& trace,
                              const SimulationSpec& spec) {
  auto engine = make_engine(trace, spec);
  validate::DecisionRecorder recorder;
  engine->add_observer(recorder);
  engine->load_trace(trace);
  engine->run();
  return validate::decisions_to_csv(recorder.decisions());
}

/// Run to `cut` sim-seconds, snapshot, restore from the bytes, finish
/// on the clone; returns the combined decision CSV (donor prefix +
/// clone suffix). Also checks that re-snapshotting the freshly restored
/// clone reproduces the donor's bytes — the format is canonical, so a
/// restore loses nothing.
std::string interrupted_csv(const swf::Trace& trace,
                            const SimulationSpec& spec, std::int64_t cut) {
  auto donor = make_engine(trace, spec);
  validate::DecisionRecorder prefix;
  donor->add_observer(prefix);
  donor->load_trace(trace);
  while (true) {
    const auto t = donor->next_event_time();
    if (!t || *t > cut) break;
    donor->step();
  }
  const std::string bytes = donor->snapshot();

  auto clone = Engine::restore(bytes);
  EXPECT_FALSE(clone->needs_job_source());
  EXPECT_EQ(clone->snapshot(), bytes)
      << spec.scheduler << ": restore->snapshot not canonical at t=" << cut;

  validate::DecisionRecorder suffix;
  clone->add_observer(suffix);
  clone->run();

  auto all = prefix.decisions();
  all.insert(all.end(), suffix.decisions().begin(),
             suffix.decisions().end());
  return validate::decisions_to_csv(all);
}

/// One value of every codec type, written in this order: a u8, a u32,
/// a u64, a negative i64, f64 -0.0, an f64 NaN with a payload, a
/// boolean and a string.
constexpr std::uint64_t kNanBits = 0x7ff8000000000123;

void write_codec_sample(snapshot::Writer& w) {
  w.u8(0xab);
  w.u32(0x01020304);
  w.u64(0x0102030405060708);
  w.i64(-2);
  w.f64(-0.0);
  w.f64(std::bit_cast<double>(kNanBits));
  w.boolean(true);
  w.str("pjsb");
}

/// The little-endian bytes write_codec_sample must produce on every
/// host.
std::string codec_sample_bytes() {
  const unsigned char bytes[] = {
      0xab,                                            // u8
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // f64 -0.0
      0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,  // f64 NaN
      0x01,                                            // boolean
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // string length
      'p',  'j',  's',  'b'};
  return std::string(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

/// Read the sample back, checking every value; throws as the Reader
/// does on malformed input.
void read_codec_sample(snapshot::Reader& r) {
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708u);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), kNanBits);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "pjsb");
}

TEST(SnapshotCodec, WritesAndReadsThePinnedLittleEndianBytes) {
  snapshot::Writer w;
  write_codec_sample(w);
  const std::string expected = codec_sample_bytes();
  EXPECT_EQ(w.bytes(), expected);
  EXPECT_EQ(w.take(), expected);

  snapshot::Reader r(expected);
  read_codec_sample(r);
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(SnapshotCodec, RejectsEveryTruncationAndAMalformedBoolean) {
  const std::string bytes = codec_sample_bytes();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    snapshot::Reader r(std::string_view(bytes).substr(0, length));
    try {
      read_codec_sample(r);
      ADD_FAILURE() << "a " << length << "-byte prefix read back whole";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "snapshot: truncated data") << length;
    }
  }

  auto bad = bytes;
  bad[bad.size() - 13] = 2;  // the boolean, before the string
  snapshot::Reader r(bad);
  try {
    read_codec_sample(r);
    ADD_FAILURE() << "a boolean byte of 2 was read";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "snapshot: malformed boolean");
  }
}

TEST(Snapshot, ResumeIsByteIdenticalForEveryRegistrySpec) {
  const auto trace = validate::fuzz_workload(kSeed, kJobs, kNodes);
  const auto specs =
      validate::enumerate_scheduler_specs(sched::Registry::global());
  ASSERT_FALSE(specs.empty());
  const std::int64_t horizon = trace.horizon();

  for (const auto& spec_str : specs) {
    for (const bool faults : {false, true}) {
      auto spec = SimulationSpec{}.with_scheduler(spec_str);
      if (faults) spec = crashy(spec);
      const auto golden = uninterrupted_csv(trace, spec);
      for (const double fraction : {0.25, 0.5, 0.75}) {
        const auto cut = std::int64_t(double(horizon) * fraction);
        const auto resumed = interrupted_csv(trace, spec, cut);
        EXPECT_EQ(validate::diff_decision_csv(golden, resumed), "")
            << spec_str << (faults ? " +faults" : "")
            << " diverges when snapshotted at t=" << cut;
      }
    }
  }
}

/// Decisions and final accounting of a clone restored from `bytes` and
/// run dry.
std::string remaining_run(const std::string& bytes) {
  auto clone = Engine::restore(bytes);
  validate::DecisionRecorder recorder;
  clone->add_observer(recorder);
  clone->run();
  const auto s = clone->stats();
  return validate::decisions_to_csv(recorder.decisions()) + "completed=" +
         std::to_string(s.jobs_completed) +
         " killed=" + std::to_string(s.jobs_killed) +
         " dropped=" + std::to_string(s.jobs_dropped) +
         " makespan=" + std::to_string(s.makespan) +
         " work=" + std::to_string(s.work_node_seconds) +
         " wasted=" + std::to_string(s.wasted_node_seconds) +
         " capacity=" + std::to_string(s.capacity_node_seconds);
}

TEST(Snapshot, LiveSnapshotDecidesAndAnswersLikeTheFullOne) {
  // live_snapshot() leaves the terminated jobs out. Whatever the rest
  // of the run and a what-if query depend on must survive that: for
  // every spec, plain and crashy, cut at three points of three
  // workloads, the live and full clones decide and answer alike, and
  // the live bytes are canonical.
  const auto specs =
      validate::enumerate_scheduler_specs(sched::Registry::global());
  ASSERT_FALSE(specs.empty());
  std::size_t comparisons = 0;
  std::size_t answered = 0;
  for (const std::uint64_t seed : {kSeed, kSeed + 10, kSeed + 20}) {
    const auto trace = validate::fuzz_workload(seed, kJobs, kNodes);
    for (const auto& spec_str : specs) {
      for (const bool faults : {false, true}) {
        auto spec = SimulationSpec{}.with_scheduler(spec_str);
        if (faults) spec = crashy(spec);
        for (const double fraction : {0.25, 0.5, 0.75}) {
          const auto cut = std::int64_t(double(trace.horizon()) * fraction);
          const std::string where = spec_str + (faults ? " +faults" : "") +
                                    " seed " + std::to_string(seed) +
                                    " t=" + std::to_string(cut);
          auto donor = make_engine(trace, spec);
          donor->load_trace(trace);
          donor->run_until(cut);
          const std::string full = donor->snapshot();
          const std::string live = donor->live_snapshot();

          EXPECT_EQ(Engine::restore(live)->snapshot(), live) << where;
          EXPECT_LE(live.size(), full.size()) << where;
          EXPECT_EQ(remaining_run(live), remaining_run(full)) << where;
          // The clone stays O(live jobs): run dry as the recycle_slots
          // engine its config echo makes it, it keeps no terminated job.
          auto clone = Engine::restore(live);
          clone->run();
          EXPECT_EQ(clone->snapshot(), clone->live_snapshot()) << where;
          comparisons += 3;

          WhatIfService live_service(live);
          WhatIfService full_service(full);
          for (const std::int64_t procs : {1, 5, 17, 32}) {
            for (const std::int64_t estimate : {60, 3600, 50000}) {
              for (const std::int64_t offset : {0, 1800}) {
                for (const bool simulate : {false, true}) {
                  WhatIfQuery q;
                  q.procs = procs;
                  q.estimate = estimate;
                  q.submit_offset = offset;
                  q.simulate = simulate;
                  const auto a = live_service.query(q);
                  const auto b = full_service.query(q);
                  EXPECT_EQ(a.start, b.start) << where << " " << procs << "x"
                                              << estimate << "+" << offset;
                  EXPECT_EQ(a.wait, b.wait) << where;
                  EXPECT_EQ(a.simulated, b.simulated) << where;
                  ++comparisons;
                  if (b.start) ++answered;
                }
              }
            }
          }
        }
      }
    }
  }
  RecordProperty("comparisons", int(comparisons));
  EXPECT_GT(answered, comparisons / 2) << "the grid answered too little";
}

/// Sorted ids of the jobs `engine` holds; only the non-terminated ones
/// when `live_only`.
std::vector<std::int64_t> job_ids(const Engine& engine, bool live_only) {
  std::vector<std::int64_t> ids;
  engine.for_each_job([&](const SimJob& j) {
    if (!live_only || j.state != JobState::kFinished) ids.push_back(j.id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The live snapshot holds exactly the donor's non-terminated jobs, and
/// a clone restored from it writes the same live bytes.
void expect_live_set(const Engine& donor, const std::string& where) {
  const std::string live = donor.live_snapshot();
  const auto clone = Engine::restore(live);
  EXPECT_EQ(job_ids(*clone, false), job_ids(donor, true)) << where;
  EXPECT_EQ(clone->live_snapshot(), live) << where;
}

/// The lowest id among `engine`'s jobs in `state`, or 0.
std::int64_t first_in_state(const Engine& engine, JobState state) {
  std::int64_t first = 0;
  engine.for_each_job([&](const SimJob& j) {
    if (j.state == state && (first == 0 || j.id < first)) first = j.id;
  });
  return first;
}

TEST(Snapshot, LiveSetFollowsEveryStateChange) {
  // The engine keeps its non-terminated jobs as they change state, and
  // live_snapshot() writes that set. Engines run a crashy workload
  // (fault kills with requeue, retry-limit drops) under plain and
  // recycled slots; at each of eight cuts both take a dense-range and
  // an outlier submit_job (past kDenseGapLimit) and cancel their lowest
  // queued and running jobs, and from the third cut on a twin restored
  // from the full snapshot takes the same steps.
  const auto trace = validate::fuzz_workload(kSeed + 7, kJobs, kNodes);
  for (const bool recycle : {false, true}) {
    auto spec = crashy(SimulationSpec{}.with_scheduler("easy"));
    spec.retry_limit = 2;
    if (recycle) spec.streaming_memory();
    auto donor = make_engine(trace, spec);
    std::size_t requeued = 0;
    std::size_t retry_drops = 0;
    FunctionObserver counts;
    counts.job_kill = [&requeued](std::int64_t, const SimJob&,
                                  const KillInfo& info) {
      requeued += info.will_requeue ? 1 : 0;
    };
    counts.job_drop = [&retry_drops](std::int64_t, const SimJob&,
                                     DropReason reason) {
      retry_drops += reason == DropReason::kRetryLimit ? 1 : 0;
    };
    donor->add_observer(counts);
    donor->load_trace(trace);
    std::unique_ptr<Engine> twin;
    for (std::int64_t cut = 1; cut <= 8; ++cut) {
      const std::string where = std::string(recycle ? "recycled" : "plain") +
                                " cut " + std::to_string(cut);
      donor->run_until(trace.horizon() * cut / 8);
      if (twin) twin->run_until(trace.horizon() * cut / 8);
      const std::int64_t queued = first_in_state(*donor, JobState::kQueued);
      const std::int64_t running = first_in_state(*donor, JobState::kRunning);
      for (Engine* engine : {donor.get(), twin.get()}) {
        if (!engine) continue;
        SimJob job;
        job.submit = engine->now();
        job.runtime = job.estimate = 600 * cut;
        job.procs = 1 + cut;
        job.id = std::int64_t(kJobs) + cut;
        engine->submit_job(job);
        job.id = 1'000'000 + cut;
        engine->submit_job(job);
        if (queued != 0) {
          EXPECT_TRUE(engine->cancel_job(queued)) << where;
        }
        if (running != 0) {
          EXPECT_TRUE(engine->cancel_job(running)) << where;
        }
      }
      expect_live_set(*donor, where);
      if (twin) {
        EXPECT_EQ(twin->live_snapshot(), donor->live_snapshot()) << where;
      }
      if (cut == 3) {
        twin = Engine::restore(donor->snapshot());
        EXPECT_EQ(twin->live_snapshot(), donor->live_snapshot()) << where;
      }
    }
    EXPECT_GT(requeued, 0u) << "no fault kill was requeued";
    EXPECT_GT(retry_drops, 0u) << "no job hit the retry limit";
  }
}

TEST(Snapshot, LiveSetDropsDoomedDependentsAndRefusesARepeatedJobNumber) {
  // Closed loop on 4 nodes: job 1 holds the machine, job 2 queues
  // behind it, and jobs 3 and 4 wait on 2 and 3. Cancelling job 2 dooms
  // 3 and 4. A second record for job 5 is refused at admission, with
  // plain and recycled slots alike, before the engine keeps anything.
  swf::Trace trace;
  trace.header.max_nodes = 4;
  const auto record = [&trace](std::int64_t id, std::int64_t submit,
                               std::int64_t runtime, std::int64_t procs,
                               std::int64_t preceding) {
    swf::JobRecord r;
    r.job_number = id;
    r.submit_time = submit;
    r.run_time = runtime;
    r.requested_time = runtime;
    r.allocated_procs = procs;
    r.requested_procs = procs;
    r.preceding_job = preceding;
    r.think_time = preceding > 0 ? 5 : swf::kUnknown;
    trace.records.push_back(r);
  };
  record(1, 0, 1000, 4, swf::kUnknown);
  record(2, 10, 100, 4, swf::kUnknown);
  record(3, 20, 100, 1, 2);
  record(4, 30, 100, 1, 3);
  record(5, 2000, 100, 1, swf::kUnknown);
  auto repeated = trace;
  repeated.records.push_back(repeated.records.back());
  repeated.records.back().submit_time = 5000;
  for (const bool recycle : {false, true}) {
    const std::string where = recycle ? "recycled" : "plain";
    auto spec = SimulationSpec{}.with_scheduler("fcfs");
    spec.closed_loop = true;
    if (recycle) spec.streaming_memory();
    auto engine = make_engine(trace, spec);
    engine->load_trace(trace);
    engine->run_until(50);
    expect_live_set(*engine, where + " before the cancel");
    ASSERT_TRUE(engine->cancel_job(2)) << where;
    expect_live_set(*engine, where + " after the cancel");
    EXPECT_EQ(job_ids(*engine, true), (std::vector<std::int64_t>{1, 5}))
        << where;
    engine->run_until(5000);
    expect_live_set(*engine, where + " at the end");
    EXPECT_EQ(job_ids(*engine, true), std::vector<std::int64_t>{}) << where;

    auto refusing = make_engine(repeated, spec);
    try {
      refusing->load_trace(repeated);
      ADD_FAILURE() << where << ": the repeated job 5 was admitted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "job 5: job number repeats or descends (job numbers "
                   "must ascend)")
          << where;
    }
    EXPECT_EQ(job_ids(*refusing, false),
              (std::vector<std::int64_t>{1, 2, 3, 4, 5}))
        << where;
    EXPECT_EQ(refusing->find_job(5)->submit, 2000) << where;
  }
}

TEST(Snapshot, LiveSnapshotSkipsAReservationWhoseJobTerminated) {
  // The reservation's job finished before its window opened. The live
  // clone no longer holds the job and must skip it, as the full one does.
  Engine engine(spec_engine_config(SimulationSpec{}.with_scheduler("easy"),
                                   8),
                sched::make_scheduler("easy"));
  SimJob job;
  job.runtime = job.estimate = job.walltime = 100;
  job.procs = 2;
  const std::int64_t id = engine.submit_job(job);
  sched::AdvanceReservation reservation;
  reservation.start = 1000;
  reservation.duration = 100;
  reservation.procs = 2;
  reservation.job_id = id;
  ASSERT_TRUE(engine.request_reservation(reservation));
  engine.run_until(500);
  ASSERT_EQ(engine.find_job(id)->state, JobState::kFinished);
  EXPECT_EQ(remaining_run(engine.live_snapshot()),
            remaining_run(engine.snapshot()));
}

TEST(Snapshot, LiveSnapshotRefusesAnAttachedSource) {
  const auto trace = validate::fuzz_workload(kSeed + 4, 40, kNodes);
  swf::TraceSource source(trace);
  Engine engine(spec_engine_config(SimulationSpec{}.with_scheduler("easy"),
                                   kNodes),
                sched::make_scheduler("easy"));
  JobSourceOptions options;
  options.lookahead = 8;
  engine.set_job_source(source, options);
  engine.step();
  EXPECT_THROW((void)engine.live_snapshot(), std::logic_error);
}

TEST(Snapshot, RoundTripsThroughTheFileCodec) {
  const auto trace = validate::fuzz_workload(kSeed + 1, 60, kNodes);
  const auto spec = SimulationSpec{}.with_scheduler("easy");
  auto donor = make_engine(trace, spec);
  donor->load_trace(trace);
  for (int i = 0; i < 50 && donor->step(); ++i) {
  }
  const auto bytes = donor->snapshot();
  const auto path = testing::TempDir() + "pjsb_snapshot_roundtrip.snap";
  snapshot::write_file(path, bytes);
  EXPECT_EQ(snapshot::read_file(path), bytes);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsCorruptHeaderAndTruncation) {
  const auto trace = validate::fuzz_workload(kSeed + 2, 40, kNodes);
  auto donor = make_engine(trace, SimulationSpec{}.with_scheduler("fcfs"));
  donor->load_trace(trace);
  donor->run_until(trace.horizon() / 2);
  const auto bytes = donor->snapshot();

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)Engine::restore(bad_magic), std::runtime_error);

  auto bad_version = bytes;
  bad_version[8] = char(0xee);  // version field follows the magic
  EXPECT_THROW((void)Engine::restore(bad_version), std::runtime_error);
  // Version 1 (a dense size and split dense/overflow job sections) is
  // refused by name; no v1 reader is kept.
  auto v1 = bytes;
  v1[8] = 1;
  try {
    (void)Engine::restore(v1);
    ADD_FAILURE() << "a version 1 file restored";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "snapshot: unsupported format version 1 (this build reads "
                 "version 2)");
  }

  const auto truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)Engine::restore(truncated), std::runtime_error);

  auto trailing = bytes;
  trailing.push_back('\0');
  EXPECT_THROW((void)Engine::restore(trailing), std::runtime_error);
}

/// `bytes` with the 8-byte word at offset `at` replaced by `value`.
std::string with_word(std::string bytes, std::size_t at, std::int64_t value) {
  snapshot::Writer w;
  w.i64(value);
  return bytes.replace(at, 8, w.bytes());
}

TEST(Snapshot, RejectsCorruptAllocationState) {
  // A real snapshot: data/contention.swf frozen at t=26000 under
  // conservative. Counts and ids in its allocation state are corrupted
  // one word at a time; each restore must fail with runtime_error
  // before allocating anything sized by the bad word.
  const auto loaded = swf::read_swf_file(std::string(PJSB_SOURCE_DIR) +
                                         "/data/contention.swf");
  ASSERT_TRUE(loaded.errors.empty());
  auto donor = make_engine(loaded.trace,
                           SimulationSpec{}.with_scheduler("conservative"));
  donor->load_trace(loaded.trace);
  donor->run_until(26000);
  const std::string bytes = donor->snapshot();

  // The machine's ownership section (node count, then one owner per
  // node) and a running job's node list (count, then its ids: the job's
  // node runs expanded).
  snapshot::Writer owners;
  donor->machine().save_state(owners);
  const std::size_t owners_at = bytes.rfind(owners.bytes());
  ASSERT_NE(owners_at, std::string::npos);
  const SimJob* running = nullptr;
  for (std::int64_t n = 0; n < kNodes && !running; ++n) {
    const std::int64_t owner = donor->machine().owner(n);
    if (owner >= 0) running = donor->find_job(owner);
  }
  ASSERT_NE(running, nullptr) << "no job running at t=26000";
  std::vector<std::int64_t> node_ids;
  for (const NodeRun& run : running->nodes) {
    for (std::int64_t n = run.first; n < run.first + run.count; ++n) {
      node_ids.push_back(n);
    }
  }
  snapshot::Writer list;
  list.u64(node_ids.size());
  for (const std::int64_t n : node_ids) list.i64(n);
  const std::size_t count_at = bytes.find(list.bytes());
  ASSERT_NE(count_at, std::string::npos);
  ASSERT_EQ(Engine::restore(bytes)->snapshot(), bytes);

  const auto rejects = [](const std::string& corrupt, const char* what) {
    EXPECT_THROW((void)Engine::restore(corrupt), std::runtime_error) << what;
  };
  rejects(with_word(bytes, count_at, std::int64_t(1) << 40),
          "node count 2^40");
  rejects(with_word(bytes, count_at, std::int64_t(1) << 62),
          "node count 2^62");
  rejects(with_word(bytes, count_at + 8, kNodes), "node id past the machine");
  rejects(with_word(bytes, count_at + 8, -1), "negative node id");
  rejects(with_word(bytes, owners_at + 8, kDown - 1), "owner code below kDown");
  // The config echo (after the 8-byte magic and 4-byte version) sizes
  // the machine.
  rejects(with_word(bytes, 12, -1), "machine size -1");
  rejects(with_word(bytes, 12, kMaxSpecNodes + 1), "machine size past bound");
}

TEST(Snapshot, InflatedCountsFailNamingTheirSection) {
  // Every 8-byte word of each snapshot is set to 2^40 in turn. Where the
  // word is a count, restore must throw a runtime_error naming the
  // section before sizing anything from it; elsewhere it may fail in
  // any other way except running out of memory; a gang row or column
  // past its matrix fails instead of being written outside it. The
  // states encode every section: closed-loop dependents of a live job,
  // crash outages with their nodes, running jobs' node lists, and each
  // scheduler family's own state (sections count even when empty: their
  // count is there).
  auto trace = validate::fuzz_workload(kSeed + 5, 30, 16);
  auto& records = trace.records;
  records.back().preceding_job = records[records.size() - 2].job_number;
  records.back().think_time = 10;
  std::set<std::string> named;
  bool gang_placement = false;
  for (const char* scheduler : {"conservative", "fcfs", "sjf", "gang"}) {
    auto spec = crashy(SimulationSpec{}.with_scheduler(scheduler));
    spec.closed_loop = true;
    auto donor = make_engine(trace, spec);
    donor->load_trace(trace);
    donor->run_until(records[10].submit_time);  // four jobs running
    const std::string bytes = donor->snapshot();
    for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
      try {
        (void)Engine::restore(with_word(bytes, at, std::int64_t(1) << 40));
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        const auto end = what.find(" count ");
        if (what.rfind("snapshot: ", 0) == 0 && end != std::string::npos) {
          named.insert(what.substr(10, end - 10));
        }
        gang_placement |=
            what == "snapshot: gang placement outside the matrix";
      } catch (const std::bad_alloc&) {
        ADD_FAILURE() << scheduler << ": bad_alloc at byte " << at;
      } catch (const std::length_error&) {
        ADD_FAILURE() << scheduler << ": length_error at byte " << at;
      } catch (const std::exception&) {
      }
    }
  }
  const std::set<std::string> sections = {
      "event", "job", "dependency", "dependent",
      "outage", "outage node", "reservation", "completed job",
      "finished job", "node list", "backfill queue", "backfill queued job",
      "backfill running job", "backfill reservation", "backfill outage",
      "profile step", "backfill expiry", "conservative placement",
      "fcfs queue", "sjf queue", "gang queue", "gang job", "gang column",
      "gang node"};
  EXPECT_EQ(named, sections);
  EXPECT_TRUE(gang_placement);
}

/// Restore `bytes`; the runtime_error's message, or "" on success.
std::string restore_error(const std::string& bytes) {
  try {
    (void)Engine::restore(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Snapshot, RejectsConservativeStateThatContradictsItsQueue) {
  // data/contention.swf frozen at t=26000 under conservative. The
  // snapshot ends with the scheduler's placements (count, then (job,
  // slot) pairs sorted by job), its full profile (base, step count,
  // then (time, available) steps) and one byte that older builds set
  // while the full profile was stale.
  const auto loaded = swf::read_swf_file(std::string(PJSB_SOURCE_DIR) +
                                         "/data/contention.swf");
  ASSERT_TRUE(loaded.errors.empty());
  auto donor = make_engine(loaded.trace,
                           SimulationSpec{}.with_scheduler("conservative"));
  donor->load_trace(loaded.trace);
  donor->run_until(26000);
  const std::string bytes = donor->snapshot();

  const auto& scheduler =
      dynamic_cast<const sched::ConservativeScheduler&>(donor->scheduler());
  snapshot::Writer placements;
  std::size_t count = 0;
  for (const auto& record : loaded.trace.records) {
    if (scheduler.reserved_start(record.job_number)) ++count;
  }
  ASSERT_GT(count, 1u) << "too few reservations at t=26000";
  placements.u64(count);
  for (const auto& record : loaded.trace.records) {
    if (const auto slot = scheduler.reserved_start(record.job_number)) {
      placements.i64(record.job_number);
      placements.i64(*slot);
    }
  }
  const std::size_t placements_at = bytes.rfind(placements.bytes());
  ASSERT_NE(placements_at, std::string::npos);
  const std::size_t profile_at = placements_at + placements.bytes().size();
  const std::size_t first_avail_at = profile_at + 8 + 8 + 8;
  ASSERT_LT(first_avail_at + 8, bytes.size());
  ASSERT_EQ(restore_error(bytes), "");

  // A placement naming a job that is not queued: job 1 finished long
  // ago, 999999 never existed.
  for (const std::int64_t id : {std::int64_t(1), std::int64_t(999999)}) {
    EXPECT_EQ(restore_error(with_word(bytes, placements_at + 8, id)),
              "snapshot: conservative placement names job " +
                  std::to_string(id) + ", which is not queued");
  }

  // A full profile that is not base + standing claims.
  const std::int64_t first_avail =
      snapshot::Reader(std::string_view(bytes).substr(first_avail_at, 8))
          .i64();
  const std::string altered = with_word(bytes, first_avail_at, first_avail - 1);
  EXPECT_EQ(restore_error(altered),
            "snapshot: conservative full profile differs from base + "
            "standing claims");

  // With the stale byte set, the full profile is rebuilt from base +
  // claims instead of compared, so the altered one restores to the
  // original state.
  auto stale = altered;
  stale.back() = 1;
  EXPECT_EQ(Engine::restore(stale)->snapshot(), bytes);
}

TEST(Snapshot, RejectsTimesAboveTheirBoundNamingTheField) {
  // data/contention.swf frozen at t=26000 under conservative, and
  // data/crashy.swf under its golden's flags. Restore holds the
  // durations admission bounds (a job's estimate) to kMaxTime, and
  // instants (the clock, event times, a job's submit time, an outage's
  // end) to kMaxInstant: a run of admitted times passes kMaxTime (a
  // job admitted at the bound ends after it). The first event's time
  // patched to 2^62 used to resume to utilization 1.59 and a makespan
  // of 4.6e18.
  const auto frozen = [](const char* trace_name, const SimulationSpec& spec,
                         std::int64_t cut) {
    const auto loaded = swf::read_swf_file(std::string(PJSB_SOURCE_DIR) +
                                           "/data/" + trace_name);
    EXPECT_TRUE(loaded.errors.empty());
    auto donor = make_engine(loaded.trace, spec);
    donor->load_trace(loaded.trace);
    donor->run_until(cut);
    return std::make_pair(donor->snapshot(), loaded.trace);
  };
  const auto spec = SimulationSpec{}.with_scheduler("conservative");
  const auto [bytes, trace] = frozen("contention.swf", spec, 26000);

  // The clock follows the header, the config echo and the scheduler
  // spec; the event count follows the 16 scalars and one flag.
  const std::size_t clock_at = 12 + 61 + 8 + spec.scheduler.size();
  const std::size_t event_at = clock_at + 16 * 8 + 1 + 8;
  // Job 1, finished long before the cut: id, submit, runtime, estimate.
  snapshot::Writer job;
  const auto& first = trace.records.front();
  const SimJob one = SimJob::from_record(first);
  job.i64(one.id);
  job.i64(one.submit);
  job.i64(one.runtime);
  job.i64(one.estimate);
  const std::size_t job_at = bytes.find(job.bytes());
  ASSERT_NE(job_at, std::string::npos);
  ASSERT_EQ(restore_error(bytes), "");

  const auto refusal = [](const char* field, std::int64_t value,
                          std::int64_t bound) {
    return "snapshot: " + std::string(field) + " " + std::to_string(value) +
           " is above the time bound " + std::to_string(bound) + " s";
  };
  const auto check = [&refusal](const std::string& snap, const char* field,
                                std::size_t at, std::int64_t bound) {
    EXPECT_EQ(restore_error(with_word(snap, at, bound + 1)),
              refusal(field, bound + 1, bound));
    EXPECT_EQ(restore_error(with_word(snap, at, bound)), "") << field;
  };
  check(bytes, "clock", clock_at, kMaxInstant);
  check(bytes, "event time", event_at, kMaxInstant);
  check(bytes, "job submit time", job_at + 8, kMaxInstant);
  check(bytes, "job estimate", job_at + 24, kMaxTime);
  // A checkpointed burst is held to kMaxTime as admission holds it:
  // job 1 with a checkpoint after every second of work reaches the
  // bound at the largest dump time below, and passes it one more.
  ASSERT_GT(one.runtime, 1);
  const auto checkpointed = [&](std::int64_t dump_time) {
    return restore_error(with_word(with_word(bytes, job_at + 72, 1),
                                   job_at + 80, dump_time));
  };
  const std::int64_t dump = (kMaxTime - one.runtime) / (one.runtime - 1);
  EXPECT_EQ(checkpointed(dump), "");
  EXPECT_EQ(checkpointed(dump + 1),
            "snapshot: job " + std::to_string(one.id) +
                " checkpointed burst is above the time bound " +
                std::to_string(kMaxTime) + " s");
  // Instants may pass kMaxTime.
  EXPECT_EQ(restore_error(with_word(bytes, clock_at, kMaxTime + 1)), "");
  EXPECT_EQ(restore_error(with_word(bytes, event_at, kMaxTime + 1)), "");
  EXPECT_EQ(restore_error(with_word(bytes, event_at, std::int64_t(1) << 62)),
            refusal("event time", std::int64_t(1) << 62, kMaxInstant));

  // The outage book of a crashy snapshot: announce, start, end, ...
  auto faulty = spec;
  faulty.faults = 42;
  faulty.mtbf = 9000;
  faulty.repair = 600;
  faulty.checkpoint = 300;
  faulty.dump = 20;
  faulty.read = 40;
  faulty.retry_limit = 3;
  const auto [crashy, crashy_trace] =
      frozen("crashy.swf", faulty, 20000);
  const auto crashes = fault::generate_crashes(
      faulty.fault_model(), crashy_trace.horizon(),
      crashy_trace.header.max_nodes.value_or(kDefaultNodes));
  ASSERT_FALSE(crashes.records.empty());
  const auto& outage = crashes.records.front();
  snapshot::Writer window;
  window.i64(outage.announce_time);
  window.i64(outage.start_time);
  window.i64(outage.end_time);
  const std::size_t outage_at = crashy.find(window.bytes());
  ASSERT_NE(outage_at, std::string::npos);
  ASSERT_EQ(restore_error(crashy), "");
  check(crashy, "outage end", outage_at + 16, kMaxInstant);
}

TEST(Snapshot, ReservationBetweenEventsRestoresLikeTheDonor) {
  // An accepted reservation changes the base (and so the full profile)
  // between events, with no pass run since. A snapshot taken right then
  // re-snapshots to the same bytes, predicts like the donor, and
  // resumes onto the donor's decisions.
  const auto trace = validate::fuzz_workload(kSeed + 6, kJobs, kNodes);
  const auto spec = SimulationSpec{}.with_scheduler("conservative");
  auto donor = make_engine(trace, spec);
  validate::DecisionRecorder decisions;
  donor->add_observer(decisions);
  donor->load_trace(trace);
  donor->run_until(trace.horizon() / 2);
  const auto grid = [&donor](const Engine& engine) {
    std::vector<std::optional<std::int64_t>> starts;
    for (const std::int64_t procs : {1, 5, 17, 32}) {
      for (const std::int64_t estimate : {60, 3600, 50000}) {
        for (const std::int64_t offset : {0, 600, 5000}) {
          starts.push_back(engine.scheduler().predict_start(
              donor->now() + offset, procs, estimate));
        }
      }
    }
    return starts;
  };
  const auto before = grid(*donor);
  sched::AdvanceReservation reservation;
  reservation.start = donor->now() + 600;
  reservation.duration = 7200;
  reservation.procs = kNodes / 2;
  ASSERT_TRUE(donor->request_reservation(reservation));
  const auto after = grid(*donor);
  ASSERT_NE(before, after) << "the reservation moved no prediction";
  const std::string bytes = donor->snapshot();
  const std::size_t prefix = decisions.decisions().size();

  auto clone = Engine::restore(bytes);
  EXPECT_EQ(clone->snapshot(), bytes);
  EXPECT_EQ(grid(*clone), after);

  validate::DecisionRecorder suffix;
  clone->add_observer(suffix);
  clone->run();
  donor->run();
  const std::vector<Decision> rest(decisions.decisions().begin() +
                                       std::ptrdiff_t(prefix),
                                   decisions.decisions().end());
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(validate::decisions_to_csv(suffix.decisions()),
            validate::decisions_to_csv(rest));
}

/// Peak RSS (MB) of a child process that runs `phase`, measured apart
/// from this process's as bench_swf measures its phases; -1 when the
/// child fails or `phase` throws.
template <typename Phase>
double child_peak_rss_mb(Phase phase) {
  const pid_t pid = fork();
  if (pid == 0) {
    int code = 0;
    try {
      phase();
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  int status = 0;
  struct rusage usage {};
  if (pid < 0 || wait4(pid, &status, 0, &usage) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1;
  }
  return double(usage.ru_maxrss) / 1024.0;
}

TEST(Snapshot, SparseClientIdsKeepMemoryBounded) {
  // Eleven client-chosen ids (a daemon's `SUBMIT 1 100 id=N`), each just
  // within a fixed gap of a dense vector that doubled at every one of
  // them: that rule took a 4-node FCFS engine to about 1 GB, and the
  // restore of its 2.3 KB snapshot too. Dense slots now stay within
  // twice the jobs held plus the gap, so submitting the ids and
  // restoring the snapshot each stay under 64 MB.
  const std::vector<std::int64_t> ids = {
      4095,   8191,   12287,  20479,   36863,  69631,
      135167, 266239, 528383, 1052671, 2101247};
  const auto path = testing::TempDir() + "pjsb_sparse_ids.snap";
  const double submit_mb = child_peak_rss_mb([&] {
    Engine engine(
        spec_engine_config(SimulationSpec{}.with_scheduler("fcfs"), 4),
        sched::make_scheduler("fcfs"));
    for (const std::int64_t id : ids) {
      SimJob job;
      job.id = id;
      job.runtime = job.estimate = job.walltime = 100;
      job.procs = 1;
      engine.submit_job(job);
    }
    snapshot::write_file(path, engine.snapshot());
  });
  ASSERT_GE(submit_mb, 0.0) << "the submitting child failed";
  const std::string bytes = snapshot::read_file(path);
  std::remove(path.c_str());
  const double restore_mb = child_peak_rss_mb([&] {
    const auto clone = Engine::restore(bytes);
    if (clone->snapshot() != bytes || job_ids(*clone, false) != ids) {
      throw std::runtime_error("the clone differs from its donor");
    }
  });
  ASSERT_GE(restore_mb, 0.0) << "the restoring child failed";
  EXPECT_LT(submit_mb, 64.0);
  EXPECT_LT(restore_mb, 64.0);
  RecordProperty("submit_peak_rss_kb", int(submit_mb * 1024));
  RecordProperty("restore_peak_rss_kb", int(restore_mb * 1024));
}

/// A 4-node FCFS engine (plain or recycled slots) holding four jobs
/// that wait for t=1000: ids 1, 2 and 3, and the outlier 1'000'000.
/// Their runtimes (111, 222, 333, 444) find them in the bytes.
std::unique_ptr<Engine> waiting_jobs(bool recycle) {
  auto spec = SimulationSpec{}.with_scheduler("fcfs");
  if (recycle) spec.streaming_memory();
  auto engine = std::make_unique<Engine>(spec_engine_config(spec, 4),
                                         sched::make_scheduler("fcfs"));
  std::int64_t runtime = 111;
  for (const std::int64_t id : {1, 2, 3, 1'000'000}) {
    SimJob job;
    job.id = id;
    job.submit = 1000;
    job.runtime = job.estimate = runtime;
    job.procs = 1;
    engine->submit_job(job);
    runtime += 111;
  }
  return engine;
}

TEST(Snapshot, JobSectionHoldsJobsInIdOrderWhereverTheEngineKeptThem) {
  // One job section, a count and then each slot led by its id, for
  // snapshot() and live_snapshot() alike, and the same bytes whether
  // the engine kept a job in its dense vector or its overflow map
  // (recycled slots keep every job in the map).
  const std::string plain = waiting_jobs(false)->snapshot();
  const std::string recycled = waiting_jobs(true)->snapshot();
  const std::string live = waiting_jobs(false)->live_snapshot();
  const auto id_at = [&plain](std::int64_t id, std::int64_t runtime) {
    snapshot::Writer head;
    head.i64(id);
    head.i64(1000);
    head.i64(runtime);
    const std::size_t at = plain.find(head.bytes());
    EXPECT_NE(at, std::string::npos) << id;
    return at;
  };
  const std::size_t first = id_at(1, 111);
  const std::size_t second = id_at(2, 222);
  const std::size_t third = id_at(3, 333);
  const std::size_t outlier = id_at(1'000'000, 444);
  ASSERT_LT(first, second);
  ASSERT_LT(second, third);
  ASSERT_LT(third, outlier);
  // Slots of queued jobs hold no node ids, so each has the same size.
  const std::size_t slot = second - first;
  ASSERT_EQ(outlier - third, slot);
  const std::string section = plain.substr(first - 8, 8 + 4 * slot);
  EXPECT_EQ(snapshot::Reader(section).u64(), 4u);
  EXPECT_NE(recycled.find(section), std::string::npos);
  EXPECT_NE(live.find(section), std::string::npos);
  EXPECT_EQ(Engine::restore(plain)->snapshot(), plain);
  EXPECT_EQ(Engine::restore(recycled)->snapshot(), recycled);

  // Ids that repeat or do not ascend are refused, naming the section;
  // so is a next id the engine would pick that is already held.
  const auto refusal = [](std::int64_t id, std::int64_t after) {
    return "snapshot: job " + std::to_string(id) +
           " in the job section does not ascend past " +
           std::to_string(after);
  };
  EXPECT_EQ(restore_error(with_word(plain, second, 1)), refusal(1, 1));
  EXPECT_EQ(restore_error(with_word(plain, second, 5)), refusal(3, 5));
  EXPECT_EQ(restore_error(with_word(plain, first, 0)), refusal(0, 0));
  EXPECT_EQ(restore_error(with_word(plain, first, -7)), refusal(-7, 0));
  EXPECT_EQ(restore_error(with_word(plain, outlier, 3)), refusal(3, 3));
  EXPECT_EQ(restore_error(with_word(plain, outlier, 2'000'000)),
            "snapshot: next job id 1000001 is not above job 2000000");
}

TEST(Snapshot, RejectsASourceCursorThatContradictsTheState) {
  // data/deep.swf streamed under conservative with a 16-record
  // lookahead, frozen at t=200000. Patched to lookahead 0 or to 2^40
  // pending submits, this cursor used to restore and finish the run
  // with 287 of its 500 jobs; each cursor word that the state
  // contradicts now fails restore, naming its field.
  const auto loaded = swf::read_swf_file(std::string(PJSB_SOURCE_DIR) +
                                         "/data/deep.swf");
  ASSERT_TRUE(loaded.errors.empty());
  const auto& trace = loaded.trace;
  auto donor = make_engine(trace,
                           SimulationSpec{}.with_scheduler("conservative"));
  validate::DecisionRecorder donor_decisions;
  donor->add_observer(donor_decisions);
  swf::TraceSource donor_source(trace);
  JobSourceOptions options;
  options.lookahead = 16;
  donor->set_job_source(donor_source, options);
  while (true) {
    const auto t = donor->next_event_time();
    if (!t || *t > 200000) break;
    donor->step();
  }
  const std::string bytes = donor->snapshot();
  const std::size_t prefix = donor_decisions.decisions().size();

  // The cursor: active flag, lookahead, max_jobs, closed-loop history,
  // records pulled, records clamped, pending submits.
  snapshot::Writer cursor;
  cursor.boolean(true);
  cursor.u64(16);
  cursor.u64(0);
  cursor.u64(kClosedLoopHistory);
  cursor.u64(donor->source_pulled());
  const std::size_t at = bytes.rfind(cursor.bytes());
  ASSERT_NE(at, std::string::npos);
  const std::size_t pending_at = at + 1 + 5 * 8;
  snapshot::Reader word(std::string_view(bytes).substr(pending_at, 8));
  const std::string pending = std::to_string(word.u64());

  EXPECT_EQ(restore_error(with_word(bytes, at + 1, 0)),
            "snapshot: source lookahead 0 (at least 1)");
  EXPECT_EQ(restore_error(with_word(bytes, at + 1 + 2 * 8, 1024)),
            "snapshot: closed-loop history 1024 (must be 65536)");
  EXPECT_EQ(restore_error(with_word(bytes, pending_at, std::int64_t(1) << 40)),
            "snapshot: pending submits 1099511627776, but the state holds " +
                pending + " queued or deferred submits");
  EXPECT_EQ(restore_error(with_word(bytes, pending_at, 2)),
            "snapshot: pending submits 2, but the state holds " + pending +
                " queued or deferred submits");

  // Unpatched, it resumes to the uninterrupted run's decisions.
  auto clone = Engine::restore(bytes);
  swf::TraceSource clone_source(trace);
  clone->resume_job_source(clone_source);
  validate::DecisionRecorder clone_decisions;
  clone->add_observer(clone_decisions);
  clone->run();
  donor->run();
  auto resumed = donor_decisions.decisions();
  resumed.resize(prefix);
  resumed.insert(resumed.end(), clone_decisions.decisions().begin(),
                 clone_decisions.decisions().end());
  EXPECT_EQ(validate::decisions_to_csv(resumed),
            validate::decisions_to_csv(donor_decisions.decisions()));
  EXPECT_EQ(clone->stats().jobs_completed, 500);
}

TEST(Snapshot, StreamingSnapshotDemandsItsSourceBack) {
  // A snapshot taken while a pull source is attached must flag that it
  // needs the source back (needs_job_source), and must continue exactly
  // where the donor's cursor stood once resume_job_source re-attaches it.
  const auto trace = validate::fuzz_workload(kSeed + 3, 80, kNodes);
  swf::TraceSource donor_source(trace);
  const auto config = spec_engine_config(
      SimulationSpec{}.with_scheduler("easy"),
      trace.header.max_nodes.value_or(kDefaultNodes));
  Engine donor(config, sched::make_scheduler("easy"));
  JobSourceOptions options;
  options.lookahead = 16;
  donor.set_job_source(donor_source, options);
  for (int i = 0; i < 40 && donor.step(); ++i) {
  }
  const auto bytes = donor.snapshot();

  auto clone = Engine::restore(bytes);
  ASSERT_TRUE(clone->needs_job_source());
  swf::TraceSource clone_source(trace);
  clone->resume_job_source(clone_source);
  EXPECT_FALSE(clone->needs_job_source());

  // Both finish identically: same completion count and final clock.
  validate::DecisionRecorder donor_rest;
  donor.add_observer(donor_rest);
  donor.run();
  validate::DecisionRecorder clone_rest;
  clone->add_observer(clone_rest);
  clone->run();
  EXPECT_EQ(validate::decisions_to_csv(donor_rest.decisions()),
            validate::decisions_to_csv(clone_rest.decisions()));
  EXPECT_EQ(donor.stats().jobs_completed, clone->stats().jobs_completed);
  EXPECT_EQ(donor.source_pulled(), clone->source_pulled());
}

}  // namespace
}  // namespace pjsb::sim
