// Daemon integration: a real Server on a real socket, driven through
// the client library. The headline property is the ISSUE 9 acceptance
// criterion — live-submitting data/contention.swf in arrival order
// yields a decision stream byte-identical to the committed offline
// golden — plus kill/query, snapshot/resume, auth, and concurrent
// query sessions that must not perturb the schedule.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/outage/record.hpp"
#include "core/swf/reader.hpp"
#include "sched/registry.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "sim/job.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "sim/snapshot/whatif.hpp"
#include "sim/spec.hpp"

namespace pjsb::serve {
namespace {

std::string fixture(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

swf::Trace contention() {
  auto result = swf::read_swf_file(fixture("data/contention.swf"));
  EXPECT_TRUE(result.ok());
  return std::move(result.trace);
}

std::unique_ptr<sim::Engine> make_engine(const std::string& scheduler,
                                         std::int64_t nodes) {
  const auto spec =
      sim::SimulationSpec{}.with_scheduler(scheduler).with_nodes(nodes);
  return std::make_unique<sim::Engine>(
      sim::spec_engine_config(spec, nodes),
      sched::make_scheduler(scheduler));
}

/// Submit one trace record the way `swf_tool client replay` does: mirror
/// SimJob::from_record so the daemon admits exactly the job an offline
/// replay would.
Response submit_record(Client& client, const swf::JobRecord& record) {
  const auto job = sim::SimJob::from_record(record);
  return client.submit(job.procs, job.estimate, job.submit, job.runtime,
                       job.id, job.user_id);
}

/// The job the daemon admits for what submit_record sends (the field
/// mapping of Server::apply_submit).
sim::SimJob daemon_job(const swf::JobRecord& record) {
  const auto from = sim::SimJob::from_record(record);
  sim::SimJob job;
  job.id = from.id;
  job.submit = from.submit;
  job.estimate = from.estimate;
  job.runtime = from.runtime;
  job.walltime = from.estimate;
  job.procs = from.procs;
  job.user_id = from.user_id;
  return job;
}

/// An engine fed the daemon's requests and held at the daemon's
/// logical horizon (latest submit - 1), so its full snapshot is the
/// state every reply was published from.
struct Twin {
  std::unique_ptr<sim::Engine> engine;
  std::int64_t horizon = 0;

  void submit(const swf::JobRecord& record) {
    const auto job = daemon_job(record);
    engine->submit_job(job);
    horizon = std::max(horizon, job.submit - 1);
    engine->run_until(horizon);
  }
  bool kill(std::int64_t id) {
    const bool cancelled = engine->cancel_job(id);
    engine->run_until(horizon);
    return cancelled;
  }
};

/// QUERY `id` on the daemon must equal, field for field (the epoch
/// aside), what a full-snapshot service over the same state answers.
void expect_query_matches(Client& client, sim::WhatIfService& full,
                          std::int64_t id) {
  const auto answer = client.query(id);
  const auto expected = full.query_job(id);
  if (!expected) {
    EXPECT_FALSE(answer.ok) << "job " << id;
    EXPECT_EQ(answer.code, kErrNotFound) << "job " << id;
    return;
  }
  ASSERT_TRUE(answer.ok) << "job " << id << ": " << answer.message;
  Response want = ok_response();
  want.with("id", expected->id)
      .with("state", sim::to_string(expected->state))
      .with("submit", expected->submit)
      .with("procs", expected->procs);
  if (expected->start) want.with("start", *expected->start);
  if (expected->end) want.with("end", *expected->end);
  if (expected->predicted_start) {
    want.with("predicted_start", *expected->predicted_start);
  }
  auto got = answer.fields;
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back().first, "epoch");
  got.pop_back();
  EXPECT_EQ(got, want.fields) << "job " << id;
}

TEST(ServeServer, LiveReplayMatchesCommittedGolden) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_live.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto trace = contention();
  for (const auto& record : trace.records) {
    const auto response = submit_record(client, record);
    ASSERT_TRUE(response.ok) << response.message;
  }
  const auto drained = client.drain();
  ASSERT_TRUE(drained.ok) << drained.message;
  EXPECT_EQ(drained.field_i64("decisions"), 40);

  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, WhatIfMatchesOfflinePredictAndDoesNotPerturb) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_whatif.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto trace = contention();
  const std::size_t cut = trace.records.size() / 2;

  // A twin engine fed the same half of the trace, advanced to the same
  // horizon the daemon reached (latest submit - 1), answers
  // predict_start serially; the socket answers must match it exactly.
  auto twin = make_engine("conservative", 32);
  for (std::size_t i = 0; i < cut; ++i) {
    const auto response = submit_record(client, trace.records[i]);
    ASSERT_TRUE(response.ok) << response.message;
    twin->submit_job(sim::SimJob::from_record(trace.records[i]));
  }
  const auto last_at = sim::SimJob::from_record(trace.records[cut - 1]).submit;
  twin->run_until(last_at - 1);

  for (std::int64_t procs = 1; procs <= 32; procs += 7) {
    for (std::int64_t estimate : {60, 600, 6000}) {
      const auto answer = client.whatif(procs, estimate);
      ASSERT_TRUE(answer.ok) << answer.message;
      const auto expected =
          twin->scheduler().predict_start(twin->now(), procs, estimate);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(answer.field_i64("start"), *expected)
          << "procs=" << procs << " estimate=" << estimate;
      EXPECT_EQ(answer.field_i64("at"), twin->now());
    }
  }
  // Simulate mode places the hypothetical job too.
  const auto simulated = client.whatif(4, 600, /*offset=*/0, true);
  ASSERT_TRUE(simulated.ok) << simulated.message;
  EXPECT_EQ(simulated.field("mode"), "simulate");
  EXPECT_TRUE(simulated.field_i64("start").has_value());

  // The barrage above must not have perturbed the live schedule: the
  // remainder of the trace still completes onto the committed golden.
  for (std::size_t i = cut; i < trace.records.size(); ++i) {
    const auto response = submit_record(client, trace.records[i]);
    ASSERT_TRUE(response.ok) << response.message;
  }
  ASSERT_TRUE(client.drain().ok);
  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, KillAndQueryLifecycle) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();

  // First job fills the machine; the second queues behind it.
  const auto running = client.submit(8, 10000, /*at=*/0, 10000);
  ASSERT_TRUE(running.ok) << running.message;
  const auto queued = client.submit(8, 10000, /*at=*/1, 10000);
  ASSERT_TRUE(queued.ok) << queued.message;
  // A later submission moves the clock past both: job 1 runs, job 2
  // waits.
  ASSERT_TRUE(client.submit(1, 60, /*at=*/100, 60).ok);

  const auto running_id = *running.field_i64("id");
  const auto queued_id = *queued.field_i64("id");
  auto state = client.query(running_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "running");
  state = client.query(queued_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "queued");
  // The queued job's predicted start comes from the read tier.
  EXPECT_TRUE(state.field_i64("predicted_start").has_value());

  // Kill the queued job: it terminates without ever starting.
  const auto killed = client.kill(queued_id);
  ASSERT_TRUE(killed.ok) << killed.message;
  state = client.query(queued_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "finished");

  // Unknown ids are a stable error, not a crash.
  const auto missing = client.kill(424242);
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, kErrNotFound);
  const auto missing_query = client.query(424242);
  EXPECT_FALSE(missing_query.ok);
  EXPECT_EQ(missing_query.code, kErrNotFound);

  // A client-chosen id the engine holds, live or terminated, is refused
  // by Engine::submit_job.
  for (const std::int64_t id : {running_id, queued_id}) {
    const auto again = client.submit(1, 60, /*at=*/100, 60, id);
    EXPECT_FALSE(again.ok) << id;
    EXPECT_EQ(again.code, kErrBadRequest) << id;
    EXPECT_EQ(again.message,
              "job id " + std::to_string(id) + " already exists");
  }

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, SnapshotAndResumeVerbs) {
  const std::string snap_path = testing::TempDir() + "/serve_state.snap";
  std::int64_t frozen_time = 0;
  {
    Server server(ServerConfig{}, make_engine("conservative", 32));
    server.start();
    auto client = Client::connect_tcp(server.port());
    client.handshake();
    const auto trace = contention();
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(submit_record(client, trace.records[i]).ok);
    }
    const auto status = client.status();
    ASSERT_TRUE(status.ok);
    frozen_time = *status.field_i64("time");
    const auto snap = client.snapshot(snap_path);
    ASSERT_TRUE(snap.ok) << snap.message;
    EXPECT_GT(*snap.field_i64("bytes"), 0);
    ASSERT_TRUE(client.shutdown().ok);
    server.wait();
  }
  // The snapshot restores offline...
  const auto restored = sim::Engine::restore(
      sim::snapshot::read_file(snap_path));
  EXPECT_EQ(restored->now(), frozen_time);

  // ...and seeds a fresh daemon through the RESUME verb.
  Server server(ServerConfig{}, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto resumed = client.resume(snap_path);
  ASSERT_TRUE(resumed.ok) << resumed.message;
  EXPECT_EQ(resumed.field_i64("time"), frozen_time);
  const auto status = client.status();
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.field_i64("time"), frozen_time);

  // Jobs that finished before the snapshot answer from the resumed
  // engine's terminated-job index, live ones from the tier; both as
  // the full snapshot would.
  sim::WhatIfService full(sim::snapshot::read_file(snap_path));
  bool saw_finished = false;
  bool saw_live = false;
  for (std::int64_t id = 1; id <= 10; ++id) {
    const sim::SimJob* job = restored->find_job(id);
    ASSERT_NE(job, nullptr) << "job " << id;
    const bool finished = job->state == sim::JobState::kFinished;
    (finished ? saw_finished : saw_live) = true;
    expect_query_matches(client, full, id);
    if (finished) {
      const auto answer = client.query(id);
      EXPECT_EQ(answer.field("state"), "finished");
      EXPECT_EQ(answer.field_i64("start"), job->start);
      EXPECT_EQ(answer.field_i64("end"), job->end);
    }
  }
  EXPECT_TRUE(saw_finished);
  EXPECT_TRUE(saw_live);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, QueryMatchesAFullSnapshotTwinThroughKills) {
  // The tier holds live jobs only; terminated ones answer from the
  // index. Every QUERY, for every id at several points of a live
  // replay with KILLs mixed in, must read exactly like a full-snapshot
  // service over the same state: state, times, predicted_start and
  // not-found.
  Server server(ServerConfig{}, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  Twin twin{make_engine("conservative", 32)};

  const auto trace = contention();
  std::vector<std::int64_t> ids;
  const auto query_everything = [&] {
    sim::WhatIfService full(twin.engine->snapshot());
    for (const std::int64_t id : ids) {
      expect_query_matches(client, full, id);
    }
    expect_query_matches(client, full, 424242);
  };
  std::int64_t kills = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const auto response = submit_record(client, trace.records[i]);
    ASSERT_TRUE(response.ok) << response.message;
    twin.submit(trace.records[i]);
    ids.push_back(*response.field_i64("id"));
    if (i % 7 == 6) {
      // Cancel an earlier job; refusals (pending, terminated) match too.
      const std::int64_t victim = ids[i - 3];
      const bool cancelled = twin.kill(victim);
      const auto killed = client.kill(victim);
      EXPECT_EQ(killed.ok, cancelled) << "job " << victim;
      kills += cancelled ? 1 : 0;
    }
    if (i % 10 == 9) query_everything();
  }
  EXPECT_GT(kills, 0);
  ASSERT_TRUE(client.drain().ok);
  twin.engine->run();
  query_everything();
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, StatusReportsTheLiveTierSize) {
  Server server(ServerConfig{}, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  Twin twin{make_engine("conservative", 32)};
  for (const auto& record : contention().records) {
    ASSERT_TRUE(submit_record(client, record).ok);
    twin.submit(record);
  }
  const auto status = client.status();
  ASSERT_TRUE(status.ok);
  const auto tier_bytes = status.field_i64("tier_bytes");
  ASSERT_TRUE(tier_bytes.has_value());
  EXPECT_EQ(*tier_bytes, std::int64_t(twin.engine->live_snapshot().size()));
  EXPECT_LT(*tier_bytes, std::int64_t(twin.engine->snapshot().size()));
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, OverlongLineIsRefusedAndTheConnectionClosed) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  {
    // 1 MiB and no newline: the daemon answers after kMaxLineBytes
    // instead of buffering the rest, then hangs up.
    std::string error;
    const int fd = net::connect_tcp(server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    // A daemon that buffers instead of refusing would never answer:
    // time out rather than hang.
    const timeval limit{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
    ASSERT_TRUE(net::send_all(fd, std::string(std::size_t(1) << 20, 'x')));
    net::LineReader reader(fd);
    const auto reply = reader.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "ERR bad-request line too long");
    EXPECT_FALSE(reader.read_line().has_value());
    EXPECT_FALSE(reader.too_long());
    net::close_fd(fd);
  }
  // The daemon keeps serving other sessions.
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  EXPECT_TRUE(client.status().ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, TimesAboveTheBoundAreRefusedAndTheClockStays) {
  Server server(ServerConfig{}, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  ASSERT_TRUE(client.request_line("SUBMIT 4 100").ok);
  ASSERT_TRUE(client.request_line("SUBMIT 4 100 at=5").ok);
  const auto before = client.status();
  ASSERT_TRUE(before.ok);

  const auto submit =
      client.request_line("SUBMIT 4 3600 at=9223372036854775000");
  EXPECT_FALSE(submit.ok);
  EXPECT_EQ(submit.code, kErrBadRequest);
  EXPECT_NE(submit.message.find("at="), std::string::npos) << submit.message;
  const auto whatif = client.request_line(
      "WHATIF 4 3600 offset=9223372036854775807 --simulate");
  EXPECT_FALSE(whatif.ok);
  EXPECT_EQ(whatif.code, kErrBadRequest);
  EXPECT_NE(whatif.message.find("offset="), std::string::npos)
      << whatif.message;
  // An offset at the bound parses, but the daemon's clock (t=4) puts
  // the hypothetical submit past it: the engine refuses the job, and
  // that is still the request's fault.
  const auto edge = client.request_line(
      "WHATIF 4 3600 offset=" + std::to_string(sim::kMaxTime) + " --simulate");
  EXPECT_FALSE(edge.ok);
  EXPECT_EQ(edge.code, kErrBadRequest) << edge.message;

  // The daemon still answers, and nothing moved.
  const auto after = client.status();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.field_i64("time"), before.field_i64("time"));
  EXPECT_EQ(after.field_i64("epoch"), before.field_i64("epoch"));
  EXPECT_EQ(after.field_i64("queued"), before.field_i64("queued"));
  EXPECT_EQ(after.field_i64("running"), before.field_i64("running"));

  // The engine refuses the largest id, which would leave it no id to
  // pick next (and no snapshot of it would restore); the daemon keeps
  // serving, and its next publish restores.
  const auto last_id =
      client.request_line("SUBMIT 4 100 at=5 id=9223372036854775807");
  EXPECT_FALSE(last_id.ok);
  EXPECT_EQ(last_id.code, kErrBadRequest);
  EXPECT_EQ(last_id.message,
            "job 9223372036854775807: job number is above the bound "
            "9223372036854775806");
  EXPECT_TRUE(client.request_line("SUBMIT 4 100 at=5").ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, CheckpointedBurstsStayWithinTheTimeBound) {
  // With a 2^20 s dump after every second of work, 2^20 s of work runs
  // one burst of exactly sim::kMaxTime; a second more is refused at
  // SUBMIT. 2^40 s of work used to queue an end event near 2^60 + 2^40,
  // past what a snapshot restores, and the next publish terminated the
  // daemon.
  const auto spec = sim::SimulationSpec::parse(
      "scheduler=fcfs nodes=1 checkpoint=1 dump=1048576");
  const auto engine = [&spec] {
    return std::make_unique<sim::Engine>(sim::spec_engine_config(spec, 1),
                                         sched::make_scheduler(spec.scheduler));
  };
  const std::string snap_path = testing::TempDir() + "/serve_burst.snap";
  {
    Server server(ServerConfig{}, engine());
    server.start();
    auto client = Client::connect_tcp(server.port());
    client.handshake();
    for (const char* line : {"SUBMIT 1 1099511627776 runtime=1099511627776",
                             "SUBMIT 1 1048577"}) {
      const auto refused = client.request_line(line);
      EXPECT_FALSE(refused.ok) << line;
      EXPECT_EQ(refused.code, kErrBadRequest) << line;
      EXPECT_NE(refused.message.find("checkpointed burst"), std::string::npos)
          << refused.message;
    }
    ASSERT_TRUE(client.request_line("SUBMIT 1 1048576").ok);
    // A later submit lifts the logical horizon, so the first job starts.
    ASSERT_TRUE(client.request_line("SUBMIT 1 1 at=1").ok);
    const auto status = client.status();
    ASSERT_TRUE(status.ok);
    EXPECT_EQ(status.field_i64("running"), 1);
    ASSERT_TRUE(client.snapshot(snap_path).ok);
    ASSERT_TRUE(client.shutdown().ok);
    server.wait();
  }
  // The snapshot restores, and its first job ends at the bound...
  const auto restored =
      sim::Engine::restore(sim::snapshot::read_file(snap_path));
  restored->run();
  EXPECT_EQ(restored->job(1).end, sim::kMaxTime);

  // ...and a fresh daemon resumes from it and drains past the bound.
  Server server(ServerConfig{}, engine());
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  ASSERT_TRUE(client.resume(snap_path).ok);
  const auto drained = client.request_line("DRAIN");
  ASSERT_TRUE(drained.ok) << drained.message;
  EXPECT_EQ(drained.field_i64("completed"), 2);
  EXPECT_EQ(drained.field_i64("time"), sim::kMaxTime + 1);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, AStateThatNoLongerRestoresKeepsTheLastTier) {
  // An outage holds the only node until just below sim::kMaxInstant,
  // so the job queued behind it ends past that bound, where no
  // snapshot restores. DRAIN runs it there: the engine thread keeps
  // the last tier up and answers ERR instead of terminating.
  auto engine = make_engine("fcfs", 1);
  outage::OutageRecord down;
  down.start_time = 0;
  down.end_time = sim::kMaxInstant - 10;
  down.nodes_affected = 1;
  down.components = {0};
  outage::OutageLog log;
  log.records.push_back(down);
  engine->add_outages(log);
  Server server(ServerConfig{}, std::move(engine));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  ASSERT_TRUE(client.request_line("SUBMIT 1 100").ok);
  const auto before = client.status();
  ASSERT_TRUE(before.ok);

  const auto drained = client.request_line("DRAIN");
  EXPECT_FALSE(drained.ok);
  EXPECT_EQ(drained.code, kErrInternal);
  EXPECT_NE(drained.message.find("above the time bound"), std::string::npos)
      << drained.message;
  const auto after = client.status();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.field_i64("epoch"), before.field_i64("epoch"));
  EXPECT_EQ(after.field_i64("time"), before.field_i64("time"));
  EXPECT_TRUE(client.query(1).ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, WallClockModeRunsJobsWithoutFurtherSubmissions) {
  // time_scale > 0 maps wall time onto sim time: the engine loop's
  // periodic tick runs a lone job to completion with no later submit
  // to lift the logical horizon. A scale that would carry the clock
  // past sim::kMaxTime (1e13 within a second, 1e300 at the first tick,
  // where the product overflows int64) stops it at the bound, where a
  // SUBMIT is still within it.
  for (const double scale : {1000.0, 1e300, 1e13}) {
    SCOPED_TRACE(scale);
    const std::int64_t until = scale > 1e9 ? sim::kMaxTime : 100;
    ServerConfig config;
    config.time_scale = scale;
    Server server(config, make_engine("easy", 32));
    server.start();
    auto client = Client::connect_tcp(server.port());
    client.handshake();
    ASSERT_TRUE(client.request_line("SUBMIT 4 100").ok);
    Response status;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
      status = client.status();
      ASSERT_TRUE(status.ok);
      EXPECT_LE(status.field_i64("time").value_or(0), sim::kMaxTime);
      if (status.field_i64("completed") == 1 &&
          status.field_i64("time").value_or(0) >= until) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (std::chrono::steady_clock::now() < deadline);
    EXPECT_EQ(status.field_i64("completed"), 1);
    EXPECT_GE(status.field_i64("time").value_or(0), until);
    EXPECT_EQ(status.field("mode"), "wall");
    if (until == sim::kMaxTime) {
      const auto late = client.request_line("SUBMIT 4 100");
      EXPECT_TRUE(late.ok) << late.code << " " << late.message;
      status = client.status();
      ASSERT_TRUE(status.ok);
      EXPECT_EQ(status.field_i64("time"), sim::kMaxTime);
    }
    ASSERT_TRUE(client.shutdown().ok);
    server.wait();
  }
}

TEST(ServeServer, AuthTokenGatesSessions) {
  ServerConfig config;
  config.auth_token = "sesame";
  Server server(config, make_engine("fcfs", 8));
  server.start();

  auto denied = Client::connect_tcp(server.port());
  EXPECT_THROW(denied.handshake("wrong"), std::runtime_error);

  auto client = Client::connect_tcp(server.port());
  client.handshake("sesame");
  EXPECT_TRUE(client.status().ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, UnixSocketEndpoint) {
  ServerConfig config;
  config.socket_path = testing::TempDir() + "/serve_test.sock";
  Server server(config, make_engine("easy", 16));
  server.start();
  auto client = Client::connect_unix(config.socket_path);
  client.handshake();
  const auto status = client.status();
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.field_i64("queued"), 0);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, ConcurrentQuerySessionsDoNotPerturbTheSchedule) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_concurrent.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> answered{0};
  std::atomic<int> reading{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto reader = Client::connect_tcp(server.port());
      reader.handshake();
      std::int64_t q = 0;
      while (!done.load()) {
        const auto answer =
            reader.whatif(1 + (t * 5 + q) % 16, 60 * (1 + q % 16));
        ASSERT_TRUE(answer.ok) << answer.message;
        ASSERT_TRUE(reader.status().ok);
        if (q == 0) ++reading;
        ++q;
        ++answered;
      }
    });
  }
  // The whole replay takes a few milliseconds: start it only once every
  // reader is answering, so the queries really overlap the submissions.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reading.load() < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(reading.load(), kReaders);

  auto writer = Client::connect_tcp(server.port());
  writer.handshake();
  const auto trace = contention();
  for (const auto& record : trace.records) {
    ASSERT_TRUE(submit_record(writer, record).ok);
  }
  ASSERT_TRUE(writer.drain().ok);
  done.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_GT(answered.load(), 0);

  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));
  ASSERT_TRUE(writer.shutdown().ok);
  server.wait();
}

}  // namespace
}  // namespace pjsb::serve
