// Scheduling-daemon throughput: concurrent what-if queries served over
// real sockets must sustain >= 10k queries/s from >= 4 connections,
// and every answer must be identical to a serial predict_start pass
// against the same frozen state (the CI bench gate, bench/gate.json,
// holds both: the rate as a fixed floor with wide headroom, the
// answers as an identity bit).
//
// Setup: a Lublin'99 workload (20k jobs, 2k in --quick) on 64 nodes
// under conservative backfill is replayed to half its horizon; the
// engine moves into a Server on an ephemeral loopback TCP port. A twin
// engine restored from the same snapshot bytes answers every query
// shape serially first; then 4 client threads (one connection each)
// fire the same shapes through the socket and diff every answer.
#include "common.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot/whatif.hpp"

namespace {

using namespace pjsb;

constexpr int kConnections = 4;

/// Replay `trace` under `scheduler` up to `cut` sim-seconds.
std::unique_ptr<sim::Engine> run_to(const swf::Trace& trace,
                                    const std::string& scheduler,
                                    std::int64_t cut) {
  const auto config = sim::spec_engine_config(
      sim::SimulationSpec{}.with_scheduler(scheduler),
      trace.header.max_nodes.value_or(sim::kDefaultNodes));
  auto engine = std::make_unique<sim::Engine>(
      config, sched::make_scheduler(scheduler));
  engine->load_trace(trace);
  while (true) {
    const auto t = engine->next_event_time();
    if (!t || *t > cut) break;
    engine->step();
  }
  return engine;
}

/// Deterministic query shapes, distinct per (connection, index).
sim::WhatIfQuery nth_query(int conn, int i) {
  sim::WhatIfQuery q;
  q.procs = 1 + (conn * 7 + i * 3) % 64;
  q.estimate = 300 + (conn + i * 131) % 7200;
  q.submit_offset = (i * 13) % 600;
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_header(
      "scheduling daemon what-if throughput",
      "Concurrent WHATIF queries over real sockets: >= 10k queries/s "
      "from 4 connections, every answer byte-identical to a serial "
      "predict_start pass (both gated).");

  const std::size_t jobs = options.quick ? 2000 : 20000;
  const int queries_per_conn = options.quick ? 2500 : 25000;
  const std::int64_t nodes = 64;
  const auto trace =
      bench::make_workload(workload::ModelKind::kLublin99, jobs, nodes, 0.85);

  auto donor = run_to(trace, "conservative", trace.horizon() / 2);
  const auto bytes = donor->snapshot();
  auto twin = sim::Engine::restore(bytes);

  // Serial reference pass: one answer per (connection, index) shape.
  std::vector<std::vector<std::optional<std::int64_t>>> expected(
      kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (int i = 0; i < queries_per_conn; ++i) {
      const auto q = nth_query(c, i);
      expected[c].push_back(twin->scheduler().predict_start(
          twin->now() + q.submit_offset, q.procs, q.estimate));
    }
  }

  serve::ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  serve::Server server(config, std::move(donor));
  server.start();

  std::atomic<std::int64_t> answered{0};
  std::atomic<std::int64_t> mismatches{0};
  bench::WallTimer timer;
  std::vector<std::thread> pool;
  for (int c = 0; c < kConnections; ++c) {
    pool.emplace_back([&, c] {
      auto client = serve::Client::connect_tcp(server.port());
      client.handshake("", "bench_serve");
      for (int i = 0; i < queries_per_conn; ++i) {
        const auto q = nth_query(c, i);
        const auto answer =
            client.whatif(q.procs, q.estimate, q.submit_offset);
        if (!answer.ok ||
            answer.field_i64("start") != expected[c][i]) {
          ++mismatches;
        }
        ++answered;
      }
    });
  }
  for (auto& thread : pool) thread.join();
  const double wall = timer.seconds();
  server.request_shutdown();
  server.wait();

  const double qps = wall > 0 ? double(answered.load()) / wall : 0.0;
  const double identical = mismatches.load() == 0 ? 1.0 : 0.0;

  util::Table table(
      {"connections", "queries", "wall_s", "queries/s", "mismatches"});
  table.row()
      .cell(std::int64_t(kConnections))
      .cell(answered.load())
      .cell(wall, 3)
      .cell(qps, 0)
      .cell(mismatches.load());
  std::cout << table.to_string();

  bench::JsonReporter reporter("bench_serve");
  reporter.add("serve", "whatif_qps", qps, "queries/s");
  reporter.add("serve", "answers_identical", identical, "bool");
  reporter.add("serve", "connections", kConnections, "sessions");
  reporter.add_table("serve", table);
  if (!reporter.write(options.json_path)) return 1;
  if (mismatches.load() != 0) {
    std::cerr << "bench_serve: " << mismatches.load()
              << " answer(s) diverged from the serial reference\n";
    return 1;
  }
  return 0;
}
