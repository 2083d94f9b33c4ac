// Scheduling-daemon costs over real sockets, in two phases.
//
// What-if: concurrent queries must sustain >= 10k queries/s from >= 4
// connections, and every answer must be identical to a serial
// predict_start pass against the same frozen state (the CI bench gate,
// bench/gate.json, holds both: the rate as a fixed floor with wide
// headroom, the answers as an identity bit). A Lublin'99 workload (20k
// jobs, 2k in --quick) on 64 nodes under conservative backfill is
// replayed to half its horizon; the engine moves into a Server on an
// ephemeral loopback TCP port. A twin engine restored from the same
// snapshot bytes answers every query shape serially first; then 4
// client threads (one connection each) fire the same shapes through
// the socket and diff every answer.
//
// SUBMIT: a SUBMIT costs the same whatever the daemon has already
// finished. Two servers run EASY on 128 nodes: one fresh, one whose
// engine has run 100k jobs (10k in --quick) to completion. One
// connection per server submits the same fresh Lublin'99 jobs, blocks
// of them alternating between the servers, and `submit.cost_ratio` is
// the loaded server's median SUBMIT latency over the fresh one's (the
// gate holds it near 1; a publish that walks every job slot ever used
// puts it far above).
#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot/whatif.hpp"
#include "util/stats.hpp"

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
      "scheduling daemon what-if throughput and SUBMIT cost",
      "Concurrent WHATIF queries over real sockets: >= 10k queries/s "
      "from 4 connections, every answer byte-identical to a serial "
      "predict_start pass; a SUBMIT into a daemon that has finished "
      "many jobs costs what it costs in a fresh one (all gated).");

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

  // SUBMIT phase: the same jobs into a fresh and a loaded server.
  const std::int64_t submit_nodes = 128;
  const std::size_t finished_jobs = options.quick ? 10000 : 100000;
  const std::size_t submitted_jobs = options.quick ? 2000 : 10000;
  constexpr std::size_t kBlock = 100;
  const auto history = bench::make_workload(
      workload::ModelKind::kLublin99, finished_jobs, submit_nodes, 0.7);
  const auto fresh_jobs =
      bench::make_workload(workload::ModelKind::kLublin99, submitted_jobs,
                           submit_nodes, 0.7, bench::kSeed + 1);
  // The fresh engine replays an empty trace sized like the history.
  swf::Trace no_jobs;
  no_jobs.header.max_nodes = submit_nodes;
  constexpr std::int64_t kRunDry = std::numeric_limits<std::int64_t>::max();
  serve::Server fresh(config, run_to(no_jobs, "easy", kRunDry));
  serve::Server loaded(config, run_to(history, "easy", kRunDry));
  fresh.start();
  loaded.start();
  struct Target {
    serve::Client client;
    std::int64_t base = 0;  ///< the server's clock when the phase starts
    std::vector<double> micros;
  };
  std::vector<Target> targets;
  for (serve::Server* server : {&fresh, &loaded}) {
    Target target{serve::Client::connect_tcp(server->port())};
    target.client.handshake("", "bench_serve");
    target.base = target.client.status().field_i64("time").value_or(0);
    targets.push_back(std::move(target));
  }
  std::int64_t refused = 0;
  for (std::size_t begin = 0; begin < submitted_jobs; begin += kBlock) {
    const std::size_t end = std::min(submitted_jobs, begin + kBlock);
    for (Target& target : targets) {
      for (std::size_t k = begin; k < end; ++k) {
        const auto& r = fresh_jobs.records[k];
        const bench::WallTimer submit_timer;
        const auto reply = target.client.submit(
            std::max<std::int64_t>(1, r.requested_procs),
            std::max(r.requested_time, r.run_time),
            target.base + r.submit_time, r.run_time);
        target.micros.push_back(submit_timer.seconds() * 1e6);
        if (!reply.ok) ++refused;
      }
    }
  }
  for (serve::Server* server : {&fresh, &loaded}) {
    server->request_shutdown();
    server->wait();
  }
  const auto fresh_us = util::summarize(targets[0].micros);
  const auto loaded_us = util::summarize(targets[1].micros);
  const double cost_ratio =
      fresh_us.median > 0 ? loaded_us.median / fresh_us.median : 0.0;

  util::Table table(
      {"connections", "queries", "wall_s", "queries/s", "mismatches"});
  table.row()
      .cell(std::int64_t(kConnections))
      .cell(answered.load())
      .cell(wall, 3)
      .cell(qps, 0)
      .cell(mismatches.load());
  std::cout << table.to_string();

  util::Table submit_table({"server", "finished_jobs", "submits",
                            "median_submit_us", "p99_submit_us",
                            "cost_ratio"});
  submit_table.row()
      .cell("fresh")
      .cell(std::int64_t(0))
      .cell(std::int64_t(submitted_jobs))
      .cell(fresh_us.median, 1)
      .cell(fresh_us.p99, 1)
      .cell(1.0, 2);
  submit_table.row()
      .cell("loaded")
      .cell(std::int64_t(finished_jobs))
      .cell(std::int64_t(submitted_jobs))
      .cell(loaded_us.median, 1)
      .cell(loaded_us.p99, 1)
      .cell(cost_ratio, 2);
  std::cout << '\n' << submit_table.to_string();

  bench::JsonReporter reporter("bench_serve");
  reporter.add("serve", "whatif_qps", qps, "queries/s");
  reporter.add("serve", "answers_identical", identical, "bool");
  reporter.add("serve", "connections", kConnections, "sessions");
  reporter.add_table("serve", table);
  reporter.add("submit", "cost_ratio", cost_ratio, "ratio");
  reporter.add("submit", "fresh_median_us", fresh_us.median, "us");
  reporter.add("submit", "loaded_median_us", loaded_us.median, "us");
  reporter.add_table("submit", submit_table);
  if (!reporter.write(options.json_path)) return 1;
  if (mismatches.load() != 0) {
    std::cerr << "bench_serve: " << mismatches.load()
              << " answer(s) diverged from the serial reference\n";
    return 1;
  }
  if (refused != 0) {
    std::cerr << "bench_serve: " << refused << " SUBMIT(s) refused\n";
    return 1;
  }
  return 0;
}
