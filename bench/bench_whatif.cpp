// Snapshot/what-if performance: answering "when would this job start?"
// from a warm snapshot must beat re-simulating the run from scratch by
// orders of magnitude — the speedup is the whole point of the snapshot
// subsystem, so the CI bench gate (bench/gate.json) holds it at >= 50x.
// Both sides are timed in this process, so the ratio means the same on
// any machine; the absolute rates below are printed, not gated.
//
// Three rates on a backfill-heavy workload (100k jobs, 5k in --quick):
//   warm    — WhatIfService predict queries against one restored clone
//             (each query is one profile sweep);
//   cold    — the same prediction the hard way: replay the workload
//             from t=0 to the snapshot point, ask once, throw it away;
//   restore — Engine::restore from snapshot bytes (the setup cost a
//             simulate-mode query or a new service pays).
#include "common.hpp"

#include <memory>

#include "sim/engine.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "sim/snapshot/whatif.hpp"

namespace {

using namespace pjsb;

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

/// A deterministic spread of query shapes (width x walltime x offset).
sim::WhatIfQuery nth_query(int i) {
  sim::WhatIfQuery q;
  q.procs = 1 + (i * 7) % 64;
  q.estimate = 300 + (i * 131) % 7200;
  q.submit_offset = (i * 13) % 600;
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_header(
      "snapshot what-if throughput",
      "Hypothetical start-time queries per second: warm snapshot "
      "(WhatIfService) vs cold replay-from-scratch; the gate holds the "
      "speedup above 50x.");

  const std::int64_t nodes = 256;
  const std::size_t jobs = options.quick ? 5000 : 100000;
  const std::string scheduler = "conservative";
  const auto trace =
      bench::make_workload(workload::ModelKind::kLublin99, jobs, nodes, 0.85);
  const std::int64_t cut = trace.horizon() / 2;

  // Freeze the donor mid-run; everything below works off these bytes.
  bench::WallTimer snap_timer;
  const auto donor = run_to(trace, scheduler, cut);
  const double to_cut_secs = snap_timer.seconds();
  const std::string bytes = donor->snapshot();

  bench::JsonReporter json("bench_whatif");
  util::Table table({"mode", "queries", "wall_s", "queries/s"});

  // Warm: one service, many predict queries.
  sim::WhatIfService service(bytes);
  const int warm_queries = options.quick ? 2000 : 20000;
  bench::WallTimer warm_timer;
  std::int64_t sink = 0;
  for (int i = 0; i < warm_queries; ++i) {
    const auto answer = service.query(nth_query(i));
    sink += answer.start.value_or(0) & 1;
  }
  const double warm_secs = warm_timer.seconds();
  const double warm_qps = double(warm_queries) / warm_secs;
  table.row().cell("warm").cell(warm_queries).cell(warm_secs, 3)
      .cell(warm_qps, 0);

  // Cold: each query pays a full replay from t=0 to the snapshot point.
  const int cold_queries = 3;
  bench::WallTimer cold_timer;
  for (int i = 0; i < cold_queries; ++i) {
    const auto engine = run_to(trace, scheduler, cut);
    const auto q = nth_query(i);
    const auto start = engine->scheduler().predict_start(
        engine->now() + q.submit_offset, q.procs, q.estimate);
    sink += start.value_or(0) & 1;
  }
  const double cold_secs = cold_timer.seconds();
  const double cold_qps = double(cold_queries) / cold_secs;
  table.row().cell("cold").cell(cold_queries).cell(cold_secs, 3)
      .cell(cold_qps, 0);
  if (sink == -1) std::cout << "";  // defeat dead-code elimination

  // Restore: rebuilding a live engine from the bytes.
  const int restores = options.quick ? 20 : 50;
  bench::WallTimer restore_timer;
  for (int i = 0; i < restores; ++i) {
    const auto clone = sim::Engine::restore(bytes);
    sink += clone->now() & 1;
  }
  const double restore_secs = restore_timer.seconds();
  const double restores_per_s = double(restores) / restore_secs;
  table.row().cell("restore").cell(restores).cell(restore_secs, 3)
      .cell(restores_per_s, 0);

  const double speedup = warm_qps / cold_qps;
  std::cout << table.to_string() << '\n'
            << "snapshot bytes: " << bytes.size() << ", replay-to-cut: "
            << to_cut_secs << " s, warm/cold speedup: " << speedup
            << "x\n";

  json.add("whatif", "warm_queries_per_s", warm_qps, "queries/s");
  json.add("whatif", "cold_queries_per_s", cold_qps, "queries/s");
  json.add("whatif", "speedup", speedup, "x");
  json.add("whatif", "restores_per_s", restores_per_s, "restores/s");
  json.add("whatif", "snapshot_bytes", double(bytes.size()), "bytes");
  json.add_table("whatif", table);
  return json.write(options.json_path) ? 0 : 1;
}
