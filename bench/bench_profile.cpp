// Hot-path benchmark for the scheduling substrate: CapacityProfile
// primitive ops at several profile sizes, plus a backfill-heavy
// conservative replay with and without every observability sink. The
// CI bench gate (bench/gate.json) bounds the sinks' overhead, a ratio
// of two timings taken in this process; replay throughput itself is
// timed by perfbench's deep_conservative workload.
//
// Usage: bench_profile [--quick] [--json PATH]
#include <filesystem>

#include "common.hpp"
#include "sched/profile.hpp"
#include "sim/spec.hpp"

namespace {

using namespace pjsb;

/// Build a profile with `steps` step points from deterministic usages.
sched::CapacityProfile make_profile(std::int64_t base, int steps,
                                    util::Rng& rng) {
  sched::CapacityProfile p(base);
  for (int i = 0; i < steps / 2; ++i) {
    const std::int64_t start = rng.uniform_int(0, 100000);
    const std::int64_t len = rng.uniform_int(10, 5000);
    const std::int64_t procs = rng.uniform_int(1, base / 4);
    p.add_usage(start, start + len, procs);
  }
  return p;
}

/// Run `body` until `max_reps` iterations or `budget_s` seconds of wall
/// time, whichever first; returns iterations per second. The budget
/// keeps slow implementations measurable instead of unbounded.
template <typename F>
double measure_rate(F&& body, int max_reps, double budget_s) {
  bench::WallTimer timer;
  int done = 0;
  while (done < max_reps) {
    body();
    ++done;
    if ((done & 0xf) == 0 && timer.seconds() >= budget_s) break;
  }
  return double(done) / timer.seconds();
}

void profile_micro(util::Table& table, bench::JsonReporter& json,
                   bool quick) {
  const std::int64_t base = 1024;
  const int query_reps = quick ? 20000 : 200000;
  const double budget_s = quick ? 0.5 : 2.0;
  for (const int steps : {64, 512, 4096}) {
    util::Rng rng(bench::kSeed + std::uint64_t(steps));
    const auto p = make_profile(base, steps, rng);
    std::int64_t sink = 0;

    // earliest_start queries (the backfill inner loop).
    const double es_per_s = measure_rate(
        [&] {
          const std::int64_t from = rng.uniform_int(0, 100000);
          const std::int64_t dur = rng.uniform_int(10, 5000);
          const std::int64_t procs = rng.uniform_int(1, base);
          sink += p.earliest_start(from, dur, procs) & 1;
        },
        query_reps, budget_s);

    // min_available window queries.
    const double ma_per_s = measure_rate(
        [&] {
          const std::int64_t from = rng.uniform_int(0, 100000);
          sink += p.min_available(from, from + rng.uniform_int(10, 5000)) & 1;
        },
        query_reps, budget_s);

    // add/remove usage round-trips on a copy.
    auto q = p;
    const double mut_per_s = measure_rate(
        [&] {
          const std::int64_t start = rng.uniform_int(0, 100000);
          const std::int64_t len = rng.uniform_int(10, 5000);
          q.add_usage(start, start + len, 3);
          q.remove_usage(start, start + len, 3);
        },
        query_reps / 4, budget_s);
    if (sink == -1) std::cout << "";  // defeat dead-code elimination

    table.row()
        .cell(std::int64_t(steps))
        .cell(es_per_s, 0)
        .cell(ma_per_s, 0)
        .cell(mut_per_s, 0);
    const std::string name = "profile_steps_" + std::to_string(steps);
    json.add(name, "earliest_start", es_per_s, "queries/s");
    json.add(name, "min_available", ma_per_s, "queries/s");
    json.add(name, "add_remove_usage", mut_per_s, "roundtrips/s");
  }
}

void replay_bench(util::Table& table, bench::JsonReporter& json,
                  bool quick) {
  // Backfill-heavy workload: high offered load keeps deep queues, which
  // is exactly where the O(Q * P^2) rebuild cost used to live.
  const std::int64_t nodes = 256;
  const std::size_t jobs = quick ? 5000 : 100000;
  const auto trace =
      bench::make_workload(workload::ModelKind::kLublin99, jobs, nodes, 0.85);

  // The same conservative replay plain and with every observability
  // sink on (JSONL event trace + time-series CSV + Chrome phase
  // profile). The `overhead` ratio is self-relative, so the bench gate
  // can bound it on any machine; each side keeps its fastest of three
  // alternating runs.
  const auto dir = std::filesystem::temp_directory_path();
  const char* const leaves[] = {"pjsb_bench_profile.trace.jsonl",
                                "pjsb_bench_profile.ts.csv",
                                "pjsb_bench_profile.prof.json"};
  const auto plain = sim::SimulationSpec{}.with_scheduler("conservative");
  const auto traced = sim::SimulationSpec{plain}
                          .with_trace((dir / leaves[0]).string())
                          .with_timeseries((dir / leaves[1]).string())
                          .with_profile((dir / leaves[2]).string());
  sim::EngineStats plain_stats;
  sim::EngineStats traced_stats;
  const auto [plain_secs, traced_secs] = bench::fastest_alternating(
      3, [&] { plain_stats = sim::replay(trace, plain).stats; },
      [&] { traced_stats = sim::replay(trace, traced).stats; });
  const auto add_row = [&](const char* label, const std::string& row,
                           const sim::EngineStats& stats, double secs) {
    const double jobs_per_s = double(stats.jobs_completed) / secs;
    const double events_per_s = double(stats.events_processed) / secs;
    table.row()
        .cell(label)
        .cell(std::int64_t(jobs))
        .cell(secs, 2)
        .cell(jobs_per_s, 0)
        .cell(events_per_s, 0);
    json.add(row, "wall", secs, "s");
    json.add(row, "jobs", jobs_per_s, "jobs/s");
    json.add(row, "events", events_per_s, "events/s");
  };
  add_row("conservative", "replay_conservative", plain_stats, plain_secs);
  add_row("conservative+sinks", "replay_conservative_traced", traced_stats,
          traced_secs);
  json.add("replay_conservative_traced", "overhead",
           traced_secs / plain_secs, "x");
  for (const char* leaf : leaves) {
    std::error_code ec;
    std::filesystem::remove(dir / leaf, ec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pjsb;
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_header(
      "profile hot path",
      "CapacityProfile primitive throughput, and the cost of every "
      "observability sink on a backfill-heavy conservative replay "
      "(fastest of 3 runs each).");

  bench::JsonReporter json("bench_profile");

  util::Table micro({"steps", "earliest_start/s", "min_available/s",
                     "add_remove/s"});
  profile_micro(micro, json, options.quick);
  std::cout << micro.to_string() << '\n';
  json.add_table("profile_micro", micro);

  util::Table replay({"scheduler", "jobs", "wall_s", "jobs/s", "events/s"});
  replay_bench(replay, json, options.quick);
  std::cout << replay.to_string() << '\n';
  json.add_table("replay", replay);

  return json.write(options.json_path) ? 0 : 1;
}
