// Hot-path benchmark for the scheduling substrate: CapacityProfile
// primitive ops at several profile sizes, plus end-to-end replays of the
// backfill-heavy schedulers (conservative, easy) on a large workload.
// This is the benchmark-gate for profile/scheduler refactors: run with
// --json to record BENCH_*.json trajectory points, and --dump-csv to
// capture per-job scheduler decisions for byte-identical regression
// comparison across implementations.
//
// Usage: bench_profile [--quick] [--json PATH] [--dump-csv PATH]
#include <filesystem>
#include <fstream>

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
                  bool quick, const std::string& csv_path) {
  // Backfill-heavy workload: high offered load keeps deep queues, which
  // is exactly where the O(Q * P^2) rebuild cost used to live.
  const std::int64_t nodes = 256;
  const std::size_t jobs = quick ? 5000 : 100000;
  const auto trace =
      bench::make_workload(workload::ModelKind::kLublin99, jobs, nodes, 0.85);

  double conservative_wall = 0.0;
  for (const char* name : {"conservative", "easy"}) {
    bench::WallTimer timer;
    const auto result =
        sim::replay(trace, sim::SimulationSpec{}.with_scheduler(name));
    const double secs = timer.seconds();
    if (std::string(name) == "conservative") conservative_wall = secs;
    const double jobs_per_s = double(result.stats.jobs_completed) / secs;
    const double events_per_s = double(result.stats.events_processed) / secs;
    table.row()
        .cell(name)
        .cell(std::int64_t(jobs))
        .cell(secs, 2)
        .cell(jobs_per_s, 0)
        .cell(events_per_s, 0);
    const std::string bench_name = std::string("replay_") + name;
    json.add(bench_name, "wall", secs, "s");
    json.add(bench_name, "jobs", jobs_per_s, "jobs/s");
    json.add(bench_name, "events", events_per_s, "events/s");

    if (!csv_path.empty()) {
      std::ofstream out(csv_path + "." + name + ".csv");
      bench::write_decisions_csv(out, result.completed);
    }
  }

  // The same conservative replay with every observability sink on
  // (JSONL event trace + time-series CSV + Chrome phase profile).
  // The `overhead` ratio is self-relative — both runs happen on this
  // machine within seconds of each other — so the bench gate can bound
  // it with a machine-independent max_abs instead of a baseline diff.
  const auto dir = std::filesystem::temp_directory_path();
  const auto sink = [&](const char* leaf) {
    return (dir / leaf).string();
  };
  const auto spec = sim::SimulationSpec{}
                        .with_scheduler("conservative")
                        .with_trace(sink("pjsb_bench_profile.trace.jsonl"))
                        .with_timeseries(sink("pjsb_bench_profile.ts.csv"))
                        .with_profile(sink("pjsb_bench_profile.prof.json"));
  bench::WallTimer timer;
  const auto traced = sim::replay(trace, spec);
  const double traced_secs = timer.seconds();
  const double traced_jobs_per_s =
      double(traced.stats.jobs_completed) / traced_secs;
  const double overhead =
      conservative_wall > 0.0 ? traced_secs / conservative_wall : 0.0;
  table.row()
      .cell("conservative+sinks")
      .cell(std::int64_t(jobs))
      .cell(traced_secs, 2)
      .cell(traced_jobs_per_s, 0)
      .cell(double(traced.stats.events_processed) / traced_secs, 0);
  json.add("replay_conservative_traced", "wall", traced_secs, "s");
  json.add("replay_conservative_traced", "jobs", traced_jobs_per_s,
           "jobs/s");
  json.add("replay_conservative_traced", "overhead", overhead, "x");
  for (const char* leaf : {"pjsb_bench_profile.trace.jsonl",
                           "pjsb_bench_profile.ts.csv",
                           "pjsb_bench_profile.prof.json"}) {
    std::error_code ec;
    std::filesystem::remove(dir / leaf, ec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pjsb;
  const auto options = bench::BenchOptions::parse(argc, argv,
                                                  /*dumps_csv=*/true);
  bench::print_header(
      "profile hot path",
      "CapacityProfile primitive throughput and backfill-heavy replay "
      "rates; the regression gate for scheduler hot-path changes.");

  bench::JsonReporter json("bench_profile");

  util::Table micro({"steps", "earliest_start/s", "min_available/s",
                     "add_remove/s"});
  profile_micro(micro, json, options.quick);
  std::cout << micro.to_string() << '\n';
  json.add_table("profile_micro", micro);

  util::Table replay({"scheduler", "jobs", "wall_s", "jobs/s", "events/s"});
  replay_bench(replay, json, options.quick, options.csv_path);
  std::cout << replay.to_string() << '\n';
  json.add_table("replay", replay);

  return json.write(options.json_path) ? 0 : 1;
}
