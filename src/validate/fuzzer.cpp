#include "validate/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <set>

#include "core/swf/job_source.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "validate/invariants.hpp"

namespace pjsb::validate {

namespace {

/// Candidate settings for an integer parameter: the schema bounds plus
/// a couple of small values, clamped into range, minus the default
/// (the bare name already covers it).
std::vector<std::int64_t> int_candidates(const sched::ParamSpec& p) {
  std::vector<std::int64_t> raw = {p.int_min, 1, 2, 8};
  if (p.int_default > 0) raw.push_back(p.int_default * 2);
  std::vector<std::int64_t> values;
  for (std::int64_t v : raw) {
    v = std::clamp(v, p.int_min, p.int_max);
    if (v == p.int_default) continue;
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

std::string FuzzFailure::to_string() const {
  return "[" + scheduler + " / " + variant + " / seed=" +
         std::to_string(seed) + " workload=" + std::to_string(workload) +
         " (derived workload seed " + std::to_string(workload_seed) +
         ")] " + detail;
}

std::string FuzzReport::summary() const {
  std::string s = "fuzzer: " + std::to_string(specs) + " scheduler specs, " +
                  std::to_string(runs) + " runs, " +
                  std::to_string(failure_count) + " failure(s)";
  if (failure_count > failures.size()) {
    s += " (first " + std::to_string(failures.size()) + " shown)";
  }
  for (const auto& f : failures) s += "\n  " + f.to_string();
  return s;
}

std::vector<std::string> enumerate_scheduler_specs(
    const sched::Registry& registry) {
  std::vector<std::string> specs;
  for (const auto* info : registry.entries()) {
    specs.push_back(info->name);
    for (const auto& p : info->params) {
      switch (p.type) {
        case sched::ParamSpec::Type::kInt:
          for (const std::int64_t v : int_candidates(p)) {
            specs.push_back(info->name + " " + p.key + "=" +
                            std::to_string(v));
          }
          break;
        case sched::ParamSpec::Type::kChoice:
          for (std::size_t i = 1; i < p.choices.size(); ++i) {
            specs.push_back(info->name + " " + p.key + "=" + p.choices[i]);
          }
          break;
      }
    }
  }
  return specs;
}

swf::Trace fuzz_workload(std::uint64_t seed, std::size_t jobs,
                         std::int64_t nodes) {
  util::Rng rng(seed);
  swf::Trace trace;
  trace.header.max_nodes = nodes;
  trace.header.computer = "fuzz";
  std::int64_t t = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    // Bursty arrivals: same-second clusters, short gaps, rare lulls.
    const double roll = rng.uniform();
    if (roll < 0.3) {
      // burst: keep t
    } else if (roll < 0.9) {
      t += rng.uniform_int(1, 600);
    } else {
      t += rng.uniform_int(600, 20000);
    }

    swf::JobRecord r;
    r.job_number = std::int64_t(i) + 1;
    r.submit_time = t;

    const double size_roll = rng.uniform();
    if (size_roll < 0.4) {
      r.requested_procs = 1;
    } else if (size_roll < 0.7) {
      r.requested_procs = rng.uniform_int(2, std::max<std::int64_t>(2, nodes / 2));
    } else if (size_roll < 0.9) {
      // Power-of-two sizes, the dominant shape in real archives.
      const std::int64_t max_pow =
          std::max<std::int64_t>(1, std::int64_t(std::log2(double(nodes))));
      r.requested_procs = std::int64_t(1) << rng.uniform_int(1, max_pow);
    } else {
      r.requested_procs = nodes;  // full-machine drains stress the head
    }
    r.requested_procs = std::clamp<std::int64_t>(r.requested_procs, 1, nodes);
    r.allocated_procs = r.requested_procs;

    // Heavy-tailed runtimes; estimates always bound the runtime, as
    // SimJob::from_record enforces for replayed records.
    r.run_time = std::clamp<std::int64_t>(
        std::int64_t(rng.lognormal(6.0, 2.0)), 1, 50000);
    if (rng.bernoulli(0.3)) {
      r.requested_time = r.run_time;  // perfect estimate
    } else {
      r.requested_time =
          r.run_time + std::int64_t(double(r.run_time) * rng.uniform(0.0, 3.0));
    }
    r.status = swf::Status::kCompleted;
    trace.records.push_back(r);
  }
  return trace;
}

outage::OutageLog fuzz_outages(std::uint64_t seed, std::int64_t nodes,
                               std::int64_t horizon) {
  util::Rng rng(seed);
  outage::OutageLog log;
  const std::int64_t span = std::max<std::int64_t>(horizon, 1000);
  const int count = int(rng.uniform_int(1, 4));
  for (int i = 0; i < count; ++i) {
    outage::OutageRecord rec;
    rec.start_time = rng.uniform_int(span / 10, span);
    rec.end_time = rec.start_time + rng.uniform_int(100, span / 4 + 100);
    rec.type = rng.bernoulli(0.5) ? outage::OutageType::kCpuFailure
                                  : outage::OutageType::kScheduledMaintenance;
    if (rng.bernoulli(0.5)) {
      rec.announce_time =
          std::max<std::int64_t>(0, rec.start_time - rng.uniform_int(60, 7200));
    }
    std::set<std::int64_t> components;
    const std::int64_t victims =
        rng.uniform_int(1, std::max<std::int64_t>(1, nodes / 4));
    while (std::int64_t(components.size()) < victims) {
      components.insert(rng.uniform_int(0, nodes - 1));
    }
    rec.components.assign(components.begin(), components.end());
    rec.nodes_affected = std::int64_t(rec.components.size());
    log.records.push_back(rec);
  }
  log.sort_by_start();
  return log;
}

namespace {

/// A randomized fault-injection spec: a seeded crash schedule plus a
/// randomized recovery config. One per workload, so every policy faces
/// the identical crash schedule.
sim::SimulationSpec fuzz_fault_plan(std::uint64_t seed, std::int64_t nodes,
                                    std::int64_t horizon) {
  util::Rng rng(seed);
  sim::SimulationSpec plan;
  plan.faults = seed != 0 ? seed : 1;
  // Aim for a handful of crashes across the whole machine: the
  // expected count over the horizon is nodes * horizon / mtbf.
  const std::int64_t span = std::max<std::int64_t>(horizon, 1000);
  plan.mtbf = std::max<std::int64_t>(
      1000, nodes * span / rng.uniform_int(3, 15));
  plan.repair = rng.uniform_int(60, span / 10 + 60);
  if (rng.bernoulli(0.7)) {
    plan.checkpoint = rng.uniform_int(50, 5000);
    plan.dump = rng.uniform_int(0, 60);
    plan.read = rng.uniform_int(0, 60);
  }
  if (rng.bernoulli(0.5)) plan.retry_limit = int(rng.uniform_int(1, 3));
  if (rng.bernoulli(0.3)) plan.backoff = rng.uniform_int(30, 600);
  const double overrun_roll = rng.uniform();
  if (overrun_roll < 0.25) {
    plan.overrun = sim::fault::OverrunPolicy::kKill;
  } else if (overrun_roll < 0.5) {
    plan.overrun = sim::fault::OverrunPolicy::kGrace;
    plan.grace = rng.uniform_int(60, 3600);
  }
  return plan;
}

/// One checked replay of `trace` under `spec` (the variant's base
/// spec: default, or a fault plan) with `spec_string` as scheduler.
void fuzz_one(const std::string& spec_string, sim::SimulationSpec spec,
              const swf::Trace& trace, const outage::OutageLog* outages,
              int workload, std::uint64_t workload_seed,
              const FuzzOptions& options, bool stream, const char* variant,
              FuzzReport& report) {
  ++report.runs;
  std::string detail;
  try {
    auto scheduler = sched::make_scheduler(spec_string);

    CheckerOptions checker_options;
    checker_options.nodes = options.nodes;
    checker_options.scheduler = spec_string;
    checker_options.outages = outages != nullptr || spec.faults != 0;
    InvariantChecker checker(checker_options);
    checker.watch(*scheduler);

    spec.scheduler = spec_string;
    spec.nodes = options.nodes;
    sim::ReplayHooks hooks;
    hooks.observe(checker);
    if (outages) hooks.with_outages(*outages);

    if (stream) {
      spec.streaming_memory().with_lookahead(8);
      swf::TraceSource source(trace);
      sim::replay(source, std::move(scheduler), spec, hooks);
    } else {
      sim::replay(trace, std::move(scheduler), spec, hooks);
    }
    if (!checker.clean()) detail = checker.summary();
  } catch (const std::exception& e) {
    detail = std::string("exception: ") + e.what();
  }
  if (detail.empty()) return;
  ++report.failure_count;
  if (report.failures.size() < kFuzzFailuresKept) {
    report.failures.push_back({spec_string, variant, options.seed, workload,
                               workload_seed, std::move(detail)});
  }
}

}  // namespace

FuzzReport run_fuzzer(const FuzzOptions& options) {
  FuzzReport report;
  const auto specs = enumerate_scheduler_specs(sched::Registry::global());
  report.specs = specs.size();

  for (int w = 0; w < options.workloads; ++w) {
    // Workload seeds are independent of the scheduler axis, so every
    // policy faces the identical workloads (and outage streams).
    const std::uint64_t workload_seed =
        util::derive_seed(options.seed, std::uint64_t(w));
    const auto trace = fuzz_workload(workload_seed, options.jobs,
                                     options.nodes);
    outage::OutageLog outages;
    if (options.outage_runs) {
      outages = fuzz_outages(util::derive_seed(options.seed,
                                               std::uint64_t(w) + 1000),
                             options.nodes, trace.horizon());
    }
    sim::SimulationSpec fault_plan;
    if (options.fault_runs) {
      fault_plan = fuzz_fault_plan(util::derive_seed(options.seed,
                                                     std::uint64_t(w) + 2000),
                                   options.nodes, trace.horizon());
    }

    for (const auto& spec : specs) {
      fuzz_one(spec, {}, trace, nullptr, w, workload_seed, options,
               /*stream=*/false, "materialized", report);
      if (options.outage_runs) {
        fuzz_one(spec, {}, trace, &outages, w, workload_seed, options,
                 /*stream=*/false, "outages", report);
      }
      if (options.stream_runs) {
        fuzz_one(spec, {}, trace, nullptr, w, workload_seed, options,
                 /*stream=*/true, "stream", report);
      }
      if (options.fault_runs) {
        fuzz_one(spec, fault_plan, trace, nullptr, w, workload_seed, options,
                 /*stream=*/false, "faults", report);
      }
    }
  }
  return report;
}

}  // namespace pjsb::validate
