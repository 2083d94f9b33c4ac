#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/outage/generate.hpp"
#include "core/swf/reader.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "validate/invariants.hpp"
#include "workload/scale.hpp"
#include "workload/stream.hpp"

namespace pjsb::exp {

namespace {

/// Resolve the simulated machine size for one workload: an explicit
/// spec.nodes wins; auto (0) defers to the trace's MaxNodes header or
/// the model-config default, matching sim::replay's behavior.
std::int64_t effective_nodes(const CampaignSpec& spec,
                             const WorkloadSpec& wspec,
                             const swf::TraceHeader* header) {
  if (spec.nodes > 0) return spec.nodes;
  if (!wspec.model && header) {
    return header->max_nodes.value_or(sim::kDefaultNodes);
  }
  return workload::ModelConfig{}.machine_nodes;
}

std::size_t count_summary_jobs(const swf::Trace& trace) {
  return std::size_t(std::count_if(
      trace.records.begin(), trace.records.end(),
      [](const swf::JobRecord& r) { return r.is_summary(); }));
}

/// Deterministic per-cell trace path: keyed by the cell's linear index
/// only, so the file set is identical at any thread count (the
/// trace-determinism test diffs these byte-for-byte across runs).
std::string cell_trace_path(const CampaignSpec& spec, const CellSpec& cell) {
  return spec.telemetry_dir + "/cell_" + std::to_string(cell.index) +
         ".trace.jsonl";
}

/// Replay one cell's workload, a materialized trace or a streaming
/// JobSource, under its spec (machine size resolved). The scheduler is
/// built here so the telemetry observer and, on `validate=1` cells, the
/// invariant checker can watch it; a dirty run fails the campaign with
/// the first violations spelled out (a report whose cells broke the
/// simulation's ground rules is worse than no report).
template <typename Workload>
sim::ReplayResult replay_cell(Workload& workload,
                              const sim::SimulationSpec& sim_spec,
                              const ConfigSpec& cspec, sim::ReplayHooks hooks,
                              obs::TelemetryRegistry* telemetry) {
  auto scheduler = sched::make_scheduler(sim_spec.scheduler);
  std::optional<obs::TelemetryObserver> telemetry_observer;
  if (telemetry) {
    telemetry_observer.emplace(*telemetry);
    telemetry_observer->watch(*scheduler);
    hooks.observe(*telemetry_observer);
  }
  std::optional<validate::InvariantChecker> checker;
  if (cspec.validate) {
    validate::CheckerOptions options;
    options.nodes = *sim_spec.nodes;
    options.scheduler = sim_spec.scheduler;
    // Crashes ride the outage mechanism, so they slip promises the
    // same way scheduled outages do.
    options.outages = cspec.outages || sim_spec.faults != 0;
    checker.emplace(options);
    checker->watch(*scheduler);
    hooks.observe(*checker);
  }
  auto result = sim::replay(workload, std::move(scheduler), sim_spec, hooks);
  if (checker && !checker->clean()) {
    throw std::runtime_error("campaign: invariant violations under '" +
                             sim_spec.scheduler + "': " + checker->summary());
  }
  return result;
}

/// Run one streaming cell: build the per-cell JobSource (TraceReader
/// for trace files, ModelJobSource for models) and replay it through
/// the bounded-memory engine path. Per-job completion records are kept
/// for exact metric aggregation. Open-loop streamed cells make the
/// same decisions as a materialized run of the same workload;
/// closed-loop cells resolve fields 17/18 within the lookahead window
/// and can diverge from a materialized run when a dependent is pulled
/// after its predecessor terminated (see README, "closed-loop caveat")
/// — raise `lookahead` to cover the trace's dependency spans when
/// comparing stream=0 against stream=1 cells.
sim::ReplayResult run_stream_cell(const CampaignSpec& spec,
                                  const CellSpec& cell,
                                  const WorkloadSpec& wspec,
                                  const ConfigSpec& cspec,
                                  sim::SimulationSpec sim_spec,
                                  obs::TelemetryRegistry* telemetry) {
  sim_spec.lookahead = wspec.lookahead;
  sim_spec.recycle_slots = true;
  if (wspec.model) {
    sim_spec.nodes = effective_nodes(spec, wspec, nullptr);
    workload::GeneratorSpec gen;
    gen.kind = *wspec.model;
    gen.config.jobs = wspec.jobs;
    gen.config.machine_nodes = *sim_spec.nodes;
    gen.seed = cell.seed;
    gen.max_jobs = wspec.jobs;
    workload::ModelJobSource source(gen);
    return replay_cell(source, sim_spec, cspec, {}, telemetry);
  }

  swf::TraceReader source(wspec.trace_path);
  if (source.open_failed()) {
    throw std::runtime_error("campaign: cannot open trace '" +
                             wspec.trace_path + "'");
  }
  sim_spec.nodes = effective_nodes(spec, wspec, &source.header());
  auto result = replay_cell(source, sim_spec, cspec, {}, telemetry);
  // Malformed lines are fatal, exactly like the preload path: a report
  // over a silently shrunken workload is worse than failing.
  if (source.error_count() > 0 || result.source_pulled == 0) {
    std::string detail = source.error_count() > 0
                             ? std::to_string(source.error_count()) +
                                   " malformed line(s)"
                             : "no job records";
    if (!source.errors().empty()) {
      detail += "; line " + std::to_string(source.errors().front().line) +
                ": " + source.errors().front().message;
    }
    throw std::runtime_error("campaign: trace '" + wspec.trace_path +
                             "': " + detail);
  }
  return result;
}

/// Load the trace-file workloads once, up front, applying any load
/// rescaling here (it is deterministic, so the result is shared by all
/// cells); model and streamed workloads get an empty placeholder so
/// the vector stays index-aligned.
std::vector<PreloadedWorkload> preload_traces(const CampaignSpec& spec) {
  std::vector<PreloadedWorkload> traces(spec.workloads.size());
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& w = spec.workloads[i];
    if (w.model || w.stream) continue;
    swf::ReaderOptions options;
    options.threads = w.threads;
    auto result = swf::read_swf_file(w.trace_path, options);
    // Malformed lines are fatal (matching swf_tool): an experiment on a
    // silently shrunken workload would misreport every metric.
    if (!result.ok()) {
      std::string detail;
      const std::size_t shown = std::min<std::size_t>(result.errors.size(), 5);
      for (std::size_t e = 0; e < shown; ++e) {
        if (e) detail += "; ";
        detail += "line " + std::to_string(result.errors[e].line) + ": " +
                  result.errors[e].message;
      }
      if (result.errors.size() > shown) {
        detail += "; ... (" + std::to_string(result.errors.size() - shown) +
                  " more)";
      }
      throw std::runtime_error("campaign: cannot load trace '" +
                               w.trace_path + "': " + detail);
    }
    if (result.trace.records.empty()) {
      // An empty or header-only file parses "cleanly" but would fill
      // the reports with all-zero rows.
      throw std::runtime_error("campaign: trace '" + w.trace_path +
                               "' contains no job records");
    }
    traces[i].trace = std::move(result.trace);
    if (w.load > 0.0) {
      const auto nodes = effective_nodes(spec, w, &traces[i].trace.header);
      // scale_to_load silently returns degenerate traces unchanged; a
      // report claiming a load the run never had would be worse than
      // failing here.
      if (workload::offered_load(traces[i].trace, nodes) <= 0.0) {
        throw std::runtime_error(
            "campaign: trace '" + w.trace_path +
            "' has degenerate offered load and cannot be rescaled");
      }
      traces[i].trace =
          workload::scale_to_load(traces[i].trace, w.load, nodes);
    }
    traces[i].summary_jobs = count_summary_jobs(traces[i].trace);
  }
  return traces;
}

}  // namespace

CellResult run_cell(const CampaignSpec& spec, const CellSpec& cell,
                    const std::vector<PreloadedWorkload>& preloaded) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& wspec = spec.workloads.at(cell.workload);
  const auto& cspec = spec.configs.at(cell.config);
  // One registry per cell: summaries must not bleed across cells, and
  // a per-cell instance keeps the increments contention-free.
  obs::TelemetryRegistry telemetry;
  obs::TelemetryRegistry* const telemetry_sink =
      spec.telemetry_dir.empty() ? nullptr : &telemetry;
  // The cell's spec is its config's plus what the campaign owns: the
  // scheduler, the machine size, the fault seed and the trace sink.
  sim::SimulationSpec sim_spec = cspec.sim;
  sim_spec.scheduler = spec.schedulers.at(cell.scheduler);
  if (telemetry_sink) sim_spec.trace = cell_trace_path(spec, cell);

  sim::ReplayResult replay_result;
  std::size_t workload_jobs = 0;
  if (wspec.stream) {
    replay_result =
        run_stream_cell(spec, cell, wspec, cspec, sim_spec, telemetry_sink);
    workload_jobs = std::size_t(replay_result.source_pulled);
  } else {
    // 1. Workload: regenerate (and rescale) from the cell seed, or use
    // the shared preloaded trace, which is already rescaled — no
    // per-cell copy of trace-file workloads. Cells sharing a (workload,
    // replication) seed regenerate identical synthetic traces rather
    // than sharing a cached one: generation is cheap next to
    // simulation, and this keeps worker memory bounded for large
    // campaigns.
    util::Rng rng(cell.seed);
    const auto& loaded = preloaded.at(cell.workload);
    const std::int64_t nodes =
        effective_nodes(spec, wspec, &loaded.trace.header);
    swf::Trace generated;
    const swf::Trace* trace = &loaded.trace;
    workload_jobs = loaded.summary_jobs;
    if (wspec.model) {
      workload::ModelConfig mconfig;
      mconfig.jobs = wspec.jobs;
      mconfig.machine_nodes = nodes;
      generated = workload::generate(*wspec.model, mconfig, rng);
      if (wspec.load > 0.0) {
        if (workload::offered_load(generated, nodes) <= 0.0) {
          throw std::runtime_error("campaign: workload '" + wspec.label +
                                   "' has degenerate offered load and "
                                   "cannot be rescaled");
        }
        generated = workload::scale_to_load(generated, wspec.load, nodes);
      }
      trace = &generated;
      workload_jobs = count_summary_jobs(generated);
    }

    // 2. Per-cell randomness: the crash seed and the outage stream (a
    // runtime attachment, so it rides in the hooks, not the spec). Both
    // are pure functions of the cell seed, so every scheduler/config
    // faces the same crashes and failures (common random numbers) and
    // replications sample fresh ones — at any thread count.
    sim_spec.nodes = nodes;
    if (sim_spec.faults != 0) {
      const std::uint64_t fault_seed = util::derive_seed(cell.seed, 0xFA);
      sim_spec.faults = fault_seed != 0 ? fault_seed : 1;
    }
    sim::ReplayHooks hooks;
    outage::OutageLog outages;
    if (cspec.outages) {
      outages = outage::generate_failures(outage::FailureModelParams{},
                                          trace->horizon(), nodes, rng);
      hooks.with_outages(outages);
    }

    // 3. Replay.
    replay_result = replay_cell(*trace, sim_spec, cspec, hooks, telemetry_sink);
  }

  CellResult result;
  result.cell = cell;
  result.metrics =
      metrics::compute_report(replay_result.completed, replay_result.stats);
  result.workload_jobs = workload_jobs;
  result.telemetry = telemetry.summary();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

CampaignRun run_campaign(const CampaignSpec& spec,
                         const RunnerOptions& options) {
  spec.validate();
  const auto cells = expand(spec);
  const auto traces = preload_traces(spec);

  // Cell workers open `<dir>/cell_N.trace.jsonl` with plain ofstream;
  // make the directory exist before any of them race to the first open.
  if (!spec.telemetry_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.telemetry_dir, ec);
    if (ec) {
      throw std::runtime_error("campaign: cannot create telemetry "
                               "directory '" + spec.telemetry_dir +
                               "': " + ec.message());
    }
  }

  CampaignRun run;
  run.spec = spec;
  run.cells.resize(cells.size());

  // Trace-file workloads without a generated outage or crash stream
  // never touch the cell RNG: their replications would be
  // byte-identical re-runs. Simulate replication 0 only and materialize
  // the copies afterwards.
  const auto seed_independent = [&](const CellSpec& cell) {
    return !spec.workloads[cell.workload].model &&
           !spec.configs[cell.config].outages &&
           spec.configs[cell.config].sim.faults == 0;
  };
  std::vector<std::size_t> work;
  work.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!(seed_independent(cells[i]) && cells[i].replication > 0)) {
      work.push_back(i);
    }
  }

  int threads = options.threads;
  if (threads <= 0) {
    threads = int(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = int(std::min<std::size_t>(std::size_t(threads),
                                      std::max<std::size_t>(work.size(), 1)));

  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards first_error, done, progress callback
  std::size_t done = 0;
  std::exception_ptr first_error;

  auto worker = [&]() {
    for (;;) {
      const std::size_t w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= work.size()) return;
      const std::size_t i = work[w];
      try {
        run.cells[i] = run_cell(spec, cells[i], traces);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        // Stop handing out new cells; in-flight cells still finish.
        next.store(work.size(), std::memory_order_relaxed);
        continue;
      }
      if (options.progress) {
        std::lock_guard<std::mutex> lock(mutex);
        try {
          options.progress(++done, work.size());
        } catch (...) {
          // A throwing observer must not escape a std::thread body.
          if (!first_error) first_error = std::current_exception();
          next.store(work.size(), std::memory_order_relaxed);
        }
      }
    }
  };

  if (threads == 1) {
    worker();  // run inline: simpler stacks, and what the tests exercise
  } else {
    std::vector<std::thread> pool;
    pool.reserve(std::size_t(threads));
    try {
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    } catch (...) {
      // Thread creation failed (e.g. EAGAIN): stop the queue and join
      // what spawned — destroying joinable threads would terminate().
      next.store(work.size(), std::memory_order_relaxed);
      for (auto& thread : pool) thread.join();
      throw;
    }
    for (auto& thread : pool) thread.join();
  }

  if (first_error) std::rethrow_exception(first_error);

  // Materialize the skipped deterministic replications from their
  // replication-0 sibling (replication is the innermost axis, so the
  // sibling sits `replication` slots earlier).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (seed_independent(cells[i]) && cells[i].replication > 0) {
      run.cells[i] = run.cells[i - std::size_t(cells[i].replication)];
      run.cells[i].cell = cells[i];
      run.cells[i].wall_seconds = 0.0;
    }
  }
  return run;
}

}  // namespace pjsb::exp
