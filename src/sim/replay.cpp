#include "sim/replay.hpp"

#include <stdexcept>

#include "obs/sinks.hpp"
#include "sched/registry.hpp"

namespace pjsb::sim {

EngineConfig spec_engine_config(const SimulationSpec& spec,
                                std::int64_t header_nodes) {
  EngineConfig config;
  config.nodes = spec.nodes.value_or(header_nodes);
  config.closed_loop = spec.closed_loop;
  config.deliver_announcements = spec.deliver_announcements;
  config.retain_completed = spec.retain_completed;
  config.recycle_slots = spec.recycle_slots;
  config.recovery = spec.recovery_config();
  return config;
}

std::unique_ptr<swf::TraceReader> open_trace_source(
    const std::string& path, const SimulationSpec& /*spec*/) {
  // Windows parse inline; spec.threads only speeds up whole-trace loads.
  return std::make_unique<swf::TraceReader>(path);
}

swf::ReadResult load_trace(const std::string& path,
                           const SimulationSpec& spec) {
  swf::ReaderOptions options;
  options.threads = spec.threads;
  return swf::read_swf_file(path, options);
}

namespace {

/// The run both replay overloads share, on a validated spec: build the
/// engine, attach the hooks and the spec's sinks, let `admit` give it
/// its workload, run it dry and collect the result.
template <typename Admit>
ReplayResult run_replay(std::unique_ptr<sched::Scheduler> scheduler,
                        const SimulationSpec& spec, std::int64_t header_nodes,
                        const ReplayHooks& hooks, Admit&& admit) {
  const auto config = spec_engine_config(spec, header_nodes);

  // Observability sinks named in the spec (no-op bundle when none):
  // open files before the run so a bad path fails fast.
  obs::SinkSet sinks;
  sinks.open(spec);

  Engine engine(config, std::move(scheduler));
  if (hooks.outages) engine.add_outages(*hooks.outages);
  for (SimObserver* observer : hooks.observers) {
    engine.add_observer(*observer);
  }
  sinks.attach(engine);
  admit(engine);
  engine.run();
  engine.notify_run_end();
  sinks.finish();

  ReplayResult result;
  result.stats = engine.stats();
  result.nodes = config.nodes;
  result.source_pulled = engine.source_pulled();
  result.source_clamped = engine.source_clamped();
  result.completed = std::move(engine).completed();
  return result;
}

}  // namespace

ReplayResult replay(const swf::Trace& trace,
                    std::unique_ptr<sched::Scheduler> scheduler,
                    const SimulationSpec& spec, const ReplayHooks& hooks) {
  // The caller built the scheduler instance; spec.scheduler is a free
  // label here, so skip its registry resolution (the spec-only
  // overloads resolve it when they instantiate).
  spec.validate(/*resolve_scheduler=*/false);
  if (spec.max_jobs != 0) {
    throw std::invalid_argument(
        "replay: max_jobs is a streaming-source brake; a materialized "
        "trace replays whole");
  }
  return run_replay(
      std::move(scheduler), spec,
      trace.header.max_nodes.value_or(kDefaultNodes), hooks,
      [&](Engine& engine) {
        // The seeded crash schedule rides the outage delivery
        // mechanism; it is a pure function of (seed, horizon, nodes),
        // so the same spec reproduces the same failures regardless of
        // who replays it.
        if (spec.faults != 0) {
          engine.add_outages(fault::generate_crashes(
              spec.fault_model(), trace.horizon(),
              engine.machine().total_nodes()));
        }
        engine.load_trace(trace);
      });
}

ReplayResult replay(swf::JobSource& source,
                    std::unique_ptr<sched::Scheduler> scheduler,
                    const SimulationSpec& spec, const ReplayHooks& hooks) {
  spec.validate(/*resolve_scheduler=*/false);
  if (spec.faults != 0) {
    throw std::invalid_argument(
        "replay: fault injection needs the workload horizon up front; "
        "faults= is not available on streaming sources");
  }
  return run_replay(std::move(scheduler), spec,
                    source.header().max_nodes.value_or(kDefaultNodes), hooks,
                    [&](Engine& engine) {
                      JobSourceOptions options;
                      options.lookahead = spec.lookahead;
                      options.max_jobs = spec.max_jobs;
                      engine.set_job_source(source, options);
                    });
}

ReplayResult replay(const swf::Trace& trace, const SimulationSpec& spec,
                    const ReplayHooks& hooks) {
  // The scheduler-instance overload validates the spec.
  return replay(trace, sched::make_scheduler(spec.scheduler), spec, hooks);
}

ReplayResult replay(swf::JobSource& source, const SimulationSpec& spec,
                    const ReplayHooks& hooks) {
  return replay(source, sched::make_scheduler(spec.scheduler), spec, hooks);
}

}  // namespace pjsb::sim
