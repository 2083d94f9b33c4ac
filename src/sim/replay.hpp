// One-call trace replay: the convenience layer every experiment uses.
//
// Wraps Engine construction, trace loading, optional outage streams and
// the open-loop / closed-loop switch (section 2.2: "accounting logs do
// not include explicit information about feedback, so this effect is
// lost when a log is replayed" — unless fields 17/18 are present and
// closed_loop is set).
//
// Configuration is one sim::SimulationSpec (spec.hpp) for both the
// materialized-trace and the streaming JobSource paths; runtime-only
// attachments (an outage log, observers) ride in ReplayHooks.
#pragma once

#include <memory>
#include <string>

#include "core/outage/record.hpp"
#include "core/swf/reader.hpp"
#include "core/swf/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/spec.hpp"

namespace pjsb::sim {

/// Machine size used when neither the caller nor the trace's MaxNodes
/// header specifies one.
inline constexpr std::int64_t kDefaultNodes = 128;

/// The EngineConfig a spec resolves to for a workload whose header
/// advertises `header_nodes` — the exact mapping replay() itself uses,
/// exposed for drivers that construct an Engine by hand (snapshot
/// tooling, incremental meta-layer runs) and must match replay
/// semantics.
EngineConfig spec_engine_config(const SimulationSpec& spec,
                                std::int64_t header_nodes);

/// Open a trace file as a streaming source (swf::TraceReader). Never
/// throws; check open_failed()/error_count().
std::unique_ptr<swf::TraceReader> open_trace_source(
    const std::string& path, const SimulationSpec& spec);

/// Load a whole trace file (swf::read_swf_file), parsed on
/// spec.threads workers; the records are the same at any count.
swf::ReadResult load_trace(const std::string& path,
                           const SimulationSpec& spec);

/// Runtime attachments for one replay that cannot round-trip through a
/// spec string: an outage stream and the observers receiving events.
/// Everything is non-owning; keep it alive for the run.
struct ReplayHooks {
  const outage::OutageLog* outages = nullptr;
  std::vector<SimObserver*> observers;

  ReplayHooks& with_outages(const outage::OutageLog& log) {
    outages = &log;
    return *this;
  }
  ReplayHooks& observe(SimObserver& observer) {
    observers.push_back(&observer);
    return *this;
  }
};

struct ReplayResult {
  std::vector<CompletedJob> completed;
  EngineStats stats;
  std::int64_t nodes = 0;
  /// Records pulled from the source (a trace's records) / submit-clamped.
  std::uint64_t source_pulled = 0;
  std::uint64_t source_clamped = 0;
};

/// Replay `trace` under `spec` (the scheduler is built from
/// spec.scheduler via the registry). Throws std::invalid_argument on
/// an invalid spec or a nonzero spec.max_jobs (a streaming-only brake).
ReplayResult replay(const swf::Trace& trace, const SimulationSpec& spec,
                    const ReplayHooks& hooks = {});

/// Replay a pull-based job source under `spec` in bounded memory;
/// drains (up to spec.max_jobs of) the source.
ReplayResult replay(swf::JobSource& source, const SimulationSpec& spec,
                    const ReplayHooks& hooks = {});

/// Programmatic-scheduler overloads: the caller supplies the instance
/// (consumed); spec.scheduler is ignored.
ReplayResult replay(const swf::Trace& trace,
                    std::unique_ptr<sched::Scheduler> scheduler,
                    const SimulationSpec& spec,
                    const ReplayHooks& hooks = {});
ReplayResult replay(swf::JobSource& source,
                    std::unique_ptr<sched::Scheduler> scheduler,
                    const SimulationSpec& spec,
                    const ReplayHooks& hooks = {});

}  // namespace pjsb::sim
