// SimulationSpec: the one configuration record a replay needs.
//
// One declarative spec for both replay paths — machine size, loop
// mode, scheduler spec
// string, ingestion-window and memory knobs — that round-trips through
// a key=value string (util/keyval.hpp grammar):
//
//   scheduler='easy reserve_depth=2' nodes=256 closed_loop=1
//   scheduler=conservative lookahead=8192 max_jobs=100000 recycle_slots=1
//
// Experiment campaign cells, swf_tool, and the tests all speak this
// grammar, so a cell's exact engine configuration can be logged,
// diffed, and replayed byte-identically from its own to_string().
//
// Runtime-only attachments that cannot live in a string — an outage
// log, observers — ride in ReplayHooks (replay.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"

namespace pjsb::sim {

struct SimulationSpec {
  /// Scheduler spec string for sched::Registry ("easy",
  /// "gang slots=8", "conservative reserve_depth=4", ...).
  std::string scheduler = "fcfs";
  /// Machine size; nullopt defers to the trace/source MaxNodes header
  /// (128 when the header carries none) — spelled `nodes=auto`.
  std::optional<std::int64_t> nodes;
  /// Honor fields 17/18 as submission dependencies.
  bool closed_loop = false;
  /// Deliver outage announcements (outage-aware mode).
  bool deliver_announcements = true;
  /// Streaming ingestion window: records pulled ahead of the clock.
  std::size_t lookahead = 4096;
  /// Parser worker threads for whole-trace loads (sim::load_trace). It
  /// has no effect on streaming sources: their windows are below the
  /// parallel chunk floor and parse inline. Records are the same at
  /// any count.
  int threads = 1;
  /// Stop pulling after this many records (0 = drain the source) —
  /// the brake for unbounded generator streams. Streaming replays
  /// only; replay(trace, ...) rejects a nonzero value.
  std::uint64_t max_jobs = 0;
  /// Keep per-job records in ReplayResult::completed. Turn off together
  /// with recycle_slots for O(running+queued+lookahead) memory.
  bool retain_completed = true;
  bool recycle_slots = false;

  // Observability sinks (src/obs/). All opt-in; empty paths mean the
  // replay runs with zero instrumentation attached.
  /// Write a JSONL event trace (schema in README "Observability").
  std::string trace;
  /// Write a sim-time time-series CSV (machine/queue state + backfill
  /// rate, sampled every `sample_every` sim-seconds).
  std::string timeseries;
  /// Time-series cadence in sim-seconds; 0 = default (60). Setting it
  /// without `timeseries=` is rejected.
  std::int64_t sample_every = 0;
  /// Write a Chrome trace-event JSON profile of engine phases
  /// (opens in Perfetto).
  std::string profile;

  // Fault injection & recovery (src/sim/fault/). `faults` seeds the
  // per-node crash schedule; 0 disables injection entirely. The crash
  // schedule needs a horizon up front, so faults are rejected on
  // streaming (JobSource) replays, like outage logs in campaigns.
  std::uint64_t faults = 0;      ///< crash-schedule seed (0 = off)
  std::int64_t mtbf = 7 * 86400;  ///< per-node MTBF, seconds
  std::int64_t repair = 4 * 3600; ///< mean repair duration, seconds
  /// Checkpoint interval in work seconds (0 = restart from scratch).
  std::int64_t checkpoint = 0;
  std::int64_t dump = 0;  ///< wall cost of one checkpoint dump
  std::int64_t read = 0;  ///< wall cost of one checkpoint restore
  /// Kills after which a job is dropped (0 = retry forever).
  int retry_limit = 0;
  /// Seconds between a kill and the resubmission (0 = immediate).
  std::int64_t backoff = 0;
  fault::OverrunPolicy overrun = fault::OverrunPolicy::kExtend;
  std::int64_t grace = 0;  ///< extra wall seconds under overrun=grace

  // Builder-style chainers, so call sites read declaratively:
  //   SimulationSpec{}.with_scheduler("easy").closed().with_nodes(256)
  SimulationSpec& with_scheduler(std::string spec);
  SimulationSpec& with_nodes(std::int64_t n);
  SimulationSpec& closed(bool on = true);
  SimulationSpec& with_lookahead(std::size_t n);
  SimulationSpec& with_max_jobs(std::uint64_t n);
  /// Sets threads = n_threads. There is one parser; `backend` must
  /// still name one of the former backends ("stream" or "fast").
  SimulationSpec& with_parser(const std::string& backend, int n_threads = 1);
  SimulationSpec& streaming_memory(bool on = true);  ///< retain off + recycle
  SimulationSpec& with_trace(std::string path);
  SimulationSpec& with_timeseries(std::string path,
                                  std::int64_t every = 0);
  SimulationSpec& with_profile(std::string path);

  /// The fault model this spec describes (enabled() false when
  /// faults == 0).
  fault::FaultModel fault_model() const;
  /// The engine recovery policy this spec describes.
  fault::RecoveryConfig recovery_config() const;

  /// Reject nonsense: empty or unresolvable scheduler spec, nodes out
  /// of [1, kMaxSpecNodes], zero lookahead, or retain_completed=false
  /// without recycle_slots (per-job records dropped while slots still
  /// accumulate — all of the memory cost for none of the output).
  /// Throws std::invalid_argument. `resolve_scheduler=false` skips the
  /// registry lookup — the replay overloads that take a caller-built
  /// scheduler instance use it, so `scheduler` may carry any label
  /// (e.g. a custom policy's name) for logging purposes.
  void validate(bool resolve_scheduler = true) const;

  /// Round-trippable form: `scheduler=<quoted>` plus every field that
  /// differs from its default, in declaration order. parse(to_string())
  /// reproduces the spec exactly.
  std::string to_string() const;

  /// Parse a spec string (all key=value; see to_string). Unknown keys,
  /// repeated keys and malformed values throw std::invalid_argument
  /// naming the valid keys. The result is validated.
  static SimulationSpec parse(const std::string& text);

  /// True when parse() takes `key`.
  static bool is_key(std::string_view key);
};

}  // namespace pjsb::sim
