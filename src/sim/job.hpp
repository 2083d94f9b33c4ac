// Simulation-side job state, built from SWF records.
#pragma once

#include <cstdint>
#include <vector>

#include "core/swf/record.hpp"
#include "sim/machine.hpp"

namespace pjsb::sim {

enum class JobState {
  kPending,   ///< not yet submitted
  kQueued,    ///< submitted, waiting
  kRunning,
  kFinished,
};

/// A job inside the simulator. `runtime` is the ground-truth execution
/// time (hidden from the scheduler); `estimate` is what the user/
/// scheduler sees (SWF field 9). The engine tracks lifecycle fields.
struct SimJob {
  std::int64_t id = 0;
  std::int64_t submit = 0;
  std::int64_t runtime = 1;
  std::int64_t estimate = 1;
  std::int64_t procs = 1;
  std::int64_t user_id = swf::kUnknown;
  std::int64_t executable_id = swf::kUnknown;
  std::int64_t queue_id = swf::kUnknown;
  /// Raw requested time (SWF field 9), unclamped; kUnknown when the
  /// record carries none. `estimate` above is clamped to >= runtime so
  /// schedulers never see a job outlive its estimate; walltime-overrun
  /// policies need the honest request instead.
  std::int64_t walltime = swf::kUnknown;

  // Recovery policy (engine-owned defaults; SWF has no checkpoint
  // columns, so these are copied from EngineConfig::recovery on admit).
  std::int64_t checkpoint_interval = 0;  ///< work seconds per dump (0 = off)
  std::int64_t dump_time = 0;            ///< wall cost of one dump
  std::int64_t read_time = 0;            ///< wall cost of one restore

  // Lifecycle (engine-owned).
  JobState state = JobState::kPending;
  std::int64_t start = -1;  ///< last (successful) start
  std::int64_t end = -1;    ///< completion time
  int restarts = 0;         ///< times killed by outages and requeued
  /// Checkpointed progress carried across restarts, in work seconds;
  /// the next burst computes runtime - completed_work (plus read_time).
  std::int64_t completed_work = 0;
  /// The allocation while running: ascending, maximal node runs from
  /// Machine::allocate. The engine frees them (capacity included) when
  /// the job finishes or is killed, so terminated jobs hold none.
  std::vector<NodeRun> nodes;

  /// Build from an SWF summary record. Estimates default to the runtime
  /// when the record carries none (perfect estimates).
  static SimJob from_record(const swf::JobRecord& r);

  /// Whether every burst of this job lasts at most `bound` (>= 0)
  /// seconds of wall time. With checkpoints on, the longest burst
  /// Engine::start_job can add up is the read, the whole runtime and
  /// one dump per completed interval; without, it is the runtime.
  /// Divides rather than multiplies, so no step overflows.
  bool burst_within(std::int64_t bound) const {
    const std::int64_t work = runtime > 0 ? runtime : 0;
    if (work > bound) return false;
    // Without checkpoints no work is banked, so no burst reads or dumps.
    if (checkpoint_interval <= 0) return true;
    const std::int64_t read = read_time > 0 ? read_time : 0;
    if (read > bound - work) return false;
    if (dump_time <= 0 || work <= 1) return true;
    return (work - 1) / checkpoint_interval <=
           (bound - work - read) / dump_time;
  }
};

/// The per-job outcome the metrics layer consumes.
struct CompletedJob {
  std::int64_t id = 0;
  std::int64_t submit = 0;
  std::int64_t start = 0;   ///< final successful start
  std::int64_t end = 0;
  std::int64_t runtime = 0;  ///< requested ground-truth runtime
  std::int64_t estimate = 0;
  std::int64_t procs = 0;
  std::int64_t user_id = swf::kUnknown;
  std::int64_t executable_id = swf::kUnknown;
  std::int64_t queue_id = swf::kUnknown;
  int restarts = 0;

  std::int64_t wait() const { return start - submit; }
  std::int64_t response() const { return end - submit; }
};

}  // namespace pjsb::sim
