// Structured JSONL event traces with decision provenance.
//
// One self-describing line per simulation event — submit, start (with
// the scheduler-supplied provenance annotation), blocked-job
// prediction, completion, kill, outage phase, run end — preceded by a
// versioned header record. The schema (see README "Observability") is
// deliberately flat: integer fields, one object per line, no nesting,
// so a trace greps well, diffs byte-stably across runs, and parses
// with nothing fancier than obs/trace_read.hpp or a five-line Python
// loop. Times are simulated seconds on the workload's clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/observer.hpp"

namespace pjsb::sched {
class Scheduler;
}

namespace pjsb::obs {

/// Trace schema version, recorded in the header line. Bump when a
/// field changes meaning; adding fields is backward compatible
/// (readers ignore unknown keys).
///
/// v2: fault/recovery events. Outage-caused kills are `crash` records
/// (with lost/saved node-second accounting and the attempt number),
/// requeues after a kill are `resubmit` records (not bare submits),
/// checkpoint resumes are `restore` records, abandoned jobs are `drop`
/// records, and `kill` (now preempt/walltime only) and `run_end` carry
/// a reason / drop counter respectively.
inline constexpr int kTraceSchemaVersion = 2;

struct TraceWriterOptions {
  /// Registry spec of the scheduler driving the run (header metadata).
  std::string scheduler;
  /// Machine size (header metadata; 0 = unknown).
  std::int64_t nodes = 0;
};

/// SimObserver writing the JSONL trace to a caller-owned stream. The
/// stream must outlive the run; the writer never seeks, so any
/// ostream (file, pipe, string) works. Memory is O(queue depth): the
/// only retained state is submit times of still-queued jobs.
class JsonlTraceWriter final : public sim::SimObserver {
 public:
  explicit JsonlTraceWriter(std::ostream& os,
                            const TraceWriterOptions& options = {});

  /// Watch the scheduler driving the run: enables a "blocked" record
  /// for every job still queued after the scheduler pass of its
  /// submission step, carrying the scheduler's predicted start
  /// (predict-incapable schedulers emit nothing). The poll is once per
  /// job per submission — O(1) amortized. Call before the run starts.
  void watch(const sched::Scheduler& scheduler) { scheduler_ = &scheduler; }

  std::uint64_t lines_written() const { return lines_; }

  void on_job_submit(std::int64_t time, const sim::SimJob& job) override;
  void on_decision(const sim::Decision& decision) override;
  void on_job_complete(const sim::CompletedJob& job) override;
  void on_job_kill(std::int64_t time, const sim::SimJob& job,
                   const sim::KillInfo& info) override;
  void on_job_restore(std::int64_t time, const sim::SimJob& job,
                      std::int64_t resumed_work) override;
  void on_job_drop(std::int64_t time, const sim::SimJob& job,
                   sim::DropReason reason) override;
  void on_outage(const outage::OutageRecord& rec,
                 sim::OutagePhase phase) override;
  void on_step(const sim::StepSnapshot& snapshot) override;
  void on_end(const sim::EngineStats& stats) override;

 private:
  struct PendingJob {
    std::int64_t id = 0;
    std::int64_t procs = 0;
    std::int64_t estimate = 0;
  };

  void write_header();

  std::ostream& os_;
  TraceWriterOptions options_;
  const sched::Scheduler* scheduler_ = nullptr;
  /// id -> last queue-entry time, for wait stamps on start records.
  std::unordered_map<std::int64_t, std::int64_t> submit_time_;
  /// Jobs submitted during the current step, polled once for a
  /// blocked record after the scheduler pass.
  std::vector<PendingJob> pending_blocked_;
  std::uint64_t lines_ = 0;
};

}  // namespace pjsb::obs
