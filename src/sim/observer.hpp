// Composable simulation observers.
//
// The engine's per-job output used to be a single completion
// std::function — one consumer, one event. SimObserver turns the
// output side of a replay into a composable interface: any number of
// observers (predictor trainers, streaming CSV dumps, online metrics)
// attach to one run and receive decision, completion, outage and
// end-of-run events. Observers are non-owning — the caller keeps them
// alive for the duration of the run — and are notified in attach
// order, deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "core/outage/record.hpp"
#include "sim/job.hpp"
#include "sim/provenance.hpp"

namespace pjsb::sim {

struct EngineStats;

/// A scheduling decision: the engine started a job.
struct Decision {
  std::int64_t time = 0;
  std::int64_t job_id = 0;
  std::int64_t procs = 0;
  /// Time-sharing start (no machine node allocation; the scheduler
  /// does its own space accounting and may revise the end time).
  bool virtual_start = false;
  /// Why the scheduler chose this job now (kUnspecified when the
  /// policy did not annotate; see SchedulerContext::annotate_start).
  /// Defaulted so the canonical (time, job, procs, virtual) tuple —
  /// and every golden decision CSV derived from it — is unchanged.
  StartProvenance provenance = StartProvenance::kUnspecified;
  /// For kReservation starts: the start time the reservation promised
  /// (equal to `time` when a promise was compressed to "now").
  /// -1 when not applicable.
  std::int64_t reserved_start = -1;
};

/// Outage lifecycle stage an on_outage notification reports.
enum class OutagePhase { kAnnounced, kStarted, kEnded };

/// Why a running job was killed.
enum class KillReason {
  kOutage,    ///< a node failure / outage took its allocation down
  kPreempt,   ///< the scheduler or meta layer killed it explicitly
  kWalltime,  ///< walltime-overrun policy terminated it at its deadline
};

/// Accounting attached to an on_job_kill notification.
struct KillInfo {
  KillReason reason = KillReason::kOutage;
  /// Node-seconds irrecoverably lost by this kill (elapsed minus the
  /// checkpointed portion, times procs).
  std::int64_t lost_node_seconds = 0;
  /// Work seconds preserved by checkpoints completed during this burst
  /// (0 without checkpointing).
  std::int64_t saved_work = 0;
  /// Kill count for this job including this one (== job.restarts).
  int attempt = 0;
  /// False when the job will not be resubmitted (dropped).
  bool will_requeue = true;
  /// When the resubmission lands (== time without backoff); -1 when
  /// will_requeue is false.
  std::int64_t requeue_at = -1;
};

/// Why a job was abandoned without completing.
enum class DropReason {
  kRetryLimit,       ///< killed retry_limit times, gave up
  kWalltimeOverrun,  ///< overrun=kill/grace deadline expired
  kCancelled,        ///< explicit Engine::cancel_job (user request)
};

/// Machine/queue accounting at the end of one event timestamp, after
/// every event at that time was processed and the scheduler pass ran.
/// This is the engine's per-event node accounting made observable, so
/// external validators can cross-check their own bookkeeping against
/// the machine's without reaching into the engine.
struct StepSnapshot {
  std::int64_t time = 0;
  std::int64_t free_nodes = 0;
  std::int64_t busy_nodes = 0;
  std::int64_t down_nodes = 0;
  std::size_t queued_jobs = 0;
  std::size_t running_jobs = 0;

  std::int64_t total_nodes() const {
    return free_nodes + busy_nodes + down_nodes;
  }
  std::int64_t up_nodes() const { return free_nodes + busy_nodes; }
};

/// Observer interface. Handlers default to no-ops so consumers
/// implement only what they need. `on_end` fires once per replay(),
/// after the run drains (engines driven incrementally via step()/
/// run_until() fire it only through Engine::notify_run_end).
///
/// Job references passed to on_job_submit / on_job_kill point into
/// engine-owned state and are valid only for the duration of the call;
/// handlers must not mutate the engine (submit_job etc.) from inside a
/// notification.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_job_complete(const CompletedJob& job);
  virtual void on_decision(const Decision& decision);
  virtual void on_outage(const outage::OutageRecord& rec, OutagePhase phase);
  virtual void on_end(const EngineStats& stats);

  /// A job entered the queue at `time` — a fresh submission or a
  /// requeue after a failure-induced kill (job.restarts > 0 tells the
  /// two apart).
  virtual void on_job_submit(std::int64_t time, const SimJob& job);
  /// A running job was killed at `time`. `info` carries the reason and
  /// the lost/saved work split; when info.will_requeue an on_job_submit
  /// for the same id follows (at info.requeue_at), otherwise an
  /// on_job_drop fires immediately after.
  virtual void on_job_kill(std::int64_t time, const SimJob& job,
                           const KillInfo& info);
  /// A job started a burst that resumes from a checkpoint: resumed_work
  /// seconds of its runtime are already banked and the burst begins
  /// with a read_time restore. Fires right after the on_decision for
  /// the same start.
  virtual void on_job_restore(std::int64_t time, const SimJob& job,
                              std::int64_t resumed_work);
  /// A job was abandoned at `time` without completing; it will never
  /// produce an on_job_complete.
  virtual void on_job_drop(std::int64_t time, const SimJob& job,
                           DropReason reason);
  /// End of one event timestamp: all events at snapshot.time were
  /// processed and the scheduler made its decisions.
  virtual void on_step(const StepSnapshot& snapshot);
};

/// Fan-out: forwards every event to each added observer, in add order.
class ObserverList final : public SimObserver {
 public:
  ObserverList& add(SimObserver& observer);
  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }

  void on_job_complete(const CompletedJob& job) override;
  void on_decision(const Decision& decision) override;
  void on_outage(const outage::OutageRecord& rec,
                 OutagePhase phase) override;
  void on_end(const EngineStats& stats) override;
  void on_job_submit(std::int64_t time, const SimJob& job) override;
  void on_job_kill(std::int64_t time, const SimJob& job,
                   const KillInfo& info) override;
  void on_job_restore(std::int64_t time, const SimJob& job,
                      std::int64_t resumed_work) override;
  void on_job_drop(std::int64_t time, const SimJob& job,
                   DropReason reason) override;
  void on_step(const StepSnapshot& snapshot) override;

 private:
  std::vector<SimObserver*> observers_;
};

/// Adapter for callers that just want lambdas: any unset function is a
/// no-op. Attach it with Engine::add_observer or ReplayHooks::observe.
class FunctionObserver final : public SimObserver {
 public:
  std::function<void(const CompletedJob&)> job_complete;
  std::function<void(const Decision&)> decision;
  std::function<void(const outage::OutageRecord&, OutagePhase)> outage;
  std::function<void(const EngineStats&)> end;
  std::function<void(std::int64_t, const SimJob&)> job_submit;
  std::function<void(std::int64_t, const SimJob&, const KillInfo&)> job_kill;
  std::function<void(std::int64_t, const SimJob&, std::int64_t)> job_restore;
  std::function<void(std::int64_t, const SimJob&, DropReason)> job_drop;
  std::function<void(const StepSnapshot&)> step;

  void on_job_complete(const CompletedJob& job) override;
  void on_decision(const Decision& decision) override;
  void on_outage(const outage::OutageRecord& rec,
                 OutagePhase phase) override;
  void on_end(const EngineStats& stats) override;
  void on_job_submit(std::int64_t time, const SimJob& job) override;
  void on_job_kill(std::int64_t time, const SimJob& job,
                   const KillInfo& info) override;
  void on_job_restore(std::int64_t time, const SimJob& job,
                      std::int64_t resumed_work) override;
  void on_job_drop(std::int64_t time, const SimJob& job,
                   DropReason reason) override;
  void on_step(const StepSnapshot& snapshot) override;
};

/// Streaming per-job CSV dump ("id,submit,start,end,procs,restarts"),
/// written in completion order as jobs finish — constant memory, for
/// runs too large to retain per-job records. Completion order is
/// deterministic for a given spec, so the output is byte-comparable
/// across runs.
class CompletionCsvObserver final : public SimObserver {
 public:
  /// Writes the header line immediately unless `header` is false.
  explicit CompletionCsvObserver(std::ostream& os, bool header = true);

  void on_job_complete(const CompletedJob& job) override;

 private:
  std::ostream& os_;
};

}  // namespace pjsb::sim
