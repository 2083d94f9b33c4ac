// The discrete-event simulation engine.
//
// Drives a machine + scheduler against an SWF workload, optionally with
// an outage stream (section 2.2) and closed-loop feedback dependencies
// (fields 17-18). The engine is incremental — next_event_time() /
// run_until() — so the metacomputing layer (section 4.3's WARMstones
// environment) can coordinate several site engines on a global clock.
//
// Events pop in (time, type, seq) order (sim/event_queue.hpp). Submits
// of records admitted from the job source wait in the queue's FIFO run;
// job ends, outages, reservations, closed-loop releases, backoff
// resubmits and submit_job go to its heap, which stays about as small
// as the running set. A running job holds its nodes as runs
// (SimJob::nodes), freed when it finishes or is killed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/outage/record.hpp"
#include "core/swf/job_source.hpp"
#include "core/swf/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault/fault.hpp"
#include "sim/job.hpp"
#include "sim/machine.hpp"
#include "sim/observer.hpp"
#include "sim/phase.hpp"

namespace pjsb::sim {

namespace snapshot {
class Reader;
class Writer;
}  // namespace snapshot

struct EngineConfig {
  std::int64_t nodes = 128;
  /// Deliver outage announcements to the scheduler (outage-aware mode).
  /// When false the scheduler only experiences the failures themselves.
  bool deliver_announcements = true;
  /// Respect preceding-job/think-time dependencies in the trace: a
  /// dependent job is submitted when its predecessor terminates plus
  /// think time (closed loop), instead of at its recorded submit time.
  bool closed_loop = false;
  /// Recovery policy: checkpoint/restart defaults copied onto admitted
  /// jobs, the resubmit retry limit/backoff, and the walltime-overrun
  /// rule. The default keeps historical behavior exactly (restart from
  /// scratch, retry forever, immediate requeue, never overrun-kill).
  fault::RecoveryConfig recovery;
  /// Accumulate per-job CompletedJob records in completed(). Turn off
  /// for constant-memory streaming runs and consume the completion
  /// observer instead; stats() stays exact either way.
  bool retain_completed = true;
  /// Erase a job's engine slot once it terminates (constant-memory
  /// streaming runs). All jobs then live in the hash map rather than
  /// the dense id-indexed vector, so live memory is O(running+queued)
  /// instead of O(max job id).
  bool recycle_slots = false;
};

/// How the engine pulls from an attached swf::JobSource.
struct JobSourceOptions {
  /// Records pulled ahead of the simulation clock: the engine keeps at
  /// most this many admitted-but-not-yet-submitted jobs. Bounds both
  /// memory and how far ahead closed-loop dependencies can see.
  std::size_t lookahead = 4096;
  /// Stop pulling after this many records (0 = drain the source) — the
  /// brake that makes unbounded generator streams terminate.
  std::uint64_t max_jobs = 0;
};

/// Closed loop + recycle_slots only: how many recently terminated job
/// (id, end) pairs the engine remembers so a late-pulled dependent can
/// still resolve its predecessor (fields 17/18) after the predecessor's
/// slot was recycled.
inline constexpr std::size_t kClosedLoopHistory = std::size_t(1) << 16;

/// Aggregate accounting maintained by the engine.
struct EngineStats {
  std::int64_t capacity_node_seconds = 0;  ///< up-capacity integral
  std::int64_t work_node_seconds = 0;      ///< completed useful work
  std::int64_t wasted_node_seconds = 0;    ///< work lost to kills
  /// Node-seconds preserved across kills by completed checkpoints
  /// (already excluded from wasted_node_seconds).
  std::int64_t recovered_node_seconds = 0;
  std::int64_t makespan = 0;               ///< last completion time
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_killed = 0;            ///< kill events (with requeue)
  /// Jobs abandoned without completing (retry limit, overrun kill or
  /// cancel).
  std::int64_t jobs_dropped = 0;
  std::int64_t events_processed = 0;

  /// Achieved utilization of available capacity.
  double utilization() const {
    return capacity_node_seconds > 0
               ? double(work_node_seconds) / double(capacity_node_seconds)
               : 0.0;
  }
};

class Engine final : public sched::SchedulerContext {
 public:
  Engine(const EngineConfig& config,
         std::unique_ptr<sched::Scheduler> scheduler);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Load the summary records of a trace as the job population. In
  /// closed-loop mode, dependency edges (fields 17/18) defer dependent
  /// submissions until their predecessor terminates. Implemented as an
  /// eager drain of a TraceSource through set_job_source, with the
  /// FIFO run, the completed archive and the dense slot vector's
  /// capacity sized once from the record count. Throws
  /// std::invalid_argument, naming the job, on a job number that does
  /// not ascend past every id the engine has seen, as streams do.
  void load_trace(const swf::Trace& trace);

  /// Attach a pull-based job source. The engine pulls records lazily as
  /// the clock advances, keeping at most options.lookahead jobs ahead,
  /// so source size never bounds memory. The source must stay alive
  /// until it is exhausted (or the engine is destroyed); records must
  /// arrive in ascending submit order — stragglers are clamped to now()
  /// and counted in source_clamped().
  void set_job_source(swf::JobSource& source,
                      const JobSourceOptions& options = {});

  /// Records pulled from the attached source so far.
  std::uint64_t source_pulled() const { return source_pulled_; }
  /// Source records whose submit time lay in the past when pulled.
  std::uint64_t source_clamped() const { return source_clamped_; }

  /// Register an outage stream (call before run()).
  void add_outages(const outage::OutageLog& log);

  /// Submit a single external job (used by the meta layer and the
  /// serve daemon). The job's submit time must be >= now(), and its id
  /// (0 lets the engine pick one) not one the engine holds ("job id N
  /// already exists"); returns its id.
  std::int64_t submit_job(SimJob job);

  /// Read-only job lookup by id. Nullptr when the id was never
  /// submitted (or its slot was recycled in recycle_slots mode).
  const SimJob* find_job(std::int64_t id) const;

  /// Call `visit(const SimJob&)` on every job the engine holds, in no
  /// particular order: pending, queued and running jobs, plus
  /// terminated ones whose slots were not recycled. Legal between
  /// steps; `visit` must not submit or cancel jobs.
  template <typename Visit>
  void for_each_job(Visit&& visit) const {
    for (const JobSlot& slot : jobs_dense_) {
      if (slot.job.id != 0) visit(slot.job);
    }
    for (const auto& entry : jobs_overflow_) visit(entry.second.job);
  }

  /// Cancel a job at now(), on explicit external request (the daemon's
  /// KILL verb). A queued job is dropped (DropReason::kCancelled); a
  /// running job is killed (KillReason::kPreempt) and force-dropped
  /// instead of requeued. Every policy prunes queue entries whose
  /// engine-side state left kQueued, so the cancel is followed by an
  /// immediate scheduler pass — freed capacity or an unblocked queue
  /// head is used right away, exactly as after an event timestamp.
  /// Returns false (with *why set) for unknown ids, jobs whose submit
  /// event has not fired yet (pending), and already-terminated jobs.
  /// Like step(), only legal between steps.
  bool cancel_job(std::int64_t id, std::string* why = nullptr);

  /// Request an advance reservation (forwards to the scheduler).
  /// Returns true if the scheduler accepted and the engine committed it.
  bool request_reservation(const sched::AdvanceReservation& reservation);

  // -- incremental execution --
  std::optional<std::int64_t> next_event_time() const;
  /// Process all events at the next event time. False if none remain.
  bool step();
  /// Process events with time <= t (does not advance now() past t).
  void run_until(std::int64_t t);
  /// Run to exhaustion.
  void run();

  // -- results --
  const std::vector<CompletedJob>& completed() const& { return completed_; }
  /// Move the archive out of an engine that is done with it
  /// (std::move(engine).completed()), instead of copying it.
  std::vector<CompletedJob> completed() && { return std::move(completed_); }
  EngineStats stats() const;
  const sched::Scheduler& scheduler() const { return *scheduler_; }
  sched::Scheduler& scheduler() { return *scheduler_; }
  std::size_t queued_jobs() const { return queued_count_; }
  std::size_t running_jobs() const { return running_count_; }

  /// Attach a composable observer (non-owning — the caller keeps it
  /// alive for the run). Observers receive decision / completion /
  /// outage events in attach order; see sim/observer.hpp.
  void add_observer(SimObserver& observer) { observers_.add(observer); }

  /// Fire on_end(stats()) on every attached observer. replay() calls
  /// this once after the run drains; incremental drivers (run_until)
  /// call it when they decide the run is over.
  void notify_run_end() { observers_.on_end(stats()); }

  /// Install a wall-clock phase listener (nullptr detaches). The
  /// engine times its event / scheduler-pass / observer sections only
  /// while a listener is installed; detached cost is one predictable
  /// null check per step. Non-owning, like observers.
  void set_phase_listener(PhaseListener* listener) {
    phase_listener_ = listener;
  }

  // -- snapshot / restore (src/sim/snapshot/snapshot.cpp) --

  /// Serialize the complete simulation state — clock, event queue,
  /// job slots, machine ownership, scheduler state (via
  /// Scheduler::save_state), outages, reservations, source cursor and
  /// all accounting — into the versioned binary snapshot format.
  /// Legal between steps (never from inside an event handler or
  /// observer callback). Runtime attachments (observers, phase
  /// listener, completion callback) are not serialized; re-attach them
  /// after restore().
  std::string snapshot() const;

  /// snapshot() of only what the rest of the run depends on: the state
  /// as a `retain_completed=0 recycle_slots=1` engine would hold it —
  /// that config echo, every non-terminated job in the job section, no
  /// terminated jobs and no completed archive. restore() of it is an
  /// O(live jobs) clone that decides, answers what-if queries and keeps
  /// stats() exactly like the donor, but whose find_job() no longer
  /// sees terminated jobs. Writing it never visits a terminated slot:
  /// the engine keeps its live set as jobs change state (one bit per
  /// dense slot plus the live ids of the overflow map), and the writer
  /// scans the bits a 64-bit word at a time, so it costs O(live jobs +
  /// dense slots / 64), with at most 2 x (jobs held) + kDenseGapLimit
  /// dense slots. Throws std::logic_error while a job source is
  /// attached or awaiting resume: a record pulled later may name a
  /// terminated predecessor, which only the full state answers.
  std::string live_snapshot() const;

  /// Reconstruct an engine from snapshot() bytes: the scheduler is
  /// rebuilt from its registry spec (name()), then every state section
  /// is restored, so stepping the result is byte-identical to stepping
  /// the donor — including event sequence numbers and decision traces.
  /// Throws std::runtime_error on a bad magic/version or truncated
  /// payload. If the donor had an active pull source, re-attach it via
  /// resume_job_source before running.
  static std::unique_ptr<Engine> restore(const std::string& bytes);

  /// Re-attach the job source of a snapshotted streaming run: skips
  /// the records the donor already pulled, then continues pulling on
  /// the same schedule (no eager fill — the donor refills only inside
  /// submit handling, and resume must match it event for event).
  /// No-op (after the skip) when the donor had exhausted the source.
  void resume_job_source(swf::JobSource& source);

  /// True when the snapshot this engine was restored from had an
  /// active (unexhausted) job source: running without
  /// resume_job_source would silently truncate the workload.
  bool needs_job_source() const { return source_pending_resume_; }

  // -- SchedulerContext interface --
  std::int64_t now() const override { return now_; }
  Machine& machine() override { return machine_; }
  const SimJob& job(std::int64_t id) const override;
  bool start_job(std::int64_t job_id) override;
  void start_job_virtual(std::int64_t job_id, std::int64_t end_time) override;
  void update_job_end(std::int64_t job_id, std::int64_t new_end) override;
  void kill_running_job(std::int64_t job_id) override;
  void annotate_start(StartProvenance provenance,
                      std::int64_t detail) override {
    pending_provenance_ = provenance;
    pending_reserved_start_ = detail;
  }

 private:
  /// Per-job engine state: the job plus its end-event version counter
  /// (revisable job-end events carry the version they were issued
  /// with; stale ones are ignored).
  struct JobSlot {
    SimJob job;
    std::int64_t end_version = 0;
    /// The pending end event is a walltime-overrun deadline, not a
    /// natural completion: handle_job_end kills instead of finishing.
    bool overrun_end = false;
  };

  /// Job ids index straight into the dense vector while they stay
  /// near-contiguous; obtain_slot alone decides where a new id goes
  /// (below 2 x (jobs held) + kDenseGapLimit: dense; otherwise the hash
  /// map), so a stray id cannot force a proportional allocation.
  /// find_slot checks the dense vector first and falls through to the
  /// map, so placement never changes lookup results, and snapshots do
  /// not record it.
  static constexpr std::uint64_t kDenseGapLimit = 4096;

  /// Slot lookup (nullptr if absent).
  JobSlot* find_slot(std::int64_t id);
  const JobSlot* find_slot(std::int64_t id) const;
  /// Slot lookup that throws like unordered_map::at did.
  JobSlot& slot_at(std::int64_t id);
  /// The empty slot for `id`, which the engine must not hold yet (the
  /// caller fills it in; job.id == 0 marks an empty slot): the one
  /// placement rule, for admission, submit_job and restore alike.
  JobSlot& obtain_slot(std::int64_t id);

  /// Pull from the attached source until the lookahead window is full
  /// (or the source / max_jobs budget is exhausted).
  void fill_from_source();
  /// Admit one source record: create its slot and either push its
  /// submit event or register it as a closed-loop dependent.
  void admit_record(const swf::JobRecord& record);
  /// Drop a terminated job's slot (recycle_slots mode, which keeps
  /// every job in the hash map).
  void release_slot(std::int64_t id);
  /// Live-set upkeep: the slot of `id` now holds a non-terminated job,
  /// or no longer does. A dense slot flips its bit in live_bits_; an
  /// overflow id enters or leaves live_overflow_. Under recycle_slots
  /// the overflow map is its own live set (release_slot erases every
  /// terminated job's entry), so no overflow id is kept.
  void mark_live(std::int64_t id);
  void mark_terminated(std::int64_t id);
  /// True when `id`'s slot is an occupied dense one.
  bool in_dense(std::int64_t id) const {
    return id >= 0 && std::size_t(id) < jobs_dense_.size() &&
           jobs_dense_[std::size_t(id)].job.id != 0;
  }
  /// The job section: a count, then every slot (live: every
  /// non-terminated one) in ascending id order.
  void write_jobs(snapshot::Writer& w, bool live) const;
  static void write_slot(snapshot::Writer& w, const JobSlot& slot);
  /// Remember a terminated job's end time for late closed-loop
  /// dependents (bounded by kClosedLoopHistory).
  void record_finished(std::int64_t id, std::int64_t end_time);

  void push_event(std::int64_t time, EventType type, std::int64_t id,
                  std::int64_t version = 0);
  /// The submit event of a record admitted from the source, queued on
  /// the event queue's FIFO run of arrivals.
  void push_arrival(std::int64_t time, std::int64_t id);
  void process(const Event& ev);
  void handle_submit(const Event& ev);
  void handle_job_end(const Event& ev);
  void handle_outage_start(std::size_t idx);
  void handle_outage_end(std::size_t idx);
  void handle_reservation_start(std::int64_t res_id);
  void finish_job(SimJob& j);
  /// Return a terminating job's node runs to the machine and free them.
  void release_nodes(SimJob& j);
  /// `force_drop` (cancel path): skip the requeue policy entirely and
  /// drop with DropReason::kCancelled.
  void kill_job(JobSlot& slot, KillReason reason, bool force_drop = false);
  /// Terminate a job without completion: mark finished, notify
  /// on_job_drop, and doom its closed-loop dependents transitively.
  /// `defer_release` keeps the slot alive in recycle_slots mode so the
  /// caller can run a scheduler pass (which reads the slot while
  /// pruning) before releasing it.
  void drop_job(JobSlot& slot, DropReason reason,
                bool defer_release = false);
  /// Copy EngineConfig::recovery checkpoint defaults onto a job that
  /// carries none of its own.
  void apply_recovery_defaults(SimJob& j) const;
  void account_capacity_to(std::int64_t t);
  /// snapshot() (live == false) and live_snapshot() (live == true).
  std::string write_snapshot(bool live) const;
  /// Restore every state section from a positioned snapshot reader
  /// (the header was already consumed by restore()).
  void load_snapshot(snapshot::Reader& r);

  EngineConfig config_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  Machine machine_;

  std::int64_t now_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t next_job_id_ = 1;
  std::int64_t next_reservation_id_ = 1;
  /// Source arrivals in a FIFO run, every other event in a heap.
  EventQueue events_;

  /// Dense job storage indexed directly by job id (SWF job numbers are
  /// small and near-contiguous), with a hash-map overflow for the ids
  /// obtain_slot routes past it. Scheduler callbacks hit job() on every
  /// queue entry per event, so lookups must not hash. load_trace
  /// reserves its capacity: growing it by doubling copied every slot
  /// again and churned page faults.
  std::vector<JobSlot> jobs_dense_;
  std::unordered_map<std::int64_t, JobSlot> jobs_overflow_;
  /// Occupied dense slots; with the map's size, the jobs held.
  std::uint64_t dense_held_ = 0;
  /// The live set. Bit i & 63 of word i >> 6 is set iff dense slot i
  /// holds a non-terminated (pending, queued or running) job; one word
  /// per 64 dense slots.
  std::vector<std::uint64_t> live_bits_;
  /// Overflow ids of non-terminated jobs, in id order (empty under
  /// recycle_slots; see mark_live). Sparse caller-chosen ids land here,
  /// so live_snapshot() never walks the overflow map's terminated jobs.
  std::set<std::int64_t> live_overflow_;
  /// Dependents per predecessor job id (closed loop): (job, think).
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                         std::int64_t>>>
      dependents_;
  std::vector<outage::OutageRecord> outages_;
  std::map<std::int64_t, sched::AdvanceReservation> reservations_;
  std::vector<CompletedJob> completed_;
  ObserverList observers_;
  PhaseListener* phase_listener_ = nullptr;
  /// One-shot start annotation (see SchedulerContext::annotate_start),
  /// consumed and reset by start_job / start_job_virtual.
  StartProvenance pending_provenance_ = StartProvenance::kUnspecified;
  std::int64_t pending_reserved_start_ = -1;

  // Attached pull source (nullptr once exhausted or max_jobs reached).
  swf::JobSource* source_ = nullptr;
  /// Restored from a snapshot whose donor still had an active source;
  /// cleared by resume_job_source. See needs_job_source().
  bool source_pending_resume_ = false;
  JobSourceOptions source_opts_;
  std::uint64_t source_pulled_ = 0;
  std::uint64_t source_clamped_ = 0;
  /// Admitted records whose submit event has not been processed yet
  /// (includes deferred closed-loop dependents) — the lookahead gauge.
  std::size_t pending_submits_ = 0;
  /// Bounded (id -> end time) memory of terminated jobs, kept only in
  /// closed-loop recycle mode; eviction is FIFO by termination order.
  std::unordered_map<std::int64_t, std::int64_t> finished_end_;
  std::deque<std::int64_t> finished_order_;

  std::size_t queued_count_ = 0;
  std::size_t running_count_ = 0;
  // Capacity accounting.
  std::int64_t capacity_accounted_until_ = 0;
  std::int64_t capacity_node_seconds_ = 0;
  std::int64_t work_node_seconds_ = 0;
  std::int64_t wasted_node_seconds_ = 0;
  std::int64_t recovered_node_seconds_ = 0;
  std::int64_t makespan_ = 0;
  std::int64_t jobs_completed_ = 0;
  std::int64_t jobs_killed_ = 0;
  std::int64_t jobs_dropped_ = 0;
  std::int64_t events_processed_ = 0;
  bool scheduler_dirty_ = false;
};

}  // namespace pjsb::sim
