// Scheduler invariant checkers: the paper's ground rules as executable
// observers.
//
// The source paper standardizes *how* parallel job schedulers are
// evaluated; this subsystem turns the rules every policy must obey into
// sim::SimObserver-based checkers that ride along any replay:
//
//   * capacity — running jobs never oversubscribe the machine at any
//     instant, cross-checked two independent ways (an integer busy
//     counter vs. a sched::CapacityProfile fed the same events) against
//     the engine's own per-step node accounting;
//   * lifecycle — no start before submit, no completion before start,
//     no double start / double completion;
//   * policy contracts — FCFS starts strictly in arrival order; EASY
//     never delays the reserved queue head beyond its promised start;
//     conservative honors every promised reservation; gang never
//     exceeds its Ousterhout-matrix slot budget (and never allocates
//     machine nodes);
//   * conservation — every submitted job completes exactly once, even
//     when the engine recycles slots for constant-memory streaming;
//   * recovery — under faults, no job is both completed and dropped,
//     every submission terminates (completed once or dropped at the
//     retry limit), checkpoint salvage never exceeds the node-seconds a
//     job actually held, and a restore never resumes more work than its
//     kills saved.
//
// A checker records violations instead of throwing, so one run reports
// every broken rule; harnesses (fuzzer, campaign `validate=1` cells,
// swf_tool validate) decide whether a dirty run is fatal.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sched/profile.hpp"
#include "sched/query.hpp"
#include "sched/scheduler.hpp"
#include "sim/observer.hpp"

namespace pjsb::validate {

/// One broken invariant, with enough context to reproduce and triage.
struct Violation {
  std::string invariant;  ///< short id ("capacity", "fcfs-order", ...)
  std::int64_t time = 0;
  std::int64_t job_id = -1;
  std::string message;

  std::string to_string() const;
};

/// What the checker needs to know about the run it is watching.
struct CheckerOptions {
  /// Simulated machine size (required; the capacity baseline).
  std::int64_t nodes = 0;
  /// Registry spec of the scheduler under test ("easy reserve_depth=2").
  /// Enables the policy-contract checks; empty runs only the generic
  /// invariants (useful for custom policies not in the registry).
  std::string scheduler;
  /// The run injects outages. Promise-based policy checks are disabled
  /// (capacity loss legitimately slips reservations); capacity and
  /// lifecycle checks stay on and track the shrinking machine.
  bool outages = false;
  /// Violations stored verbatim; the total count stays exact.
  std::size_t max_violations = 64;
  /// The query surface of the scheduler driving the run (non-owning;
  /// optional). Needed only by the promise checks, which poll
  /// predict_start through the read-only sched::QueryInterface.
  const sched::QueryInterface* scheduler_instance = nullptr;
};

/// The composite invariant checker. Attach to a replay via
/// ReplayHooks::observe (or Engine::add_observer) and inspect after:
///
///   validate::InvariantChecker checker(options);
///   auto scheduler = sched::make_scheduler(spec);
///   checker.watch(*scheduler);  // optional: enables promise checks
///   sim::replay(trace, std::move(scheduler), sim_spec,
///               sim::ReplayHooks{}.observe(checker));
///   ASSERT_TRUE(checker.clean()) << checker.summary();
class InvariantChecker final : public sim::SimObserver {
 public:
  explicit InvariantChecker(const CheckerOptions& options);

  /// Set the watched scheduler instance after construction (the usual
  /// flow: options are built before the instance exists).
  void watch(const sched::QueryInterface& scheduler) {
    scheduler_instance_ = &scheduler;
  }

  bool clean() const { return violation_count_ == 0; }
  std::size_t violation_count() const { return violation_count_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// Multi-line report of every stored violation (or "clean").
  std::string summary() const;

  // -- SimObserver --
  void on_job_submit(std::int64_t time, const sim::SimJob& job) override;
  void on_decision(const sim::Decision& decision) override;
  void on_job_complete(const sim::CompletedJob& job) override;
  void on_job_kill(std::int64_t time, const sim::SimJob& job,
                   const sim::KillInfo& info) override;
  void on_job_restore(std::int64_t time, const sim::SimJob& job,
                      std::int64_t resumed_work) override;
  void on_job_drop(std::int64_t time, const sim::SimJob& job,
                   sim::DropReason reason) override;
  void on_step(const sim::StepSnapshot& snapshot) override;
  void on_end(const sim::EngineStats& stats) override;

 private:
  struct TrackedJob {
    std::int64_t submit = 0;  ///< last queue-entry time
    std::int64_t procs = 0;
    std::int64_t estimate = 0;
    std::int64_t start = -1;        ///< set when running
    std::int64_t promise = -1;      ///< promised latest start (-1: none)
    std::int64_t seq = 0;           ///< submission sequence number
    bool running = false;
    bool virtual_start = false;
  };

  /// One arrival-order queue entry. Entries are never erased from the
  /// middle (that would make validation O(queue) per start); instead an
  /// entry goes stale when its job started, terminated, or was
  /// resubmitted with a newer seq, and stale entries are popped lazily
  /// at the front.
  struct FifoEntry {
    std::int64_t id = 0;
    std::int64_t seq = 0;
  };

  void report(const std::string& invariant, std::int64_t time,
              std::int64_t job_id, std::string message);
  bool fifo_entry_stale(const FifoEntry& entry) const;
  void pop_stale_fifo_front();
  /// Pending promise queries are answered after the scheduler pass.
  void record_promises(std::int64_t now);
  bool promise_checks_enabled() const;

  CheckerOptions options_;
  const sched::QueryInterface* scheduler_instance_ = nullptr;

  // Policy identity, resolved from options_.scheduler via the registry.
  std::string base_;        ///< canonical scheduler name ("" if none)
  std::int64_t gang_slots_ = 0;
  std::int64_t reserve_depth_ = -1;  ///< easy/conservative knob
  /// Arrival order is tracked only for policies with an order or
  /// promise contract (fcfs/easy/conservative); other policies would
  /// just accumulate fifo_ entries nobody ever pops.
  bool track_order_ = false;

  // Live state mirrored from the event stream.
  std::unordered_map<std::int64_t, TrackedJob> jobs_;  ///< queued+running
  std::deque<FifoEntry> fifo_;  ///< arrival order (lazy deletion)
  std::int64_t submit_seq_ = 0;
  std::size_t queued_tracked_ = 0;  ///< currently queued jobs
  std::unordered_set<std::int64_t> submitted_;
  std::unordered_set<std::int64_t> completed_;
  std::unordered_set<std::int64_t> dropped_;  ///< abandoned under faults
  /// Cumulative checkpoint-saved work per job, accumulated across its
  /// kills; the restore contract checks resumed work against it.
  std::unordered_map<std::int64_t, std::int64_t> saved_work_;
  std::vector<std::int64_t> promise_candidates_;  ///< submitted this step

  // Two independent capacity accountings (counter vs. profile).
  std::int64_t busy_procs_ = 0;     ///< space-shared allocations
  std::int64_t virtual_procs_ = 0;  ///< gang (time-shared) allocations
  sched::CapacityProfile profile_;
  std::int64_t last_up_ = 0;
  std::int64_t last_step_time_ = 0;
  std::size_t steps_since_compact_ = 0;

  std::size_t completions_ = 0;
  std::size_t kills_ = 0;
  std::size_t drops_ = 0;
  std::size_t violation_count_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace pjsb::validate
