#include "validate/invariants.hpp"

#include <algorithm>

#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace pjsb::validate {

namespace {

/// How often the cross-check profile folds its history away.
constexpr std::size_t kCompactEvery = 4096;

}  // namespace

std::string Violation::to_string() const {
  std::string s = invariant + " @t=" + std::to_string(time);
  if (job_id >= 0) s += " job=" + std::to_string(job_id);
  s += ": " + message;
  return s;
}

InvariantChecker::InvariantChecker(const CheckerOptions& options)
    : options_(options),
      scheduler_instance_(options.scheduler_instance),
      profile_(options.nodes),
      last_up_(options.nodes) {
  if (!options_.scheduler.empty()) {
    // Resolve the policy identity; a spec the registry does not know
    // (a custom policy) simply runs without the policy-contract checks.
    try {
      const auto parsed = sched::Registry::global().parse(options_.scheduler);
      base_ = parsed.info->name;
      if (base_ == "gang") gang_slots_ = parsed.values.get_int("slots");
      if (base_ == "easy" || base_ == "conservative") {
        reserve_depth_ = parsed.values.get_int("reserve_depth");
      }
      track_order_ = base_ == "fcfs" || base_ == "easy" ||
                     base_ == "conservative";
    } catch (const std::invalid_argument&) {
      base_.clear();
    }
  }
}

void InvariantChecker::report(const std::string& invariant,
                              std::int64_t time, std::int64_t job_id,
                              std::string message) {
  ++violation_count_;
  if (violations_.size() < options_.max_violations) {
    violations_.push_back({invariant, time, job_id, std::move(message)});
  }
}

std::string InvariantChecker::summary() const {
  if (clean()) return "clean";
  std::string s = std::to_string(violation_count_) + " violation(s)";
  if (violation_count_ > violations_.size()) {
    s += " (first " + std::to_string(violations_.size()) + " shown)";
  }
  for (const auto& v : violations_) s += "\n  " + v.to_string();
  return s;
}

bool InvariantChecker::promise_checks_enabled() const {
  return scheduler_instance_ != nullptr && !options_.outages &&
         (base_ == "easy" || base_ == "conservative");
}

bool InvariantChecker::fifo_entry_stale(const FifoEntry& entry) const {
  const auto it = jobs_.find(entry.id);
  return it == jobs_.end() || it->second.running ||
         it->second.seq != entry.seq;
}

void InvariantChecker::pop_stale_fifo_front() {
  while (!fifo_.empty() && fifo_entry_stale(fifo_.front())) {
    fifo_.pop_front();
  }
}

void InvariantChecker::on_job_submit(std::int64_t time,
                                     const sim::SimJob& job) {
  if (job.procs < 1 || job.procs > options_.nodes) {
    report("job-shape", time, job.id,
           "queued with procs=" + std::to_string(job.procs) +
               " on a " + std::to_string(options_.nodes) + "-node machine");
  }
  submitted_.insert(job.id);
  auto [it, fresh] = jobs_.try_emplace(job.id);
  if (!fresh && it->second.running) {
    report("lifecycle", time, job.id, "submitted while still running");
  }
  it->second = TrackedJob{};
  it->second.submit = time;
  it->second.procs = job.procs;
  it->second.estimate = job.estimate;
  it->second.seq = ++submit_seq_;
  if (track_order_) fifo_.push_back({job.id, it->second.seq});
  ++queued_tracked_;
  promise_candidates_.push_back(job.id);
}

void InvariantChecker::on_decision(const sim::Decision& d) {
  const auto it = jobs_.find(d.job_id);
  if (it == jobs_.end()) {
    report("lifecycle", d.time, d.job_id, "started but never submitted");
    return;
  }
  TrackedJob& job = it->second;
  if (job.running) {
    report("lifecycle", d.time, d.job_id, "started twice without ending");
    return;
  }
  if (d.time < job.submit) {
    report("lifecycle", d.time, d.job_id,
           "started before its submission at t=" +
               std::to_string(job.submit));
  }
  if (d.procs != job.procs) {
    report("lifecycle", d.time, d.job_id,
           "started with procs=" + std::to_string(d.procs) +
               " but was submitted with procs=" +
               std::to_string(job.procs));
  }

  if (base_ == "fcfs") {
    pop_stale_fifo_front();
    if (!fifo_.empty() && fifo_.front().id != d.job_id) {
      report("fcfs-order", d.time, d.job_id,
             "started ahead of earlier-arrived job " +
                 std::to_string(fifo_.front().id));
    }
  }
  if (job.promise >= 0 && d.time > job.promise) {
    report("promise", d.time, d.job_id,
           base_ + " promised a start by t=" + std::to_string(job.promise) +
               " but started at t=" + std::to_string(d.time));
  }

  if (base_ == "gang" && !d.virtual_start) {
    report("gang-virtual", d.time, d.job_id,
           "gang scheduling must not allocate machine nodes");
  }
  if (base_ != "gang" && !base_.empty() && d.virtual_start) {
    report("gang-virtual", d.time, d.job_id,
           "space-sharing scheduler issued a virtual (time-shared) start");
  }

  if (d.virtual_start) {
    virtual_procs_ += d.procs;
    if (gang_slots_ > 0 &&
        virtual_procs_ > gang_slots_ * options_.nodes) {
      report("gang-slots", d.time, d.job_id,
             "time-shared processors " + std::to_string(virtual_procs_) +
                 " exceed the Ousterhout matrix budget " +
                 std::to_string(gang_slots_) + " slots x " +
                 std::to_string(options_.nodes) + " nodes");
    }
  } else {
    busy_procs_ += d.procs;
    profile_.add_usage(d.time, sched::kForever, d.procs);
  }

  job.running = true;  // the fifo entry goes stale with this flag
  job.virtual_start = d.virtual_start;
  job.start = d.time;
  if (queued_tracked_ > 0) --queued_tracked_;
}

void InvariantChecker::on_job_complete(const sim::CompletedJob& c) {
  ++completions_;
  if (!completed_.insert(c.id).second) {
    report("conservation", c.end, c.id, "completed twice");
  }
  if (dropped_.count(c.id)) {
    report("recovery", c.end, c.id, "completed after being dropped");
  }
  const auto it = jobs_.find(c.id);
  if (it == jobs_.end() || !it->second.running) {
    report("lifecycle", c.end, c.id, "completed while not running");
    return;
  }
  const TrackedJob& job = it->second;
  if (c.start != job.start) {
    report("lifecycle", c.end, c.id,
           "completion reports start=" + std::to_string(c.start) +
               " but the decision was at t=" + std::to_string(job.start));
  }
  if (c.start < c.submit) {
    report("lifecycle", c.end, c.id,
           "completion record starts before its submit time");
  }
  if (c.end < c.start) {
    report("lifecycle", c.end, c.id, "completed before it started");
  }
  if (job.virtual_start) {
    virtual_procs_ -= c.procs;
  } else {
    busy_procs_ -= c.procs;
    profile_.remove_usage(c.end, sched::kForever, c.procs);
  }
  jobs_.erase(it);
  saved_work_.erase(c.id);
}

void InvariantChecker::on_job_kill(std::int64_t time,
                                   const sim::SimJob& job,
                                   const sim::KillInfo& info) {
  ++kills_;
  const auto it = jobs_.find(job.id);
  if (it == jobs_.end() || !it->second.running) {
    report("lifecycle", time, job.id, "killed while not running");
    return;
  }
  // Checkpoint work accounting: the engine cannot salvage more work
  // than the wall-clock the job actually held, and the lost
  // node-seconds it reports must be non-negative.
  const std::int64_t elapsed = time - it->second.start;
  if (info.saved_work < 0 || info.saved_work > elapsed) {
    report("recovery", time, job.id,
           "kill salvaged " + std::to_string(info.saved_work) +
               "s of checkpointed work from only " +
               std::to_string(elapsed) + "s of execution");
  }
  if (info.lost_node_seconds < 0) {
    report("recovery", time, job.id,
           "kill reports negative lost node-seconds " +
               std::to_string(info.lost_node_seconds));
  }
  if (info.saved_work > 0) saved_work_[job.id] += info.saved_work;
  if (it->second.virtual_start) {
    virtual_procs_ -= it->second.procs;
  } else {
    busy_procs_ -= it->second.procs;
    profile_.remove_usage(time, sched::kForever, it->second.procs);
  }
  jobs_.erase(it);
}

void InvariantChecker::on_job_restore(std::int64_t time,
                                      const sim::SimJob& job,
                                      std::int64_t resumed_work) {
  // A restore can only resume work some earlier kill checkpointed.
  const auto it = saved_work_.find(job.id);
  const std::int64_t saved = it == saved_work_.end() ? 0 : it->second;
  if (resumed_work <= 0 || resumed_work > saved) {
    report("recovery", time, job.id,
           "restore resumes " + std::to_string(resumed_work) +
               "s of work but kills only checkpointed " +
               std::to_string(saved) + "s");
  }
}

void InvariantChecker::on_job_drop(std::int64_t time, const sim::SimJob& job,
                                   sim::DropReason /*reason*/) {
  ++drops_;
  saved_work_.erase(job.id);
  if (!dropped_.insert(job.id).second) {
    report("recovery", time, job.id, "dropped twice");
  }
  if (completed_.count(job.id)) {
    report("recovery", time, job.id, "dropped after completing");
  }
}

void InvariantChecker::record_promises(std::int64_t now) {
  if (!promise_checks_enabled()) {
    promise_candidates_.clear();
    return;
  }
  // Classic conservative: *every* queued job holds a reservation, so
  // every fresh submission gets a promise. The poll happens after the
  // scheduler pass, when its queue placements are current; the
  // hypothetical job is placed behind the whole queue, so the promise
  // is never earlier than the job's own reservation (weak but sound).
  if (base_ == "conservative" && reserve_depth_ == 0) {
    for (const std::int64_t id : promise_candidates_) {
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.running) continue;
      const auto t = scheduler_instance_->predict_start(
          now, it->second.procs, it->second.estimate);
      if (t) it->second.promise = *t;
    }
  }
  promise_candidates_.clear();
  // The queue head is protected under both EASY (the shadow
  // reservation) and depth-capped conservative: record its promised
  // start once, when it first reaches the head. Estimates bound real
  // runtimes in replayed workloads, so the promise can only improve —
  // a later start is a broken guarantee.
  pop_stale_fifo_front();
  if (!fifo_.empty()) {
    auto& job = jobs_.find(fifo_.front().id)->second;
    if (job.promise < 0) {
      const auto t =
          scheduler_instance_->predict_start(now, job.procs, job.estimate);
      if (t) job.promise = *t;
    }
  }
}

void InvariantChecker::on_step(const sim::StepSnapshot& snap) {
  const std::int64_t up = snap.up_nodes();
  if (up != last_up_) {
    profile_.add_capacity_delta(snap.time, up - last_up_);
    last_up_ = up;
  }

  if (busy_procs_ > up) {
    report("capacity", snap.time, -1,
           "allocated processors " + std::to_string(busy_procs_) +
               " exceed the " + std::to_string(up) + " up nodes");
  }
  if (base_ == "gang") {
    if (snap.busy_nodes != 0) {
      report("gang-virtual", snap.time, -1,
             "gang run reports " + std::to_string(snap.busy_nodes) +
                 " machine-allocated nodes");
    }
    if (gang_slots_ > 0 && virtual_procs_ > gang_slots_ * up) {
      report("gang-slots", snap.time, -1,
             "time-shared processors " + std::to_string(virtual_procs_) +
                 " exceed " + std::to_string(gang_slots_) + " slots x " +
                 std::to_string(up) + " up nodes");
    }
  } else {
    // Cross-check all three accountings: the checker's busy counter,
    // the machine's node owners, and the replayed CapacityProfile must
    // tell the same story at every event timestamp.
    if (snap.busy_nodes != busy_procs_) {
      report("node-accounting", snap.time, -1,
             "machine reports " + std::to_string(snap.busy_nodes) +
                 " busy nodes but decisions add up to " +
                 std::to_string(busy_procs_));
    }
    const std::int64_t avail = profile_.available_at(snap.time);
    if (avail != snap.free_nodes) {
      report("profile-mismatch", snap.time, -1,
             "CapacityProfile says " + std::to_string(avail) +
                 " free, machine says " + std::to_string(snap.free_nodes));
    }
  }
  if (snap.queued_jobs != queued_tracked_) {
    report("queue-accounting", snap.time, -1,
           "engine reports " + std::to_string(snap.queued_jobs) +
               " queued jobs, observer events add up to " +
               std::to_string(queued_tracked_));
  }

  record_promises(snap.time);
  // Keep the arrival-order deque bounded even when record_promises
  // early-returns (outage runs, no watched scheduler): started jobs'
  // stale entries are drained here, so fifo_ stays O(queue depth).
  pop_stale_fifo_front();

  last_step_time_ = snap.time;
  if (++steps_since_compact_ >= kCompactEvery) {
    profile_.compact_before(snap.time);
    steps_since_compact_ = 0;
  }
}

void InvariantChecker::on_end(const sim::EngineStats& stats) {
  if (std::size_t(stats.jobs_completed) != completions_) {
    report("conservation", last_step_time_, -1,
           "engine counted " + std::to_string(stats.jobs_completed) +
               " completions, observer saw " + std::to_string(completions_));
  }
  if (std::size_t(stats.jobs_killed) != kills_) {
    report("conservation", last_step_time_, -1,
           "engine counted " + std::to_string(stats.jobs_killed) +
               " kills, observer saw " + std::to_string(kills_));
  }
  if (std::size_t(stats.jobs_dropped) != drops_) {
    report("conservation", last_step_time_, -1,
           "engine counted " + std::to_string(stats.jobs_dropped) +
               " drops, observer saw " + std::to_string(drops_));
  }
  // Resubmitted-job conservation: every submission terminates —
  // completed exactly once (checked above) or dropped.
  for (const std::int64_t id : submitted_) {
    if (!completed_.count(id) && !dropped_.count(id)) {
      report("conservation", last_step_time_, id,
             "submitted but never completed or dropped");
    }
  }
  if (busy_procs_ != 0 || virtual_procs_ != 0) {
    report("conservation", last_step_time_, -1,
           "run ended with " + std::to_string(busy_procs_) +
               " allocated and " + std::to_string(virtual_procs_) +
               " time-shared processors still charged");
  }
}

}  // namespace pjsb::validate
