#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "util/resource.hpp"

namespace pjsb::sim {

namespace {

/// Reject a time of job `id` above kMaxTime, naming the job and the
/// field (out of line: admission calls it once per time per job).
[[noreturn, gnu::cold]] void throw_above_time_bound(std::int64_t id,
                                                    const char* field,
                                                    std::int64_t value) {
  throw std::invalid_argument("job " + std::to_string(id) + ": " + field +
                              " " + std::to_string(value) +
                              " is above the time bound " +
                              std::to_string(kMaxTime) + " s");
}

void check_time(std::int64_t id, const char* field, std::int64_t value) {
  if (value > kMaxTime) throw_above_time_bound(id, field, value);
}

/// Reject job `j`, whose longest burst passes kMaxTime, naming its
/// checkpoint fields.
[[noreturn, gnu::cold]] void throw_burst_above_time_bound(const SimJob& j) {
  throw std::invalid_argument(
      "job " + std::to_string(j.id) + ": checkpointed burst (runtime " +
      std::to_string(j.runtime) + ", a " + std::to_string(j.dump_time) +
      " s dump every " + std::to_string(j.checkpoint_interval) + " s, a " +
      std::to_string(j.read_time) + " s read) is above the time bound " +
      std::to_string(kMaxTime) + " s");
}

/// The largest job id admission takes: the id after it, which the
/// engine picks next, must exist.
constexpr std::int64_t kMaxJobId = std::numeric_limits<std::int64_t>::max() - 1;

/// Reject job number `id`: above kMaxJobId, or else at or below an id
/// the engine has seen (out of line, as the time checks are).
[[noreturn, gnu::cold]] void throw_bad_job_number(std::int64_t id) {
  throw std::invalid_argument(
      "job " + std::to_string(id) + ": job number " +
      (id > kMaxJobId ? "is above the bound " + std::to_string(kMaxJobId)
                      : "repeats or descends (job numbers must ascend)"));
}

/// Admission's time checks, on a job that already carries its recovery
/// defaults. Bounding each burst keeps every end event within kMaxTime
/// of the clock, which snapshot restore relies on (sim::kMaxInstant).
void check_job_times(const SimJob& j) {
  check_time(j.id, "submit time", j.submit);
  check_time(j.id, "runtime", j.runtime);
  check_time(j.id, "estimate", j.estimate);
  check_time(j.id, "walltime", j.walltime);
  check_time(j.id, "checkpoint interval", j.checkpoint_interval);
  check_time(j.id, "dump time", j.dump_time);
  check_time(j.id, "read time", j.read_time);
  if (!j.burst_within(kMaxTime)) throw_burst_above_time_bound(j);
}

}  // namespace

SimJob SimJob::from_record(const swf::JobRecord& r) {
  SimJob j;
  j.id = r.job_number;
  j.submit = std::max<std::int64_t>(0, r.submit_time);
  j.runtime = std::max<std::int64_t>(1, r.run_time);
  j.estimate = r.requested_time != swf::kUnknown
                   ? std::max(r.requested_time, j.runtime)
                   : j.runtime;
  // The honest request, for walltime-overrun policies; `estimate` stays
  // clamped to >= runtime so the scheduler view is unchanged.
  j.walltime = r.requested_time;
  j.procs = std::max<std::int64_t>(
      1, r.allocated_procs != swf::kUnknown ? r.allocated_procs
                                            : r.requested_procs);
  j.user_id = r.user_id;
  j.executable_id = r.executable_id;
  j.queue_id = r.queue_id;
  return j;
}

Engine::Engine(const EngineConfig& config,
               std::unique_ptr<sched::Scheduler> scheduler)
    : config_(config),
      scheduler_(std::move(scheduler)),
      machine_(config.nodes) {
  if (!scheduler_) throw std::invalid_argument("Engine: null scheduler");
  scheduler_->on_attach(*this);
}

Engine::~Engine() = default;

void Engine::load_trace(const swf::Trace& trace) {
  // Admission is sized once from the record count: the FIFO run of
  // submits, the completed archive, and the slots. Job numbers 1..n
  // take dense slots 0..n, so that capacity is reserved (only
  // capacity: obtain_slot alone decides which ids go dense) and
  // prefaulted: when the allocator hands back fresh pages, one
  // page-fault trap per 4 KB made set-up a third slower. (A trace
  // whose job numbers run far past its record count keeps those jobs
  // in the overflow map and leaves the reserve unused.) A recycled
  // engine holds every record until the clock starts: pool room for
  // all of them.
  const std::size_t records = trace.records.size();
  events_.reserve_arrivals(records);
  if (config_.retain_completed) completed_.reserve(completed_.size() + records);
  if (config_.recycle_slots) {
    reserve_pool(records);
  } else {
    jobs_dense_.reserve(records + 1);
    util::prefault(jobs_dense_.data(),
                   jobs_dense_.capacity() * sizeof(JobSlot));
  }
  // An eager pull of the whole trace: with an unbounded lookahead the
  // fill loop drains the source before returning, so the stack-local
  // adapter's lifetime is safe and behavior matches the historical
  // all-up-front load exactly. A refused record stops the drain early:
  // the adapter dies with this frame, so the engine lets go of it and
  // keeps the records admitted before it.
  swf::TraceSource source(trace);
  JobSourceOptions options;
  options.lookahead = std::numeric_limits<std::size_t>::max();
  try {
    attach_source(source, options);
  } catch (...) {
    source_ = nullptr;
    throw;
  }
}

void Engine::set_job_source(swf::JobSource& source,
                            const JobSourceOptions& options) {
  // A recycled engine holds its lookahead window plus its queued and
  // running jobs. Room for twice the window keeps a queue as deep as
  // the window from moving every slot; capacity never written to costs
  // address space, not memory.
  if (config_.recycle_slots) {
    reserve_pool(2 * std::min(options.lookahead, kWindowReserveLimit));
  }
  attach_source(source, options);
}

void Engine::attach_source(swf::JobSource& source,
                           const JobSourceOptions& options) {
  source_ = &source;
  source_opts_ = options;
  if (source_opts_.lookahead == 0) source_opts_.lookahead = 1;
  fill_from_source();
}

void Engine::fill_from_source() {
  while (source_ && pending_submits_ < source_opts_.lookahead) {
    if (source_opts_.max_jobs != 0 &&
        source_pulled_ >= source_opts_.max_jobs) {
      source_ = nullptr;
      break;
    }
    const auto record = source_->next();
    if (!record) {
      source_ = nullptr;
      break;
    }
    ++source_pulled_;
    admit_record(*record);
  }
}

void Engine::apply_recovery_defaults(SimJob& j) const {
  // SWF records carry no checkpoint columns; jobs inherit the engine's
  // recovery defaults unless the caller (submit_job) set their own.
  if (j.checkpoint_interval == 0 && j.dump_time == 0 && j.read_time == 0) {
    j.checkpoint_interval = config_.recovery.checkpoint_interval;
    j.dump_time = config_.recovery.dump_time;
    j.read_time = config_.recovery.read_time;
  }
}

void Engine::admit_record(const swf::JobRecord& r) {
  SimJob j = SimJob::from_record(r);
  j.procs = std::min(j.procs, machine_.total_nodes());
  apply_recovery_defaults(j);
  const std::int64_t id = j.id > 0 ? j.id : next_job_id_;
  j.id = id;
  // Job numbers ascend: one at or below an id the engine has seen
  // repeats or reorders the numbering. An O(1) test that keeps no
  // per-id memory, so recycled slots and streams reach the same verdict
  // as plain slots and eager loads.
  if (id < next_job_id_ || id > kMaxJobId) throw_bad_job_number(id);
  check_job_times(j);
  if (config_.closed_loop) check_time(id, "think time", r.think_time);
  next_job_id_ = id + 1;
  if (j.submit < now_) {
    // The source contract is ascending submit order; a straggler (or a
    // record pulled after the clock passed its submit time under a tiny
    // lookahead) is submitted immediately rather than in the past.
    j.submit = now_;
    ++source_clamped_;
  }

  auto& slot = obtain_slot(id);
  slot.job = j;
  mark_live(id);
  ++pending_submits_;

  const bool dependent = config_.closed_loop &&
                         r.preceding_job != swf::kUnknown &&
                         r.preceding_job > 0;
  if (dependent) {
    const std::int64_t think =
        r.think_time != swf::kUnknown ? std::max<std::int64_t>(0,
                                                               r.think_time)
                                      : 0;
    const std::int64_t pred = r.preceding_job;
    // Live (or not-yet-seen-terminating) predecessor: defer until it
    // terminates — identical to the all-up-front load, where every
    // dependent is registered before the clock starts.
    const JobSlot* ps = find_slot(pred);
    if (ps && ps->job.state != JobState::kFinished) {
      dependents_[pred].push_back({id, think});
      return;
    }
    std::int64_t released = -1;
    if (ps) {
      // Terminated but still resident: release relative to its end.
      released = ps->job.end + think;
    } else if (const auto it = finished_end_.find(pred);
               it != finished_end_.end()) {
      // Recycled predecessor remembered by the bounded history.
      released = it->second + think;
    }
    if (released >= 0) {
      const std::int64_t at = std::max(now_, released);
      slot.job.submit = at;
      push_event(at, EventType::kSubmit, id, /*version=*/1);
      return;
    }
    // Unknown predecessor. During an eager (unbounded-lookahead) load
    // the record may simply precede its predecessor in the file, so
    // register the edge and wait — the historical load_trace behavior,
    // including "a dangling predecessor means the job never runs". A
    // bounded stream cannot afford that: an unresolvable dependent
    // would occupy a lookahead slot forever and jam the pull window,
    // so it falls back to its recorded submit time (open loop).
    if (source_opts_.lookahead ==
        std::numeric_limits<std::size_t>::max()) {
      dependents_[pred].push_back({id, think});
      return;
    }
  }
  push_arrival(j.submit, id);
}

void Engine::release_slot(std::int64_t id) {
  std::uint32_t& cell = ring_[std::uint64_t(id) & ring_mask_];
  if (cell != kNoSlot && pool_[cell].job.id == id) {
    pool_[cell] = JobSlot();  // id 0 marks it free; frees its node runs
    free_slots_.push_back(cell);
    cell = kNoSlot;
    return;
  }
  jobs_overflow_.erase(id);
}

void Engine::reserve_pool(std::size_t jobs) {
  pool_.reserve(jobs);
  if (2 * std::uint64_t(jobs) > ring_.size()) grow_ring(jobs);
}

void Engine::grow_ring(std::uint64_t jobs) {
  std::vector<std::uint32_t> ring(std::bit_ceil(2 * jobs), kNoSlot);
  const std::uint64_t mask = ring.size() - 1;
  // Ids in distinct cells stay distinct: each old cell splits into
  // cells of the larger power of two.
  for (const std::uint32_t p : ring_) {
    if (p != kNoSlot) ring[std::uint64_t(pool_[p].job.id) & mask] = p;
  }
  ring_ = std::move(ring);
  ring_mask_ = mask;
}

void Engine::mark_live(std::int64_t id) {
  if (in_dense(id)) {
    live_bits_[std::size_t(id) >> 6] |= std::uint64_t(1) << (id & 63);
  } else if (!config_.recycle_slots) {
    live_overflow_.insert(id);
  }
}

void Engine::mark_terminated(std::int64_t id) {
  if (in_dense(id)) {
    live_bits_[std::size_t(id) >> 6] &= ~(std::uint64_t(1) << (id & 63));
  } else if (!config_.recycle_slots) {
    live_overflow_.erase(id);
  }
}

void Engine::record_finished(std::int64_t id, std::int64_t end_time) {
  if (!config_.closed_loop) return;
  while (finished_order_.size() >= kClosedLoopHistory) {
    finished_end_.erase(finished_order_.front());
    finished_order_.pop_front();
  }
  if (finished_end_.emplace(id, end_time).second) {
    finished_order_.push_back(id);
  }
}

void Engine::add_outages(const outage::OutageLog& log) {
  // Every instant is checked before any is queued, so a refused log
  // adds nothing.
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const auto check = [i](const char* field, std::int64_t value) {
      if (value <= kMaxInstant) return;
      throw std::invalid_argument("outage " + std::to_string(i + 1) + ": " +
                                  field + " " + std::to_string(value) +
                                  " is above the time bound " +
                                  std::to_string(kMaxInstant) + " s");
    };
    check("announce time", log.records[i].announce_time);
    check("start time", log.records[i].start_time);
    check("end time", log.records[i].end_time);
  }
  for (const auto& rec : log.records) {
    outages_.push_back(rec);
    const std::size_t idx = outages_.size() - 1;
    if (config_.deliver_announcements && rec.announced()) {
      push_event(std::max<std::int64_t>(rec.announce_time, 0),
                 EventType::kOutageAnnounce, std::int64_t(idx));
    }
    push_event(rec.start_time, EventType::kOutageStart, std::int64_t(idx));
    push_event(rec.end_time, EventType::kOutageEnd, std::int64_t(idx));
  }
}

std::int64_t Engine::submit_job(SimJob job) {
  if (job.submit < now_) {
    throw std::invalid_argument("submit_job: submit time in the past");
  }
  const std::int64_t id = job.id > 0 ? job.id : next_job_id_;
  if (id > kMaxJobId) throw_bad_job_number(id);
  if (find_slot(id)) {
    throw std::invalid_argument("job id " + std::to_string(id) +
                                " already exists");
  }
  job.id = id;
  apply_recovery_defaults(job);
  check_job_times(job);
  job.procs = std::min(std::max<std::int64_t>(1, job.procs),
                       machine_.total_nodes());
  next_job_id_ = std::max(next_job_id_, id + 1);
  obtain_slot(id).job = job;
  mark_live(id);
  push_event(job.submit, EventType::kSubmit, id);
  return id;
}

const SimJob* Engine::find_job(std::int64_t id) const {
  const JobSlot* slot = find_slot(id);
  return slot ? &slot->job : nullptr;
}

bool Engine::cancel_job(std::int64_t id, std::string* why) {
  const auto fail = [&](const char* message) {
    if (why) *why = message;
    return false;
  };
  JobSlot* slot = find_slot(id);
  if (!slot) return fail("unknown job id");
  bool release_after_pass = false;
  switch (slot->job.state) {
    case JobState::kPending:
      // The submit event (initial, backoff resubmission, or deferred
      // closed-loop release) is still in flight; cancelling would leave
      // it to fire on a terminated job.
      return fail("job not submitted yet (pending)");
    case JobState::kFinished:
      return fail("job already terminated");
    case JobState::kQueued:
      --queued_count_;
      release_after_pass = config_.recycle_slots;
      drop_job(*slot, DropReason::kCancelled,
               /*defer_release=*/release_after_pass);
      break;
    case JobState::kRunning:
      kill_job(*slot, KillReason::kPreempt, /*force_drop=*/true);
      break;
  }
  // The cancel lands between event timestamps, so the scheduler pass
  // that normally follows a timestamp's events runs here explicitly:
  // the schedulers drop the cancelled entry from their queues and put
  // freed capacity (or an unblocked FCFS head) to use immediately.
  scheduler_->schedule(*this);
  scheduler_dirty_ = false;
  if (release_after_pass) release_slot(id);
  if (!observers_.empty()) {
    observers_.on_step({now_, machine_.free_nodes(), machine_.busy_nodes(),
                        machine_.down_nodes(), queued_count_,
                        running_count_});
  }
  return true;
}

bool Engine::request_reservation(
    const sched::AdvanceReservation& reservation) {
  sched::AdvanceReservation res = reservation;
  if (res.id <= 0) res.id = next_reservation_id_;
  next_reservation_id_ = std::max(next_reservation_id_, res.id + 1);
  if (res.start < now_ || res.duration <= 0 || res.procs <= 0) return false;
  // A window ending past kMaxInstant queues an event no snapshot restores.
  if (res.duration > kMaxInstant - res.start) return false;
  if (res.procs > machine_.total_nodes()) return false;
  if (!scheduler_->try_reserve(*this, res)) return false;
  reservations_.emplace(res.id, res);
  push_event(res.start, EventType::kReservationStart, res.id);
  // Wake the scheduler when the window closes: capacity blocked by the
  // reservation becomes available again, and without an event the
  // scheduler would never notice.
  push_event(res.start + res.duration, EventType::kReservationEnd, res.id);
  return true;
}

std::optional<std::int64_t> Engine::next_event_time() const {
  if (events_.empty()) return std::nullopt;
  return events_.top().time;
}

bool Engine::step() {
  if (events_.empty()) fill_from_source();
  if (events_.empty()) return false;
  const std::int64_t t = events_.top().time;
  account_capacity_to(t);
  now_ = t;
  scheduler_dirty_ = false;
  // Wall-clock phase timing only runs with a listener installed; the
  // detached path pays three predictable null-check branches per step.
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark{};
  if (phase_listener_) mark = Clock::now();
  const auto emit_phase = [&](EnginePhase phase) {
    const auto done = Clock::now();
    phase_listener_->on_phase(
        phase, t,
        std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          done - mark)
                          .count()));
    mark = done;
  };
  while (!events_.empty() && events_.top().time == t) {
    process(events_.pop());
  }
  if (phase_listener_) emit_phase(EnginePhase::kEvents);
  if (scheduler_dirty_) {
    scheduler_->schedule(*this);
    if (phase_listener_) emit_phase(EnginePhase::kSchedulerPass);
  }
  if (!observers_.empty()) {
    observers_.on_step({now_, machine_.free_nodes(), machine_.busy_nodes(),
                        machine_.down_nodes(), queued_count_,
                        running_count_});
    if (phase_listener_) emit_phase(EnginePhase::kObserverStep);
  }
  return true;
}

void Engine::run_until(std::int64_t t) {
  while (!events_.empty() && events_.top().time <= t) step();
  if (now_ < t) {
    account_capacity_to(t);
    now_ = t;
  }
}

void Engine::run() {
  while (step()) {
  }
}

Engine::JobSlot* Engine::find_slot(std::int64_t id) {
  if (in_dense(id)) return &jobs_dense_[std::size_t(id)];
  if (const std::uint32_t p = ring_[std::uint64_t(id) & ring_mask_];
      p != kNoSlot && pool_[p].job.id == id) {
    return &pool_[p];
  }
  // Otherwise the map: an id below the vector's size may still have
  // gone there, placed while the engine held fewer jobs, and so may an
  // id whose ring cell held another job.
  if (jobs_overflow_.empty()) return nullptr;
  const auto it = jobs_overflow_.find(id);
  return it == jobs_overflow_.end() ? nullptr : &it->second;
}

const Engine::JobSlot* Engine::find_slot(std::int64_t id) const {
  return const_cast<Engine*>(this)->find_slot(id);
}

Engine::JobSlot& Engine::slot_at(std::int64_t id) {
  JobSlot* slot = find_slot(id);
  if (!slot) throw std::out_of_range("Engine::job: unknown id");
  return *slot;
}

Engine::JobSlot& Engine::obtain_slot(std::int64_t id) {
  const std::uint64_t held = dense_held_ +
                             (pool_.size() - free_slots_.size()) +
                             jobs_overflow_.size();
  if (config_.recycle_slots) {
    // Recycle mode never goes dense: the dense vector is sized by the
    // largest id ever seen, which for a streamed million-job trace is
    // exactly the O(trace) growth recycling exists to avoid. A job
    // takes a pool slot (a freed one first) through its ring cell, so
    // admission neither hashes nor allocates once the pool has grown
    // to the jobs held. Only an id whose cell holds another job, such
    // as a long job's while a ring's width of later ids passes, goes
    // to the map.
    if (2 * (held + 1) > ring_.size()) grow_ring(held + 1);
    std::uint32_t& cell = ring_[std::uint64_t(id) & ring_mask_];
    if (cell == kNoSlot) {
      if (!free_slots_.empty()) {
        cell = free_slots_.back();
        free_slots_.pop_back();
        return pool_[cell];
      }
      if (pool_.size() < kNoSlot) {
        cell = std::uint32_t(pool_.size());
        return pool_.emplace_back();
      }
    }
    return jobs_overflow_[id];
  }
  // Otherwise an id goes dense while it stays below twice the jobs held
  // plus kDenseGapLimit, and the vector grows to just past it (its own
  // capacity growth amortizes that), so it never holds more than
  // 2 x (jobs held) + kDenseGapLimit slots. A far outlier (the meta
  // layer's 1'000'000-based ids over a small background trace, a
  // daemon client's chosen id) goes to the hash map instead of forcing
  // a proportional allocation.
  if (std::uint64_t(id) < 2 * held + kDenseGapLimit) {
    const auto idx = std::size_t(id);
    if (idx >= jobs_dense_.size()) {
      jobs_dense_.resize(idx + 1);
      live_bits_.resize(idx / 64 + 1);
    }
    ++dense_held_;
    return jobs_dense_[idx];
  }
  return jobs_overflow_[id];
}

const SimJob& Engine::job(std::int64_t id) const {
  const JobSlot* slot = find_slot(id);
  if (!slot) throw std::out_of_range("Engine::job: unknown id");
  return slot->job;
}

bool Engine::start_job(std::int64_t job_id) {
  // Consume the one-shot annotation up front: a failed start (the
  // scheduler mis-counted) must not leak its reason onto a later,
  // unrelated start.
  const StartProvenance provenance = pending_provenance_;
  const std::int64_t reserved_start = pending_reserved_start_;
  pending_provenance_ = StartProvenance::kUnspecified;
  pending_reserved_start_ = -1;
  auto& slot = slot_at(job_id);
  auto& j = slot.job;
  if (j.state != JobState::kQueued) {
    throw std::logic_error("start_job: job is not queued");
  }
  auto nodes = machine_.allocate(job_id, j.procs);
  if (!nodes) return false;
  j.nodes = std::move(*nodes);
  j.state = JobState::kRunning;
  j.start = now_;
  --queued_count_;
  ++running_count_;
  const std::int64_t version = ++slot.end_version;
  const std::int64_t procs = j.procs;

  // Wall duration of this burst: remaining work, plus a checkpoint
  // restore prefix when progress is banked, plus one dump per completed
  // checkpoint interval (the final second of work never dumps — the job
  // completes instead). With checkpointing off this is exactly runtime.
  const std::int64_t remaining = j.runtime - j.completed_work;
  const std::int64_t restore = j.completed_work > 0 ? j.read_time : 0;
  const std::int64_t dumps =
      j.checkpoint_interval > 0 ? (remaining - 1) / j.checkpoint_interval : 0;
  std::int64_t wall = restore + remaining + dumps * j.dump_time;

  // Walltime-overrun policy: under kill/grace the burst may not outlive
  // the requested walltime (plus grace); the deadline event kills and
  // drops the job instead of completing it.
  slot.overrun_end = false;
  const auto& rec = config_.recovery;
  if (rec.overrun != fault::OverrunPolicy::kExtend && j.walltime > 0) {
    const std::int64_t allowed =
        j.walltime +
        (rec.overrun == fault::OverrunPolicy::kGrace ? rec.grace_seconds : 0);
    if (wall > allowed) {
      wall = allowed;
      slot.overrun_end = true;
    }
  }
  push_event(now_ + wall, EventType::kJobEnd, job_id, version);
  observers_.on_decision({now_, job_id, procs, /*virtual_start=*/false,
                          provenance, reserved_start});
  if (j.completed_work > 0) {
    observers_.on_job_restore(now_, j, j.completed_work);
  }
  return true;
}

void Engine::start_job_virtual(std::int64_t job_id, std::int64_t end_time) {
  auto& slot = slot_at(job_id);
  auto& j = slot.job;
  if (j.state != JobState::kQueued) {
    throw std::logic_error("start_job_virtual: job is not queued");
  }
  if (end_time < now_) {
    throw std::invalid_argument("start_job_virtual: end before now");
  }
  j.state = JobState::kRunning;
  j.start = now_;
  j.nodes.clear();
  --queued_count_;
  ++running_count_;
  const std::int64_t version = ++slot.end_version;
  const std::int64_t procs = j.procs;
  push_event(end_time, EventType::kJobEnd, job_id, version);
  observers_.on_decision({now_, job_id, procs, /*virtual_start=*/true,
                          pending_provenance_, pending_reserved_start_});
  pending_provenance_ = StartProvenance::kUnspecified;
  pending_reserved_start_ = -1;
}

void Engine::update_job_end(std::int64_t job_id, std::int64_t new_end) {
  auto& slot = slot_at(job_id);
  if (slot.job.state != JobState::kRunning) {
    throw std::logic_error("update_job_end: job is not running");
  }
  if (new_end < now_) {
    throw std::invalid_argument("update_job_end: end before now");
  }
  const std::int64_t version = ++slot.end_version;
  push_event(new_end, EventType::kJobEnd, job_id, version);
}

void Engine::kill_running_job(std::int64_t job_id) {
  auto& slot = slot_at(job_id);
  if (slot.job.state != JobState::kRunning) {
    throw std::logic_error("kill_running_job: job is not running");
  }
  kill_job(slot, KillReason::kPreempt);
}

void Engine::push_event(std::int64_t time, EventType type, std::int64_t id,
                        std::int64_t version) {
  events_.push({time, type, seq_++, id, version});
}

void Engine::push_arrival(std::int64_t time, std::int64_t id) {
  events_.push_arrival({time, EventType::kSubmit, seq_++, id, /*version=*/1});
}

void Engine::process(const Event& ev) {
  ++events_processed_;
  switch (ev.type) {
    case EventType::kSubmit:
      handle_submit(ev);
      break;
    case EventType::kJobEnd:
      handle_job_end(ev);
      break;
    case EventType::kOutageAnnounce:
      scheduler_->on_outage_announce(*this, outages_.at(std::size_t(ev.id)));
      observers_.on_outage(outages_.at(std::size_t(ev.id)),
                           OutagePhase::kAnnounced);
      scheduler_dirty_ = true;
      break;
    case EventType::kOutageStart:
      handle_outage_start(std::size_t(ev.id));
      break;
    case EventType::kOutageEnd:
      handle_outage_end(std::size_t(ev.id));
      break;
    case EventType::kReservationStart:
      handle_reservation_start(ev.id);
      break;
    case EventType::kReservationEnd:
      reservations_.erase(ev.id);
      scheduler_dirty_ = true;
      break;
  }
}

void Engine::handle_submit(const Event& ev) {
  const std::int64_t job_id = ev.id;
  // One admitted record leaves the lookahead window; top it back up.
  // Externally injected jobs (submit_job) carry version 0 and were
  // never counted, so they must not drain the gauge either.
  if (ev.version != 0 && pending_submits_ > 0) --pending_submits_;
  JobSlot& slot = slot_at(job_id);
  slot.job.state = JobState::kQueued;
  ++queued_count_;
  scheduler_->on_submit(*this, job_id);
  observers_.on_job_submit(now_, slot.job);
  scheduler_dirty_ = true;
  fill_from_source();
}

void Engine::handle_job_end(const Event& ev) {
  JobSlot* slot = find_slot(ev.id);
  if (!slot) return;
  // Stale end events (the job was killed/rescheduled) carry an old
  // version; ignore them.
  if (slot->job.state != JobState::kRunning ||
      slot->end_version != ev.version) {
    return;
  }
  if (slot->overrun_end) {
    // The walltime-overrun deadline, not a completion: the job is
    // killed and dropped (real systems do not restart an overrun job).
    kill_job(*slot, KillReason::kWalltime);
    return;
  }
  finish_job(slot->job);
}

void Engine::finish_job(SimJob& j) {
  j.state = JobState::kFinished;
  j.end = now_;
  mark_terminated(j.id);
  --running_count_;
  release_nodes(j);
  work_node_seconds_ += j.procs * j.runtime;
  makespan_ = std::max(makespan_, now_);

  CompletedJob c;
  c.id = j.id;
  c.submit = j.submit;
  c.start = j.start;
  c.end = j.end;
  c.runtime = j.runtime;
  c.estimate = j.estimate;
  c.procs = j.procs;
  c.user_id = j.user_id;
  c.executable_id = j.executable_id;
  c.queue_id = j.queue_id;
  c.restarts = j.restarts;
  ++jobs_completed_;
  if (config_.retain_completed) completed_.push_back(c);
  // Observers may submit new jobs, which can grow jobs_dense_ and
  // invalidate `j`; use only the copied record from here on.
  const std::int64_t finished_id = c.id;
  observers_.on_job_complete(c);

  scheduler_->on_job_end(*this, finished_id);
  scheduler_dirty_ = true;

  // Closed loop: release dependents. An open-loop run registers none,
  // and skips the hash probe.
  const auto dit = dependents_.empty() ? dependents_.end()
                                       : dependents_.find(finished_id);
  if (dit != dependents_.end()) {
    for (const auto& [dep_id, think] : dit->second) {
      auto& dep = slot_at(dep_id).job;
      dep.submit = now_ + think;
      // Dependents were counted in the gauge when admitted (version 1).
      push_event(dep.submit, EventType::kSubmit, dep_id, /*version=*/1);
    }
    dependents_.erase(dit);
  }

  if (config_.recycle_slots) {
    record_finished(finished_id, c.end);
    release_slot(finished_id);
  }
}

void Engine::release_nodes(SimJob& j) {
  if (j.nodes.empty()) return;
  machine_.release(j.id, j.nodes);
  j.nodes = std::vector<NodeRun>();  // frees the capacity, not just the size
}

void Engine::kill_job(JobSlot& slot, KillReason reason, bool force_drop) {
  // Work performed so far is lost ("any job running on that node would
  // have to be restarted") — except the checkpointed portion, which the
  // next burst resumes from.
  auto& j = slot.job;
  const std::int64_t elapsed = now_ - j.start;
  std::int64_t saved = 0;
  if (reason != KillReason::kWalltime && j.checkpoint_interval > 0) {
    // Checkpoint k completes at restore-prefix + k * (interval + dump)
    // into the burst; everything up to the last completed dump is
    // banked. The final interval of a burst never dumps (the job would
    // complete instead), so k is capped below remaining work.
    const std::int64_t remaining = j.runtime - j.completed_work;
    const std::int64_t prefix = j.completed_work > 0 ? j.read_time : 0;
    const std::int64_t cycle = j.checkpoint_interval + j.dump_time;
    const std::int64_t usable = elapsed - prefix;
    if (usable > 0 && remaining > 1) {
      const std::int64_t k = std::min(
          usable / cycle, (remaining - 1) / j.checkpoint_interval);
      saved = k * j.checkpoint_interval;
    }
    j.completed_work += saved;
  }
  const std::int64_t recovered = j.procs * saved;
  recovered_node_seconds_ += recovered;
  wasted_node_seconds_ += j.procs * elapsed - recovered;
  ++jobs_killed_;
  ++j.restarts;
  --running_count_;
  release_nodes(j);  // down nodes are skipped internally
  ++slot.end_version;  // invalidate the pending end event
  slot.overrun_end = false;

  const auto& rec = config_.recovery;
  bool drop = false;
  DropReason drop_reason = DropReason::kRetryLimit;
  if (force_drop) {
    drop = true;
    drop_reason = DropReason::kCancelled;
  } else if (reason == KillReason::kWalltime) {
    drop = true;
    drop_reason = DropReason::kWalltimeOverrun;
  } else if (rec.retry_limit > 0 && j.restarts >= rec.retry_limit) {
    drop = true;
    drop_reason = DropReason::kRetryLimit;
  }

  KillInfo info;
  info.reason = reason;
  info.lost_node_seconds = j.procs * elapsed - recovered;
  info.saved_work = saved;
  info.attempt = j.restarts;
  info.will_requeue = !drop;
  info.requeue_at = drop ? -1 : now_ + rec.backoff_seconds;
  observers_.on_job_kill(now_, j, info);
  scheduler_->on_job_killed(*this, j.id);
  if (!drop) {
    if (rec.backoff_seconds > 0) {
      // Deferred resubmission: the job leaves the queue entirely until
      // the backoff expires. Version 0 keeps it off the lookahead gauge
      // (it was drained by its original submit already).
      j.state = JobState::kPending;
      push_event(now_ + rec.backoff_seconds, EventType::kSubmit, j.id,
                 /*version=*/0);
    } else {
      j.state = JobState::kQueued;
      ++queued_count_;
      scheduler_->on_submit(*this, j.id);
      observers_.on_job_submit(now_, j);
    }
  } else {
    drop_job(slot, drop_reason);
  }
  scheduler_dirty_ = true;
}

void Engine::drop_job(JobSlot& slot, DropReason reason,
                      bool defer_release) {
  auto& j = slot.job;
  j.state = JobState::kFinished;
  j.end = now_;
  mark_terminated(j.id);
  ++jobs_dropped_;
  observers_.on_job_drop(now_, j, reason);
  const std::int64_t id = j.id;
  // Dependents of a dropped job never run — same outcome as the
  // all-up-front load, where their dependents_ entry simply never
  // fires. But a streaming source must not let those orphans sit in
  // the lookahead gauge forever (the pull window would jam shut and
  // silently truncate the replay), so drop them — and their own
  // dependents, transitively — outright. Dropped orphans are marked
  // terminated (or their slots freed, in recycle mode) so a record
  // pulled later that names one as predecessor resolves instead of
  // deferring forever; they are not recorded in the closed-loop
  // history: dropped, not released.
  std::vector<std::int64_t> doomed = {id};
  if (config_.recycle_slots && !defer_release) release_slot(id);
  while (!doomed.empty()) {
    const std::int64_t doomed_id = doomed.back();
    doomed.pop_back();
    const auto dit = dependents_.find(doomed_id);
    if (dit == dependents_.end()) continue;
    for (const auto& [dep_id, think] : dit->second) {
      (void)think;
      if (pending_submits_ > 0) --pending_submits_;
      mark_terminated(dep_id);
      if (config_.recycle_slots) {
        release_slot(dep_id);
      } else if (JobSlot* dep = find_slot(dep_id)) {
        dep->job.state = JobState::kFinished;
        dep->job.end = now_;
      }
      doomed.push_back(dep_id);
    }
    dependents_.erase(dit);
  }
}

void Engine::handle_outage_start(std::size_t idx) {
  const auto& rec = outages_[idx];
  std::vector<std::int64_t> victims;
  for (std::int64_t node : rec.components) {
    if (node < 0 || node >= machine_.total_nodes()) continue;
    const std::int64_t owner = machine_.take_down(node);
    if (owner >= 0) victims.push_back(owner);
  }
  // Deduplicate victims (a job may own several failed nodes).
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (std::int64_t job_id : victims) {
    auto& slot = slot_at(job_id);
    if (slot.job.state == JobState::kRunning) {
      kill_job(slot, KillReason::kOutage);
    }
  }
  scheduler_->on_outage_start(*this, rec);
  observers_.on_outage(rec, OutagePhase::kStarted);
  scheduler_dirty_ = true;
}

void Engine::handle_outage_end(std::size_t idx) {
  const auto& rec = outages_[idx];
  for (std::int64_t node : rec.components) {
    if (node < 0 || node >= machine_.total_nodes()) continue;
    if (machine_.owner(node) == kDown) machine_.bring_up(node);
  }
  scheduler_->on_outage_end(*this, rec);
  observers_.on_outage(rec, OutagePhase::kEnded);
  scheduler_dirty_ = true;
}

void Engine::handle_reservation_start(std::int64_t res_id) {
  const auto it = reservations_.find(res_id);
  if (it == reservations_.end()) return;
  const auto& res = it->second;
  // The attached job may have terminated (and, in recycle_slots mode,
  // lost its slot) before its window opened.
  const JobSlot* slot = res.job_id ? find_slot(*res.job_id) : nullptr;
  if (slot && slot->job.state == JobState::kQueued) {
    // The scheduler blocked this window, so the allocation succeeds
    // unless an outage shrank the machine; in that case the job stays
    // queued and the scheduler starts it when capacity returns.
    annotate_start(StartProvenance::kReservation, res.start);
    start_job(*res.job_id);
  }
  scheduler_dirty_ = true;
}

void Engine::account_capacity_to(std::int64_t t) {
  if (t <= capacity_accounted_until_) return;
  capacity_node_seconds_ +=
      machine_.up_nodes() * (t - capacity_accounted_until_);
  capacity_accounted_until_ = t;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.capacity_node_seconds = capacity_node_seconds_;
  s.work_node_seconds = work_node_seconds_;
  s.wasted_node_seconds = wasted_node_seconds_;
  s.recovered_node_seconds = recovered_node_seconds_;
  s.makespan = makespan_;
  s.jobs_completed = jobs_completed_;
  s.jobs_killed = jobs_killed_;
  s.jobs_dropped = jobs_dropped_;
  s.events_processed = events_processed_;
  return s;
}

}  // namespace pjsb::sim
