// Engine snapshot/restore: the full simulation state round-trip.
//
// Implemented as Engine member functions (the state being serialized is
// almost entirely private), kept in this file so the engine's hot path
// stays free of serialization code. Field order is the format; see
// snapshot.hpp for the layout contract and what is deliberately left
// out (runtime attachments).
#include "sim/snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sim {

namespace {

using snapshot::Reader;
using snapshot::Writer;

// Smallest encoding of one entry per section, which Reader::count
// holds every count in the file to.
constexpr std::size_t kJobBytes = 16 * 8 + 1 + 8;  // fields, state, nodes
constexpr std::size_t kSlotBytes = kJobBytes + 8 + 1;
constexpr std::size_t kEventBytes = 4 * 8 + 1;
constexpr std::size_t kOutageBytes = 5 * 8 + 8;
constexpr std::size_t kReservationBytes = 4 * 8 + 1;
constexpr std::size_t kCompletedBytes = 11 * 8;

void write_config(Writer& w, const EngineConfig& c) {
  w.i64(c.nodes);
  w.boolean(c.deliver_announcements);
  w.boolean(c.closed_loop);
  w.boolean(c.retain_completed);
  w.boolean(c.recycle_slots);
  w.i64(c.recovery.checkpoint_interval);
  w.i64(c.recovery.dump_time);
  w.i64(c.recovery.read_time);
  w.i64(c.recovery.retry_limit);
  w.i64(c.recovery.backoff_seconds);
  w.u8(std::uint8_t(c.recovery.overrun));
  w.i64(c.recovery.grace_seconds);
}

EngineConfig read_config(Reader& r) {
  EngineConfig c;
  c.nodes = r.i64();
  if (c.nodes < 1 || c.nodes > kMaxSpecNodes) {
    throw std::runtime_error("snapshot: machine size " +
                             std::to_string(c.nodes) + " out of range");
  }
  c.deliver_announcements = r.boolean();
  c.closed_loop = r.boolean();
  c.retain_completed = r.boolean();
  c.recycle_slots = r.boolean();
  c.recovery.checkpoint_interval = r.i64();
  c.recovery.dump_time = r.i64();
  c.recovery.read_time = r.i64();
  c.recovery.retry_limit = int(r.i64());
  c.recovery.backoff_seconds = r.i64();
  const std::uint8_t overrun = r.u8();
  if (overrun > std::uint8_t(fault::OverrunPolicy::kGrace)) {
    throw std::runtime_error("snapshot: bad overrun policy code");
  }
  c.recovery.overrun = fault::OverrunPolicy(overrun);
  c.recovery.grace_seconds = r.i64();
  return c;
}

void write_job(Writer& w, const SimJob& j) {
  w.i64(j.id);
  w.i64(j.submit);
  w.i64(j.runtime);
  w.i64(j.estimate);
  w.i64(j.procs);
  w.i64(j.user_id);
  w.i64(j.executable_id);
  w.i64(j.queue_id);
  w.i64(j.walltime);
  w.i64(j.checkpoint_interval);
  w.i64(j.dump_time);
  w.i64(j.read_time);
  w.u8(std::uint8_t(j.state));
  w.i64(j.start);
  w.i64(j.end);
  w.i64(j.restarts);
  w.i64(j.completed_work);
  // The allocation as its node count, then every node id.
  std::uint64_t held = 0;
  for (const NodeRun& run : j.nodes) held += std::uint64_t(run.count);
  w.u64(held);
  for (const NodeRun& run : j.nodes) {
    for (std::int64_t n = run.first; n < run.first + run.count; ++n) w.i64(n);
  }
}

/// `machine_nodes` bounds the node ids of the job's allocation.
SimJob read_job(Reader& r, std::int64_t machine_nodes) {
  SimJob j;
  j.id = r.i64();
  j.submit = r.time("job submit time", kMaxInstant);
  j.runtime = r.time("job runtime", kMaxTime);
  j.estimate = r.time("job estimate", kMaxTime);
  j.procs = r.i64();
  j.user_id = r.i64();
  j.executable_id = r.i64();
  j.queue_id = r.i64();
  j.walltime = r.time("job walltime", kMaxTime);
  j.checkpoint_interval = r.time("job checkpoint interval", kMaxTime);
  j.dump_time = r.time("job dump time", kMaxTime);
  j.read_time = r.time("job read time", kMaxTime);
  // Admission holds each burst to kMaxTime too, so no end event lies
  // further than that past the clock.
  if (!j.burst_within(kMaxTime)) {
    throw std::runtime_error("snapshot: job " + std::to_string(j.id) +
                             " checkpointed burst is above the time bound " +
                             std::to_string(kMaxTime) + " s");
  }
  const std::uint8_t state = r.u8();
  if (state > std::uint8_t(JobState::kFinished)) {
    throw std::runtime_error("snapshot: bad job state code");
  }
  j.state = JobState(state);
  j.start = r.time("job start time", kMaxInstant);
  j.end = r.time("job end time", kMaxInstant);
  j.restarts = int(r.i64());
  j.completed_work = r.i64();
  // Node ids coalesce back into runs: an id one past the last run
  // extends it, any other starts a new one, so the ids re-expand in the
  // order read.
  const std::size_t n = r.count("node list", 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t node = r.i64();
    if (node < 0 || node >= machine_nodes) {
      throw std::runtime_error("snapshot: node id " + std::to_string(node) +
                               " outside the machine");
    }
    if (!j.nodes.empty() &&
        j.nodes.back().first + j.nodes.back().count == node) {
      ++j.nodes.back().count;
    } else {
      j.nodes.push_back({node, 1});
    }
  }
  return j;
}

void write_header(Writer& w) {
  for (char c : snapshot::kMagic) w.u8(std::uint8_t(c));
  w.u32(snapshot::kFormatVersion);
}

void read_header(Reader& r) {
  for (char c : snapshot::kMagic) {
    if (r.u8() != std::uint8_t(c)) {
      throw std::runtime_error("snapshot: bad magic (not a snapshot file)");
    }
  }
  const std::uint32_t version = r.u32();
  if (version != snapshot::kFormatVersion) {
    throw std::runtime_error(
        "snapshot: unsupported format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(snapshot::kFormatVersion) + ")");
  }
}

}  // namespace

std::string Engine::snapshot() const { return write_snapshot(false); }

std::string Engine::live_snapshot() const {
  if (source_ != nullptr || source_pending_resume_) {
    throw std::logic_error(
        "live_snapshot: a job source is attached; only the full "
        "snapshot() carries what later records may refer to");
  }
  return write_snapshot(true);
}

void Engine::write_slot(Writer& w, const JobSlot& slot) {
  write_job(w, slot.job);
  w.i64(slot.end_version);
  w.boolean(slot.overrun_end);
}

void Engine::write_jobs(Writer& w, bool live) const {
  // The overflow map's slots, sorted by id (hash order is not
  // deterministic): all of them, or the live ones, which are the live
  // ids kept beside the map, or, under recycle_slots, the map itself
  // (it holds no terminated job between steps).
  std::vector<std::pair<std::int64_t, const JobSlot*>> outliers;
  if (live && !config_.recycle_slots) {
    outliers.reserve(live_overflow_.size());
    for (const std::int64_t id : live_overflow_) {
      outliers.emplace_back(id, &jobs_overflow_.at(id));
    }
  } else {
    outliers.reserve(jobs_overflow_.size());
    for (const auto& [id, slot] : jobs_overflow_) {
      if (!live || slot.job.state != JobState::kFinished) {
        outliers.emplace_back(id, &slot);
      }
    }
    std::sort(outliers.begin(), outliers.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::uint64_t count = outliers.size();
  if (live) {
    for (const std::uint64_t word : live_bits_) count += std::popcount(word);
  } else {
    count += dense_held_;
  }
  w.u64(count);

  // The dense slots in id order, merged with the outliers: the live
  // bits a word at a time, or every occupied slot.
  auto outlier = outliers.begin();
  const auto write_dense = [&](std::size_t i) {
    for (; outlier != outliers.end() && outlier->first < std::int64_t(i);
         ++outlier) {
      write_slot(w, *outlier->second);
    }
    write_slot(w, jobs_dense_[i]);
  };
  if (live) {
    for (std::size_t word = 0; word < live_bits_.size(); ++word) {
      for (std::uint64_t bits = live_bits_[word]; bits != 0;
           bits &= bits - 1) {
        write_dense(word * 64 + std::size_t(std::countr_zero(bits)));
      }
    }
  } else {
    for (std::size_t i = 0; i < jobs_dense_.size(); ++i) {
      if (jobs_dense_[i].job.id != 0) write_dense(i);
    }
  }
  for (; outlier != outliers.end(); ++outlier) write_slot(w, *outlier->second);
}

std::string Engine::write_snapshot(bool live) const {
  Writer w;
  write_header(w);
  // A live snapshot is the state of a recycle_slots engine: restoring
  // it keeps the clone O(live jobs) from here on too.
  EngineConfig config = config_;
  if (live) {
    config.retain_completed = false;
    config.recycle_slots = true;
  }
  write_config(w, config);
  w.str(scheduler_->name());

  // Scalars.
  w.i64(now_);
  w.i64(seq_);
  w.i64(next_job_id_);
  w.i64(next_reservation_id_);
  w.u64(queued_count_);
  w.u64(running_count_);
  w.i64(capacity_accounted_until_);
  w.i64(capacity_node_seconds_);
  w.i64(work_node_seconds_);
  w.i64(wasted_node_seconds_);
  w.i64(recovered_node_seconds_);
  w.i64(makespan_);
  w.i64(jobs_completed_);
  w.i64(jobs_killed_);
  w.i64(jobs_dropped_);
  w.i64(events_processed_);
  w.boolean(scheduler_dirty_);

  // Event queue, in pop order with sequence numbers preserved — the
  // (time, type, seq) order is total, so re-queueing the same set
  // reproduces the donor's pop order exactly, whichever part of the
  // queue each event lands in.
  {
    const std::vector<Event> events = events_.in_pop_order();
    w.u64(events.size());
    for (const Event& ev : events) {
      w.i64(ev.time);
      w.u8(std::uint8_t(int(ev.type)));
      w.i64(ev.seq);
      w.i64(ev.id);
      w.i64(ev.version);
    }
  }

  write_jobs(w, live);

  // Closed-loop dependency edges, sorted by predecessor.
  {
    std::vector<std::int64_t> preds;
    preds.reserve(dependents_.size());
    for (const auto& [pred, deps] : dependents_) preds.push_back(pred);
    std::sort(preds.begin(), preds.end());
    w.u64(preds.size());
    for (std::int64_t pred : preds) {
      const auto& deps = dependents_.at(pred);
      w.i64(pred);
      w.u64(deps.size());
      for (const auto& [dep, think] : deps) {
        w.i64(dep);
        w.i64(think);
      }
    }
  }

  // Outage book (events referencing these indices are already in the
  // queue above).
  w.u64(outages_.size());
  for (const auto& rec : outages_) {
    w.i64(rec.announce_time);
    w.i64(rec.start_time);
    w.i64(rec.end_time);
    w.i64(std::int64_t(rec.type));
    w.i64(rec.nodes_affected);
    w.u64(rec.components.size());
    for (std::int64_t n : rec.components) w.i64(n);
  }

  // Reservation book (std::map — already in id order).
  w.u64(reservations_.size());
  for (const auto& [id, res] : reservations_) {
    w.i64(res.id);
    w.i64(res.start);
    w.i64(res.duration);
    w.i64(res.procs);
    w.boolean(res.job_id.has_value());
    if (res.job_id) w.i64(*res.job_id);
  }

  // Completed-job archive (live: empty, as under retain_completed=0).
  const std::vector<CompletedJob> none;
  const std::vector<CompletedJob>& archive = live ? none : completed_;
  w.u64(archive.size());
  for (const auto& c : archive) {
    w.i64(c.id);
    w.i64(c.submit);
    w.i64(c.start);
    w.i64(c.end);
    w.i64(c.runtime);
    w.i64(c.estimate);
    w.i64(c.procs);
    w.i64(c.user_id);
    w.i64(c.executable_id);
    w.i64(c.queue_id);
    w.i64(c.restarts);
  }

  // Pull-source cursor. "Active" means the donor would still pull
  // (source attached, or itself restored and awaiting resume).
  w.boolean(source_ != nullptr || source_pending_resume_);
  w.u64(source_opts_.lookahead);
  w.u64(source_opts_.max_jobs);
  w.u64(kClosedLoopHistory);
  w.u64(source_pulled_);
  w.u64(source_clamped_);
  w.u64(pending_submits_);

  // Terminated-job history (closed-loop recycle mode), in termination
  // order so FIFO eviction resumes identically.
  w.u64(finished_order_.size());
  for (std::int64_t id : finished_order_) {
    w.i64(id);
    w.i64(finished_end_.at(id));
  }

  machine_.save_state(w);
  scheduler_->save_state(w);
  return w.take();
}

void Engine::load_snapshot(snapshot::Reader& r) {
  // Every time passes Reader::time: admitted durations are held to
  // kMaxTime as admission holds them, instants to kMaxInstant.
  now_ = r.time("clock", kMaxInstant);
  seq_ = r.i64();
  next_job_id_ = r.i64();
  next_reservation_id_ = r.i64();
  queued_count_ = std::size_t(r.u64());
  running_count_ = std::size_t(r.u64());
  capacity_accounted_until_ = r.time("capacity clock", kMaxInstant);
  capacity_node_seconds_ = r.i64();
  work_node_seconds_ = r.i64();
  wasted_node_seconds_ = r.i64();
  recovered_node_seconds_ = r.i64();
  makespan_ = r.time("makespan", kMaxInstant);
  jobs_completed_ = r.i64();
  jobs_killed_ = r.i64();
  jobs_dropped_ = r.i64();
  events_processed_ = r.i64();
  scheduler_dirty_ = r.boolean();

  // Admitted records whose submit has not been processed: queued
  // source submits (version != 0) plus deferred closed-loop dependents.
  // The source cursor's pending count must equal it.
  std::size_t pending = 0;
  {
    // Source-admitted submits go back on the FIFO run (push_arrival
    // keeps it ordered whatever the file holds), the rest on the heap.
    events_ = EventQueue();
    const std::size_t n = r.count("event", kEventBytes);
    for (std::size_t i = 0; i < n; ++i) {
      Event ev;
      ev.time = r.time("event time", kMaxInstant);
      const std::uint8_t type = r.u8();
      if (type > std::uint8_t(int(EventType::kReservationStart))) {
        throw std::runtime_error("snapshot: bad event type code");
      }
      ev.type = EventType(int(type));
      ev.seq = r.i64();
      ev.id = r.i64();
      ev.version = r.i64();
      if (ev.type == EventType::kSubmit && ev.version != 0) ++pending;
      if (ev.type == EventType::kSubmit && ev.version == 1) {
        events_.push_arrival(ev);
      } else {
        events_.push(ev);
      }
    }
  }

  {
    // Each job goes where obtain_slot places it, as at admission: the
    // file does not record placement, and ascending ids make each one
    // new. Under recycle_slots every job lands in the map.
    const std::size_t n = r.count("job", kSlotBytes);
    if (config_.recycle_slots) jobs_overflow_.reserve(n);
    std::int64_t last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      JobSlot slot;
      slot.job = read_job(r, machine_.total_nodes());
      slot.end_version = r.i64();
      slot.overrun_end = r.boolean();
      const std::int64_t id = slot.job.id;
      if (id <= last) {
        throw std::runtime_error("snapshot: job " + std::to_string(id) +
                                 " in the job section does not ascend past " +
                                 std::to_string(last));
      }
      last = id;
      const bool live = slot.job.state != JobState::kFinished;
      obtain_slot(id) = std::move(slot);
      if (live) mark_live(id);
    }
    // Ids the engine picks start at next_job_id_, so it must pass every
    // job held.
    if (next_job_id_ <= last) {
      throw std::runtime_error("snapshot: next job id " +
                               std::to_string(next_job_id_) +
                               " is not above job " + std::to_string(last));
    }
  }

  dependents_.clear();
  {
    const std::size_t n = r.count("dependency", 8 + 8);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t pred = r.i64();
      const std::size_t deps = r.count("dependent", 8 + 8);
      pending += deps;
      auto& edges = dependents_[pred];
      edges.reserve(deps);
      for (std::size_t d = 0; d < deps; ++d) {
        const std::int64_t dep = r.i64();
        const std::int64_t think = r.time("think time", kMaxTime);
        edges.push_back({dep, think});
      }
    }
  }

  outages_.clear();
  {
    const std::size_t n = r.count("outage", kOutageBytes);
    outages_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      outage::OutageRecord rec;
      rec.announce_time = r.time("outage announce time", kMaxInstant);
      rec.start_time = r.time("outage start", kMaxInstant);
      rec.end_time = r.time("outage end", kMaxInstant);
      rec.type = outage::OutageType(r.i64());
      rec.nodes_affected = r.i64();
      const std::size_t comps = r.count("outage node", 8);
      rec.components.reserve(comps);
      for (std::size_t c = 0; c < comps; ++c) {
        rec.components.push_back(r.i64());
      }
      outages_.push_back(std::move(rec));
    }
  }

  reservations_.clear();
  {
    const std::size_t n = r.count("reservation", kReservationBytes);
    for (std::size_t i = 0; i < n; ++i) {
      sched::AdvanceReservation res;
      res.id = r.i64();
      res.start = r.time("reservation start", kMaxInstant);
      res.duration = r.time("reservation duration", kMaxInstant);
      res.procs = r.i64();
      if (r.boolean()) res.job_id = r.i64();
      reservations_.emplace(res.id, res);
    }
  }

  completed_.clear();
  {
    const std::size_t n = r.count("completed job", kCompletedBytes);
    completed_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      CompletedJob c;
      c.id = r.i64();
      c.submit = r.time("completed job submit time", kMaxInstant);
      c.start = r.time("completed job start time", kMaxInstant);
      c.end = r.time("completed job end time", kMaxInstant);
      c.runtime = r.time("completed job runtime", kMaxTime);
      c.estimate = r.time("completed job estimate", kMaxTime);
      c.procs = r.i64();
      c.user_id = r.i64();
      c.executable_id = r.i64();
      c.queue_id = r.i64();
      c.restarts = int(r.i64());
      completed_.push_back(c);
    }
  }

  source_ = nullptr;
  source_pending_resume_ = r.boolean();
  source_opts_.lookahead = std::size_t(r.u64());
  if (source_opts_.lookahead == 0) {
    throw std::runtime_error("snapshot: source lookahead 0 (at least 1)");
  }
  source_opts_.max_jobs = r.u64();
  if (const std::uint64_t history = r.u64(); history != kClosedLoopHistory) {
    throw std::runtime_error("snapshot: closed-loop history " +
                             std::to_string(history) + " (must be " +
                             std::to_string(kClosedLoopHistory) + ")");
  }
  source_pulled_ = r.u64();
  source_clamped_ = r.u64();
  pending_submits_ = std::size_t(r.u64());
  if (pending_submits_ != pending) {
    throw std::runtime_error(
        "snapshot: pending submits " + std::to_string(pending_submits_) +
        ", but the state holds " + std::to_string(pending) +
        " queued or deferred submits");
  }

  finished_end_.clear();
  finished_order_.clear();
  {
    const std::size_t n = r.count("finished job", 8 + 8);
    finished_end_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t id = r.i64();
      finished_end_.emplace(id, r.time("finished job end time", kMaxInstant));
      finished_order_.push_back(id);
    }
  }

  machine_.load_state(r);
  scheduler_->load_state(r);
}

std::unique_ptr<Engine> Engine::restore(const std::string& bytes) {
  snapshot::Reader r(bytes);
  read_header(r);
  const EngineConfig config = read_config(r);
  const std::string spec = r.str();
  // Same policy, same parameters (name() round-trips by contract);
  // on_attach runs in the constructor, load_snapshot then overwrites
  // every piece of runtime state.
  auto engine =
      std::make_unique<Engine>(config, sched::make_scheduler(spec));
  engine->load_snapshot(r);
  r.expect_done();
  return engine;
}

void Engine::resume_job_source(swf::JobSource& source) {
  if (!source_pending_resume_) {
    throw std::logic_error(
        "resume_job_source: this engine has no pending source to resume");
  }
  // Skip everything the donor already pulled; the source then stands at
  // exactly the donor's cursor.
  for (std::uint64_t i = 0; i < source_pulled_; ++i) {
    if (!source.next()) {
      throw std::runtime_error(
          "resume_job_source: source exhausted before the donor's cursor (" +
          std::to_string(source_pulled_) + " records) — wrong source?");
    }
  }
  source_ = &source;
  source_pending_resume_ = false;
  // Deliberately no eager fill: the donor tops the window back up only
  // inside submit handling (or a step() that finds the queue empty),
  // and a resumed run must assign event sequence numbers at exactly the
  // same points.
}

}  // namespace pjsb::sim

namespace pjsb::sim::snapshot {

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("snapshot: cannot open for writing: " + path);
  }
  out.write(bytes.data(), std::streamsize(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("snapshot: write failed: " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("snapshot: read failed: " + path);
  return bytes;
}

}  // namespace pjsb::sim::snapshot
