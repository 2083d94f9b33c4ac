#include "sched/backfill.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

void BackfillBase::on_attach(SchedulerContext& ctx) {
  total_nodes_ = ctx.machine().total_nodes();
  profile_ = CapacityProfile(total_nodes_);
  if (tracked_full_) *tracked_full_ = profile_;
  base_changed_ = true;
}

void BackfillBase::add_base_usage(std::int64_t start, std::int64_t end,
                                  std::int64_t procs) {
  profile_.add_usage(start, end, procs);
  if (tracked_full_) tracked_full_->add_usage(start, end, procs);
}

void BackfillBase::remove_base_usage(std::int64_t start, std::int64_t end,
                                     std::int64_t procs) {
  profile_.remove_usage(start, end, procs);
  if (tracked_full_) tracked_full_->remove_usage(start, end, procs);
}

void BackfillBase::compact_profiles(std::int64_t now) {
  profile_.compact_before(now);
  if (tracked_full_) tracked_full_->compact_before(now);
}

void BackfillBase::on_submit(SchedulerContext& ctx, std::int64_t job_id) {
  queue_.push_back(job_id);
  const auto& j = ctx.job(job_id);
  queued_info_[job_id] = {j.procs, j.estimate};
}

void BackfillBase::release_running(std::int64_t job_id, std::int64_t now) {
  const auto it = running_.find(job_id);
  if (it == running_.end()) return;  // started externally, never tracked
  const auto& rj = it->second;
  // The job's capacity is free from `now` on; its history stays in the
  // profile until the next compaction.
  if (rj.profile_end > now) {
    remove_base_usage(now, rj.profile_end, rj.procs);
  }
  running_.erase(it);
  base_changed_ = true;
}

void BackfillBase::on_job_end(SchedulerContext& ctx, std::int64_t job_id) {
  release_running(job_id, ctx.now());
}

void BackfillBase::on_job_killed(SchedulerContext& ctx,
                                 std::int64_t job_id) {
  release_running(job_id, ctx.now());
}

void BackfillBase::note_outage(std::int64_t now,
                               const outage::OutageRecord& rec) {
  // Deduplicate: an announced outage is seen at announce AND start.
  for (const auto& w : outages_) {
    if (w.start == rec.start_time && w.end == rec.end_time &&
        w.nodes == rec.nodes_affected) {
      return;
    }
  }
  outages_.push_back({rec.start_time, rec.end_time, rec.nodes_affected});
  if (rec.end_time > now) {
    add_base_usage(std::max(rec.start_time, now), rec.end_time,
                   rec.nodes_affected);
  }
  base_changed_ = true;
}

void BackfillBase::on_outage_announce(SchedulerContext& ctx,
                                      const outage::OutageRecord& rec) {
  note_outage(ctx.now(), rec);
}

void BackfillBase::on_outage_start(SchedulerContext& ctx,
                                   const outage::OutageRecord& rec) {
  note_outage(ctx.now(), rec);
}

void BackfillBase::on_outage_end(SchedulerContext& ctx,
                                 const outage::OutageRecord& rec) {
  // Capacity is back; drop the window (it may end early in principle).
  const std::int64_t now = ctx.now();
  std::erase_if(outages_, [&](const OutageWindow& w) {
    const bool drop = w.end <= now || (w.start == rec.start_time &&
                                       w.nodes == rec.nodes_affected);
    if (drop && w.end > now) {
      remove_base_usage(std::max(w.start, now), w.end, w.nodes);
      base_changed_ = true;
    }
    return drop;
  });
}

void BackfillBase::note_started(std::int64_t id, std::int64_t now,
                                std::int64_t estimate, std::int64_t procs) {
  const std::int64_t end = now + estimate;
  running_[id] = {id, end, procs, end};
  add_base_usage(now, end, procs);
  expiry_heap_.push({end, id});
}

void BackfillBase::refresh_profile(std::int64_t now) {
  // Jobs that outlive their estimate keep occupying the machine: mirror
  // base_profile()'s end clamp by extending their usage one tick at a
  // time (rare — estimates are lower-bounded by runtimes in traces).
  while (!expiry_heap_.empty() && expiry_heap_.top().first <= now) {
    const auto [end, id] = expiry_heap_.top();
    expiry_heap_.pop();
    const auto it = running_.find(id);
    if (it == running_.end() || it->second.profile_end != end) continue;
    it->second.profile_end = now + 1;
    add_base_usage(now, now + 1, it->second.procs);
    expiry_heap_.push({now + 1, id});
    base_changed_ = true;
  }

  // Committed reservations whose window has passed no longer influence
  // any query from `now` on; drop them so the list stays bounded.
  std::erase_if(reservations_, [&](const AdvanceReservation& res) {
    return res.start + res.duration <= now;
  });

  // Fold history into the base so the step count stays O(running +
  // reservations + outages) over million-job traces.
  compact_profiles(now);

  if (cross_check_) {
    const CapacityProfile rebuilt = base_profile(now, total_nodes_);
    if (!profile_.same_from(rebuilt, now)) {
      std::ostringstream os;
      os << "BackfillBase: incremental profile diverged from rebuild at t="
         << now << "\nincremental:\n"
         << profile_.to_string() << "rebuilt:\n"
         << rebuilt.to_string();
      throw std::logic_error(os.str());
    }
  }
}

CapacityProfile BackfillBase::base_profile(std::int64_t now,
                                           std::int64_t total_nodes) const {
  CapacityProfile profile(total_nodes);
  for (const auto& [id, rj] : running_) {
    const std::int64_t end = std::max(rj.expected_end, now + 1);
    profile.add_usage(now, end, rj.procs);
  }
  for (const auto& res : reservations_) {
    const std::int64_t end = res.start + res.duration;
    if (end <= now) continue;
    profile.add_usage(std::max(res.start, now), end, res.procs);
  }
  for (const auto& w : outages_) {
    if (w.end <= now) continue;
    profile.add_usage(std::max(w.start, now), w.end, w.nodes);
  }
  return profile;
}

void BackfillBase::prune_queue(SchedulerContext& ctx) {
  std::erase_if(queue_, [&](std::int64_t id) {
    if (ctx.job(id).state != sim::JobState::kQueued) {
      queued_info_.erase(id);
      return true;
    }
    return false;
  });
}

std::int64_t BackfillBase::earliest_reservation_start(
    std::int64_t now, std::int64_t from, std::int64_t duration,
    std::int64_t procs, std::int64_t /*total_nodes*/) const {
  return profile_.earliest_start(std::max(from, now), duration, procs);
}

bool BackfillBase::try_reserve(SchedulerContext& ctx,
                               const AdvanceReservation& reservation) {
  const std::int64_t now = ctx.now();
  const std::int64_t end = reservation.start + reservation.duration;
  const std::int64_t from = std::max(reservation.start, now);
  if (!profile_.fits(from, end - from, reservation.procs)) {
    return false;
  }
  reservations_.push_back(reservation);
  add_base_usage(from, end, reservation.procs);
  base_changed_ = true;
  return true;
}

void BackfillBase::write_profile(sim::snapshot::Writer& w,
                                 const CapacityProfile& profile) {
  w.i64(profile.base_capacity());
  w.u64(profile.step_count());
  for (std::size_t i = 0; i < profile.step_count(); ++i) {
    const auto [time, avail] = profile.step_at(i);
    w.i64(time);
    w.i64(avail);
  }
}

CapacityProfile BackfillBase::read_profile(sim::snapshot::Reader& r) {
  const std::int64_t base = r.i64();
  const std::size_t n = r.count("profile step", 8 + 8);
  std::vector<std::pair<std::int64_t, std::int64_t>> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t time = r.i64();
    const std::int64_t avail = r.i64();
    steps.emplace_back(time, avail);
  }
  return CapacityProfile::from_steps(base, steps);
}

void BackfillBase::save_state(sim::snapshot::Writer& w) const {
  w.u64(queue_.size());
  for (std::int64_t id : queue_) w.i64(id);

  // Hash maps are serialized in sorted-key order so the byte stream is
  // independent of hashing/insertion history; lookups don't care.
  std::vector<std::int64_t> ids;
  ids.reserve(queued_info_.size());
  for (const auto& [id, info] : queued_info_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (std::int64_t id : ids) {
    const auto& info = queued_info_.at(id);
    w.i64(id);
    w.i64(info.procs);
    w.i64(info.estimate);
  }

  ids.clear();
  for (const auto& [id, rj] : running_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (std::int64_t id : ids) {
    const auto& rj = running_.at(id);
    w.i64(rj.id);
    w.i64(rj.expected_end);
    w.i64(rj.procs);
    w.i64(rj.profile_end);
  }

  w.u64(reservations_.size());
  for (const auto& res : reservations_) {
    w.i64(res.id);
    w.i64(res.start);
    w.i64(res.duration);
    w.i64(res.procs);
    w.boolean(res.job_id.has_value());
    if (res.job_id) w.i64(*res.job_id);
  }

  w.u64(outages_.size());
  for (const auto& o : outages_) {
    w.i64(o.start);
    w.i64(o.end);
    w.i64(o.nodes);
  }

  w.i64(total_nodes_);
  write_profile(w, profile_);

  // Drain a copy of the overrun heap in pop order; equal entries are
  // identical pairs, so re-pushing in this order rebuilds a heap with
  // the same pop sequence.
  auto heap = expiry_heap_;
  w.u64(heap.size());
  while (!heap.empty()) {
    const auto [end, id] = heap.top();
    heap.pop();
    w.i64(end);
    w.i64(id);
  }

  w.boolean(base_changed_);
  // cross_check_ is a build/debug setting of the restoring process,
  // not simulation state; it is deliberately not serialized.
}

void BackfillBase::load_state(sim::snapshot::Reader& r) {
  queue_.clear();
  std::size_t n = r.count("backfill queue", 8);
  for (std::size_t i = 0; i < n; ++i) queue_.push_back(r.i64());

  queued_info_.clear();
  n = r.count("backfill queued job", 3 * 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t id = r.i64();
    QueuedInfo info;
    info.procs = r.i64();
    info.estimate = r.i64();
    queued_info_.emplace(id, info);
  }

  running_.clear();
  n = r.count("backfill running job", 4 * 8);
  for (std::size_t i = 0; i < n; ++i) {
    RunningJob rj;
    rj.id = r.i64();
    rj.expected_end = r.i64();
    rj.procs = r.i64();
    rj.profile_end = r.i64();
    running_.emplace(rj.id, rj);
  }

  reservations_.clear();
  n = r.count("backfill reservation", 4 * 8 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    AdvanceReservation res;
    res.id = r.i64();
    res.start = r.i64();
    res.duration = r.i64();
    res.procs = r.i64();
    if (r.boolean()) res.job_id = r.i64();
    reservations_.push_back(res);
  }

  outages_.clear();
  n = r.count("backfill outage", 3 * 8);
  for (std::size_t i = 0; i < n; ++i) {
    OutageWindow o;
    o.start = r.i64();
    o.end = r.i64();
    o.nodes = r.i64();
    outages_.push_back(o);
  }

  total_nodes_ = r.i64();
  profile_ = read_profile(r);

  expiry_heap_ = {};
  n = r.count("backfill expiry", 8 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t end = r.i64();
    const std::int64_t id = r.i64();
    expiry_heap_.push({end, id});
  }

  base_changed_ = r.boolean();
}

}  // namespace pjsb::sched
