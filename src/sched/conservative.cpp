#include "sched/conservative.hpp"

#include <algorithm>
#include <vector>

#include "sched/registry.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

SchedulerInfo conservative_scheduler_info() {
  SchedulerInfo info;
  info.name = "conservative";
  info.description =
      "conservative backfilling: every queued job holds a reservation";
  info.aliases = {"cons"};
  info.params = {ParamSpec::integer(
      "reserve_depth",
      "queued jobs granted reservations; jobs beyond the depth backfill "
      "opportunistically (0 = all jobs, the classic policy)",
      0, 0, 1 << 20)};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<ConservativeScheduler>(
        int(values.get_int("reserve_depth")));
  };
  return info;
}

std::string ConservativeScheduler::name() const {
  if (reserve_depth_ == 0) return "conservative";
  return "conservative reserve_depth=" + std::to_string(reserve_depth_);
}

void ConservativeScheduler::on_attach(SchedulerContext& ctx) {
  BackfillBase::on_attach(ctx);
  full_profile_ = profile_;
}

std::optional<std::int64_t> ConservativeScheduler::reserved_start(
    std::int64_t job_id) const {
  const auto it = placed_.find(job_id);
  if (it == placed_.end()) return std::nullopt;
  return it->second;
}

void ConservativeScheduler::schedule(SchedulerContext& ctx) {
  const std::int64_t now = ctx.now();
  total_nodes_ = ctx.machine().total_nodes();
  const std::size_t before_prune = queue_.size();
  prune_queue(ctx);
  const bool externally_started = queue_.size() != before_prune;
  refresh_profile(now);  // may flag an overrun extension

  // Annotate-and-start: stamp the reason onto the emitted decision.
  const auto start_as = [&ctx](std::int64_t id, sim::StartProvenance why,
                               std::int64_t detail = -1) {
    ctx.annotate_start(why, detail);
    return ctx.start_job(id);
  };

  // Submission-only fast path: when the base profile's semantics did
  // not change since the last pass, standing reservations can neither
  // improve nor break — only reservations that came due need starting
  // and only unplaced (new / beyond-depth) jobs need work, against the
  // maintained base+claims profile. This is the common case on a
  // backfill-heavy replay (every job contributes one submit event).
  if (!consume_base_change() && !externally_started &&
      !full_profile_stale_) {
    std::size_t reserved = placed_.size();
    for (auto it = queue_.begin(); it != queue_.end();) {
      const auto& j = ctx.job(*it);
      const auto placed = placed_.find(*it);
      if (placed != placed_.end()) {
        // A standing reservation: due (the clock reached its slot —
        // e.g. a submission event landing exactly on it) means start.
        if (placed->second <= now &&
            start_as(*it, sim::StartProvenance::kReservation,
                     placed->second)) {
          full_profile_.remove_usage(placed->second,
                                     placed->second + j.estimate, j.procs);
          full_profile_.add_usage(now, now + j.estimate, j.procs);
          note_started(j.id, now, j.estimate, j.procs);
          queued_info_.erase(j.id);
          placed_.erase(placed);
          it = queue_.erase(it);
          --reserved;  // a started job frees its depth slot
          continue;
        }
        ++it;
        continue;
      }
      const bool in_depth =
          reserve_depth_ == 0 || reserved < std::size_t(reserve_depth_);
      if (in_depth) {
        const std::int64_t t =
            full_profile_.earliest_start(now, j.estimate, j.procs);
        // An immediate first placement is a queue-order start at the
        // front, a backfill move (ahead of earlier queued jobs) behind.
        if (t == now &&
            start_as(*it, it == queue_.begin()
                              ? sim::StartProvenance::kQueueHead
                              : sim::StartProvenance::kBackfill)) {
          full_profile_.add_usage(now, now + j.estimate, j.procs);
          note_started(j.id, now, j.estimate, j.procs);
          queued_info_.erase(j.id);
          it = queue_.erase(it);
          continue;
        }
        if (t < kForever) {
          full_profile_.add_usage(t, t + j.estimate, j.procs);
          placed_[j.id] = t;
        }
        ++reserved;
        ++it;
      } else if (full_profile_.fits(now, j.estimate, j.procs) &&
                 start_as(*it, sim::StartProvenance::kBackfill)) {
        full_profile_.add_usage(now, now + j.estimate, j.procs);
        note_started(j.id, now, j.estimate, j.procs);
        queued_info_.erase(j.id);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    full_profile_.compact_before(now);
    return;
  }

  // Build the full profile: the maintained base plus every standing
  // reservation. Claims are added up front so that compressing one job
  // can never move it into capacity promised to another — the
  // improvement-only rule that keeps every promise (see header).
  CapacityProfile profile = profile_;
  std::size_t claims = 0;
  for (const std::int64_t id : queue_) {
    const auto it = placed_.find(id);
    if (it == placed_.end()) continue;
    // A slot that slipped into the past is a promise already void (the
    // start at the reserved time failed on a shrunken machine, or no
    // event landed on the slot at all — possible once kills requeue
    // jobs). A void claim must not stand in the profile: with several
    // stale full-machine claims, each would block the others from
    // compressing to `now` and the run could drain its events with the
    // machine idle and jobs still queued. Drop it; the holder is
    // re-placed below as a fresh job.
    if (it->second < now) {
      placed_.erase(it);
      continue;
    }
    const auto& j = ctx.job(id);
    profile.add_usage(it->second, it->second + j.estimate, j.procs);
    ++claims;
  }
  // Placements of jobs that left the queue between passes (externally
  // started via an attached reservation) were not added above; drop
  // them so they cannot linger.
  if (placed_.size() != claims) {
    std::unordered_map<std::int64_t, std::int64_t> live;
    for (const std::int64_t id : queue_) {
      const auto it = placed_.find(id);
      if (it != placed_.end()) live.emplace(*it);
    }
    placed_ = std::move(live);
  }

  std::size_t reserved = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const auto& j = ctx.job(*it);
    const bool in_depth =
        reserve_depth_ == 0 || reserved < std::size_t(reserve_depth_);
    if (in_depth) {
      // Compress (or first-place) this job's reservation with every
      // other claim standing.
      std::int64_t slot = kForever;
      const auto placed = placed_.find(*it);
      const std::int64_t prior_slot =
          placed != placed_.end() ? placed->second : kForever;
      if (placed != placed_.end()) {
        slot = placed->second;
        profile.remove_usage(slot, slot + j.estimate, j.procs);
      }
      const std::int64_t t = profile.earliest_start(now, j.estimate, j.procs);
      if (t <= slot) {
        slot = t;  // improvement (or first placement)
      } else if (slot < now || !profile.fits(slot, j.estimate, j.procs)) {
        // The promised slot is gone — it slipped into the past (the
        // start at the reserved time failed on a shrunken machine), an
        // outage window opened over it, an accepted external
        // reservation claimed it, or an overrunning job ate it. Only
        // then is the promise void and the job re-placed later.
        slot = t;
      }
      // Starting from a held reservation (possibly compressed to now)
      // is a reservation start carrying the prior promised slot; a
      // first placement that lands on "now" is a queue-order start at
      // the front, a backfill move behind it.
      if (slot == now &&
          start_as(*it,
                   prior_slot < kForever ? sim::StartProvenance::kReservation
                   : it == queue_.begin()
                       ? sim::StartProvenance::kQueueHead
                       : sim::StartProvenance::kBackfill,
                   prior_slot < kForever ? prior_slot : -1)) {
        profile.add_usage(now, now + j.estimate, j.procs);
        note_started(j.id, now, j.estimate, j.procs);
        queued_info_.erase(j.id);
        placed_.erase(j.id);
        it = queue_.erase(it);
        continue;
      }
      if (slot < kForever) {
        profile.add_usage(slot, slot + j.estimate, j.procs);
        placed_[j.id] = slot;
      } else {
        placed_.erase(j.id);
      }
      ++reserved;  // a started job holds no reservation
      ++it;
    } else if (profile.fits(now, j.estimate, j.procs) &&
               start_as(*it, sim::StartProvenance::kBackfill)) {
      profile.add_usage(now, now + j.estimate, j.procs);
      note_started(j.id, now, j.estimate, j.procs);
      queued_info_.erase(j.id);
      placed_.erase(j.id);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  full_profile_ = std::move(profile);
  full_profile_stale_ = false;
}

bool ConservativeScheduler::try_reserve(
    SchedulerContext& ctx, const AdvanceReservation& reservation) {
  const bool accepted = BackfillBase::try_reserve(ctx, reservation);
  // The base profile changed without a schedule() pass: queue
  // placements in full_profile_ no longer account for the new window.
  if (accepted) full_profile_stale_ = true;
  return accepted;
}

std::optional<std::int64_t> ConservativeScheduler::predict_start(
    std::int64_t now, std::int64_t procs, std::int64_t estimate) const {
  if (total_nodes_ <= 0) return std::nullopt;
  if (full_profile_stale_) {
    // Rebuild base + standing placements (placements themselves do not
    // move between events; the next schedule() pass compresses them).
    CapacityProfile profile = profile_;
    for (const std::int64_t id : queue_) {
      const auto placed = placed_.find(id);
      if (placed == placed_.end()) continue;
      const auto info = queued_info_.find(id);
      if (info == queued_info_.end()) continue;
      profile.add_usage(placed->second,
                        placed->second + info->second.estimate,
                        info->second.procs);
    }
    full_profile_ = std::move(profile);
    full_profile_stale_ = false;
  }
  // Query against the maintained base + queue placements; the
  // hypothetical job only needs one earliest-start sweep.
  const std::int64_t t = full_profile_.earliest_start(now, estimate, procs);
  if (t >= kForever) return std::nullopt;
  return t;
}

void ConservativeScheduler::save_state(sim::snapshot::Writer& w) const {
  BackfillBase::save_state(w);
  std::vector<std::int64_t> ids;
  ids.reserve(placed_.size());
  for (const auto& [id, slot] : placed_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (std::int64_t id : ids) {
    w.i64(id);
    w.i64(placed_.at(id));
  }
  write_profile(w, full_profile_);
  w.boolean(full_profile_stale_);
}

void ConservativeScheduler::load_state(sim::snapshot::Reader& r) {
  BackfillBase::load_state(r);
  placed_.clear();
  const std::size_t n = r.count("conservative placement", 8 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t id = r.i64();
    placed_.emplace(id, r.i64());
  }
  full_profile_ = read_profile(r);
  full_profile_stale_ = r.boolean();
}

}  // namespace pjsb::sched
