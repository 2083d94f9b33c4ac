#include "sched/conservative.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
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

std::optional<std::int64_t> ConservativeScheduler::reserved_start(
    std::int64_t job_id) const {
  const auto it = placed_.find(job_id);
  if (it == placed_.end()) return std::nullopt;
  return it->second.slot;
}

void ConservativeScheduler::release_claim(const Claim& claim,
                                          std::int64_t now) {
  full_profile_.remove_usage(std::max(claim.slot, now),
                             claim.slot + claim.estimate, claim.procs);
}

CapacityProfile ConservativeScheduler::with_claims(CapacityProfile profile,
                                                   std::int64_t from) const {
  for (const auto& [id, claim] : placed_) {
    profile.add_usage(std::max(claim.slot, from), claim.slot + claim.estimate,
                      claim.procs);
  }
  return profile;
}

void ConservativeScheduler::check_full_profile(std::int64_t now) const {
  const CapacityProfile rebuilt =
      with_claims(base_profile(now, total_nodes_), now);
  if (!full_profile_.same_from(rebuilt, now)) {
    std::ostringstream os;
    os << "ConservativeScheduler: full profile diverged from base + claims "
          "at t="
       << now << "\nmaintained:\n"
       << full_profile_.to_string() << "rebuilt:\n"
       << rebuilt.to_string();
    throw std::logic_error(os.str());
  }
}

void ConservativeScheduler::schedule(SchedulerContext& ctx) {
  const std::int64_t now = ctx.now();
  total_nodes_ = ctx.machine().total_nodes();
  const std::size_t before_prune = queue_.size();
  prune_queue(ctx);
  const bool externally_started = queue_.size() != before_prune;
  refresh_profile(now);  // may flag an overrun extension
  if (cross_checking()) check_full_profile(now);

  // Annotate-and-start: stamp the reason onto the emitted decision.
  const auto start_as = [&ctx](std::int64_t id, sim::StartProvenance why,
                               std::int64_t detail = -1) {
    ctx.annotate_start(why, detail);
    return ctx.start_job(id);
  };
  // Book a started job (its usage enters both profiles) and drop its
  // queue entry.
  const auto started = [&](auto it, const sim::SimJob& j) {
    note_started(j.id, now, j.estimate, j.procs);
    queued_info_.erase(j.id);
    return queue_.erase(it);
  };

  // Submission-only fast path: when the base profile's semantics did
  // not change since the last pass, standing reservations can neither
  // improve nor break — only reservations that came due need starting
  // and only unplaced (new / beyond-depth) jobs need work, against the
  // maintained base+claims profile. This is the common case on a
  // backfill-heavy replay (every job contributes one submit event).
  if (!consume_base_change() && !externally_started) {
    std::size_t reserved = placed_.size();
    for (auto it = queue_.begin(); it != queue_.end();) {
      const auto placed = placed_.find(*it);
      if (placed != placed_.end()) {
        // A standing reservation: due (the clock reached its slot —
        // e.g. a submission event landing exactly on it) means start.
        if (placed->second.slot <= now &&
            start_as(*it, sim::StartProvenance::kReservation,
                     placed->second.slot)) {
          release_claim(placed->second, now);
          placed_.erase(placed);
          it = started(it, ctx.job(*it));
          --reserved;  // a started job frees its depth slot
          continue;
        }
        ++it;
        continue;
      }
      const auto& j = ctx.job(*it);
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
          it = started(it, j);
          continue;
        }
        if (t < kForever) {
          full_profile_.add_usage(t, t + j.estimate, j.procs);
          placed_[j.id] = {t, j.procs, j.estimate};
        }
        ++reserved;
        ++it;
      } else if (full_profile_.fits(now, j.estimate, j.procs) &&
                 start_as(*it, sim::StartProvenance::kBackfill)) {
        it = started(it, j);
      } else {
        ++it;
      }
    }
    return;
  }

  // A slot that slipped into the past is a promise already void (the
  // start at the reserved time failed on a shrunken machine, or no
  // event landed on the slot at all — possible once kills requeue
  // jobs). A void claim must not stand in the profile: with several
  // stale full-machine claims, each would block the others from
  // compressing to `now` and the run could drain its events with the
  // machine idle and jobs still queued. Drop it; the holder is
  // re-placed below as a fresh job. Claims of jobs that left the queue
  // between passes (externally started via an attached reservation, or
  // cancelled) go too.
  std::erase_if(placed_, [&](const auto& entry) {
    if (entry.second.slot >= now &&
        (!externally_started || queued_info_.contains(entry.first))) {
      return false;
    }
    release_claim(entry.second, now);
    return true;
  });

  // With nothing overbooked, every standing claim fits where it is, so
  // a claim can only move earlier and the read-only test below finds
  // where. Overbooking (an outage, an overrun or an accepted
  // reservation landing on claims) falls back to lifting each claim
  // and re-placing it.
  const bool overbooked = full_profile_.min_available(now, kForever) < 0;

  std::size_t reserved = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const auto& j = ctx.job(*it);
    const bool in_depth =
        reserve_depth_ == 0 || reserved < std::size_t(reserve_depth_);
    if (in_depth) {
      // Compress (or first-place) this job's reservation with every
      // other claim standing. `lifted`: the job has no usage in the
      // full profile while its slot is decided.
      const auto placed = placed_.find(*it);
      const std::int64_t prior_slot =
          placed != placed_.end() ? placed->second.slot : kForever;
      bool lifted = placed == placed_.end();
      std::int64_t slot = kForever;
      if (lifted) {
        slot = full_profile_.earliest_start(now, j.estimate, j.procs);
      } else if (!overbooked) {
        slot = full_profile_.earliest_start_before(now, prior_slot,
                                                   j.estimate, j.procs);
      } else {
        release_claim(placed->second, now);
        lifted = true;
        const std::int64_t t =
            full_profile_.earliest_start(now, j.estimate, j.procs);
        // Improvement, or the promised slot is gone — an outage window
        // opened over it, an accepted external reservation claimed it,
        // or an overrunning job ate it. Only then is the promise void
        // and the job re-placed later.
        slot = t <= prior_slot ||
                       !full_profile_.fits(prior_slot, j.estimate, j.procs)
                   ? t
                   : prior_slot;
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
        if (placed != placed_.end()) {
          if (!lifted) release_claim(placed->second, now);
          placed_.erase(placed);
        }
        it = started(it, j);
        continue;
      }
      if (lifted || slot != prior_slot) {
        if (!lifted) release_claim(placed->second, now);
        if (slot < kForever) {
          full_profile_.add_usage(slot, slot + j.estimate, j.procs);
          placed_[j.id] = {slot, j.procs, j.estimate};
        } else if (placed != placed_.end()) {
          placed_.erase(placed);
        }
      }
      ++reserved;  // a started job holds no reservation
      ++it;
    } else if (full_profile_.fits(now, j.estimate, j.procs) &&
               start_as(*it, sim::StartProvenance::kBackfill)) {
      const auto placed = placed_.find(j.id);
      if (placed != placed_.end()) {
        release_claim(placed->second, now);
        placed_.erase(placed);
      }
      it = started(it, j);
    } else {
      ++it;
    }
  }
}

std::optional<std::int64_t> ConservativeScheduler::predict_start(
    std::int64_t now, std::int64_t procs, std::int64_t estimate) const {
  if (total_nodes_ <= 0) return std::nullopt;
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
  for (const auto& [id, claim] : placed_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (std::int64_t id : ids) {
    w.i64(id);
    w.i64(placed_.at(id).slot);
  }
  write_profile(w, full_profile_);
  // The layout keeps a byte that once flagged the full profile stale;
  // restore refuses it set.
  w.boolean(false);
}

void ConservativeScheduler::load_state(sim::snapshot::Reader& r) {
  BackfillBase::load_state(r);
  placed_.clear();
  const std::size_t n = r.count("conservative placement", 8 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t id = r.i64();
    const std::int64_t slot = r.i64();
    const auto info = queued_info_.find(id);
    if (info == queued_info_.end()) {
      throw std::runtime_error("snapshot: conservative placement names job " +
                               std::to_string(id) + ", which is not queued");
    }
    placed_[id] = {slot, info->second.procs, info->second.estimate};
  }
  const CapacityProfile saved = read_profile(r);
  if (r.boolean()) {
    throw std::runtime_error(
        "snapshot: conservative full profile is flagged stale, which no "
        "writer of this format sets");
  }
  // Both profiles were compacted at the last pass, so neither holds a
  // step before it, and a claim still covering that time puts a step
  // right at it: the earlier of their first steps is where the pass
  // compacted whenever a claim's slot lies before it (a due start that
  // failed), and such a claim blocks only from there.
  const auto first_step = [](const CapacityProfile& p) {
    return p.step_count() > 0 ? p.step_at(0).first : kForever;
  };
  full_profile_ =
      with_claims(profile_, std::min(first_step(saved), first_step(profile_)));
  if (!(full_profile_ == saved)) {
    throw std::runtime_error(
        "snapshot: conservative full profile differs from base + standing "
        "claims");
  }
}

}  // namespace pjsb::sched
