#include "sched/easy.hpp"

#include "sched/registry.hpp"

namespace pjsb::sched {

SchedulerInfo easy_scheduler_info() {
  SchedulerInfo info;
  info.name = "easy";
  info.description =
      "EASY backfilling: FIFO with shadow reservations for the queue head";
  info.params = {ParamSpec::integer(
      "reserve_depth",
      "queue-head jobs protected by shadow reservations backfill may not "
      "delay (1 = classic EASY)",
      1, 1, 1 << 20)};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<EasyScheduler>(
        int(values.get_int("reserve_depth")));
  };
  return info;
}

std::string EasyScheduler::name() const {
  if (reserve_depth_ == 1) return "easy";
  return "easy reserve_depth=" + std::to_string(reserve_depth_);
}

void EasyScheduler::schedule(SchedulerContext& ctx) {
  const std::int64_t now = ctx.now();
  total_nodes_ = ctx.machine().total_nodes();
  prune_queue(ctx);
  refresh_profile(now);

  // Annotate-and-start: stamp the reason onto the emitted decision.
  const auto start_as = [&ctx](std::int64_t id, sim::StartProvenance why,
                               std::int64_t detail = -1) {
    ctx.annotate_start(why, detail);
    return ctx.start_job(id);
  };

  // Work on a copy of the maintained base profile; tentative shadow /
  // backfill placements stay local to this pass. Copy-assigning into
  // the member copy reuses its step storage from pass to pass.
  pass_profile_ = profile_;
  CapacityProfile& profile = pass_profile_;

  // Start jobs in FIFO order while the head fits immediately.
  while (!queue_.empty()) {
    const std::int64_t id = queue_.front();
    const auto& j = ctx.job(id);
    if (profile.fits(now, j.estimate, j.procs) &&
        start_as(id, sim::StartProvenance::kQueueHead)) {
      profile.add_usage(now, now + j.estimate, j.procs);
      note_started(id, now, j.estimate, j.procs);
      queued_info_.erase(id);
      queue_.pop_front();
      continue;
    }
    break;
  }
  if (queue_.empty()) return;

  // Shadow reservations for the first reserve_depth_ blocked jobs, each
  // at its earliest feasible start given the reservations before it. A
  // protected job behind the head may start outright when its earliest
  // start is now (with depth 1 only the head is protected, and the head
  // is blocked, so this loop reduces to the classic single shadow).
  auto it = queue_.begin();
  std::size_t placed = 0;
  while (placed < std::size_t(reserve_depth_) && it != queue_.end()) {
    const auto& j = ctx.job(*it);
    const std::int64_t t = profile.earliest_start(now, j.estimate, j.procs);
    // A protected job starting at its shadow slot is a promoted
    // reservation, not a backfill move.
    if (t == now && start_as(*it, sim::StartProvenance::kReservation, t)) {
      profile.add_usage(now, now + j.estimate, j.procs);
      note_started(j.id, now, j.estimate, j.procs);
      queued_info_.erase(j.id);
      it = queue_.erase(it);
      continue;  // a started job holds no reservation
    }
    if (t < kForever) profile.add_usage(t, t + j.estimate, j.procs);
    ++placed;
    ++it;
  }

  // Backfill: any later job that fits now without delaying a shadow.
  while (it != queue_.end()) {
    const auto& j = ctx.job(*it);
    if (profile.fits(now, j.estimate, j.procs) &&
        start_as(*it, sim::StartProvenance::kBackfill)) {
      profile.add_usage(now, now + j.estimate, j.procs);
      note_started(j.id, now, j.estimate, j.procs);
      queued_info_.erase(j.id);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<std::int64_t> EasyScheduler::predict_start(
    std::int64_t now, std::int64_t procs, std::int64_t estimate) const {
  if (total_nodes_ <= 0) return std::nullopt;
  // Approximate the EASY queue conservatively: place every queued job
  // at its earliest start in FIFO order, then place the hypothetical
  // job. This is the scheduler-assisted wait-time estimate a
  // metacomputing directory service would export (section 3.1). The
  // placements replay on a copy of the maintained base profile — no
  // rebuild per query.
  CapacityProfile profile = profile_;
  for (const std::int64_t id : queue_) {
    const auto it = queued_info_.find(id);
    if (it == queued_info_.end()) continue;
    const auto& q = it->second;
    const std::int64_t t =
        profile.earliest_start(now, q.estimate, q.procs);
    if (t < kForever) profile.add_usage(t, t + q.estimate, q.procs);
  }
  const std::int64_t t = profile.earliest_start(now, estimate, procs);
  if (t >= kForever) return std::nullopt;
  return t;
}

}  // namespace pjsb::sched
