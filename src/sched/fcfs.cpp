#include "sched/fcfs.hpp"

#include "sched/registry.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

SchedulerInfo fcfs_scheduler_info() {
  SchedulerInfo info;
  info.name = "fcfs";
  info.description =
      "first-come-first-served; the queue head blocks everyone behind it";
  info.make = +[](const ParamValues&) -> std::unique_ptr<Scheduler> {
    return std::make_unique<FcfsScheduler>();
  };
  return info;
}

void FcfsScheduler::on_submit(SchedulerContext& /*ctx*/,
                              std::int64_t job_id) {
  queue_.push_back(job_id);
}

void FcfsScheduler::on_job_end(SchedulerContext& /*ctx*/,
                               std::int64_t /*job_id*/) {}

void FcfsScheduler::schedule(SchedulerContext& ctx) {
  while (!queue_.empty()) {
    const std::int64_t id = queue_.front();
    const auto& j = ctx.job(id);
    if (j.state != sim::JobState::kQueued) {
      // Started externally (e.g. via a reservation) or killed; drop it.
      queue_.pop_front();
      continue;
    }
    if (j.procs > ctx.machine().free_nodes()) break;  // head blocks
    ctx.annotate_start(sim::StartProvenance::kQueueHead);
    if (!ctx.start_job(id)) break;
    queue_.pop_front();
  }
}

void FcfsScheduler::save_state(sim::snapshot::Writer& w) const {
  w.u64(queue_.size());
  for (std::int64_t id : queue_) w.i64(id);
}

void FcfsScheduler::load_state(sim::snapshot::Reader& r) {
  queue_.clear();
  const std::size_t n = r.count("fcfs queue", 8);
  for (std::size_t i = 0; i < n; ++i) queue_.push_back(r.i64());
}

}  // namespace pjsb::sched
