#include "sched/sjf.hpp"

#include <algorithm>

#include "sched/registry.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

namespace {

SjfTieBreak tie_from_values(const ParamValues& values) {
  const std::string& tie = values.get_choice("tie");
  if (tie == "widest") return SjfTieBreak::kWidest;
  if (tie == "narrowest") return SjfTieBreak::kNarrowest;
  return SjfTieBreak::kFcfs;
}

ParamSpec tie_param() {
  return ParamSpec::choice(
      "tie", "order of equal-estimate jobs", {"fcfs", "widest", "narrowest"});
}

}  // namespace

SchedulerInfo sjf_scheduler_info() {
  SchedulerInfo info;
  info.name = "sjf";
  info.description =
      "shortest-job-first by user estimate; the shortest job blocks";
  info.params = {tie_param()};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<SjfScheduler>(false, tie_from_values(values));
  };
  return info;
}

SchedulerInfo sjf_fit_scheduler_info() {
  SchedulerInfo info;
  info.name = "sjf-fit";
  info.description =
      "shortest-job-first, starting the shortest job that fits now";
  info.aliases = {"sjffit"};
  info.params = {tie_param()};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<SjfScheduler>(true, tie_from_values(values));
  };
  return info;
}

std::string SjfScheduler::name() const {
  std::string n = allow_fit_ ? "sjf-fit" : "sjf";
  if (tie_ == SjfTieBreak::kWidest) n += " tie=widest";
  if (tie_ == SjfTieBreak::kNarrowest) n += " tie=narrowest";
  return n;
}

bool SjfScheduler::precedes(const sim::SimJob& a, std::int64_t a_id,
                            const sim::SimJob& b, std::int64_t b_id) const {
  if (a.estimate != b.estimate) return a.estimate < b.estimate;
  switch (tie_) {
    case SjfTieBreak::kWidest:
      if (a.procs != b.procs) return a.procs > b.procs;
      break;
    case SjfTieBreak::kNarrowest:
      if (a.procs != b.procs) return a.procs < b.procs;
      break;
    case SjfTieBreak::kFcfs:
      break;
  }
  return a_id < b_id;  // id breaks remaining ties FIFO
}

void SjfScheduler::on_submit(SchedulerContext& ctx, std::int64_t job_id) {
  const auto& j = ctx.job(job_id);
  const auto pos = std::lower_bound(
      queue_.begin(), queue_.end(), job_id,
      [this, &ctx, &j](std::int64_t a, std::int64_t b_id) {
        return precedes(ctx.job(a), a, j, b_id);
      });
  queue_.insert(pos, job_id);
}

void SjfScheduler::on_job_end(SchedulerContext& /*ctx*/,
                              std::int64_t /*job_id*/) {}

void SjfScheduler::schedule(SchedulerContext& ctx) {
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    for (auto it = queue_.begin(); it != queue_.end();) {
      const auto& j = ctx.job(*it);
      if (j.state != sim::JobState::kQueued) {
        it = queue_.erase(it);
        progress = true;
        break;
      }
      if (j.procs <= ctx.machine().free_nodes()) {
        // The policy-order head is a queue-order start; an sjf-fit scan
        // that reaches past it starts a job ahead of the blocked head —
        // a backfill move in SJF order.
        ctx.annotate_start(it == queue_.begin()
                               ? sim::StartProvenance::kQueueHead
                               : sim::StartProvenance::kBackfill);
        if (ctx.start_job(*it)) {
          queue_.erase(it);
          progress = true;
          break;
        }
      }
      if (!allow_fit_) break;  // strict SJF: shortest job blocks
      ++it;
    }
  }
}

void SjfScheduler::save_state(sim::snapshot::Writer& w) const {
  // allow_fit_ / tie_ are constructor parameters; they ride in name().
  w.u64(queue_.size());
  for (std::int64_t id : queue_) w.i64(id);
}

void SjfScheduler::load_state(sim::snapshot::Reader& r) {
  queue_.clear();
  const std::size_t n = r.count("sjf queue", 8);
  queue_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queue_.push_back(r.i64());
}

}  // namespace pjsb::sched
