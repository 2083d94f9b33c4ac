#include "metrics/online.hpp"

#include <algorithm>

#include "sched/backfill.hpp"

namespace pjsb::metrics {

void OnlineMetricsObserver::watch(const sched::Scheduler& scheduler) {
  profile_owner_ = dynamic_cast<const sched::BackfillBase*>(&scheduler);
}

void OnlineMetricsObserver::on_job_submit(std::int64_t /*time*/,
                                          const sim::SimJob& /*job*/) {
  ++submits_;
}

void OnlineMetricsObserver::on_decision(const sim::Decision& decision) {
  ++total_starts_;
  ++starts_by_provenance_[std::size_t(decision.provenance)];
}

double OnlineMetricsObserver::backfill_ratio() const {
  const auto b =
      starts_by_provenance_[std::size_t(sim::StartProvenance::kBackfill)];
  return total_starts_ ? double(b) / double(total_starts_) : 0.0;
}

void OnlineMetricsObserver::on_job_complete(const sim::CompletedJob& job) {
  ++jobs_;
  wait_.add(double(job.wait()));
  response_.add(double(job.response()));
  bounded_slowdown_.add(bounded_slowdown(job));
}

void OnlineMetricsObserver::on_step(const sim::StepSnapshot& /*snapshot*/) {
  ++steps_;
  if (profile_owner_) {
    profile_steps_peak_ =
        std::max<std::uint64_t>(profile_steps_peak_,
                                profile_owner_->profile().step_count());
  }
}

void OnlineMetricsObserver::on_end(const sim::EngineStats& stats) {
  end_stats_ = stats;
}

}  // namespace pjsb::metrics
