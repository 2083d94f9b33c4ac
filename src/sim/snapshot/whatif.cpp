#include "sim/snapshot/whatif.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/observer.hpp"

namespace pjsb::sim {

const char* to_string(JobStateName state) {
  switch (state) {
    case JobStateName::kPending:
      return "pending";
    case JobStateName::kQueued:
      return "queued";
    case JobStateName::kRunning:
      return "running";
    case JobStateName::kFinished:
      return "finished";
  }
  return "unknown";
}

namespace {

JobStateName state_name(JobState state) {
  switch (state) {
    case JobState::kPending:
      return JobStateName::kPending;
    case JobState::kQueued:
      return JobStateName::kQueued;
    case JobState::kRunning:
      return JobStateName::kRunning;
    case JobState::kFinished:
      return JobStateName::kFinished;
  }
  return JobStateName::kPending;
}

}  // namespace

/// Pops an idle clone under the mutex (restoring a fresh one outside
/// it when the pool is empty) and returns the clone on destruction —
/// exception-safe, so a throwing query cannot leak or poison a clone.
class WhatIfService::WarmLease {
 public:
  explicit WarmLease(WhatIfService& service) : service_(service) {
    {
      const std::lock_guard<std::mutex> lock(service_.pool_mutex_);
      if (!service_.pool_.empty()) {
        clone_ = std::move(service_.pool_.back());
        service_.pool_.pop_back();
      }
    }
    if (!clone_) clone_ = Engine::restore(service_.bytes_);
  }
  ~WarmLease() {
    const std::lock_guard<std::mutex> lock(service_.pool_mutex_);
    service_.pool_.push_back(std::move(clone_));
  }
  WarmLease(const WarmLease&) = delete;
  WarmLease& operator=(const WarmLease&) = delete;

  Engine& engine() { return *clone_; }

 private:
  WhatIfService& service_;
  std::unique_ptr<Engine> clone_;
};

WhatIfService::WhatIfService(std::string snapshot_bytes)
    : bytes_(std::move(snapshot_bytes)) {
  auto warm = Engine::restore(bytes_);
  if (warm->needs_job_source()) {
    throw std::invalid_argument(
        "WhatIfService: snapshot has an unresumed job source; what-if "
        "queries need a self-contained snapshot");
  }
  snapshot_time_ = warm->now();
  pool_.push_back(std::move(warm));
}

WhatIfService WhatIfService::from_engine(const Engine& engine) {
  return WhatIfService(engine.snapshot());
}

std::size_t WhatIfService::warm_clones() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

WhatIfAnswer WhatIfService::query(const WhatIfQuery& q) {
  for (const auto& [field, value] :
       {std::pair<const char*, std::int64_t>{"offset", q.submit_offset},
        {"estimate", q.estimate}}) {
    if (value > kMaxTime) {
      throw std::invalid_argument(
          std::string("what-if: ") + field + " " + std::to_string(value) +
          " is above the time bound " + std::to_string(kMaxTime) + " s");
    }
  }
  return q.simulate ? simulate(q) : predict(q);
}

std::vector<WhatIfAnswer> WhatIfService::batch(
    const std::vector<WhatIfQuery>& queries) {
  std::vector<WhatIfAnswer> answers;
  answers.reserve(queries.size());
  for (const auto& q : queries) answers.push_back(query(q));
  return answers;
}

std::optional<WhatIfJobStatus> WhatIfService::query_job(
    std::int64_t id, bool predict_pending) {
  WhatIfJobStatus status;
  {
    WarmLease lease(*this);
    const SimJob* job = lease.engine().find_job(id);
    if (!job) return std::nullopt;
    status.id = job->id;
    status.state = state_name(job->state);
    status.submit = job->submit;
    status.procs = job->procs;
    if (job->state == JobState::kRunning ||
        job->state == JobState::kFinished) {
      status.start = job->start;
    }
    if (job->state == JobState::kFinished) status.end = job->end;
  }
  const bool waiting = status.state == JobStateName::kPending ||
                       status.state == JobStateName::kQueued;
  if (waiting && predict_pending) {
    // Run the frozen state forward (no further arrivals) in a private
    // clone and watch for the job's own start decision — exact under
    // any policy, prediction-capable or not.
    auto clone = Engine::restore(bytes_);
    std::optional<std::int64_t> started;
    FunctionObserver watcher;
    watcher.decision = [&](const Decision& d) {
      if (d.job_id == id) started = d.time;
    };
    clone->add_observer(watcher);
    while (!started && clone->step()) {
    }
    status.predicted_start = started;
  }
  return status;
}

WhatIfAnswer WhatIfService::predict(const WhatIfQuery& q) {
  WarmLease lease(*this);
  Engine& warm = lease.engine();
  const std::int64_t submit =
      warm.now() + std::max<std::int64_t>(0, q.submit_offset);
  // Clamped to the machine as Engine::submit_job clamps it, so predict
  // and simulate answer the same question.
  const std::int64_t procs = std::min(std::max<std::int64_t>(1, q.procs),
                                      warm.machine().total_nodes());
  WhatIfAnswer a;
  a.simulated = false;
  a.start = warm.scheduler().predict_start(
      submit, procs, std::max<std::int64_t>(1, q.estimate));
  if (a.start) a.wait = *a.start - submit;
  return a;
}

WhatIfAnswer WhatIfService::simulate(const WhatIfQuery& q) {
  auto clone = Engine::restore(bytes_);
  const std::int64_t submit =
      clone->now() + std::max<std::int64_t>(0, q.submit_offset);
  SimJob job;
  job.submit = submit;
  job.runtime = std::max<std::int64_t>(1, q.estimate);
  job.estimate = job.runtime;
  job.procs = std::max<std::int64_t>(1, q.procs);
  const std::int64_t id = clone->submit_job(job);  // engine picks the id

  std::optional<std::int64_t> started;
  FunctionObserver watcher;
  watcher.decision = [&](const Decision& d) {
    if (d.job_id == id) started = d.time;
  };
  clone->add_observer(watcher);
  while (!started && clone->step()) {
  }

  WhatIfAnswer a;
  a.simulated = true;
  a.start = started;
  if (a.start) a.wait = *a.start - submit;
  return a;
}

}  // namespace pjsb::sim
