// Online (constant-memory) metric accumulation over a replay.
//
// Streaming runs drop per-job records, so the aggregate layer cannot
// post-process a completed[] vector; this observer accumulates the
// headline metrics incrementally from completion events instead, and
// captures the engine accounting at end-of-run. The mean wait /
// bounded-slowdown it reports are exact; percentile metrics need the
// full sample and are deliberately absent.
//
// It is also the one rollup of a run's live events: starts by
// provenance, queue entries, engine steps and (after watch()) the
// capacity profile's peak size, the counts campaign telemetry reports.
#pragma once

#include <array>

#include "metrics/aggregate.hpp"
#include "sim/observer.hpp"
#include "sim/provenance.hpp"
#include "util/stats.hpp"

namespace pjsb::sched {
class BackfillBase;
class Scheduler;
}  // namespace pjsb::sched

namespace pjsb::metrics {

class OnlineMetricsObserver final : public sim::SimObserver {
 public:
  void on_job_submit(std::int64_t time, const sim::SimJob& job) override;
  void on_decision(const sim::Decision& decision) override;
  void on_job_complete(const sim::CompletedJob& job) override;
  void on_step(const sim::StepSnapshot& snapshot) override;
  void on_end(const sim::EngineStats& stats) override;

  /// Watch a scheduler: when it keeps a base capacity profile
  /// (sched::BackfillBase), every step reads that profile's step count
  /// into profile_steps_peak(). No-op for other policies.
  void watch(const sched::Scheduler& scheduler);

  std::size_t jobs() const { return jobs_; }
  double mean_wait() const { return wait_.mean(); }
  double mean_response() const { return response_.mean(); }
  double mean_bounded_slowdown() const { return bounded_slowdown_.mean(); }
  /// Starts tallied by provenance annotation (sim/provenance.hpp) —
  /// the constant-memory form of the trace's `why` breakdown.
  std::uint64_t starts(sim::StartProvenance why) const {
    return starts_by_provenance_[std::size_t(why)];
  }
  /// Fraction of starts that were backfill moves (0 when no starts).
  double backfill_ratio() const;
  /// Queue entries: fresh submissions plus requeues after kills.
  std::uint64_t submits() const { return submits_; }
  /// Engine steps (SimObserver::on_step notifications).
  std::uint64_t steps() const { return steps_; }
  /// Largest base-profile step count seen at a step end; 0 unless a
  /// profile-based scheduler is watched.
  std::uint64_t profile_steps_peak() const { return profile_steps_peak_; }
  /// Engine accounting captured by on_end (zeros before the run ends).
  const sim::EngineStats& end_stats() const { return end_stats_; }
  /// Kill/recovery churn promoted from the engine accounting, so fault
  /// sweeps can rank streaming runs without per-job records.
  std::int64_t jobs_killed() const { return end_stats_.jobs_killed; }
  std::int64_t jobs_dropped() const { return end_stats_.jobs_dropped; }
  std::int64_t wasted_node_seconds() const {
    return end_stats_.wasted_node_seconds;
  }
  std::int64_t recovered_node_seconds() const {
    return end_stats_.recovered_node_seconds;
  }
  /// Killed work (net of checkpoint salvage) over available capacity.
  double wasted_fraction() const {
    return end_stats_.capacity_node_seconds > 0
               ? double(end_stats_.wasted_node_seconds) /
                     double(end_stats_.capacity_node_seconds)
               : 0.0;
  }

 private:
  std::size_t jobs_ = 0;
  std::uint64_t total_starts_ = 0;
  std::array<std::uint64_t, sim::kProvenanceCount> starts_by_provenance_{};
  std::uint64_t submits_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t profile_steps_peak_ = 0;
  const sched::BackfillBase* profile_owner_ = nullptr;
  util::OnlineStats wait_;
  util::OnlineStats response_;
  util::OnlineStats bounded_slowdown_;
  sim::EngineStats end_stats_;
};

}  // namespace pjsb::metrics
