// Campaign reporting: replicated-seed aggregation and table emission.
//
// Per-cell metrics are aggregated across seed replications with
// util::OnlineStats (mean, stddev, ~95% confidence halfwidth) per
// (workload, scheduler, config) group, then emitted as CSV and JSON
// tables plus a ranked scheduler comparison — the "equal footing"
// artifact the paper's standardized-evaluation program calls for. All
// emitters format numbers deterministically, so identical campaigns
// produce byte-identical files regardless of runner thread count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "metrics/aggregate.hpp"
#include "util/stats.hpp"

namespace pjsb::exp {

/// Metrics reported for every cell/group, in column order.
std::span<const metrics::MetricId> report_metrics();

/// Cross-replication aggregate of one (workload, scheduler, config)
/// group. `metrics` is parallel to report_metrics().
struct GroupSummary {
  std::size_t workload = 0;
  std::size_t scheduler = 0;
  std::size_t config = 0;
  std::size_t replications = 0;
  std::vector<util::OnlineStats> metrics;
};

struct CampaignReport {
  /// Groups ordered by (workload, scheduler, config) index.
  std::vector<GroupSummary> groups;
};

/// Aggregate a finished run across its seed replications.
CampaignReport aggregate(const CampaignRun& run);

/// Per-cell table: one row per cell with every report metric.
std::string cells_csv(const CampaignRun& run);

/// Per-cell telemetry table — one row per cell, in cell-index order:
/// the live-event counts of CellTelemetry (queue entries, steps, starts
/// by provenance, profile peak) beside the completions and kills of the
/// cell's MetricsReport. The metrics themselves are in cells_csv. Only
/// meaningful when the campaign ran with `telemetry =`; without it the
/// live-event columns are zero. Deterministic like every other emitter.
std::string telemetry_csv(const CampaignRun& run);

/// Aggregated table: one row per group with mean/stddev/ci95 columns
/// for every report metric.
std::string summary_csv(const CampaignRun& run,
                        const CampaignReport& report);

/// Full machine-readable dump: spec, per-cell metrics and group
/// summaries as one JSON document.
std::string to_json(const CampaignRun& run, const CampaignReport& report);

/// One scheduler's standing in the ranked comparison.
struct SchedulerRanking {
  std::size_t scheduler = 0;  ///< index into spec.schedulers
  double mean_rank = 0.0;     ///< average rank over (workload, config) groups
  /// Groups where this scheduler achieved the best (possibly tied) cost.
  std::size_t wins = 0;
};

/// Rank schedulers within every (workload, config) pair by mean metric
/// cost (smaller is better, metrics::metric_cost orientation), then
/// order them by average rank across pairs. Exact cost ties share the
/// average of the spanned ranks and each tied scheduler counts the
/// win, so spec order never decides an even comparison; the final
/// ordering breaks residual mean-rank ties by spec order.
std::vector<SchedulerRanking> rank_schedulers(const CampaignRun& run,
                                              const CampaignReport& report,
                                              metrics::MetricId metric);

/// Human-readable ranked comparison (ASCII table).
std::string ranking_table(const CampaignRun& run,
                          const CampaignReport& report,
                          metrics::MetricId metric);

}  // namespace pjsb::exp
