#include "exp/report.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "sim/provenance.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace pjsb::exp {

namespace {

constexpr std::array<metrics::MetricId, 10> kReportMetrics = {
    metrics::MetricId::kMeanWait,
    metrics::MetricId::kMeanResponse,
    metrics::MetricId::kMeanSlowdown,
    metrics::MetricId::kMeanBoundedSlowdown,
    metrics::MetricId::kP95Wait,
    metrics::MetricId::kUtilization,
    metrics::MetricId::kThroughput,
    metrics::MetricId::kMakespan,
    metrics::MetricId::kMeanRestarts,
    metrics::MetricId::kWastedFraction,
};

/// Deterministic shortest round-trip formatting shared by the CSV and
/// JSON emitters: lossless, so rankings recomputed from report files
/// agree with the shipped ranking table even for near-ties.
std::string format_number(double x) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, result.ptr);
}

/// Group linear index: (workload, scheduler, config) — the single
/// definition of the group layout used by aggregation and ranking.
std::size_t group_index(const CampaignSpec& spec, std::size_t workload,
                        std::size_t scheduler, std::size_t config) {
  return (workload * spec.schedulers.size() + scheduler) *
             spec.configs.size() +
         config;
}

std::size_t group_index(const CampaignSpec& spec, const CellSpec& cell) {
  return group_index(spec, cell.workload, cell.scheduler, cell.config);
}

/// Mean metric *cost* of a group (smaller is better): cost is value or
/// -value, so the cost of the mean equals the mean cost.
double group_mean_cost(const GroupSummary& group, metrics::MetricId metric) {
  for (std::size_t m = 0; m < kReportMetrics.size(); ++m) {
    if (kReportMetrics[m] != metric) continue;
    // A group with no cells (possible with hand-built runs) must rank
    // worst, not best-by-zero-cost.
    if (group.metrics[m].count() == 0) {
      return std::numeric_limits<double>::infinity();
    }
    const double mean = group.metrics[m].mean();
    return metrics::metric_higher_is_better(metric) ? -mean : mean;
  }
  throw std::invalid_argument("ranking metric is not a report metric");
}

}  // namespace

std::span<const metrics::MetricId> report_metrics() {
  return kReportMetrics;
}

CampaignReport aggregate(const CampaignRun& run) {
  const auto& spec = run.spec;
  CampaignReport report;
  report.groups.resize(spec.workloads.size() * spec.schedulers.size() *
                       spec.configs.size());
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
      for (std::size_t c = 0; c < spec.configs.size(); ++c) {
        auto& group = report.groups[group_index(spec, w, s, c)];
        group.workload = w;
        group.scheduler = s;
        group.config = c;
        group.metrics.resize(kReportMetrics.size());
      }
    }
  }
  for (const auto& cell : run.cells) {
    auto& group = report.groups.at(group_index(spec, cell.cell));
    group.replications += 1;
    for (std::size_t m = 0; m < kReportMetrics.size(); ++m) {
      group.metrics[m].add(
          metrics::metric_value(cell.metrics, kReportMetrics[m]));
    }
  }
  return report;
}

std::string cells_csv(const CampaignRun& run) {
  std::ostringstream out;
  out << "cell,workload,scheduler,config,replication,seed,jobs,kills,drops";
  for (const auto id : kReportMetrics) {
    out << ',' << metrics::metric_name(id);
  }
  out << '\n';
  for (const auto& cell : run.cells) {
    out << cell.cell.index << ','
        << run.spec.workloads[cell.cell.workload].label << ','
        << run.spec.schedulers[cell.cell.scheduler] << ','
        << run.spec.configs[cell.cell.config].label << ','
        << cell.cell.replication << ',' << cell.cell.seed << ','
        << cell.workload_jobs << ',' << cell.metrics.jobs_killed << ','
        << cell.metrics.jobs_dropped;
    for (const auto id : kReportMetrics) {
      out << ',' << format_number(metrics::metric_value(cell.metrics, id));
    }
    out << '\n';
  }
  return out.str();
}

std::string telemetry_csv(const CampaignRun& run) {
  std::ostringstream out;
  out << "cell,workload,scheduler,config,replication,submits,starts,"
         "completions,kills,steps";
  // One column per provenance kind, in enum order: their sum equals
  // `starts`, which consumers can (and the tests do) check.
  for (std::size_t p = 0; p < sim::kProvenanceCount; ++p) {
    out << ',' << sim::provenance_name(sim::StartProvenance(p));
  }
  out << ",backfill_ratio,profile_steps_peak\n";
  for (const auto& cell : run.cells) {
    const auto& t = cell.telemetry;
    std::uint64_t starts = 0;
    for (const auto n : t.starts_by_provenance) starts += n;
    const auto backfills =
        t.starts_by_provenance[std::size_t(sim::StartProvenance::kBackfill)];
    out << cell.cell.index << ','
        << run.spec.workloads[cell.cell.workload].label << ','
        << run.spec.schedulers[cell.cell.scheduler] << ','
        << run.spec.configs[cell.cell.config].label << ','
        << cell.cell.replication << ',' << t.submits << ',' << starts << ','
        << cell.metrics.jobs << ',' << cell.metrics.jobs_killed << ','
        << t.steps;
    for (const auto n : t.starts_by_provenance) out << ',' << n;
    out << ','
        << format_number(starts ? double(backfills) / double(starts) : 0.0)
        << ',' << t.profile_steps_peak << '\n';
  }
  return out.str();
}

std::string summary_csv(const CampaignRun& run,
                        const CampaignReport& report) {
  std::ostringstream out;
  out << "workload,scheduler,config,replications";
  for (const auto id : kReportMetrics) {
    const std::string name = metrics::metric_name(id);
    out << ',' << name << "-mean," << name << "-stddev," << name << "-ci95";
  }
  out << '\n';
  for (const auto& group : report.groups) {
    out << run.spec.workloads[group.workload].label << ','
        << run.spec.schedulers[group.scheduler] << ','
        << run.spec.configs[group.config].label << ','
        << group.replications;
    for (const auto& stats : group.metrics) {
      out << ',' << format_number(stats.mean()) << ','
          << format_number(stats.stddev()) << ','
          << format_number(stats.ci95_halfwidth());
    }
    out << '\n';
  }
  return out.str();
}

std::string to_json(const CampaignRun& run, const CampaignReport& report) {
  const auto& spec = run.spec;
  std::ostringstream out;
  out << "{\n  \"spec\": {\n";
  out << "    \"nodes\": " << spec.nodes << ",\n";
  out << "    \"replications\": " << spec.replications << ",\n";
  out << "    \"master_seed\": \"" << spec.master_seed << "\",\n";
  out << "    \"workloads\": [";
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& w = spec.workloads[i];
    if (i) out << ", ";
    out << "{\"label\": \"" << util::json_escape(w.label)
        << "\", \"source\": \"";
    if (w.model) {
      // jobs is a model knob; traces replay whole files, so emitting
      // the default here would be meaningless metadata.
      out << workload::model_name(*w.model) << "\", \"jobs\": " << w.jobs;
    } else {
      out << "trace:" << util::json_escape(w.trace_path) << '"';
    }
    out << ", \"load\": " << format_number(w.load) << "}";
  }
  out << "],\n    \"schedulers\": [";
  for (std::size_t i = 0; i < spec.schedulers.size(); ++i) {
    if (i) out << ", ";
    out << '"' << util::json_escape(spec.schedulers[i]) << '"';
  }
  out << "],\n    \"configs\": [";
  for (std::size_t i = 0; i < spec.configs.size(); ++i) {
    const auto& c = spec.configs[i];
    const sim::SimulationSpec& engine = c.sim;
    if (i) out << ", ";
    out << "{\"label\": \"" << util::json_escape(c.label)
        << "\", \"closed_loop\": " << (engine.closed_loop ? "true" : "false")
        << ", \"outages\": " << (c.outages ? "true" : "false")
        << ", \"faults\": " << (engine.faults != 0 ? "true" : "false");
    if (engine.faults != 0) {
      out << ", \"mtbf\": " << engine.mtbf
          << ", \"repair\": " << engine.repair;
    }
    if (engine.checkpoint > 0) {
      out << ", \"checkpoint\": " << engine.checkpoint << ", \"dump\": "
          << engine.dump << ", \"read\": " << engine.read;
    }
    if (engine.retry_limit > 0) {
      out << ", \"retry_limit\": " << engine.retry_limit;
    }
    if (engine.backoff > 0) out << ", \"backoff\": " << engine.backoff;
    if (engine.overrun != sim::fault::OverrunPolicy::kExtend) {
      out << ", \"overrun\": \""
          << sim::fault::overrun_policy_name(engine.overrun) << '"';
      if (engine.grace > 0) out << ", \"grace\": " << engine.grace;
    }
    out << "}";
  }
  out << "]\n  },\n";

  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const auto& cell = run.cells[i];
    out << "    {\"cell\": " << cell.cell.index
        << ", \"workload\": " << cell.cell.workload
        << ", \"scheduler\": " << cell.cell.scheduler
        << ", \"config\": " << cell.cell.config
        << ", \"replication\": " << cell.cell.replication << ", \"seed\": \""
        << cell.cell.seed << "\", \"jobs\": " << cell.workload_jobs
        << ", \"metrics\": {";
    for (std::size_t m = 0; m < kReportMetrics.size(); ++m) {
      if (m) out << ", ";
      out << '"' << metrics::metric_name(kReportMetrics[m]) << "\": "
          << format_number(
                 metrics::metric_value(cell.metrics, kReportMetrics[m]));
    }
    out << "}}" << (i + 1 < run.cells.size() ? "," : "") << '\n';
  }
  out << "  ],\n";

  out << "  \"summary\": [\n";
  for (std::size_t g = 0; g < report.groups.size(); ++g) {
    const auto& group = report.groups[g];
    out << "    {\"workload\": \""
        << util::json_escape(spec.workloads[group.workload].label)
        << "\", \"scheduler\": \""
        << util::json_escape(spec.schedulers[group.scheduler])
        << "\", \"config\": \""
        << util::json_escape(spec.configs[group.config].label)
        << "\", \"replications\": " << group.replications
        << ", \"metrics\": {";
    for (std::size_t m = 0; m < kReportMetrics.size(); ++m) {
      if (m) out << ", ";
      const auto& stats = group.metrics[m];
      out << '"' << metrics::metric_name(kReportMetrics[m])
          << "\": {\"mean\": " << format_number(stats.mean())
          << ", \"stddev\": " << format_number(stats.stddev())
          << ", \"ci95\": " << format_number(stats.ci95_halfwidth()) << "}";
    }
    out << "}}" << (g + 1 < report.groups.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

std::vector<SchedulerRanking> rank_schedulers(const CampaignRun& run,
                                              const CampaignReport& report,
                                              metrics::MetricId metric) {
  const auto& spec = run.spec;
  const std::size_t n = spec.schedulers.size();
  std::vector<double> rank_sum(n, 0.0);
  std::vector<std::size_t> wins(n, 0);
  std::size_t pairs = 0;

  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
      std::vector<double> costs(n, 0.0);
      for (std::size_t s = 0; s < n; ++s) {
        const auto& group = report.groups[group_index(spec, w, s, c)];
        costs[s] = group_mean_cost(group, metric);
      }
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return costs[a] < costs[b];
                       });
      // Tied schedulers share the average of the ranks they span, and
      // everyone tied for best gets the win — spec order must not
      // decide a comparison the metrics call even.
      for (std::size_t r = 0; r < n;) {
        std::size_t last = r;
        while (last + 1 < n && costs[order[last + 1]] == costs[order[r]]) {
          ++last;
        }
        const double shared_rank = (double(r + 1) + double(last + 1)) / 2.0;
        for (std::size_t k = r; k <= last; ++k) {
          rank_sum[order[k]] += shared_rank;
          if (r == 0) wins[order[k]] += 1;
        }
        r = last + 1;
      }
      ++pairs;
    }
  }

  std::vector<SchedulerRanking> rankings(n);
  for (std::size_t s = 0; s < n; ++s) {
    rankings[s].scheduler = s;
    rankings[s].mean_rank = pairs > 0 ? rank_sum[s] / double(pairs) : 0.0;
    rankings[s].wins = wins[s];
  }
  std::stable_sort(rankings.begin(), rankings.end(),
                   [](const SchedulerRanking& a, const SchedulerRanking& b) {
                     return a.mean_rank < b.mean_rank;
                   });
  return rankings;
}

std::string ranking_table(const CampaignRun& run,
                          const CampaignReport& report,
                          metrics::MetricId metric) {
  const auto rankings = rank_schedulers(run, report, metric);
  util::Table table({"rank", "scheduler", "mean rank", "wins"});
  for (std::size_t i = 0; i < rankings.size(); ++i) {
    table.row()
        .cell(std::int64_t(i + 1))
        .cell(run.spec.schedulers[rankings[i].scheduler])
        .cell(rankings[i].mean_rank, 2)
        .cell(rankings[i].wins);
  }
  std::ostringstream out;
  out << "scheduler ranking by " << metrics::metric_name(metric)
      << " (over " << run.spec.workloads.size() << " workload(s) x "
      << run.spec.configs.size() << " config(s)):\n"
      << table.to_string();
  return out.str();
}

}  // namespace pjsb::exp
