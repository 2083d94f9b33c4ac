#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"

namespace pjsb::exp {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  WorkloadSpec lublin;
  lublin.label = "lublin99";
  lublin.model = workload::ModelKind::kLublin99;
  lublin.jobs = 120;
  WorkloadSpec feitelson;
  feitelson.label = "feitelson96";
  feitelson.model = workload::ModelKind::kFeitelson96;
  feitelson.jobs = 120;
  spec.workloads = {lublin, feitelson};
  spec.schedulers = {"fcfs", "easy", "sjf"};
  ConfigSpec open;
  ConfigSpec outages;
  outages.label = "open+outages";
  outages.outages = true;
  spec.configs = {open, outages};
  spec.replications = 2;
  spec.master_seed = 7;
  spec.nodes = 64;
  return spec;
}

TEST(CampaignSpec, CellCountIsCrossProduct) {
  const auto spec = small_spec();
  EXPECT_EQ(spec.cell_count(), 2u * 3u * 2u * 2u);
}

TEST(CampaignSpec, ValidateRejectsEmptyAxes) {
  CampaignSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.replications = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers.push_back("not-a-scheduler");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.workloads[0].model.reset();  // no model and no trace path
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.workloads[0].trace_path = "also.swf";  // both model and trace
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpec, ValidateRejectsCsvBreakingLabels) {
  auto spec = small_spec();
  spec.workloads[0].label = "a,b";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.workloads[0].label = "";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].label = "open,outages";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].label = "";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpec, ValidateRejectsDuplicateAxisEntries) {
  auto spec = small_spec();
  spec.workloads.push_back(spec.workloads[0]);  // same label
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers.push_back("FCFS");  // duplicate modulo case
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers = {"sjf-fit", "sjffit"};  // duplicate modulo alias
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers = {"gang", "gang4"};  // duplicate modulo default slots
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.schedulers = {"gang4", "gang8"};  // genuinely different configs
  EXPECT_NO_THROW(spec.validate());
  spec = small_spec();
  spec.configs.push_back(spec.configs[0]);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Same engine configuration under a different label is still a dup.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\n"
                   "config = closed_loop=1 outages=1\n"
                   "config = outages=1 closed_loop=1\n"),
               std::invalid_argument);
  // announce=0 is a no-op without outages, so these simulate identically.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\n"
                   "config = label=open\nconfig = announce=0\n"),
               std::invalid_argument);
  // With outages, blind genuinely differs.
  EXPECT_NO_THROW(parse_campaign_spec_string(
      "workload = lublin99\nscheduler = fcfs\n"
      "config = outages=1\nconfig = outages=1 announce=0\n"));
}

TEST(CampaignSpec, ParseRejectsJobsOnTraceWorkloads) {
  // jobs= is a model knob; on a trace it would be silently ignored.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = trace:logs/kth.swf jobs=500\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
}

TEST(CampaignSpec, ExpandDerivesPairedSeeds) {
  const auto spec = small_spec();
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), spec.cell_count());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    // Seeds depend on (workload, replication) only, so schedulers and
    // configs are compared on identical sampled workloads.
    EXPECT_EQ(cells[i].seed,
              util::derive_seed(spec.master_seed,
                                cells[i].workload *
                                        std::size_t(spec.replications) +
                                    std::size_t(cells[i].replication)));
    seeds.insert(cells[i].seed);
  }
  // One distinct seed per (workload, replication) pair.
  EXPECT_EQ(seeds.size(),
            spec.workloads.size() * std::size_t(spec.replications));
  // Cells differing only in scheduler/config share a seed.
  for (const auto& a : cells) {
    for (const auto& b : cells) {
      if (a.workload == b.workload && a.replication == b.replication) {
        EXPECT_EQ(a.seed, b.seed);
      }
    }
  }
  // Replication is the innermost axis.
  EXPECT_EQ(cells[0].replication, 0);
  EXPECT_EQ(cells[1].replication, 1);
  EXPECT_EQ(cells[1].config, cells[0].config);
  EXPECT_EQ(cells[2].config, cells[0].config + 1);
}

TEST(CampaignSpec, ParseSpecString) {
  const auto spec = parse_campaign_spec_string(R"(
# comment
; another comment
workload = lublin99 jobs=500 load=0.7
workload = trace:logs/kth.swf label=kth
scheduler = fcfs
scheduler = gang8
config = closed_loop=1 outages=1 announce=0
replications = 3
seed = 99
nodes = 256
)");
  ASSERT_EQ(spec.workloads.size(), 2u);
  EXPECT_EQ(spec.workloads[0].label, "lublin99");
  EXPECT_EQ(spec.workloads[0].model, workload::ModelKind::kLublin99);
  EXPECT_EQ(spec.workloads[0].jobs, 500u);
  EXPECT_DOUBLE_EQ(spec.workloads[0].load, 0.7);
  EXPECT_FALSE(spec.workloads[1].model.has_value());
  EXPECT_EQ(spec.workloads[1].trace_path, "logs/kth.swf");
  EXPECT_EQ(spec.workloads[1].label, "kth");
  ASSERT_EQ(spec.schedulers.size(), 2u);
  EXPECT_EQ(spec.schedulers[1], "gang8");
  ASSERT_EQ(spec.configs.size(), 1u);
  // The label defaults to the line's text.
  EXPECT_EQ(spec.configs[0].label, "closed_loop=1 outages=1 announce=0");
  EXPECT_TRUE(spec.configs[0].sim.closed_loop);
  EXPECT_TRUE(spec.configs[0].outages);
  EXPECT_FALSE(spec.configs[0].sim.deliver_announcements);
  EXPECT_EQ(spec.replications, 3);
  EXPECT_EQ(spec.master_seed, 99u);
  EXPECT_EQ(spec.nodes, 256);
}

TEST(CampaignSpec, LabelMayContainEquals) {
  const auto spec = parse_campaign_spec_string(
      "workload = lublin99 jobs=20 label=run=1\nscheduler = fcfs\n");
  EXPECT_EQ(spec.workloads[0].label, "run=1");
  EXPECT_EQ(spec.workloads[0].jobs, 20u);
}

TEST(CampaignSpec, TraceDotfileKeepsNonEmptyLabel) {
  const auto spec = parse_campaign_spec_string(
      "workload = trace:logs/.hidden\nscheduler = fcfs\n");
  EXPECT_EQ(spec.workloads[0].label, ".hidden");
}

TEST(CampaignSpec, ParseNodesAuto) {
  const auto spec = parse_campaign_spec_string(
      "workload = jann97 jobs=10\nscheduler = fcfs\nnodes = auto\n");
  EXPECT_EQ(spec.nodes, 0);  // 0 = auto sentinel
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = jann97 jobs=10\nscheduler = fcfs\n"
                   "nodes = -3\n"),
               std::invalid_argument);
  // Absurd machine sizes must fail validation, not OOM mid-run.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = jann97 jobs=10\nscheduler = fcfs\n"
                   "nodes = 92233720368547758\n"),
               std::invalid_argument);
}

TEST(CampaignSpec, ParameterizedSchedulerSpecs) {
  // Registry spec strings pass through campaign scheduler lines whole:
  // parameterized variants are distinct axis entries...
  auto spec = small_spec();
  spec.schedulers = {"easy", "easy reserve_depth=4",
                     "conservative reserve_depth=2", "sjf tie=widest",
                     "gang slots=8"};
  EXPECT_NO_THROW(spec.validate());
  // ...duplicates are detected modulo alias/case/param spelling...
  spec.schedulers = {"easy reserve_depth=4", "EASY reserve_depth=4"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.schedulers = {"gang slots=8", "gang8"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // ...and bad parameters die at validation, not mid-sweep.
  spec.schedulers = {"easy reserve_depth=0"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.schedulers = {"easy depth=2"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpec, ParseRankMetric) {
  const auto spec = parse_campaign_spec_string(
      "workload = lublin99 jobs=10\nscheduler = fcfs\n"
      "rank = mean-wait\n");
  EXPECT_EQ(spec.rank_metric, metrics::MetricId::kMeanWait);
  // Default when absent.
  const auto defaulted = parse_campaign_spec_string(
      "workload = lublin99 jobs=10\nscheduler = fcfs\n");
  EXPECT_EQ(defaulted.rank_metric,
            metrics::MetricId::kMeanBoundedSlowdown);
  // Unknown metric names fail at parse time, listing the valid ones.
  try {
    parse_campaign_spec_string(
        "workload = lublin99 jobs=10\nscheduler = fcfs\nrank = wat\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mean-wait"), std::string::npos);
  }
  // Scalar keys stay fail-loud on re-assignment.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 jobs=10\nscheduler = fcfs\n"
                   "rank = mean-wait\nrank = makespan\n"),
               std::invalid_argument);
}

TEST(Runner, ParameterizedVariantsProduceDistinctResults) {
  // The point of the registry: variants selected purely by spec string
  // run as genuinely different policies in a campaign. Under a backfill
  // -heavy load, deep-reservation EASY must make different decisions
  // than classic EASY on the same sampled workload (same cell seed).
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "lublin99";
  w.model = workload::ModelKind::kLublin99;
  w.jobs = 400;
  w.load = 0.9;
  spec.workloads = {w};
  spec.schedulers = {"easy", "easy reserve_depth=16"};
  spec.nodes = 64;
  const auto run = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run.cells.size(), 2u);
  EXPECT_GT(run.cells[0].metrics.jobs, 0u);
  EXPECT_EQ(run.cells[0].metrics.jobs, run.cells[1].metrics.jobs);
  EXPECT_NE(run.cells[0].metrics.mean_wait,
            run.cells[1].metrics.mean_wait);
}

TEST(Runner, DegenerateLoadRescaleThrows) {
  // A single-job trace has zero submission span, so offered_load is 0
  // and scale_to_load would silently no-op while reports claim load=.
  swf::Trace trace;
  trace.header.max_nodes = 16;
  swf::JobRecord r;
  r.job_number = 1;
  r.submit_time = 0;
  r.run_time = 100;
  r.allocated_procs = 4;
  r.status = swf::Status::kCompleted;
  trace.records = {r};
  const std::string path = testing::TempDir() + "campaign_degen_test.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));

  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "degen";
  w.trace_path = path;
  w.load = 0.5;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  spec.nodes = 16;
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Runner, AutoNodesUsesTraceHeader) {
  // A trace generated for a 64-node machine, replayed with nodes=auto,
  // must behave exactly like an explicit nodes=64 campaign.
  util::Rng rng(11);
  workload::ModelConfig mconfig;
  mconfig.jobs = 60;
  mconfig.machine_nodes = 64;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, mconfig, rng);
  ASSERT_EQ(trace.header.max_nodes.value_or(0), 64);
  const std::string path = testing::TempDir() + "campaign_autonodes.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));

  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "filetrace";
  w.trace_path = path;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  spec.nodes = 0;  // auto
  const auto run_auto = run_campaign(spec, {.threads = 1});
  spec.nodes = 64;
  const auto run_explicit = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run_auto.cells.size(), 1u);
  EXPECT_EQ(run_auto.cells[0].metrics.mean_wait,
            run_explicit.cells[0].metrics.mean_wait);
  EXPECT_EQ(run_auto.cells[0].metrics.utilization,
            run_explicit.cells[0].metrics.utilization);
  std::remove(path.c_str());
}

TEST(CampaignSpec, ParseDefaultsToOneOpenConfig) {
  const auto spec = parse_campaign_spec_string(
      "workload = jann97 jobs=10\nscheduler = fcfs\n");
  ASSERT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].label, "open");
  EXPECT_FALSE(spec.configs[0].sim.closed_loop);
  EXPECT_FALSE(spec.configs[0].outages);
}

TEST(CampaignSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_campaign_spec_string("workload lublin99\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec_string("workload = warp9 jobs=5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 jobs=ten\nscheduler = fcfs\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\nconfig = warp\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec_string("turbo = on\n"),
               std::invalid_argument);
  // Repeated config keys must not silently resolve last-wins, whether
  // SimulationSpec keys or campaign keys.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\n"
                   "config = closed_loop=1 closed_loop=0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\n"
                   "config = outages=1 outages=1\n"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_campaign_spec_string(
      "workload = lublin99\nscheduler = fcfs\n"
      "config = closed_loop=0 outages=1\n"));
  // Valid grammar but empty axes must fail validation.
  EXPECT_THROW(parse_campaign_spec_string("scheduler = fcfs\n"),
               std::invalid_argument);
  // Scalar keys must not silently resolve last-wins.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\n"
                   "seed = 42\nseed = 7\n"),
               std::invalid_argument);
  // A negative seed is an error, not a wrapped 64-bit value.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99\nscheduler = fcfs\nseed = -5\n"),
               std::invalid_argument);
  EXPECT_EQ(parse_campaign_spec_string(
                "workload = lublin99\nscheduler = fcfs\nseed = 0\n")
                .master_seed,
            0u);
}

TEST(Runner, ReplicationsDifferButSameSeedReproduces) {
  auto spec = small_spec();
  spec.workloads = {spec.workloads[0]};
  spec.schedulers = {"easy"};
  spec.configs = {ConfigSpec{}};
  spec.replications = 2;
  const auto run_a = run_campaign(spec, {.threads = 1});
  const auto run_b = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run_a.cells.size(), 2u);
  // Different replications draw different workloads -> different metrics.
  EXPECT_NE(run_a.cells[0].metrics.mean_wait,
            run_a.cells[1].metrics.mean_wait);
  // Same spec + seed reproduces exactly.
  EXPECT_EQ(run_a.cells[0].metrics.mean_wait,
            run_b.cells[0].metrics.mean_wait);
  EXPECT_EQ(run_a.cells[1].metrics.makespan, run_b.cells[1].metrics.makespan);
}

// The ISSUE-mandated regression: CSV/JSON reports are byte-identical
// whether the campaign ran on 1 thread or 8.
TEST(Runner, DeterministicAcrossThreadCounts) {
  const auto spec = small_spec();
  const auto run1 = run_campaign(spec, {.threads = 1});
  const auto run8 = run_campaign(spec, {.threads = 8});
  ASSERT_EQ(run1.cells.size(), spec.cell_count());
  ASSERT_EQ(run8.cells.size(), spec.cell_count());

  const auto report1 = aggregate(run1);
  const auto report8 = aggregate(run8);
  EXPECT_EQ(cells_csv(run1), cells_csv(run8));
  EXPECT_EQ(summary_csv(run1, report1), summary_csv(run8, report8));
  EXPECT_EQ(to_json(run1, report1), to_json(run8, report8));
}

TEST(Runner, ProgressReportsEveryCell) {
  auto spec = small_spec();
  spec.workloads = {spec.workloads[0]};
  spec.schedulers = {"fcfs"};
  spec.configs = {ConfigSpec{}};
  spec.replications = 3;
  std::size_t calls = 0;
  std::size_t last_total = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](std::size_t, std::size_t total) {
    ++calls;
    last_total = total;
  };
  run_campaign(spec, options);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(last_total, 3u);
}

TEST(Runner, TraceReplicationsWithoutOutagesAreDeduplicated) {
  // Write a small trace to disk, then run it with 3 replications in a
  // seed-independent config: all replications must carry identical
  // metrics (materialized, not re-simulated) and progress must count
  // only the simulated cells.
  util::Rng rng(5);
  workload::ModelConfig mconfig;
  mconfig.jobs = 80;
  mconfig.machine_nodes = 64;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, mconfig, rng);
  const std::string path =
      testing::TempDir() + "campaign_dedup_test.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));

  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "filetrace";
  w.trace_path = path;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  spec.replications = 3;
  spec.nodes = 64;

  std::size_t calls = 0;
  std::size_t total = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](std::size_t, std::size_t t) {
    ++calls;
    total = t;
  };
  const auto run = run_campaign(spec, options);
  EXPECT_EQ(calls, 1u);  // only replication 0 simulated
  EXPECT_EQ(total, 1u);
  ASSERT_EQ(run.cells.size(), 3u);
  for (const auto& cell : run.cells) {
    EXPECT_EQ(cell.metrics.mean_wait, run.cells[0].metrics.mean_wait);
    EXPECT_EQ(cell.metrics.makespan, run.cells[0].metrics.makespan);
  }
  EXPECT_EQ(run.cells[2].cell.replication, 2);
  std::remove(path.c_str());
}

TEST(Runner, MissingTraceFileThrows) {
  auto spec = small_spec();
  WorkloadSpec missing;
  missing.label = "missing";
  missing.trace_path = "/nonexistent/trace.swf";
  spec.workloads = {missing};
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
}

TEST(Runner, EmptyTraceFileThrows) {
  // A file that parses "cleanly" to zero records must not silently
  // fill the reports with all-zero rows.
  const std::string path = testing::TempDir() + "campaign_empty_test.swf";
  {
    std::ofstream out(path);
    out << "; SWF header comment only\n";
  }
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "empty";
  w.trace_path = path;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Runner, MalformedTraceLinesAreFatalOnBothIngestionPaths) {
  // A malformed line must fail the campaign, materialized or streamed:
  // a report over a silently shrunken workload would misstate every
  // metric (the same contract swf_tool enforces).
  util::Rng rng(3);
  workload::ModelConfig mconfig;
  mconfig.jobs = 40;
  mconfig.machine_nodes = 32;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, mconfig, rng);
  const std::string path = testing::TempDir() + "campaign_dirty_test.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));
  {
    std::ofstream out(path, std::ios::app);
    out << "this line is not SWF\n";
  }
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "dirty";
  w.trace_path = path;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  spec.nodes = 32;
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
  spec.workloads[0].stream = true;
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Report, AggregateGroupsReplications) {
  const auto spec = small_spec();
  const auto run = run_campaign(spec, {.threads = 4});
  const auto report = aggregate(run);
  ASSERT_EQ(report.groups.size(), 2u * 3u * 2u);
  for (const auto& group : report.groups) {
    EXPECT_EQ(group.replications, 2u);
    ASSERT_EQ(group.metrics.size(), report_metrics().size());
    for (const auto& stats : group.metrics) {
      EXPECT_EQ(stats.count(), 2u);
    }
  }
  // Group means match the hand-computed mean of the member cells.
  const auto& g0 = report.groups[0];
  double wait_sum = 0.0;
  std::size_t members = 0;
  for (const auto& cell : run.cells) {
    if (cell.cell.workload == g0.workload &&
        cell.cell.scheduler == g0.scheduler &&
        cell.cell.config == g0.config) {
      wait_sum += cell.metrics.mean_wait;
      ++members;
    }
  }
  ASSERT_EQ(members, 2u);
  EXPECT_NEAR(g0.metrics[0].mean(), wait_sum / 2.0, 1e-9);
}

TEST(Report, CsvShapes) {
  const auto spec = small_spec();
  const auto run = run_campaign(spec, {.threads = 4});
  const auto report = aggregate(run);
  const auto cells = cells_csv(run);
  const auto summary = summary_csv(run, report);
  // 1 header + one line per cell / per group.
  EXPECT_EQ(std::count(cells.begin(), cells.end(), '\n'),
            std::ptrdiff_t(1 + run.cells.size()));
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'),
            std::ptrdiff_t(1 + report.groups.size()));
  EXPECT_NE(cells.find("mean-bounded-slowdown"), std::string::npos);
  EXPECT_NE(summary.find("mean-wait-ci95"), std::string::npos);
}

TEST(Report, RankingCoversAllSchedulersOnce) {
  const auto spec = small_spec();
  const auto run = run_campaign(spec, {.threads = 4});
  const auto report = aggregate(run);
  const auto rankings = rank_schedulers(
      run, report, metrics::MetricId::kMeanBoundedSlowdown);
  ASSERT_EQ(rankings.size(), spec.schedulers.size());
  std::set<std::size_t> seen;
  std::size_t total_wins = 0;
  for (const auto& r : rankings) {
    seen.insert(r.scheduler);
    total_wins += r.wins;
    EXPECT_GE(r.mean_rank, 1.0);
    EXPECT_LE(r.mean_rank, double(spec.schedulers.size()));
  }
  EXPECT_EQ(seen.size(), spec.schedulers.size());
  // At least one win per (workload, config) pair (ties share the win).
  EXPECT_GE(total_wins, spec.workloads.size() * spec.configs.size());
  // Ordered best-first.
  for (std::size_t i = 1; i < rankings.size(); ++i) {
    EXPECT_LE(rankings[i - 1].mean_rank, rankings[i].mean_rank);
  }
}

TEST(Report, RankingSharesTiedRanksAndWins) {
  // Two schedulers with bit-identical costs must not be separated by
  // spec order: both take rank 1.5 and both count the win.
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "w";
  w.model = workload::ModelKind::kLublin99;
  spec.workloads = {w};
  spec.schedulers = {"fcfs", "easy"};
  CampaignRun run;
  run.spec = spec;
  for (std::size_t s = 0; s < 2; ++s) {
    CellResult cell;
    cell.cell.index = s;
    cell.cell.scheduler = s;
    cell.metrics.mean_bounded_slowdown = 7.0;  // identical costs
    run.cells.push_back(cell);
  }
  const auto report = aggregate(run);
  const auto rankings = rank_schedulers(
      run, report, metrics::MetricId::kMeanBoundedSlowdown);
  ASSERT_EQ(rankings.size(), 2u);
  EXPECT_DOUBLE_EQ(rankings[0].mean_rank, 1.5);
  EXPECT_DOUBLE_EQ(rankings[1].mean_rank, 1.5);
  EXPECT_EQ(rankings[0].wins, 1u);
  EXPECT_EQ(rankings[1].wins, 1u);
}

TEST(SpecParser, ParsesStreamAndLookaheadOptions) {
  const auto spec = parse_campaign_spec_string(
      "workload = trace:/tmp/x.swf stream=1 lookahead=64\n"
      "workload = lublin99 jobs=50 stream=yes\n"
      "scheduler = fcfs\n");
  ASSERT_EQ(spec.workloads.size(), 2u);
  EXPECT_TRUE(spec.workloads[0].stream);
  EXPECT_EQ(spec.workloads[0].lookahead, 64u);
  EXPECT_TRUE(spec.workloads[1].stream);
  EXPECT_EQ(spec.workloads[1].lookahead, 4096u);
}

TEST(SpecParser, ThreadsIsTheOnlyIngestOption) {
  // One reader remains: parser= is an unknown workload option, while
  // threads= still sets the whole-trace parser workers.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = trace:/tmp/x.swf parser=fast\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
  const auto spec = parse_campaign_spec_string(
      "workload = trace:/tmp/x.swf threads=4\n"
      "scheduler = fcfs\n");
  EXPECT_EQ(spec.workloads.front().threads, 4);
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 threads=4\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
}

TEST(SpecParser, RejectsInvalidStreamCombinations) {
  // Rescaling needs the whole trace.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 stream=1 load=0.7\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
  // Outage generation needs the trace horizon up front.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 stream=1\n"
                   "scheduler = fcfs\n"
                   "config = outages=1\n"),
               std::invalid_argument);
  // downey97 cannot stream.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = downey97 stream=1\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
  // Malformed flag value.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 stream=maybe\n"
                   "scheduler = fcfs\n"),
               std::invalid_argument);
}

TEST(Runner, StreamedTraceCellMatchesMaterializedCell) {
  util::Rng rng(23);
  workload::ModelConfig mconfig;
  mconfig.jobs = 150;
  mconfig.machine_nodes = 64;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, mconfig, rng);
  const std::string path = testing::TempDir() + "campaign_stream_test.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));

  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "trace";
  w.trace_path = path;
  spec.workloads = {w};
  spec.schedulers = {"easy", "fcfs"};
  spec.nodes = 0;  // auto: both paths must resolve MaxNodes themselves

  const auto materialized = run_campaign(spec, {.threads = 1});
  spec.workloads[0].stream = true;
  spec.workloads[0].lookahead = 16;
  const auto streamed = run_campaign(spec, {.threads = 1});

  ASSERT_EQ(streamed.cells.size(), materialized.cells.size());
  for (std::size_t i = 0; i < streamed.cells.size(); ++i) {
    EXPECT_EQ(streamed.cells[i].workload_jobs,
              materialized.cells[i].workload_jobs);
    EXPECT_DOUBLE_EQ(streamed.cells[i].metrics.mean_wait,
                     materialized.cells[i].metrics.mean_wait);
    EXPECT_DOUBLE_EQ(streamed.cells[i].metrics.p95_wait,
                     materialized.cells[i].metrics.p95_wait);
    EXPECT_DOUBLE_EQ(streamed.cells[i].metrics.utilization,
                     materialized.cells[i].metrics.utilization);
    EXPECT_EQ(streamed.cells[i].metrics.makespan,
              materialized.cells[i].metrics.makespan);
  }
  std::remove(path.c_str());
}

TEST(Runner, StreamedModelCellRunsAndReplicationsDiffer) {
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "lublin-stream";
  w.model = workload::ModelKind::kLublin99;
  w.jobs = 80;
  w.stream = true;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  spec.replications = 2;
  spec.nodes = 64;

  const auto run = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run.cells.size(), 2u);
  EXPECT_EQ(run.cells[0].workload_jobs, 80u);
  EXPECT_EQ(run.cells[1].workload_jobs, 80u);
  // Different replication seeds generate different streams.
  EXPECT_NE(run.cells[0].metrics.mean_wait, run.cells[1].metrics.mean_wait);
}

TEST(Runner, StreamedMissingTraceFileThrows) {
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "missing";
  w.trace_path = "/nonexistent/campaign_stream.swf";
  w.stream = true;
  spec.workloads = {w};
  spec.schedulers = {"fcfs"};
  EXPECT_THROW(run_campaign(spec, {.threads = 1}), std::runtime_error);
}

TEST(SpecParser, ParsesValidateConfigFlag) {
  const auto spec = parse_campaign_spec_string(
      "workload = lublin99 jobs=40\n"
      "scheduler = easy\n"
      "config = label=open\n"
      "config = validate=1 label=open+validate\n");
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(spec.configs[1].label, "open+validate");
  EXPECT_FALSE(spec.configs[0].validate);
  EXPECT_TRUE(spec.configs[1].validate);
  // `validate` is a distinct engine configuration, not a duplicate of
  // plain open — both may coexist on the axis.
  EXPECT_NO_THROW(spec.validate());
}

TEST(Runner, ValidateCellsRunCleanOnAllPathsAndMatchUnvalidated) {
  // The checker must not perturb results: validated cells produce the
  // same metrics as unvalidated ones, on both ingestion paths.
  CampaignSpec spec;
  WorkloadSpec model;
  model.label = "lublin99";
  model.model = workload::ModelKind::kLublin99;
  model.jobs = 80;
  WorkloadSpec streamed;
  streamed.label = "lublin99-stream";
  streamed.model = workload::ModelKind::kLublin99;
  streamed.jobs = 80;
  streamed.stream = true;
  spec.workloads = {model, streamed};
  spec.schedulers = {"easy", "conservative", "gang slots=2"};
  ConfigSpec plain;
  ConfigSpec validated;
  validated.label = "open+validate";
  validated.validate = true;
  spec.configs = {plain, validated};
  spec.master_seed = 11;
  spec.nodes = 64;
  const auto run = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run.cells.size(), 12u);
  // Cells differing only in the validate flag pair up consecutively
  // (config is the innermost axis after replication).
  for (std::size_t i = 0; i < run.cells.size(); i += 2) {
    EXPECT_EQ(run.cells[i].metrics.mean_wait,
              run.cells[i + 1].metrics.mean_wait);
    EXPECT_EQ(run.cells[i].metrics.makespan,
              run.cells[i + 1].metrics.makespan);
  }
}

// PR 6 telemetry determinism: per-cell trace files and the telemetry
// rollup must be byte-identical whether the campaign ran on 1 thread
// or 8 (trace paths are keyed by linear cell index, one registry per
// cell, so worker interleaving cannot leak into the output).
TEST(Runner, TelemetryTracesDeterministicAcrossThreadCounts) {
  namespace fs = std::filesystem;
  auto spec = small_spec();
  const std::string dir1 = testing::TempDir() + "pjsb_tele1";
  const std::string dir8 = testing::TempDir() + "pjsb_tele8";
  fs::remove_all(dir1);
  fs::remove_all(dir8);

  spec.telemetry_dir = dir1;
  const auto run1 = run_campaign(spec, {.threads = 1});
  spec.telemetry_dir = dir8;
  const auto run8 = run_campaign(spec, {.threads = 8});

  // The aggregated telemetry report is identical.
  EXPECT_EQ(telemetry_csv(run1), telemetry_csv(run8));
  // Per-cell summaries carried on the results are identical too.
  ASSERT_EQ(run1.cells.size(), run8.cells.size());
  for (std::size_t i = 0; i < run1.cells.size(); ++i) {
    EXPECT_EQ(run1.cells[i].telemetry.starts, run8.cells[i].telemetry.starts);
    EXPECT_EQ(run1.cells[i].telemetry.wait_sum,
              run8.cells[i].telemetry.wait_sum);
  }

  // Same trace file set, byte-identical contents.
  std::set<std::string> names1;
  for (const auto& entry : fs::directory_iterator(dir1)) {
    names1.insert(entry.path().filename().string());
  }
  std::set<std::string> names8;
  for (const auto& entry : fs::directory_iterator(dir8)) {
    names8.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names1, names8);
  EXPECT_FALSE(names1.empty());
  std::size_t nonempty = 0;
  for (const auto& name : names1) {
    std::ifstream a(dir1 + "/" + name, std::ios::binary);
    std::ifstream b(dir8 + "/" + name, std::ios::binary);
    ASSERT_TRUE(a && b) << name;
    std::stringstream sa;
    std::stringstream sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << name;
    if (!sa.str().empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

TEST(Runner, ValidateWithOutagesStaysClean) {
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "feitelson96";
  w.model = workload::ModelKind::kFeitelson96;
  w.jobs = 60;
  spec.workloads = {w};
  spec.schedulers = {"easy"};
  ConfigSpec c;
  c.label = "open+outages+validate";
  c.outages = true;
  c.validate = true;
  spec.configs = {c};
  spec.nodes = 64;
  EXPECT_NO_THROW(run_campaign(spec, {.threads = 1}));
}

// -- fault / recovery configuration ----------------------------------

TEST(SpecParser, ParsesFaultConfigTokens) {
  // Config lines are SimulationSpec keys: the same names swf_tool flags
  // and serve specs use.
  const auto spec = parse_campaign_spec_string(
      "workload = lublin99 jobs=40\n"
      "scheduler = fcfs\n"
      "config = faults=1 mtbf=9000 repair=600 checkpoint=300 dump=20 "
      "read=40 retry_limit=3 backoff=60\n"
      "config = faults=1 overrun=kill\n"
      "config = faults=1 overrun=grace grace=120 label=grace\n");
  ASSERT_EQ(spec.configs.size(), 3u);
  const auto& c = spec.configs[0].sim;
  EXPECT_EQ(c.faults, 1u);
  EXPECT_EQ(c.mtbf, 9000);
  EXPECT_EQ(c.repair, 600);
  EXPECT_EQ(c.checkpoint, 300);
  EXPECT_EQ(c.dump, 20);
  EXPECT_EQ(c.read, 40);
  EXPECT_EQ(c.retry_limit, 3);
  EXPECT_EQ(c.backoff, 60);
  EXPECT_EQ(c.overrun, sim::fault::OverrunPolicy::kExtend);
  EXPECT_EQ(spec.configs[1].sim.overrun, sim::fault::OverrunPolicy::kKill);
  EXPECT_EQ(spec.configs[2].label, "grace");
  EXPECT_EQ(spec.configs[2].sim.overrun, sim::fault::OverrunPolicy::kGrace);
  EXPECT_EQ(spec.configs[2].sim.grace, 120);
}

TEST(SpecParser, RejectsFaultNonsense) {
  const std::string head = "workload = lublin99 jobs=40\nscheduler = fcfs\n";
  const auto message = [&](const std::string& config) -> std::string {
    try {
      parse_campaign_spec_string(head + "config = " + config + "\n");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    ADD_FAILURE() << "config = " << config << " was accepted";
    return "";
  };
  // Crash schedules need the trace horizon: streaming is incompatible.
  EXPECT_THROW(parse_campaign_spec_string(
                   "workload = lublin99 jobs=40 stream=1\n"
                   "scheduler = fcfs\nconfig = faults=1\n"),
               std::invalid_argument);
  // mtbf/repair only act with faults=1.
  message("mtbf=9000");
  // dump/read without a checkpoint interval are dead knobs.
  message("dump=20");
  // overrun=grace without a grace allowance, and grace without
  // overrun=grace in either order (the old grammar ran
  // `overrun:kill+grace:120` silently as overrun=grace).
  message("overrun=grace");
  EXPECT_NE(message("faults=1 overrun=kill grace=120").find("grace"),
            std::string::npos);
  EXPECT_NE(message("faults=1 grace=120 overrun=kill").find("grace"),
            std::string::npos);
  // Unknown overrun policy.
  message("overrun=forgiving");
  // Malformed values.
  message("faults=1 mtbf=zero");
  message("faults=1 mtbf=0");
  // faults= is an on/off switch: the seed is derived per cell.
  EXPECT_NE(message("faults=7").find("crash seed"), std::string::npos);
  // Keys the campaign sets itself, each rejected with where it belongs.
  for (const auto& [config, home] :
       std::vector<std::pair<std::string, std::string>>{
           {"scheduler=easy", "scheduler ="},
           {"nodes=64", "nodes ="},
           {"lookahead=16", "workload lines"},
           {"threads=4", "workload lines"},
           {"max_jobs=10", "workload lines"},
           {"retain_completed=0", "runner"},
           {"recycle_slots=1", "runner"},
           {"trace=/tmp/x.jsonl", "telemetry ="},
           {"timeseries=/tmp/x.csv", "telemetry ="},
           {"sample_every=60", "telemetry ="},
           {"profile=/tmp/x.json", "telemetry ="}}) {
    EXPECT_NE(message(config).find(home), std::string::npos) << config;
  }
  // The '+' grammar is gone; a bare token points at key=value.
  EXPECT_NE(message("open+faults").find("key=value"), std::string::npos);
  EXPECT_NE(message("closed").find("key=value"), std::string::npos);
}

TEST(CampaignSpec, ValidateRejectsOwnedKeysAndFaultSeeds) {
  // Programmatic configs go through the same checks as config lines.
  auto spec = small_spec();
  spec.configs[0].sim.scheduler = "easy";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.nodes = 64;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.lookahead = 16;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.trace = "/tmp/cell.jsonl";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.faults = 7;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.grace = 120;  // the spec's own validator runs too
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.configs[0].sim.faults = 1;
  EXPECT_NO_THROW(spec.validate());
}

TEST(CampaignSpec, FaultFlagsDeduplicateOnSemantics) {
  auto spec = small_spec();
  ConfigSpec a;
  a.label = "faults=1 checkpoint=300";
  a.sim.faults = 1;
  a.sim.checkpoint = 300;
  ConfigSpec b = a;  // same engine configuration, different label
  b.label = "checkpoint=300 faults=1";
  spec.configs = {a, b};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Different checkpoint intervals are a legitimate sweep axis.
  b.label = "faults=1 checkpoint=600";
  b.sim.checkpoint = 600;
  spec.configs = {a, b};
  EXPECT_NO_THROW(spec.validate());
  // Two default configs under different labels are still one cell.
  ConfigSpec plain;
  ConfigSpec relabeled;
  relabeled.label = "open2";
  spec.configs = {plain, relabeled};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

void expect_same_report(const metrics::MetricsReport& a,
                        const metrics::MetricsReport& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.median_wait, b.median_wait);
  EXPECT_EQ(a.p95_wait, b.p95_wait);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.median_response, b.median_response);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.mean_bounded_slowdown, b.mean_bounded_slowdown);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.throughput_per_hour, b.throughput_per_hour);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_restarts, b.mean_restarts);
  EXPECT_EQ(a.wasted_fraction, b.wasted_fraction);
  EXPECT_EQ(a.jobs_killed, b.jobs_killed);
  EXPECT_EQ(a.jobs_dropped, b.jobs_dropped);
}

// A config line means exactly its SimulationSpec: a trace-workload cell
// reports what a direct replay under the same keys (plus the campaign's
// scheduler and machine size) reports.
TEST(Runner, ConfigLineIsItsSimulationSpec) {
  util::Rng rng(17);
  workload::ModelConfig mconfig;
  mconfig.jobs = 120;
  mconfig.machine_nodes = 32;
  auto trace =
      workload::generate(workload::ModelKind::kLublin99, mconfig, rng);
  // Give the config something to act on: some jobs outrun their
  // requested walltime (overrun=kill) and some wait on a predecessor
  // (closed_loop=1).
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    auto& r = trace.records[i];
    if (i % 4 == 0) {
      r.requested_time = std::max<std::int64_t>(1, r.run_time / 2);
    }
    if (i % 5 == 1) {
      r.preceding_job = trace.records[i - 1].job_number;
      r.think_time = 30;
    }
  }
  const std::string path = testing::TempDir() + "campaign_config_spec.swf";
  ASSERT_TRUE(swf::write_swf_file(path, trace));

  const auto spec = parse_campaign_spec_string(
      "workload = trace:" + path + "\nscheduler = easy\nnodes = 32\n"
      "config = closed_loop=1 checkpoint=300 retry_limit=2 overrun=kill\n");
  const auto run = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(run.cells.size(), 1u);

  const auto loaded = swf::read_swf_file(path);
  ASSERT_TRUE(loaded.ok());
  const auto direct = sim::replay(
      loaded.trace,
      sim::SimulationSpec::parse("scheduler=easy nodes=32 closed_loop=1 "
                                 "checkpoint=300 retry_limit=2 "
                                 "overrun=kill"));
  const auto expected =
      metrics::compute_report(direct.completed, direct.stats);
  EXPECT_GT(expected.jobs_killed, 0) << "no job outran its walltime";
  expect_same_report(run.cells[0].metrics, expected);
  std::remove(path.c_str());
}

// The fault-injection acceptance criterion: same seed + fault spec,
// byte-identical reports at 1 and 8 campaign threads.
TEST(Runner, FaultCampaignDeterministicAcrossThreadCounts) {
  CampaignSpec spec;
  WorkloadSpec w;
  w.label = "lublin99";
  w.model = workload::ModelKind::kLublin99;
  w.jobs = 100;
  spec.workloads = {w};
  spec.schedulers = {"fcfs", "easy", "conservative"};
  ConfigSpec faulty;
  faulty.label = "faults";
  faulty.sim = sim::SimulationSpec::parse(
      "faults=1 mtbf=30000 repair=900 checkpoint=600 dump=10 read=20 "
      "retry_limit=4");
  ConfigSpec validated = faulty;
  validated.label = "faults+validate";
  validated.validate = true;
  spec.configs = {faulty, validated};
  spec.replications = 2;
  spec.master_seed = 29;
  spec.nodes = 64;

  const auto run1 = run_campaign(spec, {.threads = 1});
  const auto run8 = run_campaign(spec, {.threads = 8});
  std::int64_t kills = 0;
  for (const auto& cell : run1.cells) kills += cell.metrics.jobs_killed;
  EXPECT_GT(kills, 0) << "fault configs injected no crashes";

  const auto report1 = aggregate(run1);
  const auto report8 = aggregate(run8);
  EXPECT_EQ(cells_csv(run1), cells_csv(run8));
  EXPECT_EQ(summary_csv(run1, report1), summary_csv(run8, report8));
  EXPECT_EQ(to_json(run1, report1), to_json(run8, report8));
}

}  // namespace
}  // namespace pjsb::exp
