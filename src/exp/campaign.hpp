// Declarative experiment campaigns.
//
// The paper's thesis is standardized *comparison*: run the same
// workloads through many scheduling policies and judge them on equal
// footing. A `CampaignSpec` describes the full cross-product of an
// evaluation — workload sources x schedulers x engine configurations x
// seed replications — and expands into a flat list of `CellSpec`s that
// the runner (exp/runner.hpp) executes in parallel. Each cell's RNG
// seed is derived from (master_seed, workload, replication), so results
// are independent of execution order and thread count, and every
// scheduler/config sees the same sampled workloads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "metrics/aggregate.hpp"
#include "sim/spec.hpp"
#include "workload/model.hpp"

namespace pjsb::exp {

/// One entry on the workload axis: a synthetic model or an SWF trace
/// file. Model workloads are regenerated per cell from the cell seed,
/// so replications see genuinely different (but reproducible) traces;
/// trace files are loaded once and shared read-only.
struct WorkloadSpec {
  std::string label;
  /// Synthetic model; nullopt means `trace_path` names an SWF file.
  std::optional<workload::ModelKind> model;
  std::string trace_path;
  /// Jobs to generate (model workloads only).
  std::size_t jobs = 2000;
  /// Target offered load; 0 keeps the natural load of the source.
  double load = 0.0;
  /// Feed the cell through a streaming JobSource instead of a
  /// materialized trace: trace files are re-read per cell by
  /// swf::TraceReader, models sampled by a ModelJobSource. The trace
  /// itself never resides in memory (per-job completion records are
  /// still kept, for exact metrics). Streaming workloads cannot be
  /// rescaled (`load=`) and cannot be crossed with outage configs —
  /// both need the full trace/horizon up front.
  bool stream = false;
  /// Ingestion window for streaming cells (records pulled ahead).
  std::size_t lookahead = 4096;
  /// Parser worker threads for loading a trace file whole (streamed
  /// cells parse their windows inline and ignore it).
  int threads = 1;
};

/// One entry on the engine-configuration axis: the cell's
/// SimulationSpec minus what the campaign sets per cell (scheduler,
/// machine size, streaming window, telemetry sinks), plus the two
/// attachments only a campaign makes.
struct ConfigSpec {
  std::string label = "open";
  /// Engine configuration (closed_loop, announce, faults, recovery
  /// knobs). `faults` is 0 or 1 here: each cell derives its own crash
  /// seed from the cell seed, so every scheduler faces the same
  /// crashes and replications sample fresh ones.
  sim::SimulationSpec sim;
  /// Inject a generated random-failure stream (seeded per cell).
  bool outages = false;
  /// Attach the validate::InvariantChecker to every cell replay; any
  /// violation fails the campaign.
  bool validate = false;
};

/// The declarative description of a full evaluation campaign.
struct CampaignSpec {
  std::vector<WorkloadSpec> workloads;
  /// Registry spec strings for sched::make_scheduler — parameterized
  /// variants welcome ("easy reserve_depth=2", "gang slots=8").
  std::vector<std::string> schedulers;
  std::vector<ConfigSpec> configs = {ConfigSpec{}};
  int replications = 1;
  std::uint64_t master_seed = 1;
  /// Metric the final ranking table is ordered by (`rank =` in spec
  /// files, metrics::metric_from_name names).
  metrics::MetricId rank_metric = metrics::MetricId::kMeanBoundedSlowdown;
  /// Simulated machine size. 0 means auto: trace workloads use their
  /// MaxNodes header, model workloads the workload::ModelConfig
  /// default — spec files accept `nodes = auto` for this.
  std::int64_t nodes = 128;
  /// Per-cell telemetry directory (`telemetry =` in spec files). When
  /// non-empty, every simulated cell writes a JSONL event trace to
  /// `<dir>/cell_<index>.trace.jsonl` and carries a telemetry summary
  /// in its CellResult (exp::telemetry_csv emits the rollup). Empty
  /// (the default) attaches no instrumentation — campaigns stay lean.
  /// Skipped deterministic replications share replication 0's trace
  /// file and copy its summary.
  std::string telemetry_dir;

  /// Total number of cells in the cross-product.
  std::size_t cell_count() const;

  /// Throws std::invalid_argument if the spec cannot be run (empty
  /// axes, unknown scheduler names, model-less workloads without a
  /// trace path, non-positive replications/nodes, a config whose
  /// SimulationSpec is invalid, sets a campaign-owned key or a
  /// `faults` other than 0/1).
  void validate() const;
};

/// A fully resolved cell of the cross-product. `index` is the linear
/// position with replication innermost, then config, scheduler,
/// workload outermost. `seed` is derived from (workload, replication)
/// only — cells that differ just in scheduler or config share a seed,
/// so every policy is judged on the *same* generated workload and
/// outage stream (common random numbers; the paired comparison the
/// paper's standardized evaluation calls for).
struct CellSpec {
  std::size_t index = 0;
  std::size_t workload = 0;   ///< index into spec.workloads
  std::size_t scheduler = 0;  ///< index into spec.schedulers
  std::size_t config = 0;     ///< index into spec.configs
  int replication = 0;
  std::uint64_t seed = 0;
};

/// Expand a spec into its cells, in linear-index order. Callers are
/// expected to have run validate() (run_campaign and the spec parser
/// do); expand itself does not re-validate.
std::vector<CellSpec> expand(const CampaignSpec& spec);

/// Parse a campaign spec file. The format is line-oriented `key = value`
/// with `#`/`;` comments; repeated `workload`, `scheduler` and `config`
/// keys accumulate:
///
///   workload = lublin99 jobs=2000 load=0.7
///   workload = trace:logs/kth.swf label=kth
///   scheduler = fcfs
///   scheduler = easy
///   config = label=open
///   config = closed_loop=1 outages=1 announce=0 label=closed+outages+blind
///   config = faults=1 mtbf=86400 checkpoint=3600 retry_limit=3
///   replications = 5
///   seed = 42
///   nodes = 128
///
/// Workload options: `jobs=N`, `load=F`, `label=S`, `stream=0|1`,
/// `lookahead=N` (streaming ingestion window) and `threads=N` (parser
/// workers for a trace file loaded whole). Config lines are
/// sim::SimulationSpec keys (`closed_loop=`, `announce=`, `faults=`,
/// `mtbf=`, `repair=`, `checkpoint=`, `dump=`, `read=`, `retry_limit=`,
/// `backoff=`, `overrun=`, `grace=`), read and validated by
/// SimulationSpec::parse, plus three campaign keys: `label=` (default:
/// the line's text), `outages=0|1` (a generated failure stream) and
/// `validate=0|1` (invariant checkers on every cell). `faults=` takes
/// 0 or 1 — the seed is per cell — and keys the campaign sets itself
/// (scheduler, nodes, lookahead, threads, max_jobs, retain_completed,
/// recycle_slots, trace, timeseries, sample_every, profile) are
/// rejected with where they belong. No config line means one default
/// config labelled `open`. `rank = <metric>` selects the ranking
/// metric by name (metrics::metric_from_name). `telemetry = <dir>`
/// turns on per-cell telemetry. Scheduler lines take full registry
/// spec strings, and every option list shares the same key=value
/// tokenizer (util/keyval.hpp). Throws std::invalid_argument on
/// malformed input; the result is validated before being returned.
CampaignSpec parse_campaign_spec(std::istream& in);
CampaignSpec parse_campaign_spec_string(const std::string& text);

}  // namespace pjsb::exp
