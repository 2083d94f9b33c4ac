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
#include "sim/fault/fault.hpp"
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

/// One entry on the engine-configuration axis.
struct ConfigSpec {
  std::string label = "open";
  /// Honor trace dependency fields 17/18 (closed-loop feedback).
  bool closed_loop = false;
  /// Inject a generated random-failure stream (seeded per cell).
  bool outages = false;
  /// Deliver outage announcements to the scheduler (outage-aware mode).
  bool deliver_announcements = true;
  /// Attach the validate::InvariantChecker to every cell replay; any
  /// violation fails the campaign (spelled `+validate` in spec files).
  bool validate = false;
  /// Inject a seeded per-node crash schedule (sim/fault): `+faults` in
  /// spec files. The per-cell fault seed derives from the cell seed, so
  /// every scheduler faces the identical crash stream and replications
  /// sample fresh ones. MTBF and checkpoint interval are first-class
  /// sweep axes: put several configs with different `faults:mtbf=` /
  /// `checkpoint=` values on the config axis.
  bool faults = false;
  std::int64_t mtbf = 7 * std::int64_t(86400);    ///< per-node MTBF
  std::int64_t repair = 4 * std::int64_t(3600);   ///< mean repair time
  /// Recovery knobs forwarded to the engine (meaningful with faults or
  /// outages; `checkpoint`/`overrun` also act alone on kill paths).
  std::int64_t checkpoint = 0;  ///< checkpoint interval (0: none)
  std::int64_t dump = 0;        ///< per-checkpoint dump cost
  std::int64_t read = 0;        ///< restart restore cost
  int retry_limit = 0;          ///< kills before dropping (0: unlimited)
  std::int64_t backoff = 0;     ///< requeue delay after a kill
  sim::fault::OverrunPolicy overrun = sim::fault::OverrunPolicy::kExtend;
  std::int64_t grace = 0;       ///< overrun=grace allowance
};

/// Upper bound on the simulated machine size: generous for any real
/// system while keeping per-node state allocations sane when a spec
/// fat-fingers `nodes =`.
inline constexpr std::int64_t kMaxNodes = 1 << 22;  // ~4M nodes

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
  /// trace path, non-positive replications/nodes).
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
///   config = open
///   config = closed+outages
///   replications = 5
///   seed = 42
///   nodes = 128
///
/// Workload options: `jobs=N`, `load=F`, `label=S`, `stream=0|1`,
/// `lookahead=N` (streaming ingestion window) and `threads=N` (parser
/// workers for a trace file loaded whole). Config flags are
/// '+'-separated: `open` (default), `closed`, `outages`, `blind`
/// (outages not announced in advance), `faults` (seeded crash
/// schedule), plus valued tokens `mtbf:N`, `repair:N`, `checkpoint:N`,
/// `dump:N`, `read:N`, `retry:N`, `backoff:N`, `overrun:extend|kill|
/// grace`, `grace:N` — e.g. `config = open+faults+mtbf:86400+
/// checkpoint:3600+retry:3`. `rank = <metric>` selects the
/// ranking metric by name (metrics::metric_from_name).
/// `telemetry = <dir>` turns on per-cell telemetry. Scheduler lines
/// take full registry spec strings, and workload option lines share the
/// same key=value tokenizer (util/keyval.hpp). Throws
/// std::invalid_argument on malformed input; the result is validated
/// before being returned.
CampaignSpec parse_campaign_spec(std::istream& in);
CampaignSpec parse_campaign_spec_string(const std::string& text);

}  // namespace pjsb::exp
