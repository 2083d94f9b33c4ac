#include "exp/campaign.hpp"

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sched/registry.hpp"
#include "util/keyval.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace pjsb::exp {

namespace {

/// Where a SimulationSpec key the campaign sets per cell belongs; a
/// config that set it would be silently overwritten, so it is rejected.
std::optional<std::string> owned_key_home(const std::string& key) {
  if (key == "scheduler" || key == "nodes") {
    return "comes from the campaign's `" + key + " =` lines";
  }
  if (key == "lookahead" || key == "threads") {
    return "belongs on workload lines";
  }
  if (key == "max_jobs") return "belongs on workload lines (jobs=)";
  if (key == "retain_completed" || key == "recycle_slots") {
    return "is set by the runner";
  }
  if (key == "trace" || key == "timeseries" || key == "sample_every" ||
      key == "profile") {
    return "comes from `telemetry = <dir>`";
  }
  if (key == "announce") {
    return "has no effect: campaign outage and crash streams carry no "
           "advance announcement";
  }
  return std::nullopt;
}

}  // namespace

std::size_t CampaignSpec::cell_count() const {
  return workloads.size() * schedulers.size() * configs.size() *
         std::size_t(replications > 0 ? replications : 0);
}

void CampaignSpec::validate() const {
  if (workloads.empty()) {
    throw std::invalid_argument("campaign: no workloads");
  }
  if (schedulers.empty()) {
    throw std::invalid_argument("campaign: no schedulers");
  }
  if (configs.empty()) {
    throw std::invalid_argument("campaign: no configs");
  }
  if (replications < 1) {
    throw std::invalid_argument("campaign: replications must be >= 1");
  }
  if (nodes < 0 || nodes > sim::kMaxSpecNodes) {
    throw std::invalid_argument(
        "campaign: nodes must be in [1, " +
        std::to_string(sim::kMaxSpecNodes) + "], or 0 (auto)");
  }
  for (const auto& w : workloads) {
    if (w.label.empty()) {
      throw std::invalid_argument("campaign: workload has an empty label");
    }
    // Labels become bare CSV fields; keep them delimiter-clean rather
    // than teaching every consumer about quoting.
    if (w.label.find_first_of(",\"\n\r") != std::string::npos) {
      throw std::invalid_argument("campaign: workload label '" + w.label +
                                  "' must not contain commas, quotes or "
                                  "newlines");
    }
    if (!w.model && w.trace_path.empty()) {
      throw std::invalid_argument("campaign: workload '" + w.label +
                                  "' has neither a model nor a trace path");
    }
    if (w.model && !w.trace_path.empty()) {
      throw std::invalid_argument("campaign: workload '" + w.label +
                                  "' sets both a model and a trace path");
    }
    if (w.model && w.jobs == 0) {
      throw std::invalid_argument("campaign: workload '" + w.label +
                                  "' requests zero jobs");
    }
    if (!(w.load >= 0.0 && w.load <= 1.0)) {  // also rejects NaN
      throw std::invalid_argument("campaign: workload '" + w.label +
                                  "' load must be in [0, 1]");
    }
    if (w.threads < 1) {
      throw std::invalid_argument("campaign: workload '" + w.label +
                                  "' threads must be >= 1");
    }
    if (w.stream) {
      if (w.load > 0.0) {
        throw std::invalid_argument(
            "campaign: workload '" + w.label +
            "' streams and cannot be rescaled (load=) — rescaling needs "
            "the whole trace");
      }
      if (w.model == workload::ModelKind::kDowney97) {
        throw std::invalid_argument(
            "campaign: workload '" + w.label +
            "' cannot stream: downey97 builds moldable chains from the "
            "whole trace");
      }
      if (w.lookahead == 0) {
        throw std::invalid_argument("campaign: workload '" + w.label +
                                    "' lookahead must be >= 1");
      }
      for (const auto& c : configs) {
        if (c.outages || c.sim.faults != 0) {
          throw std::invalid_argument(
              "campaign: workload '" + w.label + "' streams but config '" +
              c.label + "' injects " + (c.outages ? "outages" : "faults") +
              " — generating an outage or crash stream needs the trace "
              "horizon up front");
        }
      }
    }
  }
  for (const auto& c : configs) {
    if (c.label.empty()) {
      throw std::invalid_argument("campaign: config has an empty label");
    }
    if (c.label.find_first_of(",\"\n\r") != std::string::npos) {
      throw std::invalid_argument("campaign: config label '" + c.label +
                                  "' must not contain commas, quotes or "
                                  "newlines");
    }
    const std::string where = "campaign: config '" + c.label + "' ";
    // A campaign-owned key the config set shows up in its to_string()
    // (which always names the scheduler, set or not).
    for (const auto& option :
         util::parse_spec(c.sim.to_string(), /*allow_head=*/false).options) {
      if (option.key == "scheduler" &&
          c.sim.scheduler == sim::SimulationSpec{}.scheduler) {
        continue;
      }
      if (const auto home = owned_key_home(option.key)) {
        throw std::invalid_argument(where + "sets " + option.key +
                                    "=, which " + *home);
      }
    }
    if (c.sim.faults > 1) {
      throw std::invalid_argument(
          where + "sets faults=" + std::to_string(c.sim.faults) +
          "; a config's faults= is 0 or 1, because every cell derives its "
          "own crash seed from the cell seed so that all schedulers face "
          "the same crashes");
    }
    try {
      c.sim.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where + e.what());
    }
  }
  // Axis entries are identified by label/name in every report table;
  // duplicates would produce indistinguishable rows (and double-count a
  // policy in the ranking).
  std::set<std::string> seen;
  for (const auto& w : workloads) {
    if (!seen.insert(w.label).second) {
      throw std::invalid_argument("campaign: duplicate workload label '" +
                                  w.label + "'");
    }
  }
  seen.clear();
  for (const auto& name : schedulers) {
    // Instantiating canonicalizes aliases ("sjffit" == "sjf-fit",
    // "gang" == "gang4") and throws on unknown names.
    if (!seen.insert(sched::make_scheduler(name)->name()).second) {
      throw std::invalid_argument("campaign: duplicate scheduler '" + name +
                                  "'");
    }
  }
  seen.clear();
  std::set<std::string> seen_settings;
  for (const auto& c : configs) {
    if (!seen.insert(c.label).second) {
      throw std::invalid_argument("campaign: duplicate config label '" +
                                  c.label + "'");
    }
    // Dedup on semantics too: the same settings under two labels would
    // be one engine configuration counted twice.
    if (!seen_settings
             .insert(c.sim.to_string() + (c.outages ? " outages=1" : "") +
                     (c.validate ? " validate=1" : ""))
             .second) {
      throw std::invalid_argument(
          "campaign: config '" + c.label +
          "' has the same settings as an earlier config");
    }
  }
}

std::vector<CellSpec> expand(const CampaignSpec& spec) {
  std::vector<CellSpec> cells;
  cells.reserve(spec.cell_count());
  std::size_t index = 0;
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
      for (std::size_t c = 0; c < spec.configs.size(); ++c) {
        for (int r = 0; r < spec.replications; ++r) {
          CellSpec cell;
          cell.index = index;
          cell.workload = w;
          cell.scheduler = s;
          cell.config = c;
          cell.replication = r;
          // Seed stream from (workload, replication) only: schedulers
          // and configs must see identical workloads/outage streams.
          cell.seed = util::derive_seed(
              spec.master_seed,
              w * std::size_t(spec.replications) + std::size_t(r));
          cells.push_back(cell);
          ++index;
        }
      }
    }
  }
  return cells;
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("campaign spec line " + std::to_string(line) +
                              ": " + message);
}

WorkloadSpec parse_workload(std::string_view value, std::size_t line) {
  // The shared spec tokenizer (util/keyval.hpp): head + key=value
  // options, with quoting for paths/labels containing spaces.
  util::SpecTokens tokens;
  try {
    tokens = util::parse_spec(value, /*allow_head=*/true);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
  if (tokens.head.empty()) fail(line, "empty workload");
  WorkloadSpec w;
  const std::string source = util::to_lower(tokens.head);
  if (util::starts_with(source, "trace:")) {
    w.trace_path = tokens.head.substr(6);  // paths keep their case
    if (w.trace_path.empty()) fail(line, "trace: needs a path");
    // Default label: file name without directories or extension. Keep
    // the extension when stripping it would leave nothing (dotfiles).
    std::string base = w.trace_path;
    if (const auto slash = base.find_last_of('/');
        slash != std::string::npos) {
      base = base.substr(slash + 1);
    }
    if (const auto dot = base.find_last_of('.');
        dot != std::string::npos && dot > 0) {
      base = base.substr(0, dot);
    }
    w.label = base;
  } else {
    w.model = workload::model_kind_from_name(source);
    if (!w.model) {
      std::string valid;
      for (const auto kind : workload::all_models()) {
        if (!valid.empty()) valid += ", ";
        valid += workload::model_name(kind);
      }
      fail(line, "unknown workload source '" + tokens.head +
                     "' (valid models: " + valid + "; or trace:<path>)");
    }
    w.label = source;
  }
  for (const auto& option : tokens.options) {
    const std::string& key = option.key;
    const std::string& val = option.value;
    if (key == "jobs") {
      if (!w.model) {
        fail(line, "jobs= applies only to model workloads; trace workloads "
                   "replay the whole file");
      }
      const auto n = util::parse_i64(val);
      if (!n || *n < 1) fail(line, "jobs must be a positive integer");
      w.jobs = std::size_t(*n);
    } else if (key == "load") {
      const auto f = util::parse_f64(val);
      if (!f) fail(line, "load must be a number");
      w.load = *f;
    } else if (key == "label") {
      w.label = val;
    } else if (key == "stream") {
      const auto b = util::parse_bool(val);
      if (!b) fail(line, "stream must be 0/1, true/false or yes/no");
      w.stream = *b;
    } else if (key == "lookahead") {
      const auto n = util::parse_i64(val);
      if (!n || *n < 1) fail(line, "lookahead must be a positive integer");
      w.lookahead = std::size_t(*n);
    } else if (key == "threads") {
      if (w.model) {
        fail(line, "threads= applies only to trace workloads; model "
                   "workloads generate records, nothing is parsed");
      }
      const auto n = util::parse_i64(val);
      if (!n || *n < 1 || *n > 256) {
        fail(line, "threads must be an integer in [1, 256]");
      }
      w.threads = int(*n);
    } else {
      fail(line, "unknown workload option '" + key + "'");
    }
  }
  return w;
}

/// Read a `config =` line: the campaign keys here, every other key
/// handed to SimulationSpec::parse (its keys, its validator). Throws
/// std::invalid_argument; the caller adds the line number.
ConfigSpec parse_config(std::string_view value) {
  ConfigSpec c;
  c.label = std::string(value);
  if (c.label.empty()) throw std::invalid_argument("empty config");
  util::SpecTokens tokens;
  try {
    tokens = util::parse_spec(value, /*allow_head=*/false);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(
        std::string(e.what()) +
        "; config lines take key=value settings, e.g. `config = "
        "closed_loop=1 outages=1 label=closed`");
  }
  std::string sim_text;
  std::set<std::string> seen;
  for (const auto& [key, val] : tokens.options) {
    if (key == "label" || key == "outages" || key == "validate") {
      if (!seen.insert(key).second) {
        throw std::invalid_argument(key + " set twice");
      }
      if (key == "label") {
        c.label = val;
        continue;
      }
      const auto on = util::parse_bool(val);
      if (!on) {
        throw std::invalid_argument(key + " must be 0/1, true/false or "
                                          "yes/no");
      }
      (key == "outages" ? c.outages : c.validate) = *on;
    } else if (const auto home = owned_key_home(key)) {
      throw std::invalid_argument(key + "= " + *home);
    } else {
      sim_text += " " + key + "=" + util::quote_spec_value(val);
    }
  }
  c.sim = sim::SimulationSpec::parse(sim_text);
  return c;
}

}  // namespace

CampaignSpec parse_campaign_spec(std::istream& in) {
  CampaignSpec spec;
  spec.configs.clear();  // spec files opt into configs explicitly
  std::string raw;
  std::size_t line_no = 0;
  bool seen_replications = false;
  bool seen_seed = false;
  bool seen_nodes = false;
  bool seen_rank = false;
  bool seen_telemetry = false;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = util::trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_no, "expected 'key = value'");
    }
    const std::string key = util::to_lower(util::trim(line.substr(0, eq)));
    const std::string_view value = util::trim(line.substr(eq + 1));
    if (key == "workload") {
      spec.workloads.push_back(parse_workload(value, line_no));
    } else if (key == "scheduler") {
      if (value.empty()) fail(line_no, "empty scheduler");
      spec.schedulers.emplace_back(value);
    } else if (key == "config") {
      try {
        spec.configs.push_back(parse_config(value));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (key == "replications") {
      // Scalar keys fail loud on re-assignment: last-wins would let a
      // pasted-together spec silently run the wrong experiment.
      if (seen_replications) fail(line_no, "replications set twice");
      seen_replications = true;
      const auto n = util::parse_i64(value);
      if (!n || *n < 1 || *n > std::numeric_limits<int>::max()) {
        fail(line_no, "replications must be >= 1");
      }
      spec.replications = int(*n);
    } else if (key == "seed") {
      if (seen_seed) fail(line_no, "seed set twice");
      seen_seed = true;
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail(line_no, "seed must be a non-negative integer");
      spec.master_seed = std::uint64_t(*n);
    } else if (key == "nodes") {
      if (seen_nodes) fail(line_no, "nodes set twice");
      seen_nodes = true;
      if (util::to_lower(value) == "auto") {
        spec.nodes = 0;
      } else {
        const auto n = util::parse_i64(value);
        if (!n || *n < 1) fail(line_no, "nodes must be >= 1, or 'auto'");
        spec.nodes = *n;
      }
    } else if (key == "rank") {
      if (seen_rank) fail(line_no, "rank set twice");
      seen_rank = true;
      try {
        spec.rank_metric = metrics::metric_from_name(std::string(value));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (key == "telemetry") {
      if (seen_telemetry) fail(line_no, "telemetry set twice");
      seen_telemetry = true;
      if (value.empty()) fail(line_no, "telemetry needs a directory path");
      spec.telemetry_dir = std::string(value);
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (spec.configs.empty()) spec.configs.push_back(ConfigSpec{});
  spec.validate();
  return spec;
}

CampaignSpec parse_campaign_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_campaign_spec(in);
}

}  // namespace pjsb::exp
