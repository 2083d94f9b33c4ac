#include "exp/campaign.hpp"

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "sched/registry.hpp"
#include "util/keyval.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace pjsb::exp {

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
  if (nodes < 0 || nodes > kMaxNodes) {
    throw std::invalid_argument(
        "campaign: nodes must be in [1, " + std::to_string(kMaxNodes) +
        "], or 0 (auto)");
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
        if (c.outages) {
          throw std::invalid_argument(
              "campaign: workload '" + w.label +
              "' streams but config '" + c.label +
              "' injects outages — generating a failure stream needs the "
              "trace horizon up front");
        }
        if (c.faults) {
          throw std::invalid_argument(
              "campaign: workload '" + w.label +
              "' streams but config '" + c.label +
              "' injects faults — generating a crash schedule needs the "
              "trace horizon up front");
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
    const ConfigSpec defaults;
    if (!c.faults && (c.mtbf != defaults.mtbf || c.repair != defaults.repair)) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' tunes mtbf/repair without +faults");
    }
    if (c.mtbf < 1 || c.repair < 1) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' needs mtbf/repair >= 1");
    }
    if (c.checkpoint < 0 || c.dump < 0 || c.read < 0) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' has a negative checkpoint field");
    }
    if (c.checkpoint == 0 && (c.dump != 0 || c.read != 0)) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' sets dump/read without a checkpoint "
                                  "interval");
    }
    if (c.retry_limit < 0 || c.backoff < 0 || c.grace < 0) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' has a negative retry/backoff/grace");
    }
    if ((c.overrun == sim::fault::OverrunPolicy::kGrace) != (c.grace > 0)) {
      throw std::invalid_argument("campaign: config '" + c.label +
                                  "' pairs grace seconds and overrun:grace "
                                  "inconsistently");
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
  using ConfigKey =
      std::tuple<bool, bool, bool, bool, bool, std::int64_t, std::int64_t,
                 std::int64_t, std::int64_t, std::int64_t, int, std::int64_t,
                 int, std::int64_t>;
  std::set<ConfigKey> seen_flags;
  for (const auto& c : configs) {
    if (!seen.insert(c.label).second) {
      throw std::invalid_argument("campaign: duplicate config label '" +
                                  c.label + "'");
    }
    // Dedup on semantics too: "closed+outages" and "outages+closed"
    // are the same engine configuration under different labels, "blind"
    // changes nothing without an outage stream to announce, and the
    // fault distributions only act when +faults is on.
    if (!seen_flags
             .insert({c.closed_loop, c.outages,
                      c.outages ? c.deliver_announcements : true, c.validate,
                      c.faults, c.faults ? c.mtbf : 0,
                      c.faults ? c.repair : 0, c.checkpoint, c.dump, c.read,
                      c.retry_limit, c.backoff, int(c.overrun), c.grace})
             .second) {
      throw std::invalid_argument(
          "campaign: config '" + c.label +
          "' has the same flags as an earlier config");
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

ConfigSpec parse_config(std::string_view value, std::size_t line) {
  ConfigSpec c;
  c.label = std::string(util::trim(value));
  if (c.label.empty()) fail(line, "empty config");
  std::optional<bool> loop;  // set by open/closed; contradiction is an error
  // Valued tokens (`mtbf:86400`) parse through one helper so every
  // fault/recovery knob shares the same error shape.
  const auto valued = [&](const std::string& f, const char* name,
                          std::int64_t min) -> std::optional<std::int64_t> {
    const std::string prefix = std::string(name) + ":";
    if (!util::starts_with(f, prefix)) return std::nullopt;
    const auto n = util::parse_i64(f.substr(prefix.size()));
    if (!n || *n < min) {
      fail(line, std::string(name) + ": needs an integer >= " +
                     std::to_string(min));
    }
    return *n;
  };
  for (const auto flag : util::split(c.label, '+')) {
    const std::string f = util::to_lower(util::trim(flag));
    if (f == "open" || f == "closed") {
      const bool closed = (f == "closed");
      if (loop && *loop != closed) {
        fail(line, "config '" + c.label + "' is both open and closed");
      }
      loop = closed;
      c.closed_loop = closed;
    } else if (f == "outages") {
      c.outages = true;
    } else if (f == "blind") {
      c.deliver_announcements = false;
    } else if (f == "validate") {
      c.validate = true;
    } else if (f == "faults") {
      c.faults = true;
    } else if (const auto v = valued(f, "mtbf", 1)) {
      c.mtbf = *v;
    } else if (const auto v = valued(f, "repair", 1)) {
      c.repair = *v;
    } else if (const auto v = valued(f, "checkpoint", 1)) {
      c.checkpoint = *v;
    } else if (const auto v = valued(f, "dump", 0)) {
      c.dump = *v;
    } else if (const auto v = valued(f, "read", 0)) {
      c.read = *v;
    } else if (const auto v = valued(f, "retry", 1)) {
      c.retry_limit = int(std::min<std::int64_t>(
          *v, std::numeric_limits<int>::max()));
    } else if (const auto v = valued(f, "backoff", 1)) {
      c.backoff = *v;
    } else if (const auto v = valued(f, "grace", 1)) {
      c.grace = *v;
      c.overrun = sim::fault::OverrunPolicy::kGrace;
    } else if (util::starts_with(f, "overrun:")) {
      const auto policy =
          sim::fault::overrun_policy_from_name(f.substr(8));
      if (!policy) {
        fail(line, "overrun: must be extend, kill or grace");
      }
      c.overrun = *policy;
    } else {
      fail(line, "unknown config flag '" + f +
                     "' (valid: open, closed, outages, blind, validate, "
                     "faults, mtbf:N, repair:N, checkpoint:N, dump:N, "
                     "read:N, retry:N, backoff:N, overrun:P, grace:N)");
    }
  }
  if (c.overrun == sim::fault::OverrunPolicy::kGrace && c.grace == 0) {
    fail(line, "overrun:grace needs grace:N (grace 0 is overrun:kill)");
  }
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
      spec.configs.push_back(parse_config(value, line_no));
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
      if (!n) fail(line_no, "seed must be an integer");
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
