#include "sim/spec.hpp"

#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "sched/registry.hpp"
#include "util/keyval.hpp"
#include "util/string_util.hpp"

namespace pjsb::sim {

namespace {

/// Every key parse() takes, with the form of its value, in the order
/// the unknown-key error lists them.
struct KeyForm {
  std::string_view key;
  std::string_view value;
};
constexpr KeyForm kKeys[] = {
    {"scheduler", "<registry spec string>"},
    {"nodes", "<int|auto>"},
    {"closed_loop", "<bool>"},
    {"announce", "<bool>"},
    {"lookahead", "<int>"},
    {"max_jobs", "<int>"},
    {"threads", "<int>"},
    {"retain_completed", "<bool>"},
    {"recycle_slots", "<bool>"},
    {"trace", "<path>"},
    {"timeseries", "<path>"},
    {"sample_every", "<int>"},
    {"profile", "<path>"},
    {"faults", "<seed>"},
    {"mtbf", "<seconds>"},
    {"repair", "<seconds>"},
    {"checkpoint", "<seconds>"},
    {"dump", "<seconds>"},
    {"read", "<seconds>"},
    {"retry_limit", "<int>"},
    {"backoff", "<seconds>"},
    {"overrun", "<extend|kill|grace>"},
    {"grace", "<seconds>"},
};
constexpr std::size_t kKeyCount = std::size(kKeys);

/// `key`'s index in kKeys, or kKeyCount.
std::size_t key_index(std::string_view key) {
  std::size_t i = 0;
  while (i < kKeyCount && kKeys[i].key != key) ++i;
  return i;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("simulation spec: " + message);
}

bool parse_bool_or_fail(const std::string& key, std::string_view value) {
  const auto b = util::parse_bool(value);
  if (!b) {
    fail(key + "='" + std::string(value) +
         "' must be 1/0, true/false or yes/no");
  }
  return *b;
}

}  // namespace

SimulationSpec& SimulationSpec::with_scheduler(std::string spec) {
  scheduler = std::move(spec);
  return *this;
}

SimulationSpec& SimulationSpec::with_nodes(std::int64_t n) {
  nodes = n;
  return *this;
}

SimulationSpec& SimulationSpec::closed(bool on) {
  closed_loop = on;
  return *this;
}

SimulationSpec& SimulationSpec::with_lookahead(std::size_t n) {
  lookahead = n;
  return *this;
}

SimulationSpec& SimulationSpec::with_max_jobs(std::uint64_t n) {
  max_jobs = n;
  return *this;
}

SimulationSpec& SimulationSpec::with_parser(const std::string& backend,
                                            int n_threads) {
  if (backend != "stream" && backend != "fast") {
    fail("parser must be 'stream' or 'fast'");
  }
  threads = n_threads;
  return *this;
}

SimulationSpec& SimulationSpec::streaming_memory(bool on) {
  retain_completed = !on;
  recycle_slots = on;
  return *this;
}

SimulationSpec& SimulationSpec::with_trace(std::string path) {
  trace = std::move(path);
  return *this;
}

SimulationSpec& SimulationSpec::with_timeseries(std::string path,
                                                std::int64_t every) {
  timeseries = std::move(path);
  sample_every = every;
  return *this;
}

SimulationSpec& SimulationSpec::with_profile(std::string path) {
  profile = std::move(path);
  return *this;
}

fault::FaultModel SimulationSpec::fault_model() const {
  fault::FaultModel model;
  model.seed = faults;
  model.mtbf_seconds = mtbf;
  model.repair_mean_seconds = repair;
  return model;
}

fault::RecoveryConfig SimulationSpec::recovery_config() const {
  fault::RecoveryConfig config;
  config.checkpoint_interval = checkpoint;
  config.dump_time = dump;
  config.read_time = read;
  config.retry_limit = retry_limit;
  config.backoff_seconds = backoff;
  config.overrun = overrun;
  config.grace_seconds = grace;
  return config;
}

void SimulationSpec::validate(bool resolve_scheduler) const {
  if (scheduler.empty()) fail("no scheduler");
  // Resolve the scheduler spec through the registry so a bad name or
  // parameter dies here, with the registry's valid-choices message.
  if (resolve_scheduler) sched::Registry::global().parse(scheduler);
  if (nodes && (*nodes < 1 || *nodes > kMaxSpecNodes)) {
    fail("nodes must be in [1, " + std::to_string(kMaxSpecNodes) +
         "], or auto");
  }
  if (lookahead == 0) fail("lookahead must be >= 1");
  if (threads < 1 || threads > 256) fail("threads must be in [1, 256]");
  if (sample_every < 0) fail("sample_every must be >= 0");
  if (sample_every > 0 && timeseries.empty()) {
    fail("sample_every without timeseries=<path> samples into nowhere; "
         "name the output file");
  }
  if (!retain_completed && !recycle_slots) {
    fail("retain_completed=0 without recycle_slots=1 drops the per-job "
         "records but keeps every slot in memory; enable recycle_slots "
         "for constant-memory runs");
  }
  const SimulationSpec defaults;
  if (faults == 0 &&
      (mtbf != defaults.mtbf || repair != defaults.repair)) {
    fail("mtbf=/repair= describe the crash schedule and need "
         "faults=<seed> to enable it");
  }
  if (mtbf < 1) fail("mtbf must be >= 1 second");
  if (repair < 1) fail("repair must be >= 1 second");
  if (checkpoint < 0) fail("checkpoint must be >= 0");
  if (dump < 0 || read < 0) fail("dump/read must be >= 0");
  if (checkpoint == 0 && (dump != 0 || read != 0)) {
    fail("dump=/read= cost checkpoints that never happen; set "
         "checkpoint=<interval> too");
  }
  if (retry_limit < 0) fail("retry_limit must be >= 0 (0 = retry forever)");
  if (backoff < 0) fail("backoff must be >= 0");
  if (grace < 0) fail("grace must be >= 0");
  if (overrun == fault::OverrunPolicy::kGrace && grace == 0) {
    fail("overrun=grace needs grace=<seconds> > 0 (grace=0 is overrun=kill)");
  }
  if (overrun != fault::OverrunPolicy::kGrace && grace != 0) {
    fail("grace= only applies with overrun=grace");
  }
  // Durations are bounded like job times, so the engine's sums of a
  // time and a duration cannot overflow.
  for (const auto& [key, value] :
       {std::pair<const char*, std::int64_t>{"sample_every", sample_every},
        {"mtbf", mtbf},
        {"repair", repair},
        {"checkpoint", checkpoint},
        {"dump", dump},
        {"read", read},
        {"backoff", backoff},
        {"grace", grace}}) {
    if (value > kMaxTime) {
      fail(std::string(key) + "=" + std::to_string(value) +
           " is above the time bound " + std::to_string(kMaxTime) + " s");
    }
  }
}

std::string SimulationSpec::to_string() const {
  const SimulationSpec defaults;
  std::string s = "scheduler=" + util::quote_spec_value(scheduler);
  if (nodes) s += " nodes=" + std::to_string(*nodes);
  if (closed_loop != defaults.closed_loop) {
    s += std::string(" closed_loop=") + (closed_loop ? "1" : "0");
  }
  if (deliver_announcements != defaults.deliver_announcements) {
    s += std::string(" announce=") + (deliver_announcements ? "1" : "0");
  }
  if (lookahead != defaults.lookahead) {
    s += " lookahead=" + std::to_string(lookahead);
  }
  if (max_jobs != defaults.max_jobs) {
    s += " max_jobs=" + std::to_string(max_jobs);
  }
  if (threads != defaults.threads) s += " threads=" + std::to_string(threads);
  if (retain_completed != defaults.retain_completed) {
    s += std::string(" retain_completed=") + (retain_completed ? "1" : "0");
  }
  if (recycle_slots != defaults.recycle_slots) {
    s += std::string(" recycle_slots=") + (recycle_slots ? "1" : "0");
  }
  if (!trace.empty()) s += " trace=" + util::quote_spec_value(trace);
  if (!timeseries.empty()) {
    s += " timeseries=" + util::quote_spec_value(timeseries);
  }
  if (sample_every != defaults.sample_every) {
    s += " sample_every=" + std::to_string(sample_every);
  }
  if (!profile.empty()) s += " profile=" + util::quote_spec_value(profile);
  if (faults != defaults.faults) s += " faults=" + std::to_string(faults);
  if (mtbf != defaults.mtbf) s += " mtbf=" + std::to_string(mtbf);
  if (repair != defaults.repair) s += " repair=" + std::to_string(repair);
  if (checkpoint != defaults.checkpoint) {
    s += " checkpoint=" + std::to_string(checkpoint);
  }
  if (dump != defaults.dump) s += " dump=" + std::to_string(dump);
  if (read != defaults.read) s += " read=" + std::to_string(read);
  if (retry_limit != defaults.retry_limit) {
    s += " retry_limit=" + std::to_string(retry_limit);
  }
  if (backoff != defaults.backoff) s += " backoff=" + std::to_string(backoff);
  if (overrun != defaults.overrun) {
    s += std::string(" overrun=") + fault::overrun_policy_name(overrun);
  }
  if (grace != defaults.grace) s += " grace=" + std::to_string(grace);
  return s;
}

bool SimulationSpec::is_key(std::string_view key) {
  return key_index(key) != kKeyCount;
}

SimulationSpec SimulationSpec::parse(const std::string& text) {
  SimulationSpec spec;
  const auto tokens = util::parse_spec(text, /*allow_head=*/false);
  bool seen[kKeyCount] = {};
  for (const auto& option : tokens.options) {
    const std::string& key = option.key;
    const std::string& value = option.value;
    const std::size_t idx = key_index(key);
    if (idx == kKeyCount) {
      std::string valid;
      for (const KeyForm& form : kKeys) {
        if (!valid.empty()) valid += ", ";
        valid += std::string(form.key) + "=" + std::string(form.value);
      }
      fail("unknown key '" + key + "'; valid keys: " + valid);
    }
    if (seen[idx]) fail(key + " set twice");
    seen[idx] = true;
    if (key == "scheduler") {
      spec.scheduler = value;
    } else if (key == "nodes") {
      if (util::to_lower(value) == "auto") {
        spec.nodes.reset();
      } else {
        const auto n = util::parse_i64(value);
        if (!n) fail("nodes must be an integer or 'auto'");
        spec.nodes = *n;
      }
    } else if (key == "closed_loop") {
      spec.closed_loop = parse_bool_or_fail(key, value);
    } else if (key == "announce") {
      spec.deliver_announcements = parse_bool_or_fail(key, value);
    } else if (key == "lookahead") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 1) fail("lookahead must be a positive integer");
      spec.lookahead = std::size_t(*n);
    } else if (key == "max_jobs") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("max_jobs must be a non-negative integer");
      spec.max_jobs = std::uint64_t(*n);
    } else if (key == "threads") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 1) fail("threads must be a positive integer");
      spec.threads = int(*n);
    } else if (key == "retain_completed") {
      spec.retain_completed = parse_bool_or_fail(key, value);
    } else if (key == "recycle_slots") {
      spec.recycle_slots = parse_bool_or_fail(key, value);
    } else if (key == "trace") {
      spec.trace = value;
    } else if (key == "timeseries") {
      spec.timeseries = value;
    } else if (key == "sample_every") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("sample_every must be a non-negative integer");
      spec.sample_every = *n;
    } else if (key == "profile") {
      spec.profile = value;
    } else if (key == "faults") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) {
        fail("faults must be a non-negative seed (0 disables)");
      }
      spec.faults = std::uint64_t(*n);
    } else if (key == "mtbf") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 1) fail("mtbf must be a positive number of seconds");
      spec.mtbf = *n;
    } else if (key == "repair") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 1) fail("repair must be a positive number of seconds");
      spec.repair = *n;
    } else if (key == "checkpoint") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) {
        fail("checkpoint must be a non-negative interval in seconds");
      }
      spec.checkpoint = *n;
    } else if (key == "dump") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("dump must be a non-negative number of seconds");
      spec.dump = *n;
    } else if (key == "read") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("read must be a non-negative number of seconds");
      spec.read = *n;
    } else if (key == "retry_limit") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("retry_limit must be a non-negative integer");
      spec.retry_limit = int(*n);
    } else if (key == "backoff") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) {
        fail("backoff must be a non-negative number of seconds");
      }
      spec.backoff = *n;
    } else if (key == "overrun") {
      const auto policy = fault::overrun_policy_from_name(value);
      if (!policy) fail("overrun must be extend, kill or grace");
      spec.overrun = *policy;
    } else if (key == "grace") {
      const auto n = util::parse_i64(value);
      if (!n || *n < 0) fail("grace must be a non-negative number of seconds");
      spec.grace = *n;
    }
  }
  spec.validate();
  return spec;
}

}  // namespace pjsb::sim
