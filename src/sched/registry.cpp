#include "sched/registry.hpp"

#include <stdexcept>

#include "util/keyval.hpp"
#include "util/string_util.hpp"

namespace pjsb::sched {

namespace {

[[noreturn]] void bad_spec(const std::string& message) {
  throw std::invalid_argument(message);
}

}  // namespace

ParamSpec ParamSpec::integer(std::string key, std::string description,
                             std::int64_t def, std::int64_t min,
                             std::int64_t max) {
  ParamSpec p;
  p.key = std::move(key);
  p.type = Type::kInt;
  p.description = std::move(description);
  p.int_default = def;
  p.int_min = min;
  p.int_max = max;
  return p;
}

ParamSpec ParamSpec::choice(std::string key, std::string description,
                            std::vector<std::string> choices) {
  ParamSpec p;
  p.key = std::move(key);
  p.type = Type::kChoice;
  p.description = std::move(description);
  p.choices = std::move(choices);
  return p;
}

std::string ParamSpec::to_string() const {
  std::string s = key + "=";
  switch (type) {
    case Type::kInt:
      s += "int in [" + std::to_string(int_min) + ", " +
           std::to_string(int_max) + "], default " +
           std::to_string(int_default);
      break;
    case Type::kChoice: {
      s += "one of {";
      for (std::size_t i = 0; i < choices.size(); ++i) {
        if (i) s += ", ";
        s += choices[i];
      }
      s += "}, default " + (choices.empty() ? std::string() : choices[0]);
      break;
    }
  }
  if (!description.empty()) s += ": " + description;
  return s;
}

const ParamSpec* SchedulerInfo::find_param(const std::string& key) const {
  for (const auto& p : params) {
    if (p.key == key) return &p;
  }
  return nullptr;
}

std::string SchedulerInfo::valid_keys() const {
  if (params.empty()) return "(none)";
  std::string s;
  for (const auto& p : params) {
    if (!s.empty()) s += "; ";
    s += p.to_string();
  }
  return s;
}

std::int64_t ParamValues::get_int(const std::string& key) const {
  const ParamSpec* p = info_ ? info_->find_param(key) : nullptr;
  if (!p || p->type != ParamSpec::Type::kInt) {
    throw std::logic_error("ParamValues::get_int: '" + key +
                           "' is not an int parameter of this scheduler");
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return p->int_default;
  return *util::parse_i64(it->second);  // validated at parse time
}

const std::string& ParamValues::get_choice(const std::string& key) const {
  const ParamSpec* p = info_ ? info_->find_param(key) : nullptr;
  if (!p || p->type != ParamSpec::Type::kChoice) {
    throw std::logic_error("ParamValues::get_choice: '" + key +
                           "' is not a choice parameter of this scheduler");
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return p->choices.front();
  // Return the canonical (schema) spelling, validated at parse time.
  for (const auto& c : p->choices) {
    if (c == it->second) return c;
  }
  throw std::logic_error("ParamValues::get_choice: unvalidated value");
}

bool ParamValues::is_set(const std::string& key) const {
  return values_.count(key) != 0;
}

Registry& Registry::global() {
  static Registry registry = [] {
    Registry r;
    // Canonical presentation order. Pulled explicitly because static
    // initializers in unreferenced static-library objects are dropped
    // by the linker (see header comment).
    r.add(fcfs_scheduler_info());
    r.add(sjf_scheduler_info());
    r.add(sjf_fit_scheduler_info());
    r.add(easy_scheduler_info());
    r.add(conservative_scheduler_info());
    r.add(gang_scheduler_info());
    return r;
  }();
  return registry;
}

void Registry::add(SchedulerInfo info) {
  if (info.name.empty()) bad_spec("registry: scheduler with empty name");
  if (!info.make) {
    bad_spec("registry: scheduler '" + info.name + "' has no factory");
  }
  if (!info.compact_prefix.empty() && !info.find_param(info.compact_param)) {
    bad_spec("registry: scheduler '" + info.name + "' compact alias binds '" +
             info.compact_param + "', which is not in its schema");
  }
  const std::size_t idx = infos_.size();
  auto claim = [&](const std::string& key) {
    if (!index_.emplace(util::to_lower(key), idx).second) {
      bad_spec("registry: duplicate scheduler name or alias '" + key + "'");
    }
  };
  claim(info.name);
  for (const auto& alias : info.aliases) claim(alias);
  infos_.push_back(std::move(info));
}

const SchedulerInfo* Registry::find(const std::string& name) const {
  const auto it = index_.find(util::to_lower(name));
  if (it == index_.end()) return nullptr;
  return &infos_[it->second];
}

std::string Registry::ParsedSpec::to_string() const {
  std::string s = info->name;
  // Schema order, explicit settings only, so equivalent specs print
  // identically regardless of input order.
  for (const auto& p : info->params) {
    if (values.is_set(p.key)) {
      switch (p.type) {
        case ParamSpec::Type::kInt:
          s += " " + p.key + "=" + std::to_string(values.get_int(p.key));
          break;
        case ParamSpec::Type::kChoice:
          s += " " + p.key + "=" + values.get_choice(p.key);
          break;
      }
    }
  }
  return s;
}

Registry::ParsedSpec Registry::parse(const std::string& spec) const {
  auto tokens = util::parse_spec(spec, /*allow_head=*/true);
  const std::string head = util::to_lower(tokens.head);
  if (head.empty()) {
    bad_spec("empty scheduler spec; valid names: " + valid_names());
  }

  ParsedSpec parsed;
  parsed.info = find(head);
  if (!parsed.info) {
    // Compact numeric alias: "<prefix><N>" ("gang8").
    for (const auto& info : infos_) {
      if (info.compact_prefix.empty()) continue;
      if (!util::starts_with(head, info.compact_prefix)) continue;
      const std::string suffix = head.substr(info.compact_prefix.size());
      const ParamSpec* p = info.find_param(info.compact_param);
      const auto n = util::parse_i64(suffix);
      if (!n || *n < p->int_min || *n > p->int_max) {
        bad_spec("bad " + info.compact_param + " count in '" + tokens.head +
                 "'; expected " + info.compact_prefix + "N with " +
                 std::to_string(p->int_min) +
                 " <= N <= " + std::to_string(p->int_max));
      }
      parsed.info = &info;
      tokens.options.insert(tokens.options.begin(),
                            {info.compact_param, suffix});
      break;
    }
  }
  if (!parsed.info) {
    bad_spec("unknown scheduler '" + tokens.head +
             "'; valid names: " + valid_names());
  }

  parsed.values.info_ = parsed.info;
  for (const auto& option : tokens.options) {
    const ParamSpec* p = parsed.info->find_param(option.key);
    if (!p) {
      bad_spec("unknown parameter '" + option.key + "' for scheduler '" +
               parsed.info->name +
               "'; valid keys: " + parsed.info->valid_keys());
    }
    if (!parsed.values.values_.emplace(option.key, option.value).second) {
      bad_spec("parameter '" + option.key + "' set twice for scheduler '" +
               parsed.info->name + "'");
    }
    switch (p->type) {
      case ParamSpec::Type::kInt: {
        const auto v = util::parse_i64(option.value);
        if (!v || *v < p->int_min || *v > p->int_max) {
          bad_spec("scheduler '" + parsed.info->name + "': " + option.key +
                   "='" + option.value + "' is not an integer in [" +
                   std::to_string(p->int_min) + ", " +
                   std::to_string(p->int_max) + "]");
        }
        break;
      }
      case ParamSpec::Type::kChoice: {
        const std::string v = util::to_lower(option.value);
        bool ok = false;
        for (const auto& c : p->choices) ok = ok || c == v;
        if (!ok) {
          bad_spec("scheduler '" + parsed.info->name + "': " + option.key +
                   "='" + option.value + "' is not one of: " +
                   [&] {
                     std::string s;
                     for (const auto& c : p->choices) {
                       if (!s.empty()) s += ", ";
                       s += c;
                     }
                     return s;
                   }());
        }
        parsed.values.values_[option.key] = v;  // canonical lowercase
        break;
      }
    }
  }
  return parsed;
}

std::unique_ptr<Scheduler> Registry::make(const std::string& spec) const {
  const auto parsed = parse(spec);
  return parsed.info->make(parsed.values);
}

std::vector<const SchedulerInfo*> Registry::entries() const {
  std::vector<const SchedulerInfo*> result;
  result.reserve(infos_.size());
  for (const auto& info : infos_) result.push_back(&info);
  return result;
}

std::string Registry::valid_names() const {
  std::string names;
  for (const auto& info : infos_) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  for (const auto& info : infos_) {
    if (!info.compact_prefix.empty()) {
      names += " (" + info.name + " accepts a " + info.compact_param +
               " count suffix, e.g. " + info.compact_prefix + "8)";
    }
  }
  return names;
}

std::string Registry::help() const {
  std::string s;
  for (const auto& info : infos_) {
    s += info.name;
    if (!info.aliases.empty()) {
      s += " (aliases: ";
      for (std::size_t i = 0; i < info.aliases.size(); ++i) {
        if (i) s += ", ";
        s += info.aliases[i];
      }
      if (!info.compact_prefix.empty()) {
        s += ", " + info.compact_prefix + "N";
      }
      s += ")";
    } else if (!info.compact_prefix.empty()) {
      s += " (alias: " + info.compact_prefix + "N)";
    }
    s += "\n    " + info.description + "\n";
    for (const auto& p : info.params) {
      s += "    " + p.to_string() + "\n";
    }
  }
  return s;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& spec) {
  return Registry::global().make(spec);
}

}  // namespace pjsb::sched
