// The scheduler policy registry: string-keyed, parameter-carrying
// policy selection behind one front door.
//
// The paper's standardized-evaluation triad (section 1.2) treats the
// scheduling policy as an interchangeable *input*. This registry makes
// that literal: every scheduler registers a canonical name, a one-line
// description, exact-match aliases, and a typed parameter schema; the
// harnesses (exp campaigns, swf_tool, tests) instantiate policies from
// spec strings like
//
//   "easy"                         classic EASY backfilling
//   "easy reserve_depth=4"         protect the first 4 queued jobs
//   "conservative reserve_depth=8" cap the reservation depth at 8
//   "sjf tie=widest"               SJF, ties broken widest-job-first
//   "gang slots=8"  (alias gang8)  8-row Ousterhout matrix
//
// Unknown names and parameters fail with the full list of valid
// choices, so a typo'd campaign dies at parse time, not mid-sweep.
//
// Each scheduler's registration block lives in its own .cpp next to the
// implementation (see PJSB_SCHEDULER_INFO in fcfs.cpp etc.). Because
// pjsb is a static library, a registration relying purely on static
// initializers would be dropped by the linker along with its otherwise
// unreferenced object file; the registry constructor therefore pulls
// each info function explicitly — adding a scheduler means one line in
// registry.cpp plus the block next to the scheduler itself.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace pjsb::sched {

/// One typed parameter in a scheduler's schema.
struct ParamSpec {
  enum class Type { kInt, kChoice };

  std::string key;  ///< lowercase key in spec strings
  Type type = Type::kInt;
  std::string description;

  // kInt
  std::int64_t int_default = 0;
  std::int64_t int_min = std::numeric_limits<std::int64_t>::min();
  std::int64_t int_max = std::numeric_limits<std::int64_t>::max();
  // kChoice: choices[0] is the default.
  std::vector<std::string> choices;

  static ParamSpec integer(std::string key, std::string description,
                           std::int64_t def, std::int64_t min,
                           std::int64_t max);
  static ParamSpec choice(std::string key, std::string description,
                          std::vector<std::string> choices);

  /// "reserve_depth=int in [1, 64], default 1: ..." — for help text and
  /// unknown-key error messages.
  std::string to_string() const;
};

struct SchedulerInfo;

/// Validated parameter values for one instantiation: explicit
/// key=value settings over the schema's defaults. Factories read their
/// knobs through the typed getters; lookups of keys absent from the
/// schema throw std::logic_error (a registration bug, not user error).
class ParamValues {
 public:
  std::int64_t get_int(const std::string& key) const;
  const std::string& get_choice(const std::string& key) const;
  /// True when the spec set `key` explicitly (even to its default).
  bool is_set(const std::string& key) const;

 private:
  friend class Registry;
  const SchedulerInfo* info_ = nullptr;
  std::map<std::string, std::string> values_;  ///< explicit settings only
};

/// A registered scheduler: identity, documentation, schema, factory.
struct SchedulerInfo {
  std::string name;         ///< canonical, lowercase
  std::string description;  ///< one line, for help()/error text
  std::vector<std::string> aliases;  ///< exact-match aliases ("cons")
  /// Compact numeric alias: "<prefix><N>" resolves to this scheduler
  /// with N bound to `compact_param` ("gang8" == "gang slots=8").
  std::string compact_prefix;
  std::string compact_param;
  std::vector<ParamSpec> params;
  std::unique_ptr<Scheduler> (*make)(const ParamValues& values) = nullptr;

  const ParamSpec* find_param(const std::string& key) const;
  /// Comma-separated parameter summaries, for error messages.
  std::string valid_keys() const;
};

class Registry {
 public:
  /// The process-wide registry, with every built-in scheduler
  /// registered. Harnesses may add() site-specific policies on top.
  static Registry& global();

  /// Construct an empty registry (tests build private ones).
  Registry() = default;

  /// Register a scheduler. Throws std::invalid_argument on a duplicate
  /// name/alias or a malformed schema (empty name, compact_param not in
  /// the schema).
  void add(SchedulerInfo info);

  /// Lookup by canonical name or exact alias (case-insensitive);
  /// nullptr when unknown. Compact aliases ("gang8") resolve through
  /// parse(), not here.
  const SchedulerInfo* find(const std::string& name) const;

  /// A parsed spec string: the scheduler plus its validated explicit
  /// parameter values.
  struct ParsedSpec {
    const SchedulerInfo* info = nullptr;
    ParamValues values;
    /// Canonical round-trippable form: the canonical name followed by
    /// the explicitly set parameters in schema order.
    std::string to_string() const;
  };

  /// Parse and validate "name key=value ..." without instantiating.
  /// Throws std::invalid_argument with the valid-names / valid-keys
  /// list on an unknown scheduler, unknown key, repeated key, bad value
  /// or out-of-range value.
  ParsedSpec parse(const std::string& spec) const;

  /// Parse, validate and instantiate.
  std::unique_ptr<Scheduler> make(const std::string& spec) const;

  /// Registered schedulers in registration (presentation) order.
  std::vector<const SchedulerInfo*> entries() const;

  /// Human-readable list of accepted scheduler names, for error
  /// messages and CLI help text.
  std::string valid_names() const;

  /// Multi-line catalogue: every scheduler with its description,
  /// aliases and parameter schema.
  std::string help() const;

 private:
  /// Deque, not vector: find()/parse()/entries() hand out SchedulerInfo
  /// pointers, and a later add() must not invalidate them.
  std::deque<SchedulerInfo> infos_;
  std::map<std::string, std::size_t> index_;  ///< name and aliases
};

/// The front door every harness uses: instantiate a policy from a spec
/// string via the global registry.
std::unique_ptr<Scheduler> make_scheduler(const std::string& spec);

// Registration blocks for the built-in policy zoo. Each lives in its
// scheduler's own .cpp; the registry constructor calls them (see the
// static-library note in the header comment).
SchedulerInfo fcfs_scheduler_info();
SchedulerInfo sjf_scheduler_info();
SchedulerInfo sjf_fit_scheduler_info();
SchedulerInfo easy_scheduler_info();
SchedulerInfo conservative_scheduler_info();
SchedulerInfo gang_scheduler_info();

}  // namespace pjsb::sched
