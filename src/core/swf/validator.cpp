#include "core/swf/validator.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace pjsb::swf {

namespace {

/// All fields of a record as (name, value) pairs for the negativity rule.
struct FieldRef {
  const char* name;
  std::int64_t value;
};

std::vector<FieldRef> record_fields(const JobRecord& r) {
  return {
      {"job_number", r.job_number},
      {"submit_time", r.submit_time},
      {"wait_time", r.wait_time},
      {"run_time", r.run_time},
      {"allocated_procs", r.allocated_procs},
      {"avg_cpu_time", r.avg_cpu_time},
      {"used_memory_kb", r.used_memory_kb},
      {"requested_procs", r.requested_procs},
      {"requested_time", r.requested_time},
      {"requested_memory_kb", r.requested_memory_kb},
      {"user_id", r.user_id},
      {"group_id", r.group_id},
      {"executable_id", r.executable_id},
      {"queue_id", r.queue_id},
      {"partition_id", r.partition_id},
      {"preceding_job", r.preceding_job},
      {"think_time", r.think_time},
  };
}

class Validator {
 public:
  explicit Validator(const Trace& trace) : trace_(trace) {}

  ValidationReport run() {
    check_sequence_and_order();
    for (std::size_t i = 0; i < trace_.records.size(); ++i) {
      check_record(i, trace_.records[i]);
    }
    check_dependencies();
    check_partials();
    return std::move(report_);
  }

 private:
  void add(Rule rule, std::size_t index, std::int64_t job, std::string msg,
           Severity severity = Severity::kError) {
    report_.diagnostics.push_back(
        {rule, severity, index, job, std::move(msg)});
  }

  void check_sequence_and_order() {
    std::int64_t expected = 1;
    std::int64_t prev_submit = kUnknown;
    std::unordered_set<std::int64_t> summary_seen;
    for (std::size_t i = 0; i < trace_.records.size(); ++i) {
      const auto& r = trace_.records[i];
      if (r.is_summary()) {
        if (!summary_seen.insert(r.job_number).second) {
          add(Rule::kDuplicateJobNumber, i, r.job_number,
              "job number appears on more than one summary line");
        }
        if (r.job_number != expected) {
          add(Rule::kJobNumberSequence, i, r.job_number,
              "expected job number " + std::to_string(expected) + ", got " +
                  std::to_string(r.job_number));
          // Resynchronize so one gap yields one diagnostic.
          expected = r.job_number + 1;
        } else {
          ++expected;
        }
        if (r.submit_time != kUnknown) {
          if (prev_submit != kUnknown && r.submit_time < prev_submit) {
            add(Rule::kSubmitOrder, i, r.job_number,
                "submit time " + std::to_string(r.submit_time) +
                    " is before previous " + std::to_string(prev_submit));
          }
          prev_submit = r.submit_time;
        }
      }
    }
  }

  void check_record(std::size_t i, const JobRecord& r) {
    for (const auto& f : record_fields(r)) {
      if (f.value < -1) {
        add(Rule::kNegativeValue, i, r.job_number,
            std::string(f.name) + " = " + std::to_string(f.value) +
                " (values must be >= 0, or -1 for unknown)");
      }
    }
    if (status_code(r.status) < -1 || status_code(r.status) > 4) {
      add(Rule::kStatusRange, i, r.job_number, "status out of range");
    }
    if (r.allocated_procs != kUnknown && r.allocated_procs < 1) {
      add(Rule::kProcsPositive, i, r.job_number,
          "allocated processors must be >= 1");
    }
    if (r.requested_procs != kUnknown && r.requested_procs < 1) {
      add(Rule::kProcsPositive, i, r.job_number,
          "requested processors must be >= 1");
    }
    if (r.avg_cpu_time != kUnknown && r.run_time != kUnknown &&
        r.avg_cpu_time > r.run_time) {
      add(Rule::kCpuExceedsWallclock, i, r.job_number,
          "average CPU time " + std::to_string(r.avg_cpu_time) +
              " exceeds wall-clock run time " + std::to_string(r.run_time));
    }

    const bool overuse_ok = trace_.header.allow_overuse.value_or(false);
    if (trace_.header.max_nodes && r.allocated_procs != kUnknown &&
        r.allocated_procs > *trace_.header.max_nodes) {
      add(Rule::kExceedsMaxNodes, i, r.job_number,
          "allocated " + std::to_string(r.allocated_procs) +
              " processors on a machine with MaxNodes " +
              std::to_string(*trace_.header.max_nodes));
    }
    if (!overuse_ok && trace_.header.max_runtime && r.run_time != kUnknown &&
        r.run_time > *trace_.header.max_runtime) {
      add(Rule::kExceedsMaxRuntime, i, r.job_number,
          "run time exceeds MaxRuntime and AllowOveruse is not set",
          Severity::kWarning);
    }
    if (!overuse_ok && trace_.header.max_memory_kb &&
        r.used_memory_kb != kUnknown &&
        r.used_memory_kb > *trace_.header.max_memory_kb) {
      add(Rule::kExceedsMaxMemory, i, r.job_number,
          "used memory exceeds MaxMemory and AllowOveruse is not set",
          Severity::kWarning);
    }
    if (!overuse_ok && r.requested_procs != kUnknown &&
        r.allocated_procs != kUnknown &&
        r.allocated_procs > r.requested_procs) {
      add(Rule::kRequestedUnderAlloc, i, r.job_number,
          "allocated more processors than requested", Severity::kWarning);
    }

    for (const auto& [name, value] :
         {std::pair<const char*, std::int64_t>{"user_id", r.user_id},
          {"group_id", r.group_id},
          {"executable_id", r.executable_id},
          {"partition_id", r.partition_id}}) {
      if (value != kUnknown && value < 1) {
        add(Rule::kIdRange, i, r.job_number,
            std::string(name) + " must be a natural number (>= 1)");
      }
    }
    if (r.queue_id != kUnknown && r.queue_id < 0) {
      add(Rule::kQueueRange, i, r.job_number,
          "queue id must be >= 0 (0 denotes interactive)");
    }
    if (r.think_time != kUnknown && r.preceding_job == kUnknown) {
      add(Rule::kThinkTimeWithoutPred, i, r.job_number,
          "think time set but preceding job is unknown");
    }
  }

  void check_dependencies() {
    std::unordered_set<std::int64_t> known;
    for (const auto& r : trace_.records) {
      if (r.is_summary()) known.insert(r.job_number);
    }
    for (std::size_t i = 0; i < trace_.records.size(); ++i) {
      const auto& r = trace_.records[i];
      if (r.preceding_job == kUnknown) continue;
      if (!known.count(r.preceding_job)) {
        add(Rule::kPrecedingJobInvalid, i, r.job_number,
            "preceding job " + std::to_string(r.preceding_job) +
                " does not exist");
      } else if (r.preceding_job >= r.job_number) {
        add(Rule::kPrecedingJobInvalid, i, r.job_number,
            "preceding job " + std::to_string(r.preceding_job) +
                " is not earlier than this job");
      }
    }
  }

  void check_partials() {
    // Group partial lines (status 2/3/4) under their job number, and
    // locate the matching summary line.
    std::unordered_map<std::int64_t, const JobRecord*> summaries;
    for (const auto& r : trace_.records) {
      if (r.is_summary()) summaries.emplace(r.job_number, &r);
    }
    std::unordered_map<std::int64_t, std::vector<std::size_t>> partials;
    for (std::size_t i = 0; i < trace_.records.size(); ++i) {
      const auto& r = trace_.records[i];
      if (is_partial_status(r.status)) partials[r.job_number].push_back(i);
    }
    for (const auto& [job, idxs] : partials) {
      const auto it = summaries.find(job);
      if (it == summaries.end()) {
        add(Rule::kPartialStructure, idxs.front(), job,
            "partial execution lines without a summary line");
        continue;
      }
      // All but the last must be code 2; the last must be 3 or 4 and
      // agree with the summary's completion status.
      for (std::size_t k = 0; k + 1 < idxs.size(); ++k) {
        if (trace_.records[idxs[k]].status != Status::kPartial) {
          add(Rule::kPartialStructure, idxs[k], job,
              "non-final partial line must carry status 2");
        }
      }
      const auto& last = trace_.records[idxs.back()];
      if (last.status == Status::kPartial) {
        add(Rule::kPartialStructure, idxs.back(), job,
            "last partial line must carry status 3 (completed) or 4 "
            "(killed)");
      } else {
        const Status summary_status = it->second->status;
        const bool summary_ok = summary_status == Status::kCompleted;
        const bool last_ok = last.status == Status::kPartialLastOk;
        if (summary_status != Status::kUnknown && summary_ok != last_ok) {
          add(Rule::kPartialStructure, idxs.back(), job,
              "last partial completion code disagrees with summary line");
        }
      }
      // "its runtime is the sum of all partial runtimes"
      std::int64_t sum = 0;
      bool all_known = true;
      for (std::size_t idx : idxs) {
        const auto rt = trace_.records[idx].run_time;
        if (rt == kUnknown) {
          all_known = false;
          break;
        }
        sum += rt;
      }
      if (all_known && it->second->run_time != kUnknown &&
          it->second->run_time != sum) {
        add(Rule::kPartialRuntimeSum, idxs.front(), job,
            "summary run time " + std::to_string(it->second->run_time) +
                " != sum of partial run times " + std::to_string(sum));
      }
    }
  }

  const Trace& trace_;
  ValidationReport report_;
};

}  // namespace

std::string rule_name(Rule rule) {
  switch (rule) {
    case Rule::kJobNumberSequence: return "job-number-sequence";
    case Rule::kSubmitOrder: return "submit-order";
    case Rule::kNegativeValue: return "negative-value";
    case Rule::kStatusRange: return "status-range";
    case Rule::kProcsPositive: return "procs-positive";
    case Rule::kCpuExceedsWallclock: return "cpu-exceeds-wallclock";
    case Rule::kExceedsMaxNodes: return "exceeds-max-nodes";
    case Rule::kExceedsMaxRuntime: return "exceeds-max-runtime";
    case Rule::kExceedsMaxMemory: return "exceeds-max-memory";
    case Rule::kIdRange: return "id-range";
    case Rule::kQueueRange: return "queue-range";
    case Rule::kPrecedingJobInvalid: return "preceding-job-invalid";
    case Rule::kThinkTimeWithoutPred: return "think-time-without-pred";
    case Rule::kPartialStructure: return "partial-structure";
    case Rule::kPartialRuntimeSum: return "partial-runtime-sum";
    case Rule::kDuplicateJobNumber: return "duplicate-job-number";
    case Rule::kRequestedUnderAlloc: return "requested-under-alloc";
  }
  return "unknown-rule";
}

bool ValidationReport::clean() const { return errors() == 0; }

std::size_t ValidationReport::errors() const {
  return std::size_t(std::count_if(
      diagnostics.begin(), diagnostics.end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t ValidationReport::warnings() const {
  return diagnostics.size() - errors();
}

std::size_t ValidationReport::count(Rule rule) const {
  return std::size_t(std::count_if(
      diagnostics.begin(), diagnostics.end(),
      [rule](const Diagnostic& d) { return d.rule == rule; }));
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) {
    os << (d.severity == Severity::kError ? "error" : "warning") << " ["
       << rule_name(d.rule) << "] job " << d.job_number << ": " << d.message
       << '\n';
  }
  os << errors() << " error(s), " << warnings() << " warning(s)\n";
  return os.str();
}

ValidationReport validate(const Trace& trace) {
  return Validator(trace).run();
}

}  // namespace pjsb::swf
