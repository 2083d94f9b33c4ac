// SWF consistency validator.
//
// The standard requires that "every datum must abide to strict
// consistency rules, that when checked ensure that the workload is
// always 'clean'". Each rule is an enumerated diagnostic so tools (and
// tests) can assert exactly which rule a dirty trace violates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/swf/trace.hpp"

namespace pjsb::swf {

/// Identifiers of the consistency rules derived from section 2.3.
enum class Rule {
  kJobNumberSequence,    ///< job numbers count 1..N in file order
  kSubmitOrder,          ///< submit times non-decreasing
  kNegativeValue,        ///< values must be >= 0 or exactly -1
  kStatusRange,          ///< status in {-1, 0, 1, 2, 3, 4}
  kProcsPositive,        ///< allocated/requested processors >= 1 if known
  kCpuExceedsWallclock,  ///< avg cpu time > run time (impossible)
  kExceedsMaxNodes,      ///< allocated procs > MaxNodes header
  kExceedsMaxRuntime,    ///< run time > MaxRuntime (unless AllowOveruse)
  kExceedsMaxMemory,     ///< used memory > MaxMemory (unless AllowOveruse)
  kIdRange,              ///< user/group/executable/partition ids >= 1
  kQueueRange,           ///< queue id >= 0 (0 denotes interactive)
  kPrecedingJobInvalid,  ///< field 17 references missing / later job
  kThinkTimeWithoutPred, ///< field 18 set while field 17 unknown
  kPartialStructure,     ///< partial lines without summary, bad last code
  kPartialRuntimeSum,    ///< partial runtimes do not sum to summary
  kDuplicateJobNumber,   ///< same job number on two summary lines
  kRequestedUnderAlloc,  ///< allocated > requested procs (no overuse)
};

/// Name of a rule (stable, for reports and tests).
std::string rule_name(Rule rule);

enum class Severity { kWarning, kError };

struct Diagnostic {
  Rule rule;
  Severity severity = Severity::kError;
  /// Record index within trace.records (SIZE_MAX for trace-level issues).
  std::size_t record_index = std::size_t(-1);
  std::int64_t job_number = kUnknown;
  std::string message;
};

struct ValidationReport {
  std::vector<Diagnostic> diagnostics;

  bool clean() const;  ///< no errors (warnings allowed)
  std::size_t errors() const;
  std::size_t warnings() const;
  /// Count of diagnostics for a given rule.
  std::size_t count(Rule rule) const;
  /// Multi-line human-readable rendering.
  std::string to_string() const;
};

/// Validate a trace against all rules, the multi-line (checkpoint)
/// structure rules included. An AllowOveruse=Yes header permits run
/// time and memory overuse.
ValidationReport validate(const Trace& trace);

}  // namespace pjsb::swf
