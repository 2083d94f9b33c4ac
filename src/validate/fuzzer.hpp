// Deterministic seeded fuzzer: every registered scheduler spec under
// randomized workloads and outages, with all invariant checkers
// attached.
//
// The policy axis is not hand-listed — it is enumerated from
// sched::Registry (base names plus parameterized variants derived from
// each schema), so a newly registered scheduler is fuzzed the moment it
// exists. Every run derives from one master seed; a reported failure
// carries the exact seed that reproduces it:
//
//   swf_tool fuzz <seed>
//
// Four variants per (spec, workload): a materialized replay with the
// policy-promise checks on, an outage replay (random failures, promise
// checks off — capacity loss legitimately slips reservations), a
// bounded-lookahead streaming replay with slot recycling (exercising
// job conservation under constant-memory mode), and a faults replay
// (a random seeded crash schedule plus a randomized recovery config —
// checkpointing, retry limits, backoff, walltime-overrun policies —
// exercising the recovery contracts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/outage/record.hpp"
#include "core/swf/trace.hpp"
#include "sched/registry.hpp"

namespace pjsb::validate {

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Random workloads per scheduler spec.
  int workloads = 3;
  /// Jobs per workload.
  std::size_t jobs = 120;
  /// Simulated machine size.
  std::int64_t nodes = 32;
  /// Run the outage variant of each workload.
  bool outage_runs = true;
  /// Run the streaming (recycle_slots) variant of each workload.
  bool stream_runs = true;
  /// Run the fault-injection variant of each workload (random crash
  /// schedule + randomized recovery config).
  bool fault_runs = true;
};

/// Failures a fuzz report stores verbatim; its count stays exact.
inline constexpr std::size_t kFuzzFailuresKept = 16;

struct FuzzFailure {
  std::string scheduler;  ///< registry spec string
  std::string variant;    ///< "materialized", "outages", "stream", "faults"
  /// The master seed of the run: `swf_tool fuzz <seed>` (with the same
  /// workloads/jobs budget) reproduces this failure.
  std::uint64_t seed = 0;
  /// Which workload of the run tripped it (0-based).
  int workload = 0;
  /// util::derive_seed(seed, workload) — feeds fuzz_workload directly
  /// when reproducing in a unit test.
  std::uint64_t workload_seed = 0;
  std::string detail;     ///< checker summary or exception text

  std::string to_string() const;
};

struct FuzzReport {
  std::size_t specs = 0;  ///< scheduler specs enumerated
  std::size_t runs = 0;   ///< replays executed
  std::size_t failure_count = 0;
  std::vector<FuzzFailure> failures;  ///< first kFuzzFailuresKept

  bool clean() const { return failure_count == 0; }
  std::string summary() const;
};

/// Every spec the fuzzer drives: each registered scheduler's canonical
/// name plus parameterized variants derived from its schema (a few
/// values per int parameter, every non-default choice). Deterministic
/// and registration-ordered.
std::vector<std::string> enumerate_scheduler_specs(
    const sched::Registry& registry);

/// A randomized but reproducible workload: bursty arrivals, skewed
/// sizes (serial to full-machine), heavy-tailed runtimes, estimates
/// that always bound the runtime (as replayed SWF records do).
swf::Trace fuzz_workload(std::uint64_t seed, std::size_t jobs,
                         std::int64_t nodes);

/// A randomized outage log over the workload horizon: a few node
/// failures/maintenance windows, some announced in advance.
outage::OutageLog fuzz_outages(std::uint64_t seed, std::int64_t nodes,
                               std::int64_t horizon);

/// Drive every enumerated spec through every workload variant with an
/// InvariantChecker attached; never throws — engine exceptions become
/// failures too.
FuzzReport run_fuzzer(const FuzzOptions& options = {});

// ---------------------------------------------------------------------
// Differential parser fuzzing (`swf_tool fuzz parse`): seeded byte-
// level mutations of generated traces — bit flips, field splices, huge
// tokens, NUL/UTF-8 junk, CRLF conversion, truncation, empty and
// comment-only files — fed through the reference reader and through
// swf::read_swf_string (several thread counts, adversarial chunk sizes)
// and swf::TraceReader (a random window size). Every case asserts
// identical records, header fields, accept/reject verdicts, error
// lines/messages and bounded error storage; any divergence or
// exception is a failure carrying its case seed.

/// One differential parse check of an SWF document.
struct ParseCheck {
  bool strict = false;
  bool allow_extra = false;
  /// Whole-trace chunk target, read at each of `threads`.
  std::size_t chunk_bytes = 0;
  std::vector<int> threads = {1, 2, 8};
  /// TraceReader refill size.
  std::size_t window_bytes = 0;
};

/// Read `text` with validate::reference_read_swf, with
/// swf::read_swf_string at every thread count, and with a drained
/// swf::TraceReader; returns the first divergence, or "" when they all
/// agree.
std::string check_parse(const std::string& text, const ParseCheck& check);

struct ParserFuzzOptions {
  std::uint64_t seed = 1;
  /// Mutated inputs to generate and cross-check.
  int cases = 200;
  /// Whole-trace parser thread counts exercised per case.
  std::vector<int> thread_counts = {1, 2, 8};
};

struct ParserFuzzReport {
  int cases = 0;
  std::size_t failure_count = 0;
  std::vector<std::string> failures;  ///< first kFuzzFailuresKept

  bool clean() const { return failure_count == 0; }
  std::string summary() const;
};

ParserFuzzReport run_parser_fuzzer(const ParserFuzzOptions& options = {});

}  // namespace pjsb::validate
