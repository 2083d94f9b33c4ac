// CapacityProfile: piecewise-constant available-processor count over
// time. The shared substrate of backfilling (EASY's shadow reservation,
// conservative's full reservation profile), advance reservations for
// metacomputing co-allocation (section 3), and outage-aware scheduling
// (draining up to announced maintenance, section 2.2).
//
// Representation: a flat, sorted timeline of {time, available} steps.
// Before the first step the full base capacity is available; each step
// sets the available count from its time until the next step. The
// canonical form stores no redundant steps (adjacent steps always carry
// different values), so structural equality equals functional equality.
// Point lookups binary-search with a cached segment hint (scheduler
// queries are strongly monotone in time), and earliest_start is a
// single forward sweep that tracks the running feasible-window length —
// O(steps), not O(steps^2) as with repeated fits() probing.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pjsb::sched {

/// Far-future sentinel for open-ended usages.
inline constexpr std::int64_t kForever =
    std::numeric_limits<std::int64_t>::max() / 4;

/// Piecewise-constant capacity timeline. Usages subtract capacity over
/// [start, end); the profile answers "when can (procs, duration) first
/// start?" queries. All mutations are exact inverses, so schedulers can
/// tentatively place and remove usages.
class CapacityProfile {
 public:
  explicit CapacityProfile(std::int64_t base_capacity);

  std::int64_t base_capacity() const { return base_; }

  /// Subtract `procs` over [start, end). end may be kForever.
  void add_usage(std::int64_t start, std::int64_t end, std::int64_t procs);
  /// Exact inverse of add_usage with identical arguments.
  void remove_usage(std::int64_t start, std::int64_t end,
                    std::int64_t procs);

  /// Permanently change the base capacity from `start` on (outage start
  /// = negative delta at start, positive delta at end).
  void add_capacity_delta(std::int64_t at, std::int64_t delta);

  /// Available processors at time t.
  std::int64_t available_at(std::int64_t t) const;

  /// Minimum available processors over [start, end).
  std::int64_t min_available(std::int64_t start, std::int64_t end) const;

  /// Earliest t >= from such that `procs` are available throughout
  /// [t, t + duration). Returns kForever if no such time exists (e.g.
  /// procs exceeds capacity everywhere).
  std::int64_t earliest_start(std::int64_t from, std::int64_t duration,
                              std::int64_t procs) const;

  /// Earliest t in [from, until] such that `procs` are available
  /// throughout [t, min(t + duration, until)); `until` itself always
  /// qualifies (empty window). A read-only sweep that stops at `until`:
  /// conservative backfilling asks it for a job whose own claim starts
  /// at `until`, since the part of a window reaching past `until` lies
  /// on that claim.
  std::int64_t earliest_start_before(std::int64_t from, std::int64_t until,
                                     std::int64_t duration,
                                     std::int64_t procs) const;

  /// True if `procs` are available throughout [start, start+duration).
  bool fits(std::int64_t start, std::int64_t duration,
            std::int64_t procs) const;

  /// Drop all events strictly before `t` (folding them into a single
  /// step at `t`), keeping the profile small in long simulations.
  void compact_before(std::int64_t t);

  /// Number of step points currently stored. Long-running schedulers
  /// that compact_before(now) keep this O(running + queued) regardless
  /// of trace length.
  std::size_t step_count() const { return steps_.size(); }

  /// True if the two profiles describe the same availability function
  /// for all t >= from (history before `from` may differ, e.g. one side
  /// compacted). Used by the schedulers' debug cross-check.
  bool same_from(const CapacityProfile& other, std::int64_t from) const;

  /// Step-for-step equality: same base and same stored timeline,
  /// history included (what a snapshot would serialize).
  friend bool operator==(const CapacityProfile& a, const CapacityProfile& b) {
    return a.base_ == b.base_ && a.steps_ == b.steps_;
  }

  /// Snapshot access: step `i` as (time, available), 0 <= i <
  /// step_count(). Iterating 0..step_count() yields the canonical
  /// sorted timeline, so from_steps(base, those pairs) reproduces the
  /// profile exactly.
  std::pair<std::int64_t, std::int64_t> step_at(std::size_t i) const {
    return {steps_[i].time, steps_[i].avail};
  }

  /// Rebuild a profile from its serialized step timeline (must be the
  /// sorted canonical form produced by step_at iteration).
  static CapacityProfile from_steps(
      std::int64_t base,
      const std::vector<std::pair<std::int64_t, std::int64_t>>& steps) {
    CapacityProfile p(base);
    p.steps_.reserve(steps.size());
    for (const auto& [time, avail] : steps) p.steps_.push_back({time, avail});
    return p;
  }

  /// Debug rendering of the step function.
  std::string to_string() const;

 private:
  struct Step {
    std::int64_t time;
    std::int64_t avail;  ///< available processors in [time, next.time)
    bool operator==(const Step&) const = default;
  };

  /// Number of steps with time <= t; 0 means t precedes all steps. Uses
  /// and refreshes the cached hint.
  std::size_t segment_index(std::int64_t t) const;
  /// Index of the step at exactly `t`, inserting one (carrying the
  /// current availability) if absent.
  std::size_t ensure_boundary(std::int64_t t);
  /// Subtract `procs` from availability over [start, end) and restore
  /// the canonical form. procs may be negative (capacity returned).
  void add_used(std::int64_t start, std::int64_t end, std::int64_t procs);

  std::int64_t base_;
  std::vector<Step> steps_;
  /// Last segment index returned; validated before reuse, so staleness
  /// only costs a binary search.
  mutable std::size_t hint_ = 0;
};

}  // namespace pjsb::sched
