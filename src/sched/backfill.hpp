// Shared machinery for profile-based (backfilling) schedulers.
//
// EASY and conservative backfilling both reason about the future with a
// capacity profile built from: running jobs (until their *estimated*
// ends), committed advance reservations (section 3's metacomputing
// requirement), and known outage windows (section 2.2's drain-around-
// maintenance behaviour). This base class owns that state; subclasses
// implement the queueing discipline.
//
// The profile is maintained *incrementally* across events: starting a
// job adds its usage once, an (early) completion removes the remaining
// usage, outage/reservation changes patch their windows, and the past
// is compacted away every pass — no O(running + reservations) rebuild
// per event. `base_profile()` still builds the same profile from
// scratch; with cross-checking enabled (default in debug builds, see
// set_cross_check) every schedule() pass verifies the incremental and
// rebuilt profiles agree from now on.
//
// Every base change — start, end or kill, outage open and close,
// overrun extension, accepted reservation, compaction at now — goes
// through one path (add_base_usage / remove_base_usage /
// compact_profiles). A subclass that keeps a profile of its own on top
// of the base (conservative's base + standing claims) registers it with
// track_full_profile, and that path applies each change to it as well,
// so the subclass never rebuilds it. EASY registers none.
#pragma once

#include <deque>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/profile.hpp"
#include "sched/scheduler.hpp"

namespace pjsb::sched {

class BackfillBase : public Scheduler {
 public:
  BackfillBase() = default;
  // A tracked full profile is a pointer into the subclass object.
  BackfillBase(const BackfillBase&) = delete;
  BackfillBase& operator=(const BackfillBase&) = delete;

  void on_attach(SchedulerContext& ctx) override;
  void on_submit(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_end(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_killed(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_outage_announce(SchedulerContext& ctx,
                          const outage::OutageRecord& rec) override;
  void on_outage_start(SchedulerContext& ctx,
                       const outage::OutageRecord& rec) override;
  void on_outage_end(SchedulerContext& ctx,
                     const outage::OutageRecord& rec) override;
  bool try_reserve(SchedulerContext& ctx,
                   const AdvanceReservation& reservation) override;

  /// Serialize / restore the shared backfilling state (queue, running
  /// set, reservations, outage windows, incremental profile, overrun
  /// heap). Subclasses with extra state override, call the base, then
  /// append their own fields.
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

  /// Earliest feasible window start for an external reservation of
  /// (procs, duration) not before `from`, against running jobs +
  /// existing reservations + outages (queued jobs are not protected —
  /// reservations have priority, which is the tension experiment E8
  /// measures). kForever if impossible.
  std::int64_t earliest_reservation_start(std::int64_t now,
                                          std::int64_t from,
                                          std::int64_t duration,
                                          std::int64_t procs,
                                          std::int64_t total_nodes) const;

  std::size_t queue_length() const { return queue_.size(); }

  /// The incrementally maintained base profile (running jobs +
  /// reservations + outages). Exposed for tests and diagnostics.
  const CapacityProfile& profile() const { return profile_; }

  /// Verify the incremental profile (and a tracked full profile, see
  /// the subclass) against a from-scratch rebuild on every schedule()
  /// pass (throws std::logic_error on divergence). On by default in
  /// debug builds; tests can force it on in Release.
  void set_cross_check(bool on) { cross_check_ = on; }

 protected:
  struct RunningJob {
    std::int64_t id = 0;
    std::int64_t expected_end = 0;
    std::int64_t procs = 0;
    /// End of the usage currently recorded in profile_ for this job
    /// (expected_end, or now+1 ticks while the job overruns it).
    std::int64_t profile_end = 0;
  };
  struct QueuedInfo {
    std::int64_t procs = 0;
    std::int64_t estimate = 0;
  };
  struct OutageWindow {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t nodes = 0;
  };

  /// Reference rebuild: running jobs + reservations + outage windows,
  /// over `total_nodes`, with estimated ends clamped into the future.
  /// Used by the cross-check; the hot path uses profile_.
  CapacityProfile base_profile(std::int64_t now,
                               std::int64_t total_nodes) const;

  /// Drop queue entries that are no longer queued (externally started).
  void prune_queue(SchedulerContext& ctx);

  /// Per-pass profile upkeep, called at the top of schedule(): extend
  /// usages of jobs overrunning their estimate, compact the past, and
  /// run the optional cross-check.
  void refresh_profile(std::int64_t now);

  /// True when the base profile's *semantics* changed since the last
  /// consume_base_change() — a job ended/was killed, an outage window
  /// appeared/cleared, a reservation was committed, or an overrun
  /// extension fired. Pure submissions and compaction do not set it.
  /// Lets subclasses that cache placements against the base (the
  /// conservative compression pass) skip recomputation on
  /// submission-only events.
  bool consume_base_change() {
    const bool changed = base_changed_;
    base_changed_ = false;
    return changed;
  }

  /// Record a job started now: running-set entry + profile usage (in
  /// the tracked full profile too).
  void note_started(std::int64_t id, std::int64_t now,
                    std::int64_t estimate, std::int64_t procs);

  /// Register the subclass's full profile; every base change is then
  /// applied to it as well (see class comment). Call once, from the
  /// constructor.
  void track_full_profile(CapacityProfile* full) { tracked_full_ = full; }

  bool cross_checking() const { return cross_check_; }

  /// Profile (de)serialization helpers shared with subclasses.
  static void write_profile(sim::snapshot::Writer& w,
                            const CapacityProfile& profile);
  static CapacityProfile read_profile(sim::snapshot::Reader& r);

  std::deque<std::int64_t> queue_;
  std::unordered_map<std::int64_t, QueuedInfo> queued_info_;
  std::unordered_map<std::int64_t, RunningJob> running_;
  std::vector<AdvanceReservation> reservations_;
  std::vector<OutageWindow> outages_;
  /// Machine size, learned at attach time.
  std::int64_t total_nodes_ = 0;
  /// Incrementally maintained base profile (see class comment).
  CapacityProfile profile_{0};

 private:
  void note_outage(std::int64_t now, const outage::OutageRecord& rec);
  /// Remove a running job's remaining profile usage (end or kill).
  void release_running(std::int64_t job_id, std::int64_t now);

  /// The one path for base-profile changes: profile_ and the tracked
  /// full profile, if any, take the same usage delta / compaction.
  void add_base_usage(std::int64_t start, std::int64_t end,
                      std::int64_t procs);
  void remove_base_usage(std::int64_t start, std::int64_t end,
                         std::int64_t procs);
  void compact_profiles(std::int64_t now);

  /// See track_full_profile; nullptr when the subclass keeps none.
  CapacityProfile* tracked_full_ = nullptr;

  /// (profile_end, job id) min-heap driving overrun extension; entries
  /// are validated against running_ when popped.
  std::priority_queue<std::pair<std::int64_t, std::int64_t>,
                      std::vector<std::pair<std::int64_t, std::int64_t>>,
                      std::greater<>>
      expiry_heap_;
  /// See consume_base_change(); starts true so the first pass after
  /// attach always recomputes from scratch.
  bool base_changed_ = true;
#ifndef NDEBUG
  bool cross_check_ = true;
#else
  bool cross_check_ = false;
#endif
};

}  // namespace pjsb::sched
