// Conservative backfilling: every queued job holds a reservation at its
// earliest feasible start, and backfilling may never delay *any* queued
// job (vs. EASY, which protects only the head). The aggressiveness gap
// between the two is a standing ablation in the literature the paper
// standardizes (experiments E2/E8).
//
// Reservations are *persistent* and compressed one at a time: when
// capacity frees (a job ends early), each queued job is re-placed with
// every other job's claim still standing, and moves only if the new
// slot is earlier. This is the published compression rule — wholesale
// re-placement looks equivalent but is not: an earlier job compressed
// into a later job's window can push that job past its promised start,
// which the validation fuzzer caught as a broken-promise invariant
// violation. A reservation is abandoned (re-placed unconditionally)
// only when its slot became infeasible through a base-profile
// regression — an outage, an accepted external reservation, or a
// running job overrunning its estimate — the documented cases where
// the guarantee cannot hold.
//
// A pass costs what changed. The full profile (base + standing claims)
// persists across passes: BackfillBase applies every base change to it
// (track_full_profile), so no pass rebuilds it. When nothing from now
// on is overbooked, a standing claim is tested read-only: a job of
// width p and estimate d holding slot s can start at t < s exactly
// when p nodes are free throughout [t, min(t + d, s)), because the
// rest of its window lies on its own claim
// (CapacityProfile::earliest_start_before). Only jobs that move or
// start touch the profile. A pass that finds the profile overbooked
// (by an outage, an overrun or an accepted reservation) lifts each
// claim, re-places it and puts it back, as the rule above states.
//
// `reserve_depth` caps how many queued jobs hold reservations (0 =
// every job, the classic policy): jobs beyond the depth backfill
// opportunistically, sliding the policy toward EASY from the other end
// of the aggressiveness axis.
#pragma once

#include <unordered_map>

#include "sched/backfill.hpp"

namespace pjsb::sched {

class ConservativeScheduler final : public BackfillBase {
 public:
  /// `reserve_depth`: queued jobs (FIFO order) granted reservations;
  /// 0 means all of them (classic conservative backfilling).
  explicit ConservativeScheduler(int reserve_depth = 0)
      : reserve_depth_(reserve_depth < 0 ? 0 : reserve_depth) {
    track_full_profile(&full_profile_);
  }

  std::string name() const override;
  void schedule(SchedulerContext& ctx) override;
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs, std::int64_t estimate) const override;
  void save_state(sim::snapshot::Writer& w) const override;
  /// Also rejects ("snapshot: conservative ...") a placement naming a
  /// job that is not queued and a full profile that differs, step for
  /// step, from base + standing claims.
  void load_state(sim::snapshot::Reader& r) override;

  int reserve_depth() const { return reserve_depth_; }

  /// The reservation currently held by a queued job (engine time), or
  /// nullopt when the job holds none (beyond reserve_depth, unknown, or
  /// not yet placeable). Exposed for tests and diagnostics.
  std::optional<std::int64_t> reserved_start(std::int64_t job_id) const;

 private:
  /// A queued job's promised start and the window it blocks there.
  struct Claim {
    std::int64_t slot = 0;
    std::int64_t procs = 0;
    std::int64_t estimate = 0;
  };

  /// Take a claim's usage out of the full profile; a slot already in
  /// the past only blocks [now, end) after compaction.
  void release_claim(const Claim& claim, std::int64_t now);
  /// `profile` plus every standing claim, each clamped to start no
  /// earlier than `from`.
  CapacityProfile with_claims(CapacityProfile profile,
                              std::int64_t from) const;
  /// Cross-check, run at the top of every pass after the base's: the
  /// full profile must equal base_profile(now) plus every standing
  /// claim from now on; throws std::logic_error naming the time.
  void check_full_profile(std::int64_t now) const;

  int reserve_depth_ = 0;

  /// Persistent FIFO reservations: job id -> claim, as granted at
  /// submission and only ever compressed earlier (see class comment).
  /// Entries are dropped when the job starts or leaves the queue.
  std::unordered_map<std::int64_t, Claim> placed_;

  /// Base profile + every claim in placed_, kept current by
  /// BackfillBase's base changes and by the passes' claim moves;
  /// predict_start queries it directly.
  CapacityProfile full_profile_{0};
};

}  // namespace pjsb::sched
