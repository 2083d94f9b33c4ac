// Property test: CapacityProfile against a brute-force reference.
//
// The profile is the load-bearing structure under EASY, conservative,
// reservations and outage-aware draining; here a randomized sequence of
// usages and capacity deltas is checked point-by-point against a plain
// array-of-seconds reference model.
#include <gtest/gtest.h>

#include <vector>

#include "sched/profile.hpp"
#include "util/rng.hpp"

namespace pjsb::sched {
namespace {

/// Reference model: available capacity per integer second in [0, T).
class ReferenceProfile {
 public:
  ReferenceProfile(std::int64_t base, std::int64_t horizon)
      : avail_(std::size_t(horizon), base) {}

  void add_usage(std::int64_t start, std::int64_t end, std::int64_t procs) {
    for (std::int64_t t = std::max<std::int64_t>(0, start);
         t < std::min<std::int64_t>(end, std::int64_t(avail_.size())); ++t) {
      avail_[std::size_t(t)] -= procs;
    }
  }
  void add_capacity_delta(std::int64_t at, std::int64_t delta) {
    for (std::int64_t t = std::max<std::int64_t>(0, at);
         t < std::int64_t(avail_.size()); ++t) {
      avail_[std::size_t(t)] += delta;
    }
  }
  std::int64_t available_at(std::int64_t t) const {
    return avail_.at(std::size_t(t));
  }
  std::int64_t min_available(std::int64_t start, std::int64_t end) const {
    std::int64_t m = avail_.at(std::size_t(start));
    for (std::int64_t t = start; t < end && t < std::int64_t(avail_.size());
         ++t) {
      m = std::min(m, avail_[std::size_t(t)]);
    }
    return m;
  }
  std::int64_t earliest_start(std::int64_t from, std::int64_t duration,
                              std::int64_t procs) const {
    for (std::int64_t t = from;
         t + duration <= std::int64_t(avail_.size()); ++t) {
      if (min_available(t, t + duration) >= procs) return t;
    }
    return kForever;
  }

 private:
  std::vector<std::int64_t> avail_;
};

class ProfileProperty : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileProperty,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST_P(ProfileProperty, MatchesBruteForceReference) {
  constexpr std::int64_t kHorizon = 300;
  constexpr std::int64_t kBase = 16;
  util::Rng rng(GetParam());

  CapacityProfile profile(kBase);
  ReferenceProfile reference(kBase, kHorizon);

  // Random usages; track them so some can be removed again.
  struct Usage {
    std::int64_t start, end, procs;
  };
  std::vector<Usage> usages;
  for (int op = 0; op < 60; ++op) {
    const int kind = int(rng.uniform_int(0, 3));
    if (kind <= 1 || usages.empty()) {
      Usage u;
      u.start = rng.uniform_int(0, kHorizon - 2);
      u.end = u.start + rng.uniform_int(1, 80);
      u.procs = rng.uniform_int(1, 6);
      profile.add_usage(u.start, u.end, u.procs);
      reference.add_usage(u.start, u.end, u.procs);
      usages.push_back(u);
    } else if (kind == 2) {
      const auto idx = std::size_t(
          rng.uniform_int(0, std::int64_t(usages.size()) - 1));
      const Usage u = usages[idx];
      profile.remove_usage(u.start, u.end, u.procs);
      reference.add_usage(u.start, u.end, -u.procs);
      usages.erase(usages.begin() + std::ptrdiff_t(idx));
    } else {
      // Outage: capacity dip over a window.
      const std::int64_t at = rng.uniform_int(0, kHorizon - 2);
      const std::int64_t back = at + rng.uniform_int(1, 40);
      const std::int64_t nodes = rng.uniform_int(1, 4);
      profile.add_capacity_delta(at, -nodes);
      profile.add_capacity_delta(back, nodes);
      reference.add_capacity_delta(at, -nodes);
      reference.add_capacity_delta(back, nodes);
    }

    // Point queries.
    for (int q = 0; q < 10; ++q) {
      const std::int64_t t = rng.uniform_int(0, kHorizon - 1);
      ASSERT_EQ(profile.available_at(t), reference.available_at(t))
          << "seed=" << GetParam() << " op=" << op << " t=" << t;
    }
    // Window queries.
    for (int q = 0; q < 5; ++q) {
      const std::int64_t start = rng.uniform_int(0, kHorizon - 2);
      const std::int64_t end = start + rng.uniform_int(1, 50);
      ASSERT_EQ(profile.min_available(start, end),
                reference.min_available(start, std::min(end, kHorizon)))
          << "seed=" << GetParam() << " op=" << op;
    }
    // Earliest-start queries (only meaningful while capacity is
    // nonnegative everywhere, which random ops guarantee here since we
    // only remove usages we added).
    for (int q = 0; q < 3; ++q) {
      const std::int64_t from = rng.uniform_int(0, kHorizon / 2);
      const std::int64_t duration = rng.uniform_int(1, 30);
      const std::int64_t procs = rng.uniform_int(1, kBase);
      const auto got = profile.earliest_start(from, duration, procs);
      const auto want = reference.earliest_start(from, duration, procs);
      // The reference cannot see beyond the horizon; compare only when
      // it found an in-horizon answer, and otherwise require the
      // profile's answer to also lie beyond the reference's view.
      if (want != kForever) {
        ASSERT_EQ(got, want) << "seed=" << GetParam() << " op=" << op;
      } else {
        ASSERT_GE(got, kHorizon - duration + 1);
      }
    }
  }
}

TEST_P(ProfileProperty, CompactionPreservesTheFuture) {
  // Interleave random mutations with compact_before at a monotonically
  // advancing "now"; availability at or after the compaction point must
  // match the reference exactly, and the step count must not grow with
  // the number of *past* operations.
  constexpr std::int64_t kHorizon = 400;
  constexpr std::int64_t kBase = 16;
  util::Rng rng(GetParam() * 977 + 13);

  CapacityProfile profile(kBase);
  ReferenceProfile reference(kBase, kHorizon);

  std::int64_t floor = 0;  // compaction point: queries only from here on
  for (int op = 0; op < 120; ++op) {
    const std::int64_t start = rng.uniform_int(0, kHorizon - 2);
    const std::int64_t end = start + rng.uniform_int(1, 60);
    const std::int64_t procs = rng.uniform_int(1, 5);
    profile.add_usage(start, end, procs);
    reference.add_usage(start, end, procs);

    if (op % 5 == 4) {
      floor = std::min<std::int64_t>(floor + rng.uniform_int(0, 30),
                                     kHorizon - 1);
      profile.compact_before(floor);
    }

    for (int q = 0; q < 8; ++q) {
      const std::int64_t t = rng.uniform_int(floor, kHorizon - 1);
      ASSERT_EQ(profile.available_at(t), reference.available_at(t))
          << "seed=" << GetParam() << " op=" << op << " t=" << t
          << " floor=" << floor;
    }
    const std::int64_t ws = rng.uniform_int(floor, kHorizon - 2);
    const std::int64_t we = ws + rng.uniform_int(1, 40);
    ASSERT_EQ(profile.min_available(ws, we),
              reference.min_available(ws, std::min(we, kHorizon)))
        << "seed=" << GetParam() << " op=" << op;
  }
  // All usages are short-lived relative to the horizon: after
  // compacting everything, only the live tail may remain.
  profile.compact_before(kHorizon + 100);
  EXPECT_LE(profile.step_count(), 1u);
}

TEST_P(ProfileProperty, BoundedSweepMatchesEarliestStartWithoutTheClaim) {
  // Conservative backfilling tests a standing claim (s, d, p) read-only:
  // on a profile where nothing from `now` on is overbooked,
  // earliest_start_before(now, s, d, p) must equal earliest_start(now,
  // d, p) on a copy with the claim removed.
  constexpr std::int64_t kBase = 16;
  util::Rng rng(GetParam() * 7331 + 3);
  int at_now = 0;
  int zero_duration = 0;
  int reaching = 0;  // answers t < s whose window runs into the claim
  for (int round = 0; round < 400; ++round) {
    const std::int64_t now = rng.uniform_int(0, 40);
    CapacityProfile profile(kBase);
    const int usages = int(rng.uniform_int(0, 14));
    for (int i = 0; i < usages; ++i) {
      const std::int64_t start = rng.uniform_int(0, 250);
      const std::int64_t end = start + rng.uniform_int(1, 80);
      const std::int64_t procs = rng.uniform_int(1, 8);
      if (profile.min_available(start, end) >= procs) {
        profile.add_usage(start, end, procs);
      }
    }
    profile.compact_before(now);

    // A feasible claim: at `now` when it fits there, else at the
    // earliest feasible start from a random point on.
    const std::int64_t d = rng.bernoulli(0.1) ? 0 : rng.uniform_int(1, 60);
    const std::int64_t p = rng.uniform_int(1, kBase);
    const std::int64_t s =
        rng.bernoulli(0.2) && profile.fits(now, d, p)
            ? now
            : profile.earliest_start(now + rng.uniform_int(0, 150), d, p);
    ASSERT_LT(s, kForever);
    CapacityProfile claimed = profile;
    claimed.add_usage(s, s + d, p);
    ASSERT_GE(claimed.min_available(now, kForever), 0);

    CapacityProfile lifted = claimed;
    lifted.remove_usage(s, s + d, p);
    ASSERT_TRUE(lifted == profile) << "remove_usage is add_usage's inverse";
    const std::int64_t want = lifted.earliest_start(now, d, p);
    const std::int64_t got = claimed.earliest_start_before(now, s, d, p);
    ASSERT_EQ(got, want) << "seed=" << GetParam() << " round=" << round
                         << " now=" << now << " claim=(" << s << ", " << d
                         << ", " << p << ")\n"
                         << claimed.to_string();
    at_now += s == now;
    zero_duration += d == 0;
    reaching += got < s && got + d > s;
  }
  EXPECT_GT(at_now, 0);
  EXPECT_GT(zero_duration, 0);
  EXPECT_GT(reaching, 0);
}

TEST_P(ProfileProperty, MonotoneQueriesMatchRandomQueries) {
  // Scheduler query streams advance in time, which the cached segment
  // hint accelerates; hint reuse must never change an answer. Compare a
  // strictly monotone scan against fresh-profile answers.
  constexpr std::int64_t kHorizon = 300;
  constexpr std::int64_t kBase = 32;
  util::Rng rng(GetParam() * 31 + 7);

  CapacityProfile profile(kBase);
  for (int i = 0; i < 40; ++i) {
    const std::int64_t start = rng.uniform_int(0, kHorizon - 2);
    profile.add_usage(start, start + rng.uniform_int(1, 50),
                      rng.uniform_int(1, 6));
  }
  const CapacityProfile twin = profile;  // identical content
  // Walk one copy strictly forward and the other strictly backward so
  // their cached hints follow opposite trajectories, then compare the
  // answers per time point.
  std::vector<std::int64_t> forward_avail, forward_start;
  std::vector<std::int64_t> backward_avail, backward_start;
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    forward_avail.push_back(profile.available_at(t));
    forward_start.push_back(profile.earliest_start(t, 20, 8));
  }
  for (std::int64_t t = kHorizon - 1; t >= 0; --t) {
    backward_avail.push_back(twin.available_at(t));
    backward_start.push_back(twin.earliest_start(t, 20, 8));
  }
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    const auto back = std::size_t(kHorizon - 1 - t);
    ASSERT_EQ(forward_avail[std::size_t(t)], backward_avail[back]) << t;
    ASSERT_EQ(forward_start[std::size_t(t)], backward_start[back]) << t;
  }
}

}  // namespace
}  // namespace pjsb::sched
