#include "sched/profile.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pjsb::sched {

CapacityProfile::CapacityProfile(std::int64_t base_capacity)
    : base_(base_capacity) {
  if (base_capacity < 0) {
    throw std::invalid_argument("CapacityProfile: negative capacity");
  }
}

std::size_t CapacityProfile::segment_index(std::int64_t t) const {
  const std::size_t n = steps_.size();
  const auto brackets = [&](std::size_t i) {
    return (i == 0 || steps_[i - 1].time <= t) &&
           (i == n || steps_[i].time > t);
  };
  std::size_t h = hint_ <= n ? hint_ : n;
  // Monotone query streams hit the hint or its successor; anything else
  // falls back to a binary search.
  if (brackets(h)) {
    hint_ = h;
    return h;
  }
  if (h < n && brackets(h + 1)) {
    hint_ = h + 1;
    return h + 1;
  }
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](std::int64_t v, const Step& s) { return v < s.time; });
  hint_ = std::size_t(it - steps_.begin());
  return hint_;
}

std::size_t CapacityProfile::ensure_boundary(std::int64_t t) {
  const std::size_t idx = segment_index(t);
  if (idx > 0 && steps_[idx - 1].time == t) return idx - 1;
  const std::int64_t avail = idx == 0 ? base_ : steps_[idx - 1].avail;
  steps_.insert(steps_.begin() + std::ptrdiff_t(idx), {t, avail});
  return idx;
}

void CapacityProfile::add_used(std::int64_t start, std::int64_t end,
                               std::int64_t procs) {
  const std::size_t s = ensure_boundary(start);
  const std::size_t e =
      end >= kForever ? steps_.size() : ensure_boundary(end);
  for (std::size_t i = s; i < e; ++i) steps_[i].avail -= procs;
  // A range update only changes values inside [s, e), so only the two
  // boundary steps can become redundant. Erase back-to-front so the
  // first index stays valid.
  const auto redundant = [&](std::size_t i) {
    const std::int64_t prev = i == 0 ? base_ : steps_[i - 1].avail;
    return steps_[i].avail == prev;
  };
  if (e < steps_.size() && redundant(e)) {
    steps_.erase(steps_.begin() + std::ptrdiff_t(e));
  }
  if (redundant(s)) steps_.erase(steps_.begin() + std::ptrdiff_t(s));
  if (hint_ > steps_.size()) hint_ = steps_.size();
}

void CapacityProfile::add_usage(std::int64_t start, std::int64_t end,
                                std::int64_t procs) {
  if (end <= start || procs <= 0) return;
  add_used(start, end, procs);
}

void CapacityProfile::remove_usage(std::int64_t start, std::int64_t end,
                                   std::int64_t procs) {
  if (end <= start || procs <= 0) return;
  add_used(start, end, -procs);
}

void CapacityProfile::add_capacity_delta(std::int64_t at,
                                         std::int64_t delta) {
  // A capacity increase is a usage decrease from `at` onwards.
  if (delta == 0) return;
  add_used(at, kForever, -delta);
}

std::int64_t CapacityProfile::available_at(std::int64_t t) const {
  const std::size_t idx = segment_index(t);
  return idx == 0 ? base_ : steps_[idx - 1].avail;
}

std::int64_t CapacityProfile::min_available(std::int64_t start,
                                            std::int64_t end) const {
  std::size_t i = segment_index(start);
  std::int64_t min_avail = i == 0 ? base_ : steps_[i - 1].avail;
  for (; i < steps_.size() && steps_[i].time < end; ++i) {
    min_avail = std::min(min_avail, steps_[i].avail);
  }
  return min_avail;
}

bool CapacityProfile::fits(std::int64_t start, std::int64_t duration,
                           std::int64_t procs) const {
  if (duration <= 0) return true;
  return min_available(start, start + duration) >= procs;
}

std::int64_t CapacityProfile::earliest_start(std::int64_t from,
                                             std::int64_t duration,
                                             std::int64_t procs) const {
  if (procs <= 0 || duration <= 0) return from;
  // One forward sweep. `candidate` is the start of the currently open
  // feasible window (kForever = none); a window wins as soon as the
  // next step lies at least `duration` past it.
  std::size_t i = segment_index(from);
  std::int64_t candidate =
      (i == 0 ? base_ : steps_[i - 1].avail) >= procs ? from : kForever;
  for (; i < steps_.size(); ++i) {
    if (candidate != kForever && steps_[i].time - candidate >= duration) {
      return candidate;
    }
    if (steps_[i].avail >= procs) {
      if (candidate == kForever) candidate = steps_[i].time;
    } else {
      candidate = kForever;
    }
  }
  // Past the last step the availability is constant forever.
  return candidate;
}

std::int64_t CapacityProfile::earliest_start_before(
    std::int64_t from, std::int64_t until, std::int64_t duration,
    std::int64_t procs) const {
  if (procs <= 0 || duration <= 0 || from >= until) return from;
  // earliest_start's sweep, cut at `until`: a window still open when
  // the sweep reaches `until` is feasible, because only its part before
  // `until` has to be free. (earliest_start keeps a loop of its own:
  // the extra bound test slows its long sweeps, bench_profile's
  // 4096-step earliest_start, by about 40%.)
  std::size_t i = segment_index(from);
  std::int64_t candidate =
      (i == 0 ? base_ : steps_[i - 1].avail) >= procs ? from : kForever;
  for (; i < steps_.size() && steps_[i].time < until; ++i) {
    if (candidate != kForever && steps_[i].time - candidate >= duration) {
      return candidate;
    }
    if (steps_[i].avail >= procs) {
      if (candidate == kForever) candidate = steps_[i].time;
    } else {
      candidate = kForever;
    }
  }
  return candidate == kForever ? until : candidate;
}

void CapacityProfile::compact_before(std::int64_t t) {
  // Count steps strictly before t.
  std::size_t n = 0;
  while (n < steps_.size() && steps_[n].time < t) ++n;
  if (n == 0) return;
  const std::int64_t avail_at_t = steps_[n - 1].avail;
  steps_.erase(steps_.begin(), steps_.begin() + std::ptrdiff_t(n));
  // Preserve availability from t on; history before t folds into base.
  // The value preceding the (new) front step is now base_, so a
  // surviving step at t whose avail equals base_ became redundant.
  if (!steps_.empty() && steps_.front().time == t) {
    if (steps_.front().avail == base_) steps_.erase(steps_.begin());
  } else if (avail_at_t != base_) {
    steps_.insert(steps_.begin(), {t, avail_at_t});
  }
  hint_ = 0;
}

bool CapacityProfile::same_from(const CapacityProfile& other,
                                std::int64_t from) const {
  if (available_at(from) != other.available_at(from)) return false;
  std::size_t i = segment_index(from);
  std::size_t j = other.segment_index(from);
  while (i < steps_.size() || j < other.steps_.size()) {
    const std::int64_t ti =
        i < steps_.size() ? steps_[i].time : kForever;
    const std::int64_t tj =
        j < other.steps_.size() ? other.steps_[j].time : kForever;
    const std::int64_t t = std::min(ti, tj);
    if (available_at(t) != other.available_at(t)) return false;
    if (ti == t) ++i;
    if (tj == t) ++j;
  }
  return true;
}

std::string CapacityProfile::to_string() const {
  std::ostringstream os;
  os << "t<" << (steps_.empty() ? 0 : steps_.front().time) << ": " << base_
     << '\n';
  for (const auto& step : steps_) {
    os << "t>=" << step.time << ": " << step.avail << '\n';
  }
  return os.str();
}

}  // namespace pjsb::sched
