// The engine's two-part event queue against one std::priority_queue
// over the same (time, type, seq) order: seeded pushes of in-order
// arrivals, stragglers that must fall to the heap and same-timestamp
// events of every type, with pops interleaved, must give the same pop
// sequence and the same snapshot drain order.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <queue>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pjsb::sim {

void PrintTo(const Event& ev, std::ostream* os) {
  *os << "{time " << ev.time << ", type " << int(ev.type) << ", seq "
      << ev.seq << ", id " << ev.id << ", version " << ev.version << "}";
}

namespace {

struct PopsAfter {
  bool operator()(const Event& a, const Event& b) const {
    return pops_before(b, a);
  }
};
using Reference = std::priority_queue<Event, std::vector<Event>, PopsAfter>;

std::vector<Event> drain(Reference ref) {
  std::vector<Event> out;
  for (; !ref.empty(); ref.pop()) out.push_back(ref.top());
  return out;
}

/// Re-queue a drained section the way snapshot restore does.
EventQueue requeue(const std::vector<Event>& events) {
  EventQueue q;
  for (const Event& ev : events) {
    if (ev.type == EventType::kSubmit && ev.version == 1) {
      q.push_arrival(ev);
    } else {
      q.push(ev);
    }
  }
  return q;
}

TEST(EventQueue, MatchesOnePriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    EventQueue q;
    Reference ref;
    std::int64_t seq = 0;
    std::int64_t now = 0;
    std::int64_t last_arrival = 0;
    const auto push = [&](const Event& ev, bool arrival) {
      if (arrival) {
        q.push_arrival(ev);
      } else {
        q.push(ev);
      }
      ref.push(ev);
    };
    for (int op = 0; op < 4000; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.3) {
        // In submit order; many share a timestamp.
        last_arrival = std::max(now, last_arrival) + rng.uniform_int(0, 2);
        push({last_arrival, EventType::kSubmit, seq++, op, 1}, true);
      } else if (roll < 0.4) {
        // A straggler behind the run's last arrival: it must go to the
        // heap and still pop in order.
        const std::int64_t t =
            std::max(now, last_arrival - rng.uniform_int(1, 4));
        push({t, EventType::kSubmit, seq++, op, 1}, true);
      } else if (roll < 0.65) {
        // Any type, often at a timestamp an arrival already holds.
        const auto type = EventType(int(rng.uniform_int(0, 6)));
        const std::int64_t t = rng.bernoulli(0.5)
                                   ? std::max(now, last_arrival)
                                   : now + rng.uniform_int(0, 6);
        push({t, type, seq++, op, rng.uniform_int(0, 3)}, false);
      } else if (roll < 0.67) {
        q.reserve_arrivals(std::size_t(rng.uniform_int(0, 200)));
      } else if (!ref.empty()) {
        ASSERT_EQ(q.top(), ref.top()) << "op " << op;
        const Event ev = q.pop();
        ASSERT_EQ(ev, ref.top()) << "op " << op;
        ref.pop();
        now = ev.time;
      }
      ASSERT_EQ(q.size(), ref.size()) << "op " << op;
      ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
      if (op % 400 == 399) {
        const std::vector<Event> drained = q.in_pop_order();
        ASSERT_EQ(drained, drain(ref)) << "op " << op;
        EventQueue restored = requeue(drained);
        ASSERT_EQ(restored.in_pop_order(), drained) << "op " << op;
        q = restored;
      }
    }
    while (!ref.empty()) {
      ASSERT_EQ(q.pop(), ref.top());
      ref.pop();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, StragglerPopsBeforeTheRun) {
  EventQueue q;
  q.push_arrival({10, EventType::kSubmit, 0, 1, 1});
  q.push_arrival({20, EventType::kSubmit, 1, 2, 1});
  q.push_arrival({5, EventType::kSubmit, 2, 3, 1});  // behind the run
  q.push({10, EventType::kJobEnd, 3, 4, 0});
  std::vector<std::int64_t> ids;
  while (!q.empty()) ids.push_back(q.pop().id);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{3, 4, 1, 2}));
}

}  // namespace
}  // namespace pjsb::sim
