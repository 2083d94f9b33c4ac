#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/snapshot/codec.hpp"
#include "util/rng.hpp"

namespace pjsb::sim {
namespace {

/// The node ids of an allocation's runs, in order.
std::vector<std::int64_t> ids(const std::vector<NodeRun>& runs) {
  std::vector<std::int64_t> out;
  for (const NodeRun& run : runs) {
    for (std::int64_t n = run.first; n < run.first + run.count; ++n) {
      out.push_back(n);
    }
  }
  return out;
}

/// Runs are ascending and maximal: none empty, and each starts past the
/// node after the previous one ends, so no two could merge.
bool ascending_and_maximal(const std::vector<NodeRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].count < 1) return false;
    if (i > 0 && runs[i].first <= runs[i - 1].first + runs[i - 1].count) {
      return false;
    }
  }
  return true;
}

TEST(Machine, InitialState) {
  Machine m(16);
  EXPECT_EQ(m.total_nodes(), 16);
  EXPECT_EQ(m.free_nodes(), 16);
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_EQ(m.down_nodes(), 0);
  EXPECT_EQ(m.up_nodes(), 16);
  EXPECT_THROW(Machine(0), std::invalid_argument);
}

TEST(Machine, RejectsSizesOutsideTheBound) {
  // The bound is checked before any per-node state is sized, so a bad
  // size is a named invalid_argument, never a length_error or bad_alloc.
  EXPECT_THROW(Machine(kMaxSpecNodes + 1), std::invalid_argument);
  try {
    Machine(-1);
    FAIL() << "Machine(-1) accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxSpecNodes)),
              std::string::npos)
        << e.what();
  }
}

TEST(Machine, AllocateAndRelease) {
  Machine m(8);
  const auto nodes = m.allocate(42, 3);
  ASSERT_TRUE(nodes);
  EXPECT_EQ(*nodes, (std::vector<NodeRun>{{0, 3}}));
  EXPECT_EQ(m.free_nodes(), 5);
  EXPECT_EQ(m.busy_nodes(), 3);
  for (const auto n : ids(*nodes)) EXPECT_EQ(m.owner(n), 42);
  m.release(42, *nodes);
  EXPECT_EQ(m.free_nodes(), 8);
}

TEST(Machine, AllocateFailsWhenFull) {
  Machine m(4);
  ASSERT_TRUE(m.allocate(1, 3));
  EXPECT_FALSE(m.allocate(2, 2));
  EXPECT_EQ(m.free_nodes(), 1);  // failed allocation changes nothing
}

TEST(Machine, AllocateZeroThrows) {
  Machine m(4);
  EXPECT_THROW(m.allocate(1, 0), std::invalid_argument);
}

TEST(Machine, ReleaseWrongOwnerThrows) {
  Machine m(4);
  const auto nodes = m.allocate(1, 2);
  EXPECT_THROW(m.release(2, *nodes), std::logic_error);
}

TEST(Machine, TakeDownFreeNode) {
  Machine m(4);
  EXPECT_EQ(m.take_down(0), kFree);
  EXPECT_EQ(m.down_nodes(), 1);
  EXPECT_EQ(m.free_nodes(), 3);
  EXPECT_EQ(m.up_nodes(), 3);
}

TEST(Machine, TakeDownBusyNodeReportsVictim) {
  Machine m(4);
  const auto nodes = m.allocate(7, 2);
  const std::int64_t victim_node = nodes->front().first;
  EXPECT_EQ(m.take_down(victim_node), 7);
  EXPECT_EQ(m.owner(victim_node), kDown);
  // Releasing the job skips the downed node.
  m.release(7, *nodes);
  EXPECT_EQ(m.free_nodes(), 3);
  EXPECT_EQ(m.down_nodes(), 1);
}

TEST(Machine, TakeDownTwiceIsIdempotent) {
  Machine m(4);
  m.take_down(2);
  EXPECT_EQ(m.take_down(2), kDown);
  EXPECT_EQ(m.down_nodes(), 1);
}

TEST(Machine, BringUpRestoresCapacity) {
  Machine m(4);
  m.take_down(1);
  m.bring_up(1);
  EXPECT_EQ(m.free_nodes(), 4);
  EXPECT_EQ(m.down_nodes(), 0);
  EXPECT_THROW(m.bring_up(1), std::logic_error);  // not down anymore
}

TEST(Machine, AllocationSkipsDownNodes) {
  Machine m(4);
  m.take_down(0);
  m.take_down(1);
  const auto nodes = m.allocate(5, 2);
  ASSERT_TRUE(nodes);
  EXPECT_EQ(*nodes, (std::vector<NodeRun>{{2, 2}}));
}

TEST(Machine, AllocationIsFirstFitLowestIds) {
  // The allocator must hand out the lowest-numbered free nodes in
  // increasing order — outage victim selection depends on placement, so
  // this ordering is part of the reproducibility contract.
  Machine m(8);
  const auto a = m.allocate(1, 3);
  ASSERT_TRUE(a);
  EXPECT_EQ(ids(*a), (std::vector<std::int64_t>{0, 1, 2}));
  const auto b = m.allocate(2, 2);
  ASSERT_TRUE(b);
  EXPECT_EQ(ids(*b), (std::vector<std::int64_t>{3, 4}));
  // Release out of order; the next allocation still takes the lowest,
  // as two runs around job 2's nodes.
  m.release(1, *a);
  const auto c = m.allocate(3, 4);
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, (std::vector<NodeRun>{{0, 3}, {5, 1}}));
}

TEST(Machine, RunsSpanWordBoundaries) {
  // A run continues across a 64-node word of the free bitmap, and a
  // whole free word is taken in one stretch.
  Machine m(200);
  ASSERT_TRUE(m.allocate(1, 60));
  const auto a = m.allocate(2, 80);  // nodes 60..139
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, (std::vector<NodeRun>{{60, 80}}));
  EXPECT_EQ(m.take_down(100), 2);
  m.release(2, *a);  // skips the downed node 100
  const auto b = m.allocate(3, 100);
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, (std::vector<NodeRun>{{60, 40}, {101, 60}}));
  EXPECT_THROW(m.release(3, std::vector<NodeRun>{{190, 11}}),
               std::out_of_range);
}

TEST(Machine, ReleaseAfterPartialOutage) {
  // A job loses part of its allocation to an outage: releasing the full
  // node list must silently skip the downed nodes (they belong to the
  // outage until bring_up), free the survivors, and keep every counter
  // consistent.
  Machine m(6);
  const auto nodes = m.allocate(9, 4);  // nodes 0..3
  ASSERT_TRUE(nodes);
  EXPECT_EQ(m.take_down(1), 9);
  EXPECT_EQ(m.take_down(2), 9);
  EXPECT_EQ(m.busy_nodes(), 2);
  EXPECT_EQ(m.down_nodes(), 2);

  m.release(9, *nodes);  // must not throw on the two downed nodes
  EXPECT_EQ(m.free_nodes(), 4);   // 0, 3 released + 4, 5 never used
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_EQ(m.down_nodes(), 2);
  EXPECT_EQ(m.owner(1), kDown);
  EXPECT_EQ(m.owner(2), kDown);

  // Repair returns the nodes to the free pool as kFree — the old owner
  // was killed at take_down time and has no claim.
  m.bring_up(1);
  m.bring_up(2);
  EXPECT_EQ(m.free_nodes(), 6);
  EXPECT_EQ(m.down_nodes(), 0);
  // And they are allocatable again, lowest-first.
  const auto again = m.allocate(10, 6);
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, (std::vector<NodeRun>{{0, 6}}));
}

TEST(Machine, ChurnKeepsFreeSetConsistent) {
  // Allocate/release/outage churn must never double-allocate a node or
  // lose one.
  Machine m(16);
  std::vector<std::vector<NodeRun>> held;
  std::int64_t next_job = 1;
  for (int round = 0; round < 50; ++round) {
    if (round % 3 != 2) {
      const auto got = m.allocate(next_job, 1 + (round % 5));
      if (got) {
        ++next_job;
        held.push_back(*got);
      }
    } else if (!held.empty()) {
      --next_job;  // most recent allocation belongs to next_job - 1
      m.release(next_job, held.back());
      held.pop_back();
    }
    if (round % 7 == 6) {
      const std::int64_t n = round % 16;
      if (m.owner(n) == kFree) {
        m.take_down(n);
        m.bring_up(n);
      }
    }
    // Invariant: counters partition the machine.
    EXPECT_EQ(m.free_nodes() + m.busy_nodes() + m.down_nodes(),
              m.total_nodes());
    // Invariant: no node owned by two jobs (owners are per-node, so
    // check each held allocation still owns its nodes).
    for (std::size_t h = 0; h < held.size(); ++h) {
      for (const auto n : ids(held[h])) {
        EXPECT_GE(m.owner(n), 0) << "node " << n << " lost its owner";
      }
    }
  }
}

/// The allocator's specification: linear first fit over an owner array,
/// with the same counters and kDown rules as Machine.
struct ReferenceMachine {
  std::vector<std::int64_t> owner;
  std::int64_t free = 0;
  std::int64_t down = 0;

  explicit ReferenceMachine(std::int64_t n)
      : owner(std::size_t(n), kFree), free(n) {}

  std::optional<std::vector<std::int64_t>> allocate(std::int64_t job,
                                                    std::int64_t count) {
    if (count > free) return std::nullopt;
    std::vector<std::int64_t> nodes;
    for (std::size_t n = 0; std::int64_t(nodes.size()) < count; ++n) {
      if (owner[n] != kFree) continue;
      owner[n] = job;
      nodes.push_back(std::int64_t(n));
    }
    free -= count;
    return nodes;
  }
  void release(std::int64_t job, const std::vector<std::int64_t>& nodes) {
    for (const std::int64_t n : nodes) {
      if (owner[std::size_t(n)] != job) continue;  // went down meanwhile
      owner[std::size_t(n)] = kFree;
      ++free;
    }
  }
  std::int64_t take_down(std::int64_t n) {
    const std::int64_t prev = owner[std::size_t(n)];
    if (prev == kDown) return kDown;
    if (prev == kFree) --free;
    owner[std::size_t(n)] = kDown;
    ++down;
    return prev;
  }
  void bring_up(std::int64_t n) {
    owner[std::size_t(n)] = kFree;
    --down;
    ++free;
  }
};

std::vector<std::int64_t> owners(const Machine& m) {
  std::vector<std::int64_t> out;
  for (std::int64_t n = 0; n < m.total_nodes(); ++n) out.push_back(m.owner(n));
  return out;
}

TEST(Machine, MatchesLinearFirstFitUnderRandomChurn) {
  // Seeded allocate/release/take_down/bring_up churn against the
  // reference, with a save_state/load_state round trip every so often.
  // Each allocation's runs, expanded to ids, are the reference's ids,
  // and the runs are ascending and maximal.
  // The sizes straddle the 64-node word boundaries of the free bitmap.
  for (const std::int64_t size : {1, 63, 64, 65, 127, 128, 1000, 1024}) {
    SCOPED_TRACE("machine of " + std::to_string(size) + " nodes");
    util::Rng rng(20261017 + std::uint64_t(size));
    Machine m(size);
    ReferenceMachine ref(size);
    std::map<std::int64_t, std::vector<NodeRun>> held;  // job -> runs
    std::int64_t next_job = 1;
    const auto release = [&](auto it) {
      m.release(it->first, it->second);
      ref.release(it->first, ids(it->second));
      held.erase(it);
    };
    for (int op = 0; op < 3000; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.4) {
        // Mostly fitting requests, some one past the free count.
        const std::int64_t count =
            rng.bernoulli(0.1) ? ref.free + 1
                               : rng.uniform_int(1, std::max<std::int64_t>(
                                                        1, size / 4));
        const std::int64_t job = next_job++;
        const auto got = m.allocate(job, count);
        const auto want = ref.allocate(job, count);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
          ASSERT_EQ(ids(*got), *want) << "op " << op;
          ASSERT_TRUE(ascending_and_maximal(*got)) << "op " << op;
          held.emplace(job, *got);
        }
      } else if (roll < 0.7) {
        if (held.empty()) continue;
        release(std::next(held.begin(), rng.uniform_int(
                                            0, std::int64_t(held.size()) - 1)));
      } else if (roll < 0.85) {
        const std::int64_t node = rng.uniform_int(0, size - 1);
        const std::int64_t victim = m.take_down(node);
        ASSERT_EQ(victim, ref.take_down(node)) << "op " << op;
        // The engine kills the victim, which releases its surviving nodes.
        if (victim >= 0) release(held.find(victim));
      } else if (ref.down > 0) {
        std::int64_t node = rng.uniform_int(0, size - 1);
        while (ref.owner[std::size_t(node)] != kDown) node = (node + 1) % size;
        m.bring_up(node);
        ref.bring_up(node);
      }
      if (op % 250 == 249) {
        snapshot::Writer w;
        m.save_state(w);
        Machine restored(size);
        snapshot::Reader r(w.bytes());
        restored.load_state(r);
        r.expect_done();
        m = restored;
      }
      ASSERT_EQ(owners(m), ref.owner) << "op " << op;
      ASSERT_EQ(m.free_nodes(), ref.free) << "op " << op;
      ASSERT_EQ(m.down_nodes(), ref.down) << "op " << op;
      ASSERT_EQ(m.busy_nodes(), size - ref.free - ref.down) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace pjsb::sim
