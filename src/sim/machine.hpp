// Machine model: a space-shared parallel machine with per-node state.
//
// Node-level tracking (rather than just a free counter) is what lets
// outages hit specific components — "which nodes went down" — and kill
// exactly the jobs running there, per section 2.2 of the paper.
//
// The free set is a bitmap of 64-node words. Allocation is exact first
// fit — the lowest-numbered free nodes, in increasing order — found by
// skipping empty words and taking stretches of set bits with
// countr_zero/countr_one, so starting a job costs O(count + nodes/64).
// A release sets a run's bits a word at a time; outages and repairs
// flip single bits. Placement is a pure function of the per-node
// owners, so outage victim selection stays reproducible across
// implementations and snapshot restores.
//
// An allocation is a list of node runs, not of node ids: ascending,
// maximal [first, first + count) stretches, as batsched keeps a job's
// machines as an interval set. A wide job on a quiet machine is one or
// a few runs where an id list held one word per node; the per-node
// owner array still backs every release and outage check.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace pjsb::sim::snapshot {
class Writer;
class Reader;
}  // namespace pjsb::sim::snapshot

namespace pjsb::sim {

/// Owner id stored per node; kFree / kDown are sentinels.
inline constexpr std::int64_t kFree = -1;
inline constexpr std::int64_t kDown = -2;

/// Nodes first .. first + count - 1 of one allocation.
struct NodeRun {
  std::int64_t first = 0;
  std::int64_t count = 0;
  bool operator==(const NodeRun&) const = default;
};

/// Upper bound on the machine size, enforced by Machine itself so every
/// way of sizing one (spec keys, trace MaxNodes headers, snapshot
/// configs) is bounded: generous for any real system while keeping
/// per-node state allocations sane.
inline constexpr std::int64_t kMaxSpecNodes = 1 << 22;  // ~4M nodes

/// Upper bound, in seconds, on every time a run admits: job submit
/// times, runtimes and estimates (Engine::submit_job, admit_record),
/// the spec's durations, and the daemon's and what-if's times. 2^40 s
/// is about 34,800 years. With kMaxSpecNodes, one job's node-seconds
/// stay at or below 2^62, and a time plus a duration stays far below
/// sched::kForever (INT64_MAX / 4), so no such sum or product
/// overflows.
inline constexpr std::int64_t kMaxTime = std::int64_t(1) << 40;

/// Upper bound, in seconds, on an instant a run holds: its clock, event
/// times, job submit, start and end times, and outage and reservation
/// windows (which the engine takes unchecked). Instants are admitted
/// times plus admitted durations, so they pass kMaxTime (a job admitted
/// at the bound ends after it). Admission also holds each burst of a
/// job, checkpoint dumps and read included, to kMaxTime
/// (SimJob::burst_within), so reaching 2^60 s takes 2^20 bound-length
/// bursts back to back, and an instant below it plus admitted durations
/// stays below sched::kForever. Snapshot restore holds instants to it
/// and admitted durations and bursts to kMaxTime.
inline constexpr std::int64_t kMaxInstant = std::int64_t(1) << 60;

class Machine {
 public:
  /// Throws std::invalid_argument unless 1 <= total_nodes <=
  /// kMaxSpecNodes.
  explicit Machine(std::int64_t total_nodes);

  std::int64_t total_nodes() const { return std::int64_t(owner_.size()); }
  std::int64_t free_nodes() const { return free_; }
  std::int64_t down_nodes() const { return down_; }
  std::int64_t busy_nodes() const {
    return total_nodes() - free_ - down_;
  }
  /// Nodes currently usable (free + busy).
  std::int64_t up_nodes() const { return total_nodes() - down_; }

  /// Allocate `count` free nodes to `job_id` (first fit: the lowest-
  /// numbered free nodes). Returns them as ascending, maximal runs, or
  /// nullopt if not enough free nodes.
  std::optional<std::vector<NodeRun>> allocate(std::int64_t job_id,
                                               std::int64_t count);
  /// Return the nodes of `runs` to the free pool. Nodes that went down
  /// while the job ran (owner is now kDown) are skipped silently — the
  /// outage owns them until bring_up. Throws std::logic_error if a node
  /// is owned by a different job (double release / bookkeeping bug) and
  /// std::out_of_range if a run leaves the machine.
  void release(std::int64_t job_id, std::span<const NodeRun> runs);

  /// Take a node out of service. Returns the previous owner's job id if
  /// the node was allocated (the engine kills that job), kFree if it
  /// was idle (it leaves the free pool), or kDown if it was already
  /// down (idempotent; counters unchanged).
  std::int64_t take_down(std::int64_t node);
  /// Bring a node back into service and return it to the free pool.
  /// The node must currently be down; any pre-outage owner was already
  /// killed at take_down time, so it always comes back as free.
  void bring_up(std::int64_t node);

  /// Owner of a node (job id, kFree, or kDown).
  std::int64_t owner(std::int64_t node) const;

  /// Serialize per-node ownership. Only owner_ is written; load_state
  /// rebuilds the bitmap and counters from it and throws
  /// std::runtime_error on a node count mismatch or an owner code below
  /// kDown.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  /// Recompute free_bits_, free_ and down_ from owner_.
  void rebuild_free_set();
  /// Toggle `node`'s free bit.
  void flip_free(std::int64_t node) {
    free_bits_[std::size_t(node) >> 6] ^= std::uint64_t(1) << (node & 63);
  }
  /// Bits low .. low + len - 1 of a word (0 <= low, 1 <= len,
  /// low + len <= 64).
  static std::uint64_t bit_span(int low, int len) {
    return (len == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << len) - 1)
           << low;
  }

  std::vector<std::int64_t> owner_;
  /// Bit n & 63 of word n >> 6 is set iff node n is free; bits past the
  /// last node stay 0.
  std::vector<std::uint64_t> free_bits_;
  std::int64_t free_ = 0;
  std::int64_t down_ = 0;
};

}  // namespace pjsb::sim
