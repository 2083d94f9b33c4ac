// EASY backfilling (Lifka's Extensible Argonne Scheduling sYstem), the
// de-facto production policy on the machines whose logs the paper
// canonizes. FIFO order with one guarantee: the queue head receives a
// shadow reservation at its earliest feasible start, and later jobs may
// backfill only if they do not delay that reservation.
//
// `reserve_depth` generalizes the guarantee to the first K queued jobs
// (K=1 is classic EASY): deeper protection trades backfilling
// aggressiveness for starvation resistance, sliding the policy toward
// conservative backfilling — the ablation axis of experiments E2/E8.
#pragma once

#include "sched/backfill.hpp"

namespace pjsb::sched {

class EasyScheduler final : public BackfillBase {
 public:
  /// `reserve_depth`: number of queue-head jobs protected by shadow
  /// reservations that backfilled jobs may not delay (>= 1).
  explicit EasyScheduler(int reserve_depth = 1)
      : reserve_depth_(reserve_depth < 1 ? 1 : reserve_depth) {}

  std::string name() const override;
  void schedule(SchedulerContext& ctx) override;
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs,
      std::int64_t estimate) const override;

  int reserve_depth() const { return reserve_depth_; }

  /// Total nodes of the machine this scheduler is attached to (needed
  /// by predict_start, which has no context access).
  std::int64_t last_total_nodes() const { return total_nodes_; }

 private:
  int reserve_depth_ = 1;
  /// schedule()'s working copy of profile_, a member so each pass
  /// reuses its capacity; what it holds between passes is never read.
  CapacityProfile pass_profile_{0};
};

}  // namespace pjsb::sched
