// What-if query service over a frozen simulation state.
//
// A WhatIfService owns one snapshot (snapshot.hpp bytes) and answers
// batched hypothetical questions — "if a job of `procs` nodes and
// `estimate` seconds were submitted now (or at now + offset), when
// would it start?" — without perturbing the donor run. Two answer
// modes:
//
//   predict  — ask the scheduler's QueryInterface (predict_start)
//              against a warm restored clone drawn from an internal
//              pool. The interface contract makes the call const and
//              non-perturbing, so a clone never needs re-restoring;
//              each query is one profile sweep.
//   simulate — restore a fresh clone, inject the hypothetical job for
//              real, and step the simulation until it starts. Exact
//              under any policy (including ones that cannot predict),
//              at the cost of replaying the future.
//
// Both modes leave the donor engine and the snapshot bytes untouched.
//
// Concurrency contract: after construction, every public method may be
// called from any number of threads concurrently. Predict-mode (and
// job-status) queries check a warm clone out of a mutex-guarded pool —
// the pool grows on demand up to the peak concurrency, so steady-state
// queries never restore and never share a clone. Simulate-mode queries
// restore a private clone per call and touch no shared state beyond
// the (immutable) snapshot bytes. Answers are therefore identical to
// issuing the same queries serially, in any interleaving. The service
// itself must outlive all in-flight calls, and construction is not
// synchronized against use (create it before sharing it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pjsb::sim {

class Engine;

/// One hypothetical submission.
struct WhatIfQuery {
  std::int64_t procs = 1;
  std::int64_t estimate = 3600;  ///< requested runtime, seconds
  /// Submit at snapshot_time() + submit_offset (offsets < 0 are
  /// clamped to 0 — a snapshot cannot answer about its own past).
  std::int64_t submit_offset = 0;
  /// True: run the simulation forward instead of asking predict_start.
  bool simulate = false;
};

struct WhatIfAnswer {
  /// Predicted (or observed) start time; nullopt when the policy
  /// cannot answer (predict mode on a non-predicting scheduler) or the
  /// simulation drained without the job ever starting.
  std::optional<std::int64_t> start;
  /// start - submit time, when start is known.
  std::optional<std::int64_t> wait;
  /// Which mode produced the answer (echoes the query's `simulate`).
  bool simulated = false;
};

/// Job lifecycle states as protocol-stable lowercase names.
enum class JobStateName { kPending, kQueued, kRunning, kFinished };
const char* to_string(JobStateName state);

/// Point-in-time view of one real job in the frozen state, for the
/// daemon's QUERY verb.
struct WhatIfJobStatus {
  std::int64_t id = 0;
  JobStateName state = JobStateName::kPending;
  std::int64_t submit = 0;
  std::int64_t procs = 0;
  /// Actual start / end when the job reached them before the snapshot.
  std::optional<std::int64_t> start;
  std::optional<std::int64_t> end;
  /// For pending/queued jobs: when a forward simulation of the frozen
  /// state (no further arrivals) starts the job. Exact under any
  /// policy; nullopt when the simulation drained without starting it
  /// or prediction was not requested.
  std::optional<std::int64_t> predicted_start;
};

class WhatIfService {
 public:
  /// Take ownership of snapshot bytes (Engine::snapshot() or
  /// live_snapshot() output; both answer every query alike, except
  /// that query_job knows no terminated jobs in a live snapshot).
  /// Restores one warm clone eagerly so a bad snapshot fails here, not
  /// on the first query. Throws std::invalid_argument if the snapshot
  /// needs a resumed job source — a what-if clone cannot re-attach one,
  /// so only self-contained (materialized-workload) snapshots qualify.
  explicit WhatIfService(std::string snapshot_bytes);

  /// Convenience: snapshot `engine` (which it does not perturb) and
  /// build a service over the result.
  static WhatIfService from_engine(const Engine& engine);

  /// The frozen simulation clock all submit_offsets are relative to.
  std::int64_t snapshot_time() const { return snapshot_time_; }
  /// The underlying snapshot bytes (e.g. to persist alongside answers).
  const std::string& bytes() const { return bytes_; }

  /// Thread-safe (see the concurrency contract above). Throws
  /// std::invalid_argument when the offset or the estimate is above
  /// kMaxTime (sim/machine.hpp). Procs are clamped to [1, machine size]
  /// in both modes, as Engine::submit_job clamps them.
  WhatIfAnswer query(const WhatIfQuery& q);
  /// Answer a batch in order. Predict queries share the warm pool;
  /// each simulate query restores its own clone. Thread-safe.
  std::vector<WhatIfAnswer> batch(const std::vector<WhatIfQuery>& queries);

  /// Status of a real job in the frozen state (nullopt: unknown id).
  /// With `predict_pending`, pending/queued jobs additionally get
  /// predicted_start from a forward simulation of the frozen state.
  /// Thread-safe.
  std::optional<WhatIfJobStatus> query_job(std::int64_t id,
                                           bool predict_pending = true);

  /// Warm clones currently pooled (== peak predict concurrency so
  /// far). Exposed for tests.
  std::size_t warm_clones() const;

 private:
  /// RAII checkout of a warm clone: pops the pool (restoring a new
  /// clone when it is empty) and returns the clone on destruction.
  class WarmLease;

  WhatIfAnswer predict(const WhatIfQuery& q);
  WhatIfAnswer simulate(const WhatIfQuery& q);

  const std::string bytes_;  ///< immutable after construction
  std::int64_t snapshot_time_ = 0;
  /// Idle warm clones. A predict query runs against exactly one clone
  /// checked out under pool_mutex_, so clones are never shared between
  /// concurrent queries even though predict_start is const.
  mutable std::mutex pool_mutex_;
  std::vector<std::unique_ptr<Engine>> pool_;
};

}  // namespace pjsb::sim
