// Engine phase timing hooks.
//
// Speeding up a replay starts with knowing where it spends wall-clock:
// draining the event queue, running scheduler passes, or notifying
// observers. The engine times these sections only when a listener is
// installed — a single null check per step otherwise — and reports
// wall-clock durations tagged with the *simulated* time they occurred
// at, so a profile lines up with the trace and time-series streams.
//
// The listener lives in sim/ (not obs/) to keep the dependency arrow
// pointing one way: obs builds on sim's interfaces, never the reverse.
#pragma once

#include <cstdint>

namespace pjsb::sim {

/// The engine sections a PhaseListener can observe. One step of the
/// event loop is: process every event at the current timestamp
/// (kEvents), run the scheduler pass if anything changed
/// (kSchedulerPass), then fan out the step snapshot (kObserverStep).
enum class EnginePhase : std::uint8_t {
  kEvents = 0,
  kSchedulerPass = 1,
  kObserverStep = 2,
};

inline const char* phase_name(EnginePhase p) {
  switch (p) {
    case EnginePhase::kEvents:
      return "events";
    case EnginePhase::kSchedulerPass:
      return "schedule";
    case EnginePhase::kObserverStep:
      return "observers";
  }
  return "unknown";
}

inline constexpr std::size_t kEnginePhaseCount = 3;

/// Wall-clock phase listener. The engine calls on_phase once per timed
/// section, after it finishes, with the simulated time the section ran
/// at and its wall-clock duration. Implementations must be cheap — the
/// call sits on the hot event loop.
class PhaseListener {
 public:
  virtual ~PhaseListener() = default;
  virtual void on_phase(EnginePhase phase, std::int64_t sim_time,
                        std::uint64_t wall_ns) = 0;
};

}  // namespace pjsb::sim
