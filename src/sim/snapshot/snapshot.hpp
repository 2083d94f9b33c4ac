// Versioned binary snapshot format for simulation state.
//
// A snapshot is the complete, self-contained state of one Engine
// between steps: clock, event queue (with sequence numbers — event
// ordering is part of determinism), job slots, machine ownership,
// scheduler-specific state (via Scheduler::save_state/load_state),
// outage and reservation books, the pull-source cursor, and every
// accounting counter. Engine::restore() rebuilds an engine whose
// subsequent decision trace is byte-identical to the donor's.
//
// Layout: 8 magic bytes, a u32 format version, then fixed-order
// sections encoded with the codec (codec.hpp). The version gates
// compatibility — readers reject any version they do not know (version
// 1 files included); there is no in-band schema. The scheduler is
// identified by its registry spec string (Scheduler::name()), so
// restoring instantiates the same policy with the same parameters
// before loading its runtime state.
//
// Version 2 holds every job in one section: a count, then each job's
// slot, led by its id, in ascending id order (snapshot() and
// live_snapshot() alike). Where the engine kept a job (its id-indexed
// dense vector or its overflow map) is not recorded: restore places
// each job by the engine's one placement rule, so the bytes do not
// depend on placement and a file cannot claim more dense slots than
// twice its jobs plus a fixed gap.
//
// What is NOT serialized (runtime attachments, re-attach after
// restore): observers, the phase listener, the completion callback,
// and the JobSource object itself — Engine::resume_job_source()
// reconnects a source by skipping the records the donor already
// pulled.
#pragma once

#include <cstdint>
#include <string>

namespace pjsb::sim::snapshot {

/// Leading magic bytes of every snapshot.
inline constexpr char kMagic[8] = {'P', 'J', 'S', 'B', 'S', 'N', 'A', 'P'};

/// Current format version. Bump on any layout change; readers reject
/// versions they do not understand.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Write snapshot bytes to a file (binary, atomic overwrite). Throws
/// std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& bytes);

/// Read a whole snapshot file. Throws std::runtime_error on I/O
/// failure (the content is validated by Engine::restore).
std::string read_file(const std::string& path);

}  // namespace pjsb::sim::snapshot
