#include "obs/trace.hpp"

#include <charconv>
#include <ostream>

#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/string_util.hpp"

namespace pjsb::obs {

namespace {

const char* kill_reason_name(sim::KillReason reason) {
  switch (reason) {
    case sim::KillReason::kOutage:
      return "outage";
    case sim::KillReason::kPreempt:
      return "preempt";
    case sim::KillReason::kWalltime:
      return "walltime";
  }
  return "unknown";
}

const char* drop_reason_name(sim::DropReason reason) {
  switch (reason) {
    case sim::DropReason::kRetryLimit:
      return "retry_limit";
    case sim::DropReason::kWalltimeOverrun:
      return "walltime_overrun";
    case sim::DropReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* outage_phase_name(sim::OutagePhase phase) {
  switch (phase) {
    case sim::OutagePhase::kAnnounced:
      return "announced";
    case sim::OutagePhase::kStarted:
      return "started";
    case sim::OutagePhase::kEnded:
      return "ended";
  }
  return "unknown";
}

std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

JsonlTraceWriter::JsonlTraceWriter(std::ostream& os,
                                   const TraceWriterOptions& options)
    : os_(os), options_(options) {
  write_header();
}

void JsonlTraceWriter::write_header() {
  os_ << "{\"type\":\"header\",\"version\":" << kTraceSchemaVersion
      << ",\"source\":\"pjsb\"";
  if (!options_.scheduler.empty()) {
    os_ << ",\"scheduler\":\"" << util::json_escape(options_.scheduler) << '"';
  }
  if (options_.nodes > 0) os_ << ",\"nodes\":" << options_.nodes;
  os_ << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_job_submit(std::int64_t time,
                                     const sim::SimJob& job) {
  submit_time_[job.id] = time;
  if (scheduler_) {
    pending_blocked_.push_back({job.id, job.procs, job.estimate});
  }
  if (job.restarts > 0) {
    // A queue re-entry after a kill, not a fresh arrival.
    os_ << "{\"type\":\"resubmit\",\"t\":" << time << ",\"job\":" << job.id
        << ",\"procs\":" << job.procs << ",\"estimate\":" << job.estimate
        << ",\"attempt\":" << job.restarts << "}\n";
  } else {
    os_ << "{\"type\":\"submit\",\"t\":" << time << ",\"job\":" << job.id
        << ",\"procs\":" << job.procs << ",\"estimate\":" << job.estimate
        << "}\n";
  }
  ++lines_;
}

void JsonlTraceWriter::on_decision(const sim::Decision& decision) {
  std::int64_t wait = -1;
  const auto it = submit_time_.find(decision.job_id);
  if (it != submit_time_.end()) {
    wait = decision.time - it->second;
    submit_time_.erase(it);
  }
  os_ << "{\"type\":\"start\",\"t\":" << decision.time
      << ",\"job\":" << decision.job_id << ",\"procs\":" << decision.procs
      << ",\"wait\":" << wait << ",\"why\":\""
      << sim::provenance_name(decision.provenance) << '"';
  if (decision.virtual_start) os_ << ",\"virtual\":1";
  if (decision.reserved_start >= 0) {
    os_ << ",\"reserved_start\":" << decision.reserved_start;
  }
  os_ << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_job_complete(const sim::CompletedJob& job) {
  os_ << "{\"type\":\"end\",\"t\":" << job.end << ",\"job\":" << job.id
      << ",\"procs\":" << job.procs << ",\"wait\":" << job.wait()
      << ",\"run\":" << (job.end - job.start)
      << ",\"restarts\":" << job.restarts << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_job_kill(std::int64_t time, const sim::SimJob& job,
                                   const sim::KillInfo& info) {
  // The queue re-entry (if the engine requeues) arrives as a resubmit
  // record; drop the stale submit stamp either way.
  submit_time_.erase(job.id);
  if (info.reason == sim::KillReason::kOutage) {
    os_ << "{\"type\":\"crash\",\"t\":" << time << ",\"job\":" << job.id
        << ",\"procs\":" << job.procs << ",\"lost\":" << info.lost_node_seconds
        << ",\"saved\":" << info.saved_work << ",\"attempt\":" << info.attempt
        << "}\n";
  } else {
    os_ << "{\"type\":\"kill\",\"t\":" << time << ",\"job\":" << job.id
        << ",\"procs\":" << job.procs << ",\"reason\":\""
        << kill_reason_name(info.reason) << "\"}\n";
  }
  ++lines_;
}

void JsonlTraceWriter::on_job_restore(std::int64_t time,
                                      const sim::SimJob& job,
                                      std::int64_t resumed_work) {
  os_ << "{\"type\":\"restore\",\"t\":" << time << ",\"job\":" << job.id
      << ",\"resumed\":" << resumed_work << ",\"read\":" << job.read_time
      << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_job_drop(std::int64_t time, const sim::SimJob& job,
                                   sim::DropReason reason) {
  submit_time_.erase(job.id);
  os_ << "{\"type\":\"drop\",\"t\":" << time << ",\"job\":" << job.id
      << ",\"procs\":" << job.procs << ",\"reason\":\""
      << drop_reason_name(reason) << "\",\"attempt\":" << job.restarts
      << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_outage(const outage::OutageRecord& rec,
                                 sim::OutagePhase phase) {
  os_ << "{\"type\":\"outage\",\"phase\":\"" << outage_phase_name(phase)
      << "\",\"start\":" << rec.start_time << ",\"end\":" << rec.end_time
      << ",\"nodes\":" << rec.components.size() << "}\n";
  ++lines_;
}

void JsonlTraceWriter::on_step(const sim::StepSnapshot& snapshot) {
  if (pending_blocked_.empty()) return;
  for (const PendingJob& p : pending_blocked_) {
    // Still queued after the pass (starting erased the submit stamp)?
    if (!submit_time_.contains(p.id)) continue;
    const auto predicted =
        scheduler_->predict_start(snapshot.time, p.procs, p.estimate);
    if (!predicted) continue;
    os_ << "{\"type\":\"blocked\",\"t\":" << snapshot.time
        << ",\"job\":" << p.id << ",\"predicted_start\":" << *predicted
        << "}\n";
    ++lines_;
  }
  pending_blocked_.clear();
}

void JsonlTraceWriter::on_end(const sim::EngineStats& stats) {
  os_ << "{\"type\":\"run_end\",\"jobs\":" << stats.jobs_completed
      << ",\"kills\":" << stats.jobs_killed
      << ",\"drops\":" << stats.jobs_dropped
      << ",\"makespan\":" << stats.makespan
      << ",\"events\":" << stats.events_processed
      << ",\"util\":" << format_double(stats.utilization()) << "}\n";
  ++lines_;
  os_.flush();
}

}  // namespace pjsb::obs
