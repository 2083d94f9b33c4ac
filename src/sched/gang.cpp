#include "sched/gang.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sched/registry.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

SchedulerInfo gang_scheduler_info() {
  SchedulerInfo info;
  info.name = "gang";
  info.description =
      "gang scheduling on a round-robin-time-sliced Ousterhout matrix";
  // "gangN" spells "gang slots=N"; 1024 rows is far beyond any
  // published multiprogramming level, and small enough that per-slot
  // machine state cannot blow up from a fat-fingered spec.
  info.compact_prefix = "gang";
  info.compact_param = "slots";
  info.params = {ParamSpec::integer(
      "slots", "matrix depth (maximum multiprogramming level per node)", 4,
      1, 1024)};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<GangScheduler>(int(values.get_int("slots")));
  };
  return info;
}

GangScheduler::GangScheduler(int slots) : slots_(slots) {
  if (slots < 1) throw std::invalid_argument("GangScheduler: slots >= 1");
}

std::string GangScheduler::name() const {
  return "gang" + std::to_string(slots_);
}

int GangScheduler::active_rows() const {
  int rows = 0;
  for (const auto& row : columns_) {
    for (std::int64_t owner : row) {
      if (owner >= 0) {
        ++rows;
        break;
      }
    }
  }
  return rows;
}

void GangScheduler::sync(std::int64_t now) {
  const int rows = active_rows();
  if (rows > 0 && now > last_sync_) {
    const double progress = double(now - last_sync_) / double(rows);
    for (auto& [id, job] : jobs_) {
      job.remaining = std::max(0.0, job.remaining - progress);
    }
  }
  last_sync_ = now;
}

void GangScheduler::push_ends(SchedulerContext& ctx) {
  const int rows = std::max(1, active_rows());
  for (auto& [id, job] : jobs_) {
    const auto end =
        ctx.now() +
        std::max<std::int64_t>(0, std::int64_t(
                                      std::ceil(job.remaining * rows)));
    ctx.update_job_end(id, end);
  }
}

bool GangScheduler::place_job(SchedulerContext& ctx, std::int64_t job_id) {
  const auto& j = ctx.job(job_id);
  const std::int64_t total = ctx.machine().total_nodes();
  if (columns_.empty()) {
    columns_.assign(std::size_t(slots_),
                    std::vector<std::int64_t>(std::size_t(total),
                                              sim::kFree));
    node_down_.assign(std::size_t(total), false);
  }
  for (std::size_t row = 0; row < columns_.size(); ++row) {
    // Collect free, up columns in this row.
    std::vector<std::int64_t> free_cols;
    for (std::int64_t n = 0; n < total; ++n) {
      if (!node_down_[std::size_t(n)] &&
          columns_[row][std::size_t(n)] == sim::kFree) {
        free_cols.push_back(n);
        if (std::int64_t(free_cols.size()) == j.procs) break;
      }
    }
    if (std::int64_t(free_cols.size()) < j.procs) continue;

    GangJob gj;
    gj.id = job_id;
    gj.row = int(row);
    gj.columns = std::move(free_cols);
    gj.remaining = double(j.runtime);
    for (std::int64_t n : gj.columns) {
      columns_[row][std::size_t(n)] = job_id;
    }
    // Start with a provisional end; push_ends() revises all jobs next.
    ctx.annotate_start(sim::StartProvenance::kTimeshare);
    ctx.start_job_virtual(job_id, ctx.now() + j.runtime);
    jobs_.emplace(job_id, std::move(gj));
    return true;
  }
  return false;
}

void GangScheduler::remove_job(std::int64_t job_id) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  const auto& gj = it->second;
  for (std::int64_t n : gj.columns) {
    if (columns_[std::size_t(gj.row)][std::size_t(n)] == job_id) {
      columns_[std::size_t(gj.row)][std::size_t(n)] = sim::kFree;
    }
  }
  jobs_.erase(it);
}

void GangScheduler::on_submit(SchedulerContext& /*ctx*/,
                              std::int64_t job_id) {
  queue_.push_back(job_id);
}

void GangScheduler::on_job_end(SchedulerContext& ctx, std::int64_t job_id) {
  sync(ctx.now());
  remove_job(job_id);
  push_ends(ctx);
}

void GangScheduler::on_job_killed(SchedulerContext& ctx,
                                  std::int64_t job_id) {
  sync(ctx.now());
  remove_job(job_id);
  push_ends(ctx);
}

void GangScheduler::on_outage_start(SchedulerContext& ctx,
                                    const outage::OutageRecord& rec) {
  sync(ctx.now());
  if (columns_.empty()) {
    const std::int64_t total = ctx.machine().total_nodes();
    columns_.assign(std::size_t(slots_),
                    std::vector<std::int64_t>(std::size_t(total),
                                              sim::kFree));
    node_down_.assign(std::size_t(total), false);
  }
  // Mark nodes down and collect victims across all rows.
  std::vector<std::int64_t> victims;
  for (std::int64_t n : rec.components) {
    if (n < 0 || n >= std::int64_t(node_down_.size())) continue;
    node_down_[std::size_t(n)] = true;
    for (auto& row : columns_) {
      const std::int64_t owner = row[std::size_t(n)];
      if (owner >= 0) victims.push_back(owner);
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (std::int64_t id : victims) {
    // kill_running_job triggers on_job_killed -> remove_job, and the
    // engine requeues via on_submit.
    ctx.kill_running_job(id);
  }
  push_ends(ctx);
}

void GangScheduler::on_outage_end(SchedulerContext& ctx,
                                  const outage::OutageRecord& rec) {
  sync(ctx.now());
  for (std::int64_t n : rec.components) {
    if (n >= 0 && n < std::int64_t(node_down_.size())) {
      node_down_[std::size_t(n)] = false;
    }
  }
}

void GangScheduler::schedule(SchedulerContext& ctx) {
  sync(ctx.now());
  bool placed_any = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const auto& j = ctx.job(*it);
    if (j.state != sim::JobState::kQueued) {
      it = queue_.erase(it);
      continue;
    }
    if (place_job(ctx, *it)) {
      it = queue_.erase(it);
      placed_any = true;
    } else {
      ++it;  // keep scanning: a smaller job may fit another row
    }
  }
  if (placed_any) push_ends(ctx);
}

void GangScheduler::save_state(sim::snapshot::Writer& w) const {
  // slots_ is a constructor parameter; it rides in name() ("gangN").
  w.i64(last_sync_);
  w.u64(queue_.size());
  for (std::int64_t id : queue_) w.i64(id);
  w.u64(jobs_.size());
  for (const auto& [id, gj] : jobs_) {
    w.i64(gj.id);
    w.i64(gj.row);
    w.u64(gj.columns.size());
    for (std::int64_t n : gj.columns) w.i64(n);
    w.f64(gj.remaining);
  }
  // columns_ is rebuilt from jobs_ on load; only its dimensions (and
  // whether the matrix was materialized at all) need recording.
  w.boolean(!columns_.empty());
  w.u64(node_down_.size());
  for (std::size_t i = 0; i < node_down_.size(); ++i) {
    w.boolean(node_down_[i]);
  }
}

void GangScheduler::load_state(sim::snapshot::Reader& r) {
  last_sync_ = r.i64();
  queue_.clear();
  std::size_t n = r.count("gang queue", 8);
  queue_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queue_.push_back(r.i64());
  jobs_.clear();
  n = r.count("gang job", 4 * 8);
  for (std::size_t i = 0; i < n; ++i) {
    GangJob gj;
    gj.id = r.i64();
    gj.row = int(r.i64());
    const std::size_t cols = r.count("gang column", 8);
    gj.columns.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) gj.columns.push_back(r.i64());
    gj.remaining = r.f64();
    jobs_.emplace(gj.id, std::move(gj));
  }
  const bool materialized = r.boolean();
  const std::size_t total = r.count("gang node", 1);
  node_down_.assign(total, false);
  for (std::size_t i = 0; i < total; ++i) node_down_[i] = r.boolean();
  columns_.clear();
  if (materialized) {
    columns_.assign(std::size_t(slots_),
                    std::vector<std::int64_t>(total, sim::kFree));
    for (const auto& [id, gj] : jobs_) {
      for (std::int64_t node : gj.columns) {
        if (gj.row < 0 || gj.row >= slots_ || node < 0 ||
            std::size_t(node) >= total) {
          throw std::runtime_error("snapshot: gang placement outside the "
                                   "matrix");
        }
        columns_[std::size_t(gj.row)][std::size_t(node)] = id;
      }
    }
  }
}

}  // namespace pjsb::sched
