#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "serve/net.hpp"
#include "sim/snapshot/snapshot.hpp"

namespace pjsb::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Set by the SIGTERM/SIGINT handler (ServerConfig::handle_signals);
/// polled by the engine loop, which then drains and shuts down.
volatile std::sig_atomic_t g_signal_requested = 0;

extern "C" void on_stop_signal(int) { g_signal_requested = 1; }

void install_signal_handlers() {
  g_signal_requested = 0;
  struct sigaction action{};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// How long an over-long line's connection is drained before closing.
constexpr int kLingerMs = 1000;

/// Mutation commands buffered before submitters block (backpressure).
constexpr std::size_t kCommandQueueCapacity = 1024;

}  // namespace

/// One engine's terminated jobs by id. The engine thread records,
/// session threads look up; a mutex guards the map.
class Server::TerminatedJobs {
 public:
  /// `job`: a sim::SimJob or sim::CompletedJob.
  template <typename Job>
  void record(const Job& job, std::uint64_t epoch) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[job.id] = {job.submit, job.procs, job.start, job.end, epoch};
  }

  /// The terminated job as the tier of `epoch` reports it: the fields
  /// WhatIfService::query_job gives a finished job. Nullopt when `id`
  /// is unknown or still live in that tier.
  std::optional<sim::WhatIfJobStatus> find(std::int64_t id,
                                           std::uint64_t epoch) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(id);
    if (it == entries_.end() || it->second.epoch > epoch) {
      return std::nullopt;
    }
    sim::WhatIfJobStatus status;
    status.id = id;
    status.state = sim::JobStateName::kFinished;
    status.submit = it->second.submit;
    status.procs = it->second.procs;
    status.start = it->second.start;
    status.end = it->second.end;
    return status;
  }

 private:
  struct Entry {
    std::int64_t submit = 0;
    std::int64_t procs = 0;
    std::int64_t start = -1;
    std::int64_t end = -1;
    /// First epoch whose tier no longer holds the job live.
    std::uint64_t epoch = 0;
  };
  mutable std::mutex mutex_;
  std::unordered_map<std::int64_t, Entry> entries_;
};

Server::Server(ServerConfig config, std::unique_ptr<sim::Engine> engine)
    : config_(std::move(config)) {
  if (!engine) throw std::invalid_argument("Server: null engine");
  if (engine->needs_job_source()) {
    throw std::invalid_argument(
        "Server: engine needs a resumed job source; the daemon serves "
        "self-contained states only");
  }
  // A termination reaches the index before the tier that lacks the job
  // is published, stamped with that tier's epoch. Engine thread only.
  terminated_feed_.job_complete = [this](const sim::CompletedJob& job) {
    terminated_->record(job, epoch_ + 1);
  };
  terminated_feed_.job_drop = [this](std::int64_t, const sim::SimJob& job,
                                     sim::DropReason) {
    terminated_->record(job, epoch_ + 1);
  };
  attach_engine(std::move(engine));
}

Server::~Server() {
  if (engine_thread_.joinable() || accept_thread_.joinable()) {
    request_shutdown();
    wait();
  }
}

void Server::start() {
  std::string error;
  if (!config_.socket_path.empty()) {
    listen_fd_ = net::listen_unix(config_.socket_path, &error);
  } else {
    listen_fd_ = net::listen_tcp(config_.tcp_port, &port_, &error);
  }
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: cannot listen: " + error);
  }
  if (config_.handle_signals) install_signal_handlers();
  wall_origin_ = Clock::now();
  sim_origin_ = engine_->now();
  horizon_ = engine_->now();
  // Publish the first query tier before any thread can accept a
  // connection: a query must never race the engine thread to epoch 1
  // (the first publish restores a full engine clone, which is slow
  // enough for early connections to win otherwise).
  publish();
  engine_thread_ = std::thread([this] { engine_loop(); });
  const int fd = listen_fd_;
  accept_thread_ = std::thread([this, fd] { accept_loop(fd); });
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] { return engine_done_; });
  }
  // Tear down the socket layer: stop accepting, unblock and join every
  // connection, then the accept + engine threads.
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    net::shutdown_fd(listen_fd_);
    net::close_fd(listen_fd_);
    listen_fd_ = -1;
  }
  // Join the acceptor first: once it is gone no new connection thread
  // can appear, so the harvest below is complete.
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    // Read-half only: the session that asked for SHUTDOWN may still be
    // sending its OK reply from its own thread; the joins below flush it.
    for (const int fd : conn_fds_) net::shutdown_read(fd);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) {
    if (t.joinable()) t.join();
  }
  if (engine_thread_.joinable()) engine_thread_.join();
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
}

void Server::run() {
  start();
  wait();
}

void Server::request_shutdown() {
  Command command;
  command.kind = Command::Kind::kShutdown;
  submit_command(std::move(command));
}

std::uint64_t Server::epoch() const {
  const std::lock_guard<std::mutex> lock(tier_mutex_);
  return epoch_;
}

std::shared_ptr<const Server::Tier> Server::tier() const {
  const std::lock_guard<std::mutex> lock(tier_mutex_);
  return tier_;
}

// -- session-facing verbs ---------------------------------------------

Response Server::submit_command(Command command) {
  auto future = command.reply.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_space_cv_.wait(lock, [this] {
      return queue_.size() < kCommandQueueCapacity || stopping_.load();
    });
    if (stopping_.load()) {
      return error_response(kErrState, "server stopping");
    }
    queue_.push_back(std::move(command));
  }
  queue_cv_.notify_one();
  return future.get();
}

Response Server::submit(const Request& request) {
  Command command;
  command.kind = Command::Kind::kSubmit;
  command.request = request;
  return submit_command(std::move(command));
}

Response Server::kill(std::int64_t job_id) {
  Command command;
  command.kind = Command::Kind::kKill;
  command.job_id = job_id;
  return submit_command(std::move(command));
}

Response Server::snapshot(const std::string& path) {
  Command command;
  command.kind = Command::Kind::kSnapshot;
  command.path = path;
  return submit_command(std::move(command));
}

Response Server::resume(const std::string& path) {
  Command command;
  command.kind = Command::Kind::kResume;
  command.path = path;
  return submit_command(std::move(command));
}

Response Server::drain() {
  Command command;
  command.kind = Command::Kind::kDrain;
  return submit_command(std::move(command));
}

Response Server::shutdown() {
  Command command;
  command.kind = Command::Kind::kShutdown;
  return submit_command(std::move(command));
}

Response Server::query(std::int64_t job_id) {
  const auto t = tier();
  if (!t) return error_response(kErrState, "not serving yet");
  auto status = t->service->query_job(job_id);
  if (!status) status = t->terminated->find(job_id, t->epoch);
  if (!status) return error_response(kErrNotFound, "unknown job id");
  Response r = ok_response()
                   .with("id", status->id)
                   .with("state", sim::to_string(status->state))
                   .with("submit", status->submit)
                   .with("procs", status->procs);
  if (status->start) r.with("start", *status->start);
  if (status->end) r.with("end", *status->end);
  if (status->predicted_start) {
    r.with("predicted_start", *status->predicted_start);
  }
  return r.with("epoch", std::int64_t(t->epoch));
}

Response Server::whatif(const Request& request) {
  const auto t = tier();
  if (!t) return error_response(kErrState, "not serving yet");
  sim::WhatIfQuery q;
  q.procs = request.procs;
  q.estimate = request.estimate;
  q.submit_offset = request.offset;
  q.simulate = request.simulate;
  sim::WhatIfAnswer answer;
  try {
    answer = t->service->query(q);
  } catch (const std::invalid_argument& e) {
    // A hypothetical job the engine refuses (a submit time past the
    // time bound) is the request's fault, not the daemon's.
    return error_response(kErrBadRequest, e.what());
  }
  Response r = ok_response();
  if (answer.start) r.with("start", *answer.start);
  if (answer.wait) r.with("wait", *answer.wait);
  return r.with("mode", answer.simulated ? "simulate" : "predict")
      .with("at", t->service->snapshot_time() + q.submit_offset)
      .with("epoch", std::int64_t(t->epoch));
}

Response Server::status() {
  const auto t = tier();
  if (!t) return error_response(kErrState, "not serving yet");
  return ok_response()
      .with("time", t->time)
      .with("epoch", std::int64_t(t->epoch))
      .with("queued", std::int64_t(t->queued))
      .with("running", std::int64_t(t->running))
      .with("completed", t->completed)
      .with("killed", t->killed)
      .with("dropped", t->dropped)
      .with("decisions", std::int64_t(t->decisions))
      .with("tier_bytes", std::int64_t(t->service->bytes().size()))
      .with("sessions", active_sessions_.load())
      .with("draining", draining_.load() ? 1 : 0)
      .with("mode", config_.time_scale > 0 ? "wall" : "logical");
}

// -- engine thread ----------------------------------------------------

void Server::engine_loop() {
  // Epoch 1 was published by start() before any session could connect.
  while (true) {
    std::vector<Command> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      const auto ready = [this] {
        return !queue_.empty() || stopping_.load();
      };
      if (config_.time_scale > 0 || config_.handle_signals) {
        // Periodic tick: wall-mapped time must advance (and a stop
        // signal must be noticed) even with no commands arriving.
        queue_cv_.wait_for(lock, std::chrono::milliseconds(100), ready);
      } else {
        queue_cv_.wait(lock, ready);
      }
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    queue_space_cv_.notify_all();

    std::vector<std::pair<std::promise<Response>, Response>> replies;
    replies.reserve(batch.size());
    changed_ = false;
    for (auto& command : batch) {
      replies.emplace_back(std::move(command.reply), apply(command));
    }
    const bool ran = advance();
    if (config_.handle_signals && g_signal_requested &&
        !stopping_.load()) {
      if (!drained_.load()) apply_drain();
      apply_shutdown();
    }
    // No session reads a tier once the daemon stops, and a batch that
    // left the engine as it was (refused commands, SNAPSHOT) keeps the
    // tier it has.
    const auto t = tier();
    if (!stopping_.load() &&
        (changed_ || ran || !t || t->time != engine_->now())) {
      try {
        publish();
      } catch (const std::exception& e) {
        // A state that no longer restores (an instant past
        // sim::kMaxInstant) leaves the last tier up for the readers;
        // what this batch did is not visible in it, so it answers ERR.
        for (auto& [promise, response] : replies) {
          if (response.ok) {
            response = error_response(kErrInternal,
                                      std::string("publish: ") + e.what());
          }
        }
      }
    }
    // Replies resolve only after the new epoch is visible, so a
    // QUERY issued right after a SUBMIT's OK always finds the job.
    for (auto& [promise, response] : replies) {
      promise.set_value(std::move(response));
    }
    if (stopping_.load()) break;
  }
  // Refuse anything that raced into the queue after the shutdown
  // command was applied.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (auto& command : queue_) {
      command.reply.set_value(
          error_response(kErrState, "server stopping"));
    }
    queue_.clear();
  }
  queue_space_cv_.notify_all();
  {
    const std::lock_guard<std::mutex> lock(done_mutex_);
    engine_done_ = true;
  }
  done_cv_.notify_all();
}

Response Server::apply(Command& command) {
  try {
    switch (command.kind) {
      case Command::Kind::kSubmit:
        return apply_submit(command.request);
      case Command::Kind::kKill:
        return apply_kill(command.job_id);
      case Command::Kind::kSnapshot:
        return apply_snapshot(command.path);
      case Command::Kind::kResume:
        return apply_resume(command.path);
      case Command::Kind::kDrain:
        return apply_drain();
      case Command::Kind::kShutdown:
        return apply_shutdown();
    }
  } catch (const std::exception& e) {
    return error_response(kErrInternal, e.what());
  }
  return error_response(kErrInternal, "unhandled command");
}

Response Server::apply_submit(const Request& request) {
  if (draining_.load()) return error_response(kErrDraining, "drained");
  const std::int64_t now = engine_->now();
  std::int64_t at = request.at.value_or(now);
  // A stale timestamp is submitted immediately, mirroring the engine's
  // straggler rule for trace sources.
  if (at < now) at = now;
  sim::SimJob job;
  job.id = request.id.value_or(0);  // 0: the engine picks
  job.submit = at;
  job.estimate = request.estimate;
  job.runtime = request.runtime.value_or(request.estimate);
  job.walltime = request.estimate;
  job.procs = request.procs;
  job.user_id = request.user;
  std::int64_t id = 0;
  try {
    id = engine_->submit_job(job);
  } catch (const std::exception& e) {
    return error_response(kErrBadRequest, e.what());
  }
  // Logical time: never process the newest submit timestamp until a
  // later submission proves every event at that time has arrived —
  // the engine runs one scheduler pass per timestamp, so this is what
  // keeps live decision streams byte-identical to offline replays.
  horizon_ = std::max(horizon_, at - 1);
  changed_ = true;
  return ok_response().with("id", id).with("at", at);
}

Response Server::apply_kill(std::int64_t job_id) {
  if (draining_.load()) return error_response(kErrDraining, "drained");
  std::string why;
  if (!engine_->cancel_job(job_id, &why)) {
    const bool unknown = why == "unknown job id";
    return error_response(unknown ? kErrNotFound : kErrBadRequest, why);
  }
  changed_ = true;
  return ok_response().with("id", job_id).with("state", "cancelled");
}

Response Server::apply_snapshot(const std::string& path) {
  const std::string bytes = engine_->snapshot();
  try {
    sim::snapshot::write_file(path, bytes);
  } catch (const std::exception& e) {
    return error_response(kErrIo, e.what());
  }
  return ok_response().with("bytes", std::int64_t(bytes.size()));
}

Response Server::apply_resume(const std::string& path) {
  if (draining_.load()) return error_response(kErrDraining, "drained");
  std::unique_ptr<sim::Engine> restored;
  try {
    restored = sim::Engine::restore(sim::snapshot::read_file(path));
  } catch (const std::exception& e) {
    return error_response(kErrIo, e.what());
  }
  if (restored->needs_job_source()) {
    return error_response(
        kErrBadRequest,
        "snapshot needs a resumed job source; the daemon serves "
        "self-contained states only");
  }
  attach_engine(std::move(restored));
  changed_ = true;
  horizon_ = engine_->now();
  sim_origin_ = engine_->now();
  wall_origin_ = Clock::now();
  return ok_response().with("time", engine_->now());
}

Response Server::apply_drain() {
  if (!drained_.load()) {
    draining_.store(true);
    engine_->run();
    engine_->notify_run_end();
    drained_.store(true);
    horizon_ = engine_->now();
    write_decisions();
    changed_ = true;
  }
  const auto stats = engine_->stats();
  return ok_response()
      .with("drained", 1)
      .with("time", engine_->now())
      .with("completed", stats.jobs_completed)
      .with("decisions", std::int64_t(recorder_.decisions().size()));
}

Response Server::apply_shutdown() {
  if (!config_.snapshot_on_shutdown.empty()) {
    try {
      sim::snapshot::write_file(config_.snapshot_on_shutdown,
                                engine_->snapshot());
    } catch (const std::exception&) {
      // Last-gasp best effort: shutting down anyway.
    }
  }
  write_decisions();
  stopping_.store(true);
  return ok_response().with("bye", 1);
}

void Server::attach_engine(std::unique_ptr<sim::Engine> engine) {
  engine_ = std::move(engine);
  terminated_ = std::make_shared<TerminatedJobs>();
  engine_->for_each_job([this](const sim::SimJob& job) {
    if (job.state == sim::JobState::kFinished) {
      terminated_->record(job, epoch_ + 1);
    }
  });
  engine_->add_observer(recorder_);
  engine_->add_observer(terminated_feed_);
}

bool Server::advance() {
  if (drained_.load()) return false;
  std::int64_t target = horizon_;
  if (config_.time_scale > 0) {
    // In double, clamped before the conversion: a large scale would
    // overflow int64 (undefined) or carry the clock past the bound
    // every SUBMIT is held to.
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - wall_origin_)
            .count();
    const double wall_time =
        std::min(double(sim_origin_) + elapsed * config_.time_scale,
                 double(sim::kMaxTime));
    target = std::max(target, std::int64_t(wall_time));
  }
  const auto before = engine_->stats().events_processed;
  if (target > engine_->now() ||
      (engine_->next_event_time() &&
       *engine_->next_event_time() <= target)) {
    engine_->run_until(target);
  }
  return engine_->stats().events_processed != before;
}

void Server::publish() {
  auto next = std::make_shared<Tier>();
  next->service =
      std::make_shared<sim::WhatIfService>(engine_->live_snapshot());
  next->terminated = terminated_;
  const auto stats = engine_->stats();
  next->time = engine_->now();
  next->queued = engine_->queued_jobs();
  next->running = engine_->running_jobs();
  next->completed = stats.jobs_completed;
  next->killed = stats.jobs_killed;
  next->dropped = stats.jobs_dropped;
  next->decisions = recorder_.decisions().size();
  const std::lock_guard<std::mutex> lock(tier_mutex_);
  next->epoch = ++epoch_;
  tier_ = std::move(next);
}

void Server::write_decisions() const {
  if (config_.decisions_path.empty()) return;
  try {
    sim::snapshot::write_file(
        config_.decisions_path,
        validate::decisions_to_csv(recorder_.decisions()));
  } catch (const std::exception&) {
    // Best effort; STATUS still reports the count.
  }
}

// -- socket layer -----------------------------------------------------

void Server::accept_loop(int listen_fd) {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    if (stopping_.load()) {
      net::close_fd(fd);
      break;
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.insert(fd);
    const std::int64_t session_id = next_session_id_++;
    conn_threads_.emplace_back(
        [this, fd, session_id] { serve_connection(fd, session_id); });
  }
}

void Server::serve_connection(int fd, std::int64_t session_id) {
  active_sessions_.fetch_add(1);
  Session session(*this, session_id);
  net::LineReader reader(fd);
  while (!stopping_.load()) {
    const auto line = reader.read_line();
    if (!line) {
      if (reader.too_long()) {
        // Refuse the line instead of buffering it, then hang up.
        net::send_all(fd, serialize_response(error_response(
                              kErrBadRequest, "line too long")) +
                              "\n");
        net::finish_and_drain(fd, kLingerMs);
      }
      break;
    }
    const std::string response = session.handle_line(*line) + "\n";
    if (!net::send_all(fd, response)) break;
    if (session.closed()) break;
  }
  active_sessions_.fetch_sub(1);
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(fd);
  }
  net::close_fd(fd);
}

}  // namespace pjsb::serve
