// The scheduling daemon: one authoritative engine thread, many
// sessions, a read-mostly what-if query tier.
//
// Architecture:
//
//   accept thread ──> connection threads ──> Session FSM
//                           │ mutations                │ queries
//                           v                          v
//        bounded MPSC command queue          epoch-stamped query tier
//                           │                (WhatIfService over a live
//                           v                 snapshot + status counters
//                  engine thread: apply        + terminated-job index)
//                  commands, advance sim
//                  time, republish the tier after every mutation epoch
//
// Mutating verbs (SUBMIT, KILL, SNAPSHOT, RESUME, DRAIN, SHUTDOWN)
// become commands on a bounded MPSC queue consumed by the single
// engine thread — live submissions turn into ordinary engine events,
// so a session that submits a trace's jobs in arrival order yields a
// decision stream byte-identical to an offline sim::replay of that
// trace. Read verbs (QUERY, WHATIF, STATUS) never touch the engine:
// they run against the latest published epoch — an immutable tier —
// so a what-if barrage cannot perturb the live schedule, and scales
// across connections.
//
// Each tier holds a thread-safe WhatIfService over
// Engine::live_snapshot() (pending, queued and running jobs only), so a
// publish costs O(live jobs + dense slots / 64), not O(every job ever
// submitted): the engine keeps its live set as jobs change state, the
// snapshot scans its bits a 64-bit word at a time and writes only the
// live jobs, and the service restores one warm clone from those bytes.
// A SUBMIT into a daemon that has finished 10k jobs costs what it costs
// in a fresh one (bench_serve's `submit.cost_ratio`); replays of up to
// 100k jobs are measured flat (README), and the word scan, over a dense
// table within 2 x (jobs held) + 4096 slots, is unmeasured past that.
// QUERY for an id the tier lacks falls back to a per-engine index of
// terminated jobs ({submit, procs, start, end}), fed on the engine
// thread by on_job_complete / on_job_drop and seeded from the
// already-terminated jobs when an engine is attached (construction,
// RESUME). Each entry carries the first epoch whose tier lacks the job,
// so a QUERY against an older tier ignores it and every answer is exact
// for its epoch; tiers published before a RESUME keep their own
// engine's index. Mutation replies resolve only after the new tier is
// published (read-your-writes). A state that no longer restores (an
// instant past sim::kMaxInstant) keeps the last tier up, and the batch
// that reached it answers `ERR internal`.
//
// Protocol lines are capped at net::kMaxLineBytes: a longer one gets
// `ERR bad-request line too long` and the connection is closed.
//
// Time: with time_scale == 0 (logical time, the default) the clock
// only advances under submitted work — events up to (latest submit
// time - 1) are processed, so every event at the newest timestamp is
// enqueued before that timestamp runs (the batching rule behind the
// byte-identical guarantee); DRAIN lifts the horizon and runs the
// engine dry. With time_scale > 0, one wall-clock second advances the
// simulation time_scale seconds, whether or not submissions arrive.
//
// Lifecycle: SIGTERM/SIGINT (with ServerConfig::handle_signals) or
// SHUTDOWN drain-then-stop; decisions_path and snapshot_on_shutdown
// are written on the way out, and a snapshot written there can seed a
// new daemon (swf_tool serve --resume) or the RESUME verb. Both carry
// the full engine state (Engine::snapshot()), not the live tier's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "serve/session.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/snapshot/whatif.hpp"
#include "validate/decisions.hpp"

namespace pjsb::serve {

struct ServerConfig {
  /// Unix-domain socket path. Empty: listen on loopback TCP instead.
  std::string socket_path;
  /// Loopback TCP port (0 = ephemeral; see Server::port()). Used only
  /// when socket_path is empty.
  int tcp_port = 0;
  /// Non-empty: sessions must AUTH with this token after HELLO.
  std::string auth_token;
  /// Simulated seconds per wall-clock second; 0 = logical time (the
  /// clock advances only under submitted work).
  double time_scale = 0.0;
  /// Write the decision stream CSV here on DRAIN and on shutdown.
  std::string decisions_path;
  /// Write a resumable engine snapshot here on shutdown.
  std::string snapshot_on_shutdown;
  /// Install SIGTERM/SIGINT handlers that drain (run the backlog dry)
  /// and shut down (the swf_tool serve path; tests drive SHUTDOWN
  /// explicitly instead).
  bool handle_signals = false;
};

class Server final : public ServerCore {
 public:
  /// Takes the engine to serve (built from a SimulationSpec, or
  /// restored from a snapshot). The engine must not need a job source.
  Server(ServerConfig config, std::unique_ptr<sim::Engine> engine);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the endpoint and start the engine + accept threads. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void start();
  /// Block until SHUTDOWN (or a handled signal) stops the daemon, then
  /// tear down sockets and join every thread.
  void wait();
  /// start() + wait().
  void run();
  /// Async stop (as if SHUTDOWN arrived). Safe from any thread.
  void request_shutdown();

  /// Bound TCP port (after start(); 0 for Unix-socket endpoints).
  int port() const { return port_; }
  std::uint64_t epoch() const;

  // -- ServerCore (called from session threads) --
  Response submit(const Request& request) override;
  Response kill(std::int64_t job_id) override;
  Response query(std::int64_t job_id) override;
  Response whatif(const Request& request) override;
  Response status() override;
  Response snapshot(const std::string& path) override;
  Response resume(const std::string& path) override;
  Response drain() override;
  Response shutdown() override;
  bool draining() const override { return draining_.load(); }
  const std::string& auth_token() const override {
    return config_.auth_token;
  }

 private:
  struct Command {
    enum class Kind {
      kSubmit,
      kKill,
      kSnapshot,
      kResume,
      kDrain,
      kShutdown,
    };
    Kind kind = Kind::kSubmit;
    Request request;    ///< kSubmit
    std::int64_t job_id = 0;
    std::string path;   ///< kSnapshot / kResume
    std::promise<Response> reply;
  };

  /// Terminated jobs of one engine, for QUERYs the live tier cannot
  /// answer (defined in server.cpp).
  class TerminatedJobs;

  /// One published epoch: an immutable service over the engine's live
  /// state, the index of the jobs it left out, plus the status fields
  /// sessions report without engine access.
  struct Tier {
    std::uint64_t epoch = 0;
    std::shared_ptr<sim::WhatIfService> service;
    std::shared_ptr<const TerminatedJobs> terminated;
    std::int64_t time = 0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::int64_t completed = 0;
    std::int64_t killed = 0;
    std::int64_t dropped = 0;
    std::size_t decisions = 0;
  };

  /// Enqueue a mutation and wait for the engine thread's reply.
  Response submit_command(Command command);

  void engine_loop();
  Response apply(Command& command);
  Response apply_submit(const Request& request);
  Response apply_kill(std::int64_t job_id);
  Response apply_snapshot(const std::string& path);
  Response apply_resume(const std::string& path);
  Response apply_drain();
  Response apply_shutdown();
  /// Make `engine` the authoritative one: a fresh terminated-job index
  /// seeded from its already-terminated jobs, and the observers.
  void attach_engine(std::unique_ptr<sim::Engine> engine);
  /// Process due events (logical horizon or wall-mapped time). True
  /// when any event ran.
  bool advance();
  /// Live-snapshot the engine into a fresh query tier.
  void publish();
  void write_decisions() const;
  std::shared_ptr<const Tier> tier() const;

  void accept_loop(int listen_fd);
  void serve_connection(int fd, std::int64_t session_id);

  ServerConfig config_;
  std::unique_ptr<sim::Engine> engine_;  ///< engine thread only
  validate::DecisionRecorder recorder_;  ///< attached to engine_
  /// engine_'s terminated jobs (shared with the tiers cut from it) and
  /// the observer that feeds it. Engine thread only.
  std::shared_ptr<TerminatedJobs> terminated_;
  sim::FunctionObserver terminated_feed_;
  /// Logical-time horizon: events up to this time may run (latest
  /// submit - 1, or +inf once drained). Engine thread only.
  std::int64_t horizon_ = 0;
  std::chrono::steady_clock::time_point wall_origin_;
  std::int64_t sim_origin_ = 0;

  // Command queue (bounded MPSC).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;       ///< consumer wake
  std::condition_variable queue_space_cv_; ///< producer wake
  std::deque<Command> queue_;

  // Published query tier.
  mutable std::mutex tier_mutex_;
  std::shared_ptr<const Tier> tier_;
  std::uint64_t epoch_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> active_sessions_{0};
  std::int64_t next_session_id_ = 1;

  // Lifecycle.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool engine_done_ = false;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread engine_thread_;
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::unordered_set<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace pjsb::serve
