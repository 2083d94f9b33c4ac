// The live daemon workload: `swf_tool serve` as a child process, one
// connection submitting a trace in arrival order (as `serve_client
// replay` does) and two connections asking WHATIF (predict mode) with
// a STATUS mixed in. All three are closed loops. Every session starts
// a fresh daemon, so each session does the same work and its set-up
// (spawn through epoch 1 to the first HELLO reply) is one sample.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "harness.hpp"
#include "sched/registry.hpp"
#include "serve/client.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/whatif.hpp"
#include "validate/decisions.hpp"

namespace perfbench {

namespace {

namespace serve = pjsb::serve;
namespace sim = pjsb::sim;

constexpr const char* kDaemonSpec = "scheduler=easy nodes=128";
/// Every this-many read requests, one is a STATUS instead of a WHATIF.
constexpr std::int64_t kStatusEvery = 16;
/// Extra start-stop cycles after each session, for more set-up samples.
constexpr int kSetupProbes = 2;

/// The daemon child process. Destroying it kills and reaps it if it has
/// not exited yet, so no path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& binary, std::vector<std::string> args) {
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Die with the harness, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// True once the child has exited (and is reaped).
  bool exited() {
    if (pid_ <= 0) return true;
    if (::waitpid(pid_, &status_, WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }
  /// Wait up to `timeout_s` for a clean exit.
  bool wait_clean_exit(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(
                                             timeout_s);
    while (!exited()) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
};

serve::Client connect_when_up(Daemon& daemon, const std::string& socket) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (true) {
    try {
      return serve::Client::connect_unix(socket);
    } catch (const std::runtime_error&) {
      if (daemon.exited()) throw std::runtime_error("daemon exited early");
      if (Clock::now() > deadline) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

double millis_since(Clock::time_point start) {
  return 1e3 * seconds_between(start, Clock::now());
}

std::uint64_t epoch_of(const serve::Response& response) {
  return std::uint64_t(response.field_i64("epoch").value_or(0));
}

/// One read connection's samples.
struct Reader {
  std::vector<double> whatif_ms;
  std::vector<double> status_ms;
  std::set<std::uint64_t> epochs_seen;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

void read_loop(serve::Client& client, int index, const std::atomic<bool>& go,
               const std::atomic<bool>& done, Reader& out) {
  while (!go.load()) std::this_thread::yield();
  try {
    for (std::int64_t k = 0; !done.load(); ++k) {
      const bool status = k % kStatusEvery == kStatusEvery - 1;
      const auto start = Clock::now();
      const auto response =
          status ? client.status()
                 : client.whatif(1 + (k * 7 + index) % 64, 60 * (1 + k % 64));
      (status ? out.status_ms : out.whatif_ms).push_back(millis_since(start));
      ++out.attempted;
      if (!response.ok) {
        ++out.failed;
        continue;
      }
      out.epochs_seen.insert(epoch_of(response));
    }
  } catch (const std::exception&) {
    ++out.attempted;
    ++out.failed;
  }
}

struct Session {
  /// Spawn to first HELLO reply: this session's daemon and those of the
  /// start-stop probes run after it.
  std::vector<double> setup_samples;
  std::vector<double> submit_ms;  ///< in submission order
  double submit_phase_s = 0.0;
  Reader reads;  ///< both read connections merged
  std::uint64_t epochs = 0;  ///< published by the end of the submissions
  double rss_mb = 0.0;
  bool decisions_match = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

void count(Session& s, bool ok) {
  ++s.attempted;
  if (!ok) ++s.failed;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Session run_session(const std::string& swf_tool, const std::string& work,
                    const pjsb::swf::Trace& trace,
                    const std::string& expected_decisions) {
  const std::string socket = work + "/daemon.sock";
  const std::string decisions = work + "/daemon.decisions";
  std::filesystem::remove(socket);
  std::filesystem::remove(decisions);

  Session s;
  const auto spawned = Clock::now();
  Daemon daemon(swf_tool, {"serve", kDaemonSpec, "--socket", socket,
                           "--decisions", decisions});
  auto submitter = connect_when_up(daemon, socket);
  submitter.handshake("", "perfbench-submit");
  s.setup_samples.push_back(seconds_between(spawned, Clock::now()));

  std::vector<serve::Client> readers;
  for (int i = 0; i < 2; ++i) {
    readers.push_back(connect_when_up(daemon, socket));
    readers.back().handshake("", "perfbench-read");
  }
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::vector<Reader> reads(readers.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    threads.emplace_back(read_loop, std::ref(readers[i]), int(i),
                         std::cref(go), std::cref(done), std::ref(reads[i]));
  }

  const auto phase = Clock::now();
  go.store(true);
  try {
    for (const auto& record : trace.records) {
      // Mirror SimJob::from_record, as serve_client replay does.
      const auto job = sim::SimJob::from_record(record);
      const auto start = Clock::now();
      const auto response = submitter.submit(
          job.procs, job.estimate, job.submit, job.runtime, job.id,
          job.user_id);
      s.submit_ms.push_back(millis_since(start));
      count(s, response.ok);
    }
  } catch (const std::exception&) {
    count(s, false);
  }
  done.store(true);
  s.submit_phase_s = seconds_between(phase, Clock::now());
  for (auto& t : threads) t.join();
  for (const auto& r : reads) {
    s.reads.whatif_ms.insert(s.reads.whatif_ms.end(), r.whatif_ms.begin(),
                             r.whatif_ms.end());
    s.reads.status_ms.insert(s.reads.status_ms.end(), r.status_ms.begin(),
                             r.status_ms.end());
    s.reads.epochs_seen.insert(r.epochs_seen.begin(), r.epochs_seen.end());
    s.attempted += r.attempted;
    s.failed += r.failed;
  }

  const auto status = submitter.status();
  count(s, status.ok);
  s.epochs = epoch_of(status);
  const auto drained = submitter.drain();
  count(s, drained.ok);
  s.rss_mb = vm_hwm_mb(std::to_string(daemon.pid()));
  s.decisions_match = read_file(decisions) == expected_decisions;
  count(s, s.decisions_match);
  count(s, submitter.shutdown().ok);
  count(s, daemon.wait_clean_exit(20.0));
  return s;
}

/// Start a daemon, time it to the first HELLO reply, and stop it.
void probe_setup(const std::string& swf_tool, const std::string& work,
                 Session& s) {
  const std::string socket = work + "/probe.sock";
  std::filesystem::remove(socket);
  const auto spawned = Clock::now();
  Daemon daemon(swf_tool, {"serve", kDaemonSpec, "--socket", socket});
  auto client = connect_when_up(daemon, socket);
  client.handshake("", "perfbench-probe");
  s.setup_samples.push_back(seconds_between(spawned, Clock::now()));
  count(s, client.shutdown().ok);
  count(s, daemon.wait_clean_exit(20.0));
}

double mean_of(const std::vector<double>& v, std::size_t begin,
               std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += v[i];
  return end > begin ? sum / double(end - begin) : 0.0;
}

/// Snapshot layer, on a twin engine replayed offline to the daemon's
/// state at its last SUBMIT: every event before the newest submit time
/// has run.
void measure_snapshot(const pjsb::swf::Trace& trace, Result& result) {
  const auto spec = sim::SimulationSpec::parse(kDaemonSpec);
  sim::Engine twin(sim::spec_engine_config(spec, *spec.nodes),
                   pjsb::sched::make_scheduler(spec.scheduler));
  twin.load_trace(trace);
  twin.run_until(trace.records.back().submit_time - 1);

  constexpr int kRepeats = 7;
  std::vector<double> encode_ms;
  std::vector<double> restore_ms;
  std::string bytes;
  for (int i = 0; i < kRepeats; ++i) {
    auto start = Clock::now();
    bytes = twin.snapshot();
    encode_ms.push_back(millis_since(start));
    start = Clock::now();
    const sim::WhatIfService service(bytes);
    restore_ms.push_back(millis_since(start));
  }
  sim::WhatIfService service(bytes);
  std::vector<double> predict_us;
  constexpr std::int64_t kQueries = 2000;
  for (std::int64_t k = 0; k < kQueries; ++k) {
    sim::WhatIfQuery query;
    query.procs = 1 + (k * 7) % 64;
    query.estimate = 60 * (1 + k % 64);
    const auto start = Clock::now();
    const auto answer = service.query(query);
    predict_us.push_back(1e3 * millis_since(start));
    result.check(answer.start.has_value(), "what-if predict answers");
  }
  auto& m = result.metrics;
  m["snapshot.bytes"] = double(bytes.size());
  m["snapshot.encode_ms"] = median(encode_ms);
  m["snapshot.restore_ms"] = median(restore_ms);
  m["snapshot.predict_us"] = median(predict_us);
}

}  // namespace

Result run_daemon(const Options& options) {
  const std::string work = options.str("work-dir");
  const std::string swf_tool = options.str("swf-tool");
  const double budget = options.f64("seconds");
  const bool trace_mode = options.i64("trace") != 0;

  // The benchmark reads the trace; the daemon sees only the requests.
  auto loaded = pjsb::swf::read_swf_file(options.str("trace-file"));
  if (!loaded.ok()) throw std::runtime_error("malformed benchmark trace");
  auto& trace = loaded.trace;
  trace.records.resize(std::min<std::size_t>(trace.records.size(),
                                             std::size_t(options.i64("jobs"))));
  const auto spec = sim::SimulationSpec::parse(kDaemonSpec);
  const std::string expected = pjsb::validate::decisions_to_csv(
      pjsb::validate::replay_decisions(trace, spec.scheduler, spec.nodes));

  Result result;
  std::vector<Session> sessions;
  const auto start = Clock::now();
  constexpr std::size_t kMinSessions = 3;
  while (seconds_between(start, Clock::now()) < budget ||
         sessions.size() < kMinSessions) {
    sessions.push_back(run_session(swf_tool, work, trace, expected));
    auto& s = sessions.back();
    for (int i = 0; i < kSetupProbes; ++i) probe_setup(swf_tool, work, s);
    result.attempted += s.attempted;
    result.failed += s.failed;
    if (!s.decisions_match) {
      result.failures.push_back("daemon decisions differ from offline replay");
    }
  }
  if (result.failed > 0 && result.failures.empty()) {
    result.failures.push_back("daemon requests failed");
  }

  std::vector<double> setups, rss, submit_ms, whatif_ms, status_ms;
  std::vector<double> epochs, read_ratios, growth, last_tenth;
  double phase_s = 0.0;
  std::vector<double> rates;  ///< SUBMITs/s of each session
  double whatifs = 0.0;
  for (const auto& s : sessions) {
    setups.insert(setups.end(), s.setup_samples.begin(),
                  s.setup_samples.end());
    rss.push_back(s.rss_mb);
    submit_ms.insert(submit_ms.end(), s.submit_ms.begin(), s.submit_ms.end());
    whatif_ms.insert(whatif_ms.end(), s.reads.whatif_ms.begin(),
                     s.reads.whatif_ms.end());
    status_ms.insert(status_ms.end(), s.reads.status_ms.begin(),
                     s.reads.status_ms.end());
    phase_s += s.submit_phase_s;
    rates.push_back(double(s.submit_ms.size()) / s.submit_phase_s);
    whatifs += double(s.reads.whatif_ms.size());
    epochs.push_back(double(s.epochs));
    const auto seen = std::count_if(
        s.reads.epochs_seen.begin(), s.reads.epochs_seen.end(),
        [&](std::uint64_t e) { return e >= 1 && e <= s.epochs; });
    read_ratios.push_back(s.epochs ? double(seen) / double(s.epochs) : 0.0);
    const std::size_t n = s.submit_ms.size();
    const std::size_t tenth = std::max<std::size_t>(n / 10, 1);
    const double first = mean_of(s.submit_ms, 0, tenth);
    last_tenth.push_back(mean_of(s.submit_ms, n - tenth, n));
    growth.push_back(first > 0 ? last_tenth.back() / first : 0.0);
  }

  auto& m = result.metrics;
  m["n.sessions"] = double(sessions.size());
  m["n.jobs"] = double(trace.records.size());
  if (!trace_mode) {
    // The fastest session and set-up, as offline: a shared host's slow
    // spells only ever add time.
    m["jobs_per_s"] = *std::max_element(rates.begin(), rates.end());
    m["peak_rss_mb"] = median(rss);
    m["setup_s"] = *std::min_element(setups.begin(), setups.end());
    m["n.setup_samples"] = double(setups.size());
  }
  m["serve.submit_p50_ms"] = percentile(submit_ms, 50);
  m["serve.submit_p99_ms"] = percentile(submit_ms, 99);
  m["serve.submit_samples"] = double(submit_ms.size());
  m["serve.submits_per_s"] = double(submit_ms.size()) / phase_s;
  m["serve.whatif_p50_ms"] = percentile(whatif_ms, 50);
  m["serve.whatif_p99_ms"] = percentile(whatif_ms, 99);
  m["serve.whatif_samples"] = double(whatif_ms.size());
  m["serve.whatifs_per_s"] = whatifs / phase_s;
  m["serve.status_p50_ms"] = percentile(status_ms, 50);
  m["serve.status_samples"] = double(status_ms.size());
  m["serve.epochs"] = median(epochs);
  m["serve.epochs_per_submit"] =
      median(epochs) / double(std::max<std::size_t>(trace.records.size(), 1));
  m["serve.epochs_read_ratio"] = median(read_ratios);
  m["serve.submit_latency_growth"] = median(growth);
  m["serve.submit_last_tenth_ms"] = median(last_tenth);
  if (!trace_mode) return result;

  measure_snapshot(trace, result);
  // The offline layers, on a twin replay of the same jobs under the
  // daemon's spec, traced exactly like the offline workloads.
  const std::string twin_path = work + "/daemon_twin.swf";
  if (!pjsb::swf::write_swf_file(twin_path, trace)) {
    throw std::runtime_error("cannot write " + twin_path);
  }
  Options twin;
  twin.values = {{"trace-files", twin_path},
                 {"scheduler", spec.scheduler},
                 {"nodes", std::to_string(*spec.nodes)},
                 {"streaming", "0"},
                 {"seconds", "1"},
                 {"trace", "1"}};
  const Result layers = run_offline(twin);
  for (const auto& [name, value] : layers.metrics) {
    if (!m.count(name)) m[name] = value;
  }
  result.attempted += layers.attempted;
  result.failed += layers.failed;
  for (const auto& f : layers.failures) result.failures.push_back(f);
  return result;
}

}  // namespace perfbench
