// Per-layer timing from outside the program: forwarding wrappers that
// the benchmark installs around each layer's public interface, and a
// span stack that turns nested calls into self times.
//
// A span's self time is its duration minus the spans nested inside it,
// so engine self time is Engine::step minus the scheduler, source and
// observer calls it makes, and a pass's self time excludes start_job.
// What the spans cost themselves is calibrated once and taken out of
// the times, so cheap layers crossed by many spans are not inflated.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/swf/job_source.hpp"
#include "harness.hpp"
#include "sched/scheduler.hpp"
#include "sim/observer.hpp"

namespace pjsb::sched {
class BackfillBase;
}  // namespace pjsb::sched

namespace perfbench {

enum class Layer : int {
  kParse,   ///< swf: reading and parsing records
  kSetup,   ///< sim: engine and scheduler construction
  kAdmit,   ///< sim: Engine::load_trace / set_job_source
  kStep,    ///< sim: Engine::step
  kUpkeep,  ///< sched: on_submit / on_job_end / on_job_killed and the
            ///< outage and reservation callbacks
  kPass,    ///< sched: schedule()
  kStart,   ///< sim: start_job (allocation + start bookkeeping)
  kReport,  ///< metrics: observer callbacks and compute_report
  kDigest,  ///< the benchmark's own decision digest observer
  kCount,
};

/// What one span costs the tracer itself, measured once per process by
/// timing empty spans nested in a parent.
struct SpanCost {
  double inside = 0.0;   ///< an empty span's own measured duration
  double outside = 0.0;  ///< what one child adds to its parent's self time
};

class Tracer {
 public:
  /// A tracer that takes `cost` out of every span it records.
  explicit Tracer(SpanCost cost = span_cost()) : cost_(cost) {}

  void enter(Layer layer) {
    stack_.push_back({layer, Clock::now(), 0.0, 0, 0});
  }
  void leave();

  /// Self and total times, with the calibrated span cost taken out.
  double self(Layer layer) const { return self_[index(layer)]; }
  double total(Layer layer) const { return total_[index(layer)]; }
  std::int64_t calls(Layer layer) const { return calls_[index(layer)]; }
  /// Sum of every layer's self time: the traced wall time the spans
  /// account for, apart from their own cost.
  double attributed() const;
  /// The span cost taken out of the self times, summed over all spans.
  double overhead() const;

  /// The calibrated cost of one span on this machine, measured on first
  /// use.
  static SpanCost span_cost();

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child;            ///< measured duration of the direct children
    std::int64_t children;   ///< direct children
    std::int64_t nested;     ///< spans nested at any depth
  };
  static std::size_t index(Layer layer) { return std::size_t(layer); }

  SpanCost cost_;
  std::vector<Frame> stack_;
  std::array<double, std::size_t(Layer::kCount)> self_{};
  std::array<double, std::size_t(Layer::kCount)> total_{};
  std::array<std::int64_t, std::size_t(Layer::kCount)> calls_{};
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer.enter(layer); }
  ~Span() { tracer_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// A multiplicative hash over every field of every decision, provenance
/// included, so a wrapper that drops annotate_start changes the digest.
/// Given a tracer, it times its own work as Layer::kDigest.
class DigestObserver final : public pjsb::sim::SimObserver {
 public:
  explicit DigestObserver(Tracer* tracer = nullptr) : tracer_(tracer) {}
  void on_decision(const pjsb::sim::Decision& decision) override;
  std::uint64_t value() const { return hash_; }
  std::int64_t decisions() const { return decisions_; }

 private:
  void mix(std::int64_t v);
  void mix(const pjsb::sim::Decision& decision);
  Tracer* tracer_;
  std::uint64_t hash_ = 1469598103934665603ULL;
  std::int64_t decisions_ = 0;
};

/// swf::JobSource wrapper: times every pull as parse work.
class TimedSource final : public pjsb::swf::JobSource {
 public:
  TimedSource(pjsb::swf::JobSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<pjsb::swf::JobRecord> next() override;
  const pjsb::swf::TraceHeader& header() const override {
    return inner_.header();
  }
  std::string label() const override { return inner_.label(); }

  std::int64_t records() const { return records_; }

 private:
  pjsb::swf::JobSource& inner_;
  Tracer& tracer_;
  std::int64_t records_ = 0;
};

/// sim::SimObserver wrapper: times every callback under one layer.
class TimedObserver final : public pjsb::sim::SimObserver {
 public:
  TimedObserver(pjsb::sim::SimObserver& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  void on_job_complete(const pjsb::sim::CompletedJob& job) override;
  void on_decision(const pjsb::sim::Decision& decision) override;
  void on_outage(const pjsb::outage::OutageRecord& rec,
                 pjsb::sim::OutagePhase phase) override;
  void on_end(const pjsb::sim::EngineStats& stats) override;
  void on_job_submit(std::int64_t time,
                     const pjsb::sim::SimJob& job) override;
  void on_job_kill(std::int64_t time, const pjsb::sim::SimJob& job,
                   const pjsb::sim::KillInfo& info) override;
  void on_job_restore(std::int64_t time, const pjsb::sim::SimJob& job,
                      std::int64_t resumed_work) override;
  void on_job_drop(std::int64_t time, const pjsb::sim::SimJob& job,
                   pjsb::sim::DropReason reason) override;
  void on_step(const pjsb::sim::StepSnapshot& snapshot) override;

 private:
  pjsb::sim::SimObserver& inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// sched::SchedulerContext wrapper around the engine: times start_job
/// and forwards everything else, annotate_start included.
class TimedContext final : public pjsb::sched::SchedulerContext {
 public:
  explicit TimedContext(Tracer& tracer) : tracer_(tracer) {}
  void bind(pjsb::sched::SchedulerContext& inner) { inner_ = &inner; }

  std::int64_t now() const override { return inner_->now(); }
  pjsb::sim::Machine& machine() override { return inner_->machine(); }
  const pjsb::sim::SimJob& job(std::int64_t id) const override {
    return inner_->job(id);
  }
  bool start_job(std::int64_t job_id) override;
  void start_job_virtual(std::int64_t job_id,
                         std::int64_t end_time) override;
  void update_job_end(std::int64_t job_id, std::int64_t new_end) override {
    inner_->update_job_end(job_id, new_end);
  }
  void kill_running_job(std::int64_t job_id) override {
    inner_->kill_running_job(job_id);
  }
  void annotate_start(pjsb::sim::StartProvenance provenance,
                      std::int64_t detail) override {
    inner_->annotate_start(provenance, detail);
  }

  std::int64_t starts() const { return starts_; }

 private:
  Tracer& tracer_;
  pjsb::sched::SchedulerContext* inner_ = nullptr;
  std::int64_t starts_ = 0;
};

/// sched::Scheduler wrapper around a registry scheduler: times the
/// pass and the upkeep callbacks, hands the inner scheduler a
/// TimedContext, and samples the backfilling profile after each pass.
class TimedScheduler final : public pjsb::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<pjsb::sched::Scheduler> inner,
                 Tracer& tracer);

  std::string name() const override { return inner_->name(); }
  void on_attach(pjsb::sched::SchedulerContext& ctx) override;
  void on_submit(pjsb::sched::SchedulerContext& ctx,
                 std::int64_t job_id) override;
  void on_job_end(pjsb::sched::SchedulerContext& ctx,
                  std::int64_t job_id) override;
  void on_job_killed(pjsb::sched::SchedulerContext& ctx,
                     std::int64_t job_id) override;
  void on_outage_announce(pjsb::sched::SchedulerContext& ctx,
                          const pjsb::outage::OutageRecord& rec) override;
  void on_outage_start(pjsb::sched::SchedulerContext& ctx,
                       const pjsb::outage::OutageRecord& rec) override;
  void on_outage_end(pjsb::sched::SchedulerContext& ctx,
                     const pjsb::outage::OutageRecord& rec) override;
  bool try_reserve(pjsb::sched::SchedulerContext& ctx,
                   const pjsb::sched::AdvanceReservation& reservation) override;
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs,
      std::int64_t estimate) const override {
    return inner_->predict_start(now, procs, estimate);
  }
  void schedule(pjsb::sched::SchedulerContext& ctx) override;
  void save_state(pjsb::sim::snapshot::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(pjsb::sim::snapshot::Reader& r) override {
    inner_->load_state(r);
  }

  std::int64_t starts() const { return ctx_.starts(); }
  std::int64_t productive_passes() const { return productive_passes_; }
  std::int64_t profile_steps_max() const { return profile_steps_max_; }

 private:
  pjsb::sched::SchedulerContext& wrap(pjsb::sched::SchedulerContext& ctx);

  std::unique_ptr<pjsb::sched::Scheduler> inner_;
  Tracer& tracer_;
  TimedContext ctx_;
  /// The inner scheduler as a backfilling policy, or nullptr.
  const pjsb::sched::BackfillBase* backfill_;
  std::int64_t productive_passes_ = 0;
  std::int64_t profile_steps_max_ = 0;
};

}  // namespace perfbench
