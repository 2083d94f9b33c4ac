#include "layers.hpp"

#include "sched/backfill.hpp"

namespace perfbench {

namespace sched = pjsb::sched;
namespace sim = pjsb::sim;

void Tracer::leave() {
  const auto end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = seconds_between(frame.start, end);
  const std::size_t i = index(frame.layer);
  // Each span measures its own `inside`, and each direct child adds its
  // `outside` to this span's self time; a nested span adds both to the
  // total.
  total_[i] += duration - cost_.inside -
               double(frame.nested) * (cost_.inside + cost_.outside);
  self_[i] += duration - frame.child - cost_.inside -
              double(frame.children) * cost_.outside;
  ++calls_[i];
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child += duration;
    ++parent.children;
    parent.nested += frame.nested + 1;
  }
}

double Tracer::attributed() const {
  double sum = 0.0;
  for (const double s : self_) sum += s;
  return sum;
}

double Tracer::overhead() const {
  std::int64_t spans = 0;
  for (const std::int64_t c : calls_) spans += c;
  return double(spans) * (cost_.inside + cost_.outside);
}

SpanCost Tracer::span_cost() {
  static const SpanCost cost = [] {
    constexpr int kBatches = 15;
    constexpr int kSpans = 20000;
    std::vector<double> inside;
    std::vector<double> outside;
    for (int b = 0; b < kBatches; ++b) {
      Tracer raw(SpanCost{});
      {
        const Span parent(raw, Layer::kStep);
        for (int i = 0; i < kSpans; ++i) {
          const Span child(raw, Layer::kParse);
        }
      }
      inside.push_back(raw.self(Layer::kParse) / kSpans);
      outside.push_back(raw.self(Layer::kStep) / kSpans);
    }
    return SpanCost{median(inside), median(outside)};
  }();
  return cost;
}

void DigestObserver::mix(std::int64_t v) {
  hash_ = (hash_ ^ std::uint64_t(v)) * 1099511628211ULL;
  hash_ ^= hash_ >> 29;
}

void DigestObserver::mix(const sim::Decision& decision) {
  mix(decision.time);
  mix(decision.job_id);
  mix(decision.procs);
  mix(decision.virtual_start ? 1 : 0);
  mix(std::int64_t(decision.provenance));
  mix(decision.reserved_start);
  ++decisions_;
}

void DigestObserver::on_decision(const sim::Decision& decision) {
  if (tracer_ == nullptr) {
    mix(decision);
    return;
  }
  const Span span(*tracer_, Layer::kDigest);
  mix(decision);
}

std::optional<pjsb::swf::JobRecord> TimedSource::next() {
  const Span span(tracer_, Layer::kParse);
  auto record = inner_.next();
  if (record) ++records_;
  return record;
}

void TimedObserver::on_job_complete(const sim::CompletedJob& job) {
  const Span span(tracer_, layer_);
  inner_.on_job_complete(job);
}

void TimedObserver::on_decision(const sim::Decision& decision) {
  const Span span(tracer_, layer_);
  inner_.on_decision(decision);
}

void TimedObserver::on_outage(const pjsb::outage::OutageRecord& rec,
                              sim::OutagePhase phase) {
  const Span span(tracer_, layer_);
  inner_.on_outage(rec, phase);
}

void TimedObserver::on_end(const sim::EngineStats& stats) {
  const Span span(tracer_, layer_);
  inner_.on_end(stats);
}

void TimedObserver::on_job_submit(std::int64_t time, const sim::SimJob& job) {
  const Span span(tracer_, layer_);
  inner_.on_job_submit(time, job);
}

void TimedObserver::on_job_kill(std::int64_t time, const sim::SimJob& job,
                                const sim::KillInfo& info) {
  const Span span(tracer_, layer_);
  inner_.on_job_kill(time, job, info);
}

void TimedObserver::on_job_restore(std::int64_t time, const sim::SimJob& job,
                                   std::int64_t resumed_work) {
  const Span span(tracer_, layer_);
  inner_.on_job_restore(time, job, resumed_work);
}

void TimedObserver::on_job_drop(std::int64_t time, const sim::SimJob& job,
                                sim::DropReason reason) {
  const Span span(tracer_, layer_);
  inner_.on_job_drop(time, job, reason);
}

void TimedObserver::on_step(const sim::StepSnapshot& snapshot) {
  const Span span(tracer_, layer_);
  inner_.on_step(snapshot);
}

bool TimedContext::start_job(std::int64_t job_id) {
  const Span span(tracer_, Layer::kStart);
  const bool started = inner_->start_job(job_id);
  if (started) ++starts_;
  return started;
}

void TimedContext::start_job_virtual(std::int64_t job_id,
                                     std::int64_t end_time) {
  const Span span(tracer_, Layer::kStart);
  inner_->start_job_virtual(job_id, end_time);
  ++starts_;
}

TimedScheduler::TimedScheduler(std::unique_ptr<sched::Scheduler> inner,
                               Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      ctx_(tracer),
      backfill_(dynamic_cast<const sched::BackfillBase*>(inner_.get())) {}

sched::SchedulerContext& TimedScheduler::wrap(sched::SchedulerContext& ctx) {
  ctx_.bind(ctx);
  return ctx_;
}

void TimedScheduler::on_attach(sched::SchedulerContext& ctx) {
  inner_->on_attach(wrap(ctx));
}

void TimedScheduler::on_submit(sched::SchedulerContext& ctx,
                               std::int64_t job_id) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_submit(wrap(ctx), job_id);
}

void TimedScheduler::on_job_end(sched::SchedulerContext& ctx,
                                std::int64_t job_id) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_job_end(wrap(ctx), job_id);
}

void TimedScheduler::on_job_killed(sched::SchedulerContext& ctx,
                                   std::int64_t job_id) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_job_killed(wrap(ctx), job_id);
}

void TimedScheduler::on_outage_announce(sched::SchedulerContext& ctx,
                                        const pjsb::outage::OutageRecord& rec) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_outage_announce(wrap(ctx), rec);
}

void TimedScheduler::on_outage_start(sched::SchedulerContext& ctx,
                                     const pjsb::outage::OutageRecord& rec) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_outage_start(wrap(ctx), rec);
}

void TimedScheduler::on_outage_end(sched::SchedulerContext& ctx,
                                   const pjsb::outage::OutageRecord& rec) {
  const Span span(tracer_, Layer::kUpkeep);
  inner_->on_outage_end(wrap(ctx), rec);
}

bool TimedScheduler::try_reserve(
    sched::SchedulerContext& ctx,
    const sched::AdvanceReservation& reservation) {
  const Span span(tracer_, Layer::kUpkeep);
  return inner_->try_reserve(wrap(ctx), reservation);
}

void TimedScheduler::schedule(sched::SchedulerContext& ctx) {
  const std::int64_t before = ctx_.starts();
  {
    const Span span(tracer_, Layer::kPass);
    inner_->schedule(wrap(ctx));
  }
  if (ctx_.starts() != before) ++productive_passes_;
  if (backfill_) {
    profile_steps_max_ = std::max(
        profile_steps_max_, std::int64_t(backfill_->profile().step_count()));
  }
}

}  // namespace perfbench
