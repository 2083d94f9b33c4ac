// The engine's event queue, in two parts under one total order.
//
// Events pop in ascending (time, type, seq) order; seq is unique, so the
// order is total and any correct queue pops the same sequence. Records
// admitted from a job source arrive in submit order, so their submit
// events wait in a FIFO run (a ring buffer) instead of a heap; every
// other event, and any arrival that would break the run's order (a
// clamped straggler, say), goes to a binary heap that stays about as
// small as the running set. top() and pop() take the smaller of the two
// fronts. A whole-trace load therefore costs O(1) per submit instead of
// a heap of every future submit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace pjsb::sim {

enum class EventType : int {
  // Order within a timestamp (smaller runs first).
  kJobEnd = 0,
  kOutageEnd = 1,
  kReservationEnd = 2,
  kOutageStart = 3,
  kOutageAnnounce = 4,
  kSubmit = 5,
  // After submits, so a reservation-attached job submitted at the
  // reservation start time is already queued when the window opens.
  kReservationStart = 6,
};

struct Event {
  std::int64_t time = 0;
  EventType type = EventType::kSubmit;
  std::int64_t seq = 0;    ///< FIFO tie-break
  std::int64_t id = 0;     ///< job id / outage index / reservation id
  /// kJobEnd: revision counter (stale end events are ignored).
  /// kSubmit: 1 if the job was admitted from the attached source and
  /// counts against the engine's lookahead gauge; 0 for external
  /// submit_job injections and backoff resubmits, which must not drain
  /// the gauge.
  std::int64_t version = 0;

  bool operator==(const Event&) const = default;
};

/// True when `a` pops before `b`.
inline bool pops_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.type != b.type) return int(a.type) < int(b.type);
  return a.seq < b.seq;
}

class EventQueue {
 public:
  bool empty() const { return arrivals_ == 0 && heap_.empty(); }
  std::size_t size() const { return arrivals_ + heap_.size(); }

  /// The event that pops next. The queue must not be empty.
  const Event& top() const {
    return from_run() ? ring_[head_] : heap_.front();
  }

  /// Remove and return the event that pops next. The queue must not be
  /// empty.
  Event pop() {
    if (from_run()) {
      const Event ev = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --arrivals_;
      return ev;
    }
    std::pop_heap(heap_.begin(), heap_.end(), pops_after);
    const Event ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  /// Queue any event.
  void push(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), pops_after);
  }

  /// Queue a source arrival: it joins the FIFO run when it pops after
  /// the run's last event, and the heap otherwise.
  void push_arrival(const Event& ev) {
    if (arrivals_ != 0 && pops_before(ev, back())) {
      push(ev);
      return;
    }
    if (arrivals_ == ring_.size()) reserve_arrivals(1);
    ring_[(head_ + arrivals_) & (ring_.size() - 1)] = ev;
    ++arrivals_;
  }

  /// Make room for `more` arrivals beyond those queued, sized once (a
  /// whole-trace load) rather than by doubling.
  void reserve_arrivals(std::size_t more) {
    if (arrivals_ + more <= ring_.size()) return;
    std::vector<Event> ring(
        std::bit_ceil(std::max<std::size_t>(arrivals_ + more, 16)));
    for (std::size_t i = 0; i < arrivals_; ++i) {
      ring[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(ring);
    head_ = 0;
  }

  /// Every queued event, in pop order (the snapshot's event section).
  std::vector<Event> in_pop_order() const {
    std::vector<Event> heap = heap_;
    std::sort(heap.begin(), heap.end(), pops_before);
    std::vector<Event> run;
    run.reserve(arrivals_);
    for (std::size_t i = 0; i < arrivals_; ++i) {
      run.push_back(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    std::vector<Event> out;
    out.reserve(size());
    std::merge(run.begin(), run.end(), heap.begin(), heap.end(),
               std::back_inserter(out), pops_before);
    return out;
  }

 private:
  static bool pops_after(const Event& a, const Event& b) {
    return pops_before(b, a);
  }
  /// True when the next event comes from the FIFO run.
  bool from_run() const {
    return arrivals_ != 0 &&
           (heap_.empty() || pops_before(ring_[head_], heap_.front()));
  }
  const Event& back() const {
    return ring_[(head_ + arrivals_ - 1) & (ring_.size() - 1)];
  }

  /// FIFO run of arrivals: a ring over a power-of-two buffer, holding
  /// arrivals_ events from head_ on, ascending in pop order.
  std::vector<Event> ring_;
  std::size_t head_ = 0;
  std::size_t arrivals_ = 0;
  /// Min-heap (under pops_after) of every other event.
  std::vector<Event> heap_;
};

}  // namespace pjsb::sim
