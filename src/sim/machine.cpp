#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "sim/snapshot/codec.hpp"

namespace pjsb::sim {

Machine::Machine(std::int64_t total_nodes) {
  if (total_nodes < 1 || total_nodes > kMaxSpecNodes) {
    throw std::invalid_argument(
        "Machine: node count " + std::to_string(total_nodes) +
        " outside [1, " + std::to_string(kMaxSpecNodes) + "]");
  }
  owner_.assign(std::size_t(total_nodes), kFree);
  rebuild_free_set();
}

void Machine::rebuild_free_set() {
  free_bits_.assign((owner_.size() + 63) / 64, 0);
  free_ = 0;
  down_ = 0;
  for (std::size_t n = 0; n < owner_.size(); ++n) {
    if (owner_[n] == kFree) {
      flip_free(std::int64_t(n));
      ++free_;
    } else if (owner_[n] == kDown) {
      ++down_;
    }
  }
}

std::optional<std::vector<NodeRun>> Machine::allocate(std::int64_t job_id,
                                                      std::int64_t count) {
  if (count <= 0) throw std::invalid_argument("allocate: count must be > 0");
  if (count > free_) return std::nullopt;
  std::vector<NodeRun> runs;
  std::int64_t wanted = count;
  for (std::size_t w = 0; wanted > 0; ++w) {
    std::uint64_t& word = free_bits_[w];
    while (word != 0 && wanted > 0) {
      // The lowest stretch of free nodes in this word, cut to what is
      // still wanted.
      const int low = std::countr_zero(word);
      const int len = int(std::min<std::int64_t>(
          std::countr_one(word >> low), wanted));
      word &= ~bit_span(low, len);
      const std::int64_t first = std::int64_t(w << 6) + low;
      std::fill_n(owner_.begin() + first, len, job_id);
      if (!runs.empty() && runs.back().first + runs.back().count == first) {
        runs.back().count += len;  // continues across a word boundary
      } else {
        runs.push_back({first, len});
      }
      wanted -= len;
    }
  }
  free_ -= count;
  return runs;
}

void Machine::release(std::int64_t job_id, std::span<const NodeRun> runs) {
  for (const NodeRun& run : runs) {
    if (run.first < 0 || run.count < 0 ||
        run.count > total_nodes() - run.first) {
      throw std::out_of_range("release: node run outside the machine");
    }
    const auto begin = owner_.begin() + run.first;
    const auto end = begin + run.count;
    if (std::count(begin, end, job_id) == run.count) {
      // The whole run is still the job's: free it a word at a time.
      std::fill(begin, end, kFree);
      for (std::int64_t n = run.first; n < run.first + run.count;) {
        const int low = int(n & 63);
        const int len = int(std::min<std::int64_t>(64 - low,
                                                   run.first + run.count - n));
        free_bits_[std::size_t(n) >> 6] |= bit_span(low, len);
        n += len;
      }
      free_ += run.count;
      continue;
    }
    for (std::int64_t n = run.first; n < run.first + run.count; ++n) {
      auto& o = owner_[std::size_t(n)];
      if (o == kDown) continue;  // node failed while the job ran
      if (o != job_id) {
        throw std::logic_error("release: node not owned by job");
      }
      o = kFree;
      ++free_;
      flip_free(n);
    }
  }
}

std::int64_t Machine::take_down(std::int64_t node) {
  auto& o = owner_.at(std::size_t(node));
  const std::int64_t prev = o;
  if (prev == kDown) return kDown;
  if (prev == kFree) {
    --free_;
    flip_free(node);
  }
  o = kDown;
  ++down_;
  return prev;
}

void Machine::bring_up(std::int64_t node) {
  auto& o = owner_.at(std::size_t(node));
  if (o != kDown) throw std::logic_error("bring_up: node is not down");
  o = kFree;
  --down_;
  ++free_;
  flip_free(node);
}

std::int64_t Machine::owner(std::int64_t node) const {
  return owner_.at(std::size_t(node));
}

void Machine::save_state(snapshot::Writer& w) const {
  w.u64(owner_.size());
  for (std::int64_t o : owner_) w.i64(o);
}

void Machine::load_state(snapshot::Reader& r) {
  if (r.u64() != owner_.size()) {
    throw std::runtime_error("Machine::load_state: node count mismatch");
  }
  for (auto& o : owner_) {
    o = r.i64();
    if (o < kDown) {
      throw std::runtime_error("Machine::load_state: bad owner code " +
                               std::to_string(o));
    }
  }
  rebuild_free_set();
}

}  // namespace pjsb::sim
