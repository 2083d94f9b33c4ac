#include "sim/machine.hpp"

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

std::optional<std::vector<std::int64_t>> Machine::allocate(
    std::int64_t job_id, std::int64_t count) {
  if (count <= 0) throw std::invalid_argument("allocate: count must be > 0");
  if (count > free_) return std::nullopt;
  std::vector<std::int64_t> nodes;
  nodes.reserve(std::size_t(count));
  std::int64_t wanted = count;
  for (std::size_t w = 0; wanted > 0; ++w) {
    std::uint64_t& word = free_bits_[w];
    for (; word != 0 && wanted > 0; --wanted) {
      const std::size_t node = (w << 6) | std::size_t(std::countr_zero(word));
      word &= word - 1;  // clear the lowest set bit
      owner_[node] = job_id;
      nodes.push_back(std::int64_t(node));
    }
  }
  free_ -= count;
  return nodes;
}

void Machine::release(std::int64_t job_id,
                      std::span<const std::int64_t> nodes) {
  for (std::int64_t n : nodes) {
    auto& o = owner_.at(std::size_t(n));
    if (o == kDown) continue;  // node failed while the job ran
    if (o != job_id) {
      throw std::logic_error("release: node not owned by job");
    }
    o = kFree;
    ++free_;
    flip_free(n);
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
