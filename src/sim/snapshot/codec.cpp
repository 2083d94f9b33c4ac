#include "sim/snapshot/codec.hpp"

#include <stdexcept>
#include <string>

namespace pjsb::sim::snapshot {

namespace detail {

void throw_truncated() {
  throw std::runtime_error("snapshot: truncated data");
}

void throw_malformed_boolean() {
  throw std::runtime_error("snapshot: malformed boolean");
}

void throw_above_time_bound(const char* field, std::int64_t value,
                            std::int64_t bound) {
  throw std::runtime_error(std::string("snapshot: ") + field + " " +
                           std::to_string(value) +
                           " is above the time bound " +
                           std::to_string(bound) + " s");
}

}  // namespace detail

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(std::size_t(n));
  std::string s(data_.substr(pos_, std::size_t(n)));
  pos_ += std::size_t(n);
  return s;
}

std::size_t Reader::count(const char* section, std::size_t min_entry_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_entry_bytes) {
    throw std::runtime_error(std::string("snapshot: ") + section + " count " +
                             std::to_string(n) + " exceeds the " +
                             std::to_string(remaining()) + " bytes left");
  }
  return std::size_t(n);
}

void Reader::expect_done() const {
  if (!done()) {
    throw std::runtime_error("snapshot: trailing bytes after payload");
  }
}

}  // namespace pjsb::sim::snapshot
