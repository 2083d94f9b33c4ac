#include "sim/snapshot/codec.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace pjsb::sim::snapshot {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(char((v >> (8 * i)) & 0xff));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(char((v >> (8 * i)) & 0xff));
  }
}

void Writer::i64(std::int64_t v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s.data(), s.size());
}

void Reader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw std::runtime_error("snapshot: truncated data");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return std::uint8_t(data_[pos_++]);
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t(std::uint8_t(data_[pos_ + std::size_t(i)]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t(std::uint8_t(data_[pos_ + std::size_t(i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return std::bit_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw std::runtime_error("snapshot: malformed boolean");
  return v != 0;
}

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
