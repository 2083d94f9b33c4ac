// Binary codec for simulation snapshots.
//
// A deliberately tiny, dependency-free serialization layer: fixed-width
// little-endian integers, bit-cast doubles (so floating-point scheduler
// state round-trips bit-exactly), and length-prefixed strings. Both
// sides agree on field order by construction — the format carries no
// self-description beyond the snapshot header's magic + version
// (snapshot.hpp), which is what gates compatibility.
//
// Each fixed-width value moves as one word: the Writer appends its
// little-endian bytes in one call, the Reader checks the bytes left
// once and loads them in one copy (both inline). A big-endian host
// swaps bytes on the way, so every host writes and reads the same
// bytes.
//
// The Reader throws std::runtime_error on truncation or overrun, never
// reads past its buffer, bounds every entry count by the bytes left
// (count()) and every time by its bound (time()), and exposes
// expect_done() so loaders can reject trailing garbage.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace pjsb::sim::snapshot {

namespace detail {

/// `v` with its bytes in little-endian order (a no-op on little-endian
/// hosts; C++20 has no std::byteswap).
template <typename T>
constexpr T little_endian(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      swapped = T((swapped << 8) | (v & 0xff));
      v = T(v >> 8);
    }
    return swapped;
  }
}

[[noreturn, gnu::cold]] void throw_truncated();
[[noreturn, gnu::cold]] void throw_malformed_boolean();
[[noreturn, gnu::cold]] void throw_above_time_bound(const char* field,
                                                    std::int64_t value,
                                                    std::int64_t bound);

}  // namespace detail

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(char(v)); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(std::bit_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void put(T v) {
    const T le = detail::little_endian(v);
    out_.append(reinterpret_cast<const char*>(&le), sizeof le);
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data)
      : data_(data), pos_(0) {}

  std::uint8_t u8() {
    need(1);
    return std::uint8_t(data_[pos_++]);
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) detail::throw_malformed_boolean();
    return v != 0;
  }
  std::string str();

  /// A time at most `bound`: a larger one throws `snapshot: <field>
  /// <value> is above the time bound <bound> s`. Negative values (the
  /// -1 of a job that never started) pass.
  std::int64_t time(const char* field, std::int64_t bound) {
    const std::int64_t v = i64();
    if (v > bound) detail::throw_above_time_bound(field, v, bound);
    return v;
  }

  /// An entry count that the bytes left can hold: each entry encodes
  /// to at least `min_entry_bytes`, so a larger count throws a
  /// `snapshot: <section> count ...` error before the caller sizes
  /// anything from it. O(1).
  std::size_t count(const char* section, std::size_t min_entry_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws std::runtime_error if bytes remain unread.
  void expect_done() const;

 private:
  void need(std::size_t n) const {
    if (remaining() < n) detail::throw_truncated();
  }

  template <typename T>
  T get() {
    need(sizeof(T));
    T v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return detail::little_endian(v);
  }

  std::string_view data_;
  std::size_t pos_;
};

}  // namespace pjsb::sim::snapshot
