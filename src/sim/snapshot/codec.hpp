// Binary codec for simulation snapshots.
//
// A deliberately tiny, dependency-free serialization layer: fixed-width
// little-endian integers, bit-cast doubles (so floating-point scheduler
// state round-trips bit-exactly), and length-prefixed strings. Both
// sides agree on field order by construction — the format carries no
// self-description beyond the snapshot header's magic + version
// (snapshot.hpp), which is what gates compatibility.
//
// The Reader throws std::runtime_error on truncation or overrun, never
// reads past its buffer, bounds every entry count by the bytes left
// (count()), and exposes expect_done() so loaders can reject trailing
// garbage.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pjsb::sim::snapshot {

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(char(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data)
      : data_(data), pos_(0) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();

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
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_;
};

}  // namespace pjsb::sim::snapshot
