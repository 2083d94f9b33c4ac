// Read-only whole-file view: mmap for regular files, a read() loop for
// everything else (pipes, /proc files, filesystems without mmap). A
// whole-trace SWF load wants one contiguous byte span to carve into chunks;
// this type provides it without forcing callers to care how the bytes
// got into the address space.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace pjsb::util {

class MmapFile {
 public:
  MmapFile() = default;
  /// Open and map (or slurp) `path`. Check ok() before using view().
  explicit MmapFile(const std::string& path);
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  bool ok() const { return ok_; }
  /// Why the open failed; empty when ok().
  const std::string& error() const { return error_; }
  /// The file's bytes. Valid for the lifetime of this object; empty for
  /// an empty file (which is still ok()).
  std::string_view view() const { return view_; }
  /// True when view() is an mmap (vs the read() fallback buffer).
  bool mapped() const { return map_ != nullptr; }

 private:
  void reset();

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::string fallback_;
  std::string_view view_;
  bool ok_ = false;
  std::string error_;
};

}  // namespace pjsb::util
