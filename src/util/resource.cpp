#include "util/resource.hpp"

#include <cstdint>

#include <sys/resource.h>
#ifdef __linux__
#include <sys/mman.h>
#endif

namespace pjsb::util {

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

void prefault(void* data, std::size_t bytes) {
#ifdef __linux__
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kMinBytes = std::size_t(8) << 20;
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t aligned = (addr + kPage - 1) & ~(kPage - 1);
  const std::size_t skipped = std::size_t(aligned - addr);
  if (bytes < kMinBytes + skipped) return;
  void* base = reinterpret_cast<void*>(aligned);
  const std::size_t len = bytes - skipped;
#ifdef MADV_HUGEPAGE
  ::madvise(base, len, MADV_HUGEPAGE);
#endif
#ifdef MADV_POPULATE_WRITE
  ::madvise(base, len, MADV_POPULATE_WRITE);
#endif
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace pjsb::util
