// Process resource introspection and memory hints shared by the tools,
// benches and the large-buffer hot paths.
#pragma once

#include <cstddef>

namespace pjsb::util {

/// Peak resident set size of this process in MB. Linux semantics:
/// getrusage's ru_maxrss is kilobytes and monotone over the process
/// lifetime — measure phases in separate (child) processes when their
/// individual peaks matter (see bench/bench_swf.cpp).
double peak_rss_mb();

/// Prepare a freshly reserved buffer of at least 8 MB for bulk writes
/// (smaller ones are left alone). Demand-faulted 4 KB pages put one
/// page-fault trap per page on the critical path: a 1M-job parse
/// materializes ~144 MB of records, ~35k traps and a third of the parse
/// time. MADV_HUGEPAGE asks for 2 MB pages where THP is available;
/// MADV_POPULATE_WRITE (Linux 5.14+) prefaults the whole range in one
/// syscall either way. Both are advisory — on kernels without them the
/// buffer is merely demand-faulted, not wrong.
void prefault(void* data, std::size_t bytes);

}  // namespace pjsb::util
