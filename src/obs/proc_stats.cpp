#include "obs/proc_stats.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <cinttypes>
#include <cstdio>
#endif

namespace gridsched::obs {

#if defined(__linux__)
namespace {

/// VmHWM ("high water mark") of /proc/self/status in bytes; 0 when the
/// file or the field is unreadable.
std::uint64_t vm_hwm_bytes() noexcept {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  std::uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib * 1024u;
}

}  // namespace
#endif

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__linux__)
  // getrusage's ru_maxrss keeps, on Linux, the resident set the process
  // had before execve — a large forking parent's — so read the new
  // image's own high-water mark first.
  if (const std::uint64_t hwm = vm_hwm_bytes(); hwm != 0) return hwm;
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

std::uint64_t current_rss_bytes() noexcept {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  const int fields = std::fscanf(statm, "%" SCNu64 " %" SCNu64, &total_pages,
                                 &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return resident_pages * static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace gridsched::obs
