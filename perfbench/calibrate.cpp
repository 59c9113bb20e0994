// Host-speed reference for the benchmark: one sort of a fixed 8 MiB array
// of doubles, a program that does not link the library, so no change to
// the program can move it. Prints the wall time of the sort in seconds.
// run.py runs it between harness instances and scales each instance's
// timings by the reference time around it, which takes out the shared
// host's slow phases (NOTES.md, "Noise").
//
// Usage: perfbench_calibrate
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

int main() {
  constexpr std::size_t kValues = 1000000;
  std::uint64_t state = 88172645463325252ULL;  // xorshift64, fixed seed
  std::vector<double> values(kValues);
  for (double& value : values) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    value = static_cast<double>(state >> 11);
  }
  // Only the sort is timed: filling the array pays the page faults.
  const auto start = std::chrono::steady_clock::now();
  std::sort(values.begin(), values.end());
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  // Printing an element keeps the sort from being optimized away.
  std::printf("%.9f %.17g\n", wall.count(), values[kValues / 2]);
  return 0;
}
