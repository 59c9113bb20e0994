// Geometric capacity growth for buffers refilled to a high-water mark.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace gridsched::util {

/// Make room for `n` elements in `buffer`, at least doubling its capacity
/// when it has to grow. std::vector::reserve, assign and a resize after a
/// clear allocate exactly what they need, so a buffer refilled every cycle
/// to a slowly rising high-water would reallocate at each new high-water;
/// through this it reallocates once per doubling of it.
template <typename T>
void reserve_geometric(std::vector<T>& buffer, std::size_t n) {
  if (n > buffer.capacity()) {
    buffer.reserve(std::max(n, 2 * buffer.capacity()));
  }
}

}  // namespace gridsched::util
