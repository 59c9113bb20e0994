// The one way the program writes an artifact to disk.
#pragma once

#include <string>
#include <string_view>

namespace gridsched::util {

/// Writes `text` to `path` (created or truncated). Throws
/// std::runtime_error naming the path when the file cannot be opened,
/// written or closed — closing flushes the stdio buffer, so a full disk
/// often shows only there.
void write_file(const std::string& path, std::string_view text);

}  // namespace gridsched::util
