#include "util/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace gridsched::util {

void write_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("cannot create " + path + ": " +
                             std::strerror(errno));
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const int write_error = errno;
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    throw std::runtime_error("cannot write " + path + ": " +
                             std::strerror(written ? errno : write_error));
  }
}

}  // namespace gridsched::util
