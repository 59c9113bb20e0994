// Minimal command-line flag parser for the examples and bench binaries.
// Supports --name=value, --name value, and boolean --flag forms.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gridsched::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   std::string fallback) const;
  [[nodiscard]] double get_or(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_or(const std::string& name,
                                    std::int64_t fallback) const;
  /// true/1/yes/on or false/0/no/off; any other value throws
  /// std::invalid_argument naming the flag, as the number parsers do.
  [[nodiscard]] bool get_or(const std::string& name, bool fallback) const;

  /// Enumerated flag: returns the value (or `fallback` when absent) after
  /// validating it against `choices`; throws std::invalid_argument listing
  /// the valid choices otherwise. Used for registry-backed flags such as
  /// --scenario and --algo.
  [[nodiscard]] std::string get_choice(
      const std::string& name, std::string fallback,
      std::span<const std::string> choices) const;

  /// Throws std::invalid_argument naming a given flag `known` does not
  /// list, and listing `known`: a typo or --help is refused, not ignored.
  void require_known(std::span<const std::string> known) const;

  /// Non-flag arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace gridsched::util
