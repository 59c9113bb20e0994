#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace gridsched::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& name, std::string fallback) const {
  const auto value = get(name);
  return value ? *value : std::move(fallback);
}

double Cli::get_or(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  // The whole value must parse, and within range: "0.5x" or "1e999" is a
  // typo, not 0.5 or HUGE_VAL.
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("Cli: flag --" + name + " is not a number: " +
                                *value);
  }
  return parsed;
}

std::int64_t Cli::get_or(const std::string& name, std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("Cli: flag --" + name + " is not an integer: " +
                                *value);
  }
  return parsed;
}

bool Cli::get_or(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  // Only the listed spellings: "--csv=ture" is a typo, not false.
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") {
    return false;
  }
  throw std::invalid_argument("Cli: flag --" + name + " is not a boolean: " +
                              *value + " (valid: true/1/yes/on, " +
                              "false/0/no/off)");
}

std::string Cli::get_choice(const std::string& name, std::string fallback,
                            std::span<const std::string> choices) const {
  const std::string value = get_or(name, std::move(fallback));
  for (const std::string& choice : choices) {
    if (value == choice) return value;
  }
  std::string message = "Cli: flag --" + name + "=" + value + " (valid:";
  for (const std::string& choice : choices) message += " " + choice;
  throw std::invalid_argument(message + ")");
}

void Cli::require_known(std::span<const std::string> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::ranges::find(known, name) != known.end()) continue;
    std::string message = "Cli: unknown flag --" + name + " (known:";
    for (const std::string& flag : known) message += " --" + flag;
    throw std::invalid_argument(message + ")");
  }
}

}  // namespace gridsched::util
