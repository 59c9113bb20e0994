// Shared plumbing for the bench binaries: flag parsing, the banner and the
// BENCH_*.json rendering helpers (one ordered-key writer instead of
// per-binary fprintf blocks). Every binary runs with no arguments; flags
// let you scale the experiment (--reps, --seed, --f, --quick, ...). The
// paper's tables and figures are campaign specs, not binaries: see
// examples/campaigns/paper/.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gridsched.hpp"

namespace gridsched::bench {

struct BenchArgs {
  std::size_t reps = 1;  // the paper reports single-trace runs; raise for CIs
  std::uint64_t seed = 20050419;  // IPDPS 2005 vintage
  double f = 0.5;                 // paper's chosen risk bound
  bool quick = false;             // shrink everything for CI-style runs
};

/// Parse the shared flags. `known` lists every flag the binary reads,
/// shared ones included; any other flag (--help too) prints the known
/// flags on stderr and exits 1 before the binary runs or writes anything.
inline BenchArgs parse_args(int argc, char** argv,
                            const std::vector<std::string>& known) {
  const util::Cli cli(argc, argv);
  try {
    cli.require_known(known);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(1);
  }
  BenchArgs args;
  args.reps = static_cast<std::size_t>(
      cli.get_or("reps", static_cast<std::int64_t>(args.reps)));
  args.seed = static_cast<std::uint64_t>(
      cli.get_or("seed", static_cast<std::int64_t>(args.seed)));
  args.f = cli.get_or("f", args.f);
  args.quick = cli.get_or("quick", false);
  if (args.quick) args.reps = 1;
  return args;
}

inline void print_banner(const std::string& id, const std::string& claim) {
  std::printf("============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Paper expectation: %s\n", claim.c_str());
  std::printf("============================================================\n");
}

/// Ordered single-line JSON object builder for BENCH_*.json rows and
/// sections: keys render in insertion order, doubles via
/// util::json::number (shortest-exact), strings RFC-8259-quoted. The
/// bytes are a pure function of the values fed in — the deterministic
/// fields of a bench artifact stay diffable across runs.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    return raw(key, util::json::number(value));
  }
  /// Measured (timing) values: rounded to `decimals` so artifacts don't
  /// carry 15 digits of timer noise. Deterministic fields use num().
  JsonObject& num(std::string_view key, double value, int decimals) {
    const double scale = std::pow(10.0, decimals);
    return num(key, std::round(value * scale) / scale);
  }
  JsonObject& integer(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& text(std::string_view key, std::string_view value) {
    return raw(key, util::json::quote(value));
  }
  /// Pre-rendered JSON (nested object/array) — caller guarantees syntax.
  JsonObject& raw(std::string_view key, std::string value) {
    fields_.emplace_back(std::string(key), std::move(value));
    return *this;
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += util::json::quote(fields_[i].first);
      out += ": ";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

  /// Top-level document form: one field per line, trailing newline.
  [[nodiscard]] std::string document() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += "  ";
      out += util::json::quote(fields_[i].first);
      out += ": ";
      out += fields_[i].second;
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Render pre-built JSON items as a multi-line array block ("[\n  x,\n
/// ...\n]") so row lists stay readable in committed artifacts.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += items[i];
  }
  out += items.empty() ? "]" : "\n]";
  return out;
}

/// Peak resident set size in MiB — the footer figure bench_decode and
/// bench_kernel both print.
inline double peak_rss_mib() {
  return static_cast<double>(obs::peak_rss_bytes()) / 1048576.0;
}

}  // namespace gridsched::bench
