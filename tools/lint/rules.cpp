#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lexer.hpp"

namespace gridsched::lint {

namespace {

// --------------------------------------------------------------- scoping ---

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool path_contains(std::string_view path, std::string_view needle) {
  return path.find(needle) != std::string_view::npos;
}

std::string_view basename_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

// ---------------------------------------------------------- suppressions ---

/// Per-file suppression state parsed from NOLINT comments.
struct Suppressions {
  /// rule id -> suppressed lines (NOLINT: that line; NOLINTNEXTLINE: +1).
  std::map<std::string, std::set<std::size_t>> lines;
  /// rule id -> [begin, end] line ranges from NOLINTBEGIN/NOLINTEND.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      ranges;

  [[nodiscard]] bool covers(const std::string& rule,
                            std::size_t line) const {
    if (const auto it = lines.find(rule);
        it != lines.end() && it->second.count(line) != 0) {
      return true;
    }
    if (const auto it = ranges.find(rule); it != ranges.end()) {
      for (const auto& [begin, end] : it->second) {
        if (line >= begin && line <= end) return true;
      }
    }
    return false;
  }
};

/// Extract the GS rule ids listed in "NOLINT...(GS-R01, GS-R05)". Returns
/// empty when the parenthesized list names no GS rule (a clang-tidy
/// suppression, which never silences gridsched_lint).
std::vector<std::string> gs_rules_in(std::string_view list) {
  std::vector<std::string> rules;
  std::size_t pos = 0;
  while ((pos = list.find("GS-R", pos)) != std::string_view::npos) {
    std::size_t end = pos + 4;
    while (end < list.size() &&
           std::isdigit(static_cast<unsigned char>(list[end])) != 0) {
      ++end;
    }
    // A real id has digits; "GS-Rxx" in prose/docs is not a suppression.
    if (end > pos + 4) rules.emplace_back(list.substr(pos, end - pos));
    pos = end;
  }
  return rules;
}

/// Parse a file's comments for NOLINT / NOLINTNEXTLINE / NOLINTBEGIN /
/// NOLINTEND markers. Malformed GS suppressions (missing ": reason",
/// unmatched BEGIN/END) surface as GS-R00 diagnostics — suppressions are
/// part of the reviewed surface, not an escape hatch.
Suppressions parse_suppressions(const SourceFile& file,
                                const std::vector<Comment>& comments,
                                std::vector<Diagnostic>& out) {
  Suppressions sup;
  // rule -> stack of open BEGIN lines.
  std::map<std::string, std::vector<std::size_t>> open;
  for (const Comment& comment : comments) {
    const std::size_t at = comment.text.find("NOLINT");
    if (at == std::string::npos) continue;
    std::string_view rest = std::string_view(comment.text).substr(at + 6);
    enum class Form { kLine, kNextLine, kBegin, kEnd } form = Form::kLine;
    if (starts_with(rest, "NEXTLINE")) {
      form = Form::kNextLine;
      rest.remove_prefix(8);
    } else if (starts_with(rest, "BEGIN")) {
      form = Form::kBegin;
      rest.remove_prefix(5);
    } else if (starts_with(rest, "END")) {
      form = Form::kEnd;
      rest.remove_prefix(3);
    }
    if (rest.empty() || rest.front() != '(') continue;  // bare NOLINT
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) continue;
    const std::vector<std::string> rules = gs_rules_in(rest.substr(1, close));
    if (rules.empty()) continue;  // clang-tidy-only suppression
    const std::string_view after = rest.substr(close + 1);
    const bool has_reason =
        starts_with(after, ":") &&
        after.find_first_not_of(" \t", 1) != std::string_view::npos;
    if (form != Form::kEnd && !has_reason) {
      out.push_back({file.path, comment.line, "GS-R00",
                     "suppression for " + rules.front() +
                         " is missing a \": reason\" — justify it"});
      continue;
    }
    for (const std::string& rule : rules) {
      switch (form) {
        case Form::kLine:
          sup.lines[rule].insert(comment.line);
          break;
        case Form::kNextLine:
          sup.lines[rule].insert(comment.line + 1);
          break;
        case Form::kBegin:
          open[rule].push_back(comment.line);
          break;
        case Form::kEnd:
          if (open[rule].empty()) {
            out.push_back({file.path, comment.line, "GS-R00",
                           "NOLINTEND(" + rule +
                               ") without a matching NOLINTBEGIN"});
          } else {
            sup.ranges[rule].emplace_back(open[rule].back(), comment.line);
            open[rule].pop_back();
          }
          break;
      }
    }
  }
  for (const auto& [rule, begins] : open) {
    for (const std::size_t line : begins) {
      out.push_back({file.path, line, "GS-R00",
                     "NOLINTBEGIN(" + rule +
                         ") is never closed by NOLINTEND"});
    }
  }
  return sup;
}

// ---------------------------------------------------------- lexed files ----

struct LintFile {
  const SourceFile* src = nullptr;
  TokenStream stream;
  Suppressions sup;
};

const std::vector<Token>& toks(const LintFile& f) { return f.stream.tokens; }

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

void diag(std::vector<Diagnostic>& out, const LintFile& f, std::size_t line,
          std::string rule, std::string message) {
  out.push_back({f.src->path, line, std::move(rule), std::move(message)});
}

// ------------------------------------------------------------------ rules --

/// GS-R01 — no allocating calls inside GS-FASTPATH regions. The decode
/// fast path and the GA's duplicate-memo probe (ROADMAP "Decode fast-path
/// invariants") must stay heap-free in steady state: no stable_sort /
/// inplace_merge (both allocate temporaries), no std::vector construction,
/// no node-based std::unordered_map, no new.
void rule_r01(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  for (const LintFile& f : files) {
    std::vector<std::pair<std::size_t, std::size_t>> regions;
    std::size_t open_line = 0;
    bool open = false;
    for (const Comment& comment : f.stream.comments) {
      if (comment.text.find("GS-FASTPATH-BEGIN") != std::string::npos) {
        if (open) {
          diag(out, f, comment.line, "GS-R01",
               "nested GS-FASTPATH-BEGIN (previous at line " +
                   std::to_string(open_line) + ")");
        }
        open = true;
        open_line = comment.line;
      } else if (comment.text.find("GS-FASTPATH-END") != std::string::npos) {
        if (!open) {
          diag(out, f, comment.line, "GS-R01",
               "GS-FASTPATH-END without a matching BEGIN");
          continue;
        }
        regions.emplace_back(open_line, comment.line);
        open = false;
      }
    }
    if (open) {
      diag(out, f, open_line, "GS-R01",
           "GS-FASTPATH-BEGIN is never closed");
    }
    if (f.src->path == "src/core/ga_problem.cpp" && regions.empty()) {
      diag(out, f, 1, "GS-R01",
           "the decode fast path must be fenced with GS-FASTPATH-BEGIN/"
           "END markers (ROADMAP: zero steady-state allocations)");
    }
    if (regions.empty()) continue;
    const auto in_region = [&](std::size_t line) {
      for (const auto& [begin, end] : regions) {
        if (line >= begin && line <= end) return true;
      }
      return false;
    };
    for (const Token& t : toks(f)) {
      if (t.kind != TokenKind::kIdentifier || !in_region(t.line)) continue;
      if (t.text == "stable_sort" || t.text == "inplace_merge" ||
          t.text == "new" || t.text == "vector" ||
          t.text == "unordered_map" || t.text == "make_shared" ||
          t.text == "make_unique") {
        diag(out, f, t.line, "GS-R01",
             "allocating call \"" + t.text +
                 "\" in the decode fast-path region — per-decode state "
                 "belongs in the DecodeScratch arena");
      }
    }
  }
}

/// GS-R02 — no wall-clock sources in byte-stable artifact renderers
/// (campaign sinks, campaign journal, trace writer) or in the streaming
/// aggregation they read (the retirement accumulator and the job-stream
/// cursors feed the metric sums; a clock there would make the same run
/// render different bytes and break the golden digests). Host time may
/// only reach the --profile sidecar (ROADMAP "Observability invariants").
void rule_r02(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  for (const LintFile& f : files) {
    const std::string_view path = f.src->path;
    if (!path_contains(path, "campaign_sinks") &&
        !path_contains(path, "campaign_journal") &&
        !path_contains(path, "trace_event") &&
        !path_contains(path, "timeseries") &&
        !path_contains(path, "benchgate") &&
        !path_contains(path, "retirement") &&
        !path_contains(path, "workload/stream") &&
        !path_contains(path, "stream_gen")) {
      continue;
    }
    const auto& tokens = toks(f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool clock_type = t.text == "system_clock" ||
                              t.text == "steady_clock" ||
                              t.text == "high_resolution_clock" ||
                              t.text == "getrusage";
      const bool call_like = (t.text == "time" || t.text == "clock") &&
                             i + 1 < tokens.size() &&
                             is_punct(tokens[i + 1], "(");
      if (clock_type || call_like) {
        diag(out, f, t.line, "GS-R02",
             "wall-clock source \"" + t.text +
                 "\" in a byte-stable artifact renderer — host time may "
                 "only flow to the profile sidecar");
      }
    }
  }
}

/// GS-R03 — schedulers must not recompute work / speed; execution times
/// resolve via SchedulerContext::exec_time / EtcMatrix(context), which are
/// raw-ETC-aware (ROADMAP "Execution-model invariant").
void rule_r03(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  for (const LintFile& f : files) {
    if (!starts_with(f.src->path, "src/sched/")) continue;
    const auto& tokens = toks(f);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!is_ident(tokens[i], "work") || !is_punct(tokens[i + 1], "/")) {
        continue;
      }
      const std::size_t limit = std::min(tokens.size(), i + 10);
      for (std::size_t j = i + 2; j < limit; ++j) {
        if (is_punct(tokens[j], ";") || is_punct(tokens[j], ",")) break;
        if (is_ident(tokens[j], "speed")) {
          diag(out, f, tokens[i].line, "GS-R03",
               "scheduler recomputes work / speed — resolve exec times "
               "via context.exec_time or sched::EtcMatrix(context)");
          break;
        }
      }
    }
  }
}

/// GS-R04 — SplitMix64 is pinned to the CRN failure draw and the RNG
/// utility; SeedMix string domains are globally unique across files.
void rule_r04(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  static constexpr std::string_view kSplitMixAllowed[] = {
      "src/util/rng.hpp",
      "src/util/rng.cpp",
      "src/sim/kernel.cpp",
  };
  struct Use {
    const LintFile* file;
    std::size_t line;
  };
  std::map<std::string, std::vector<Use>> domains;
  for (const LintFile& f : files) {
    const std::string_view path = f.src->path;
    const bool src_scope = starts_with(path, "src/");
    const bool mix_scope = src_scope || starts_with(path, "bench/") ||
                           starts_with(path, "examples/");
    const auto& tokens = toks(f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (src_scope && is_ident(tokens[i], "SplitMix64")) {
        const bool allowed =
            std::find(std::begin(kSplitMixAllowed),
                      std::end(kSplitMixAllowed),
                      path) != std::end(kSplitMixAllowed);
        if (!allowed) {
          diag(out, f, tokens[i].line, "GS-R04",
               "SplitMix64 outside util/rng and the CRN failure draw — "
               "derive streams with util::SeedMix instead");
        }
      }
      if (mix_scope && i + 2 < tokens.size() && is_ident(tokens[i], "mix") &&
          is_punct(tokens[i + 1], "(") &&
          tokens[i + 2].kind == TokenKind::kString) {
        domains[tokens[i + 2].text].push_back({&f, tokens[i + 2].line});
      }
    }
  }
  for (const auto& [domain, uses] : domains) {
    for (std::size_t i = 1; i < uses.size(); ++i) {
      // Same-file reuse is a deliberate shared stream; only a *different*
      // file reusing the literal collides subsystems.
      if (uses[i].file == uses[0].file) continue;
      diag(out, *uses[i].file, uses[i].line, "GS-R04",
           "SeedMix domain \"" + domain + "\" already claimed by " +
               uses[0].file->src->path + ":" +
               std::to_string(uses[0].line) +
               " — domain strings must be unique per subsystem");
    }
  }
}

/// GS-R05 — no ambient nondeterminism in simulation/experiment code:
/// rand/srand/random_device and chrono ::now() live only in obs/ probes
/// and the cancellation deadline (or behind a justified NOLINT). The
/// benchgate tool is held to the same bar — a regression gate that
/// consulted the clock could pass or fail the same artifacts on rerun.
/// The kernel (slot table, admission path) and the job-stream cursors sit
/// squarely in scope: every run must reproduce its pinned results (golden
/// digests, bench fingerprints), so any ambient entropy there would break
/// run-to-run bit identity.
void rule_r05(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  for (const LintFile& f : files) {
    const std::string_view path = f.src->path;
    if (!starts_with(path, "src/") &&
        !starts_with(path, "tools/benchgate/")) {
      continue;
    }
    if (starts_with(path, "src/obs/") || path == "src/util/cancel.hpp") {
      continue;
    }
    const auto& tokens = toks(f);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool call = i + 1 < tokens.size() && is_punct(tokens[i + 1], "(");
      if (t.text == "random_device" || (t.text == "srand" && call) ||
          (t.text == "rand" && call)) {
        diag(out, f, t.line, "GS-R05",
             "nondeterministic source \"" + t.text +
                 "\" — all randomness flows from the run seed via "
                 "util::Rng / util::SeedMix");
      }
      if (t.text == "now" && call && i > 0 && is_punct(tokens[i - 1], "::")) {
        diag(out, f, t.line, "GS-R05",
             "wall-clock ::now() outside obs/ — host time must never "
             "influence simulation results or byte-stable artifacts");
      }
    }
  }
}

/// A heuristically segmented function body: token index range [begin, end).
struct Body {
  std::size_t begin;
  std::size_t end;
};

/// Find top-level function bodies: a `{` whose recent backward context
/// contains a `)` before any statement terminator. Nested blocks (ifs,
/// lambdas, try) stay inside their enclosing body.
std::vector<Body> segment_bodies(const std::vector<Token>& tokens) {
  std::vector<Body> bodies;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_punct(tokens[i], "{")) continue;
    bool function_like = false;
    const std::size_t floor = i >= 12 ? i - 12 : 0;
    for (std::size_t back = i; back-- > floor;) {
      if (is_punct(tokens[back], ")")) {
        function_like = true;
        break;
      }
      if (is_punct(tokens[back], ";") || is_punct(tokens[back], "{") ||
          is_punct(tokens[back], "}") || is_punct(tokens[back], "=")) {
        break;
      }
    }
    if (!function_like) continue;
    std::size_t depth = 1;
    std::size_t j = i + 1;
    for (; j < tokens.size() && depth > 0; ++j) {
      if (is_punct(tokens[j], "{")) ++depth;
      if (is_punct(tokens[j], "}")) --depth;
    }
    bodies.push_back({i, j});
    i = j - 1;  // resume after the body
  }
  return bodies;
}

/// GS-R07 — strict spec parsing: in files that ingest JSON text, every
/// function that reads object members by key (.at("...") / .find("..."))
/// must also check_keys the object, so unknown keys throw instead of
/// silently running defaults (ROADMAP "Campaign subsystem").
void rule_r07(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  for (const LintFile& f : files) {
    if (!starts_with(f.src->path, "src/")) continue;
    bool ingests_json = false;
    for (const Token& t : toks(f)) {
      if (t.kind == TokenKind::kPreproc &&
          t.text.find("util/json.hpp") != std::string::npos) {
        ingests_json = true;
        break;
      }
    }
    if (!ingests_json) continue;
    const auto& tokens = toks(f);
    for (const Body& body : segment_bodies(tokens)) {
      std::size_t first_read = 0;
      bool reads = false;
      bool checks = false;
      for (std::size_t i = body.begin; i < body.end; ++i) {
        if (is_ident(tokens[i], "check_keys")) checks = true;
        if (i + 2 < body.end &&
            (is_ident(tokens[i], "at") || is_ident(tokens[i], "find")) &&
            is_punct(tokens[i + 1], "(") &&
            tokens[i + 2].kind == TokenKind::kString && !reads) {
          reads = true;
          first_read = tokens[i].line;
        }
      }
      if (reads && !checks) {
        diag(out, f, first_read, "GS-R07",
             "JSON object read without check_keys in this function — "
             "strict parsing: unknown keys must throw");
      }
    }
  }
}

/// GS-R08 — headers use #pragma once; a source file whose sibling header
/// exists includes it first (catches headers that don't stand alone).
void rule_r08(const std::vector<LintFile>& files,
              std::vector<Diagnostic>& out) {
  std::set<std::string_view> paths;
  for (const LintFile& f : files) paths.insert(f.src->path);
  for (const LintFile& f : files) {
    const std::string_view path = f.src->path;
    const bool scoped = starts_with(path, "src/") ||
                        starts_with(path, "tools/") ||
                        starts_with(path, "bench/");
    if (!scoped) continue;
    if (ends_with(path, ".hpp")) {
      bool pragma_once = false;
      for (const Token& t : toks(f)) {
        if (t.kind != TokenKind::kPreproc) continue;
        if (t.text.find("pragma") != std::string::npos &&
            t.text.find("once") != std::string::npos) {
          pragma_once = true;
        }
        break;  // only the first directive may precede #pragma once
      }
      if (!pragma_once) {
        diag(out, f, 1, "GS-R08",
             "header must open with #pragma once (before any #include)");
      }
    } else if (ends_with(path, ".cpp")) {
      std::string sibling(path.substr(0, path.size() - 4));
      sibling += ".hpp";
      if (paths.count(sibling) == 0) continue;
      const Token* first_include = nullptr;
      for (const Token& t : toks(f)) {
        if (t.kind == TokenKind::kPreproc &&
            t.text.find("include") != std::string::npos) {
          first_include = &t;
          break;
        }
      }
      const std::string expect(basename_of(sibling));
      if (first_include == nullptr ||
          first_include->text.find(expect) == std::string::npos) {
        diag(out, f,
             first_include == nullptr ? 1 : first_include->line, "GS-R08",
             "first #include must be the file's own header (" + expect +
                 ") so the header proves it stands alone");
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------------- interface ---

const std::vector<RuleInfo>& rule_infos() {
  static const std::vector<RuleInfo> infos = {
      {"GS-R00", "suppression hygiene: NOLINT(GS-Rxx) needs a reason; "
                 "BEGIN/END pairs must match"},
      {"GS-R01", "no allocating calls inside GS-FASTPATH decode regions"},
      {"GS-R02", "no wall-clock sources in byte-stable artifact renderers"},
      {"GS-R03", "schedulers must not recompute work / speed"},
      {"GS-R04", "SplitMix64 stays pinned; SeedMix domains unique per "
                 "subsystem"},
      {"GS-R05", "no rand/random_device/::now() outside obs/ allowlist"},
      {"GS-R07", "JSON spec parsers reading objects must check_keys"},
      {"GS-R08", "#pragma once headers; sources include own header first"},
  };
  return infos;
}

std::vector<Diagnostic> run_rules(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> meta;
  std::vector<LintFile> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) {
    LintFile lf;
    lf.src = &file;
    lf.stream = tokenize(file.content);
    lf.sup = parse_suppressions(file, lf.stream.comments, meta);
    lexed.push_back(std::move(lf));
  }

  std::vector<Diagnostic> raw;
  rule_r01(lexed, raw);
  rule_r02(lexed, raw);
  rule_r03(lexed, raw);
  rule_r04(lexed, raw);
  rule_r05(lexed, raw);
  rule_r07(lexed, raw);
  rule_r08(lexed, raw);

  std::vector<Diagnostic> kept = std::move(meta);  // GS-R00 is unsuppressable
  for (Diagnostic& d : raw) {
    const auto owner = std::find_if(
        lexed.begin(), lexed.end(),
        [&d](const LintFile& f) { return f.src->path == d.file; });
    if (owner != lexed.end() && owner->sup.covers(d.rule, d.line)) continue;
    kept.push_back(std::move(d));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return kept;
}

int run_lint(const std::vector<SourceFile>& files, std::ostream& out,
             std::string_view only_rule) {
  std::vector<Diagnostic> diagnostics = run_rules(files);
  if (!only_rule.empty()) {
    diagnostics.erase(
        std::remove_if(diagnostics.begin(), diagnostics.end(),
                       [only_rule](const Diagnostic& d) {
                         return d.rule != only_rule;
                       }),
        diagnostics.end());
  }
  for (const Diagnostic& d : diagnostics) {
    out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
        << "\n";
  }
  std::set<std::string_view> touched;
  for (const Diagnostic& d : diagnostics) touched.insert(d.file);
  if (diagnostics.empty()) {
    out << "gridsched_lint: clean (" << files.size() << " files)\n";
    return 0;
  }
  out << "gridsched_lint: " << diagnostics.size() << " violation"
      << (diagnostics.size() == 1 ? "" : "s") << " in " << touched.size()
      << " file" << (touched.size() == 1 ? "" : "s") << " ("
      << files.size() << " scanned)\n";
  return 1;
}

std::vector<SourceFile> load_tree(const std::string& root) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(fs::path(root) / "src")) {
    throw std::runtime_error("gridsched_lint: " + root +
                             " has no src/ — pass --root=REPO");
  }
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream content;
      content << in.rdbuf();
      files.push_back({fs::relative(entry.path(), root).generic_string(),
                       std::move(content).str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

}  // namespace gridsched::lint
