#include "exp/campaign/campaign_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace gridsched::exp::campaign {

namespace {

constexpr std::string_view kJournalFormat = "gridsched-campaign-journal-v1";

std::string hex_seed(std::uint64_t seed) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buffer;
}

/// Inverse of hex_seed: "0x" and 1-16 hex digits, nothing else.
std::uint64_t parse_hex_seed(const std::string& text) {
  std::uint64_t seed = 0;
  const char* const last = text.data() + text.size();
  if (text.size() < 3 || text.size() > 18 || text.compare(0, 2, "0x") != 0 ||
      std::from_chars(text.data() + 2, last, seed, 16).ptr != last) {
    throw std::runtime_error("campaign journal: bad seed \"" + text + "\"");
  }
  return seed;
}

}  // namespace

std::string JournalRecord::key() const {
  // \x1f (unit separator) cannot appear in display labels read from JSON
  // specs without deliberate effort, so the composite key is unambiguous.
  return scenario + '\x1f' + policy + '\x1f' + std::to_string(replication);
}

std::string encode_record(const JournalRecord& record) {
  using util::json::number;
  using util::json::quote;
  std::ostringstream out;
  out << "{\"scenario\": " << quote(record.scenario)
      << ", \"policy\": " << quote(record.policy)
      << ", \"replication\": " << record.replication
      << ", \"seed\": " << quote(hex_seed(record.seed))
      << ", \"status\": " << quote(status_name(record.status))
      << ", \"attempts\": " << record.attempts;
  if (record.status == CellStatus::kOk) {
    out << ", \"n_jobs\": " << record.metrics.n_jobs
        << ", \"batch_invocations\": " << record.metrics.batch_invocations
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : metric_defs()) {
      if (!def.deterministic) continue;  // wall-clock never enters records
      out << (first ? "" : ", ") << quote(def.key) << ": "
          << number(def.value(record.metrics));
      first = false;
    }
    out << "}";
  } else {
    out << ", \"error\": " << quote(record.error);
  }
  out << "}";
  return out.str();
}

JournalRecord decode_record(const std::string& line) {
  const util::json::Value doc = util::json::parse(line);
  // Strict like the spec parser: a key this build doesn't know means the
  // journal came from a newer build — refuse rather than drop data.
  util::json::check_keys(doc,
                         {"scenario", "policy", "replication", "seed",
                          "status", "attempts", "n_jobs",
                          "batch_invocations", "metrics", "error"},
                         "journal record");
  JournalRecord record;
  record.scenario = doc.at("scenario").as_string();
  record.policy = doc.at("policy").as_string();
  record.replication = static_cast<std::size_t>(doc.at("replication")
                                                    .as_uint());
  record.seed = parse_hex_seed(doc.at("seed").as_string());
  record.status = parse_status(doc.at("status").as_string());
  record.attempts = static_cast<unsigned>(doc.at("attempts").as_uint());
  if (record.status == CellStatus::kOk) {
    record.metrics.n_jobs =
        static_cast<std::size_t>(doc.at("n_jobs").as_uint());
    record.metrics.batch_invocations =
        static_cast<std::size_t>(doc.at("batch_invocations").as_uint());
    for (const auto& [key, value] : doc.at("metrics").members()) {
      const MetricDef* def = find_metric(key);
      // Records carry deterministic metrics only (see encode_record).
      if (def == nullptr || !def->deterministic) {
        throw std::runtime_error("campaign journal: unknown metric \"" + key +
                                 "\" (journal from a newer build?)");
      }
      if (!def->assign(record.metrics, value.as_number())) {
        throw std::runtime_error("campaign journal: metric \"" + key +
                                 "\" is not a count: " +
                                 util::json::number(value.as_number()));
      }
    }
  } else {
    record.error = doc.at("error").as_string();
  }
  return record;
}

JournalWriter::JournalWriter(const std::string& path,
                             const std::string& campaign,
                             std::uint64_t spec_seed, bool append)
    : path_(path) {
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  flags |= append ? O_APPEND : O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("campaign journal: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    std::ostringstream header;
    header << "{\"journal\": " << util::json::quote(kJournalFormat)
           << ", \"campaign\": " << util::json::quote(campaign)
           << ", \"spec_seed\": " << spec_seed << "}";
    write_line(header.str());
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalRecord& record) {
  write_line(encode_record(record));
}

void JournalWriter::write_line(const std::string& line) {
  const std::lock_guard lock(mutex_);
  std::string data = line;
  data.push_back('\n');
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("campaign journal: write failed for " +
                               path_ + ": " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  // One fsync per record: a finished cell survives SIGKILL the moment
  // append() returns. Campaign cells run for seconds, so the sync cost is
  // noise next to the work it makes durable.
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("campaign journal: fsync failed for " + path_ +
                             ": " + std::strerror(errno));
  }
}

JournalContents load_journal(const std::string& path,
                             const std::string& campaign,
                             std::uint64_t spec_seed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(
        "campaign journal: cannot open " + path +
        " for --resume (use --checkpoint without --resume to start fresh)");
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  JournalContents contents;
  if (lines.empty()) return contents;  // created, then killed: no records

  const auto tail_or_throw = [&](std::size_t index,
                                 const std::string& what) {
    // Only the final line can be damaged by a crash (appends are
    // sequential and fsync'd); anything earlier is real corruption.
    if (index + 1 == lines.size()) {
      contents.truncated_tail = true;
      return;
    }
    throw std::runtime_error("campaign journal: " + path + " line " +
                             std::to_string(index + 1) + ": " + what);
  };

  // Header.
  try {
    const util::json::Value header = util::json::parse(lines[0]);
    util::json::check_keys(header, {"journal", "campaign", "spec_seed"},
                           "journal header");
    if (header.at("journal").as_string() != kJournalFormat) {
      throw std::runtime_error("not a " + std::string(kJournalFormat) +
                               " file");
    }
    contents.campaign = header.at("campaign").as_string();
    contents.spec_seed = header.at("spec_seed").as_uint();
  } catch (const std::exception& e) {
    tail_or_throw(0, e.what());
    return contents;  // lone truncated header: an empty journal
  }
  if (contents.campaign != campaign || contents.spec_seed != spec_seed) {
    throw std::runtime_error(
        "campaign journal: " + path + " belongs to campaign \"" +
        contents.campaign + "\" (seed " + std::to_string(contents.spec_seed) +
        "), not \"" + campaign + "\" (seed " + std::to_string(spec_seed) +
        ") — refusing to resume from a different spec");
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      contents.records.push_back(decode_record(lines[i]));
    } catch (const std::exception& e) {
      tail_or_throw(i, e.what());
    }
  }
  return contents;
}

}  // namespace gridsched::exp::campaign
