#include "workload/trace_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/file.hpp"

namespace gridsched::workload {

namespace {

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return in;
}

[[noreturn]] void parse_error(std::size_t line_no, const std::string& line) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line_no) + ": " + line);
}

bool is_skippable(const std::string& line) {
  for (const char ch : line) {
    if (ch == ';') return true;
    if (!std::isspace(static_cast<unsigned char>(ch))) return false;
  }
  return true;  // all whitespace
}

}  // namespace

void write_jobs(std::ostream& out, const std::vector<sim::Job>& jobs,
                const sim::ExecModel& exec) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "; gridsched job trace v2\n";
  out << "; id arrival work nodes demand\n";
  for (const sim::Job& job : jobs) {
    out << job.id << ' ' << job.arrival << ' ' << job.work << ' ' << job.nodes
        << ' ' << job.demand << '\n';
  }
  if (!exec.has_matrix()) return;
  if (exec.matrix_jobs() != jobs.size()) {
    throw std::runtime_error("write_jobs: ETC matrix covers " +
                             std::to_string(exec.matrix_jobs()) +
                             " jobs but the trace has " +
                             std::to_string(jobs.size()));
  }
  const std::size_t n_sites = exec.matrix_sites();
  const std::span<const double> cells = exec.matrix_cells();
  out << ";etc v1 " << exec.matrix_jobs() << ' ' << n_sites << '\n';
  for (std::size_t j = 0; j < exec.matrix_jobs(); ++j) {
    out << ";etc-row " << j;
    for (std::size_t s = 0; s < n_sites; ++s) {
      out << ' ' << cells[j * n_sites + s];
    }
    out << '\n';
  }
}

void write_jobs_file(const std::string& path, const std::vector<sim::Job>& jobs,
                     const sim::ExecModel& exec) {
  std::ostringstream out;
  write_jobs(out, jobs, exec);
  util::write_file(path, out.str());
}

JobsTrace read_jobs_trace(std::istream& in) {
  JobsTrace trace;
  std::string line;
  std::size_t line_no = 0;
  // ";etc" section state: dimensions from the header line, rows required
  // in job order (the row index makes truncation/reordering detectable).
  bool have_etc = false;
  std::size_t etc_jobs = 0;
  std::size_t etc_sites = 0;
  std::size_t etc_rows_read = 0;
  std::vector<double> etc_cells;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind(";etc-row", 0) == 0) {
      if (!have_etc || etc_rows_read == etc_jobs) parse_error(line_no, line);
      std::istringstream fields(line);
      std::string tag;
      std::size_t row = 0;
      if (!(fields >> tag >> row) || row != etc_rows_read) {
        parse_error(line_no, line);
      }
      for (std::size_t s = 0; s < etc_sites; ++s) {
        double cell = 0.0;
        if (!(fields >> cell)) parse_error(line_no, line);
        etc_cells.push_back(cell);
      }
      double extra = 0.0;
      if (fields >> extra) parse_error(line_no, line);
      ++etc_rows_read;
      continue;
    }
    if (line.rfind(";etc", 0) == 0) {
      std::istringstream fields(line);
      std::string tag;
      std::string version;
      if (have_etc ||
          !(fields >> tag >> version >> etc_jobs >> etc_sites) ||
          version != "v1" || etc_jobs == 0 || etc_sites == 0) {
        parse_error(line_no, line);
      }
      // No reserve from the header: the cells grow as rows arrive, so an
      // untrusted jobs x sites claim never sizes an allocation.
      have_etc = true;
      continue;
    }
    if (is_skippable(line)) continue;
    std::istringstream fields(line);
    sim::Job job;
    unsigned long id = 0;
    if (!(fields >> id >> job.arrival >> job.work >> job.nodes >> job.demand)) {
      parse_error(line_no, line);
    }
    job.id = static_cast<sim::JobId>(id);
    if (job.work <= 0.0 || job.nodes == 0 || job.arrival < 0.0) {
      parse_error(line_no, line);
    }
    trace.jobs.push_back(job);
  }
  if (have_etc) {
    if (etc_rows_read != etc_jobs || etc_jobs != trace.jobs.size()) {
      throw std::runtime_error(
          "trace ETC section covers " + std::to_string(etc_rows_read) + "/" +
          std::to_string(etc_jobs) + " rows for " +
          std::to_string(trace.jobs.size()) + " jobs");
    }
    // The ExecModel constructor enforces finite > 0 cells.
    trace.exec = sim::ExecModel(etc_jobs, etc_sites, std::move(etc_cells));
  }
  return trace;
}

JobsTrace read_jobs_trace_file(const std::string& path) {
  auto in = open_input(path);
  return read_jobs_trace(in);
}

std::vector<sim::Job> read_jobs(std::istream& in) {
  return read_jobs_trace(in).jobs;
}

std::vector<sim::Job> read_jobs_file(const std::string& path) {
  auto in = open_input(path);
  return read_jobs(in);
}

void write_sites(std::ostream& out, const std::vector<sim::SiteConfig>& sites) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "; gridsched site list v1\n";
  out << "; id nodes speed security\n";
  for (const sim::SiteConfig& site : sites) {
    out << site.id << ' ' << site.nodes << ' ' << site.speed << ' '
        << site.security << '\n';
  }
}

void write_sites_file(const std::string& path,
                      const std::vector<sim::SiteConfig>& sites) {
  std::ostringstream out;
  write_sites(out, sites);
  util::write_file(path, out.str());
}

std::vector<sim::SiteConfig> read_sites(std::istream& in) {
  std::vector<sim::SiteConfig> sites;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_skippable(line)) continue;
    std::istringstream fields(line);
    sim::SiteConfig site;
    unsigned long id = 0;
    if (!(fields >> id >> site.nodes >> site.speed >> site.security)) {
      parse_error(line_no, line);
    }
    site.id = static_cast<sim::SiteId>(id);
    if (site.nodes == 0 || site.speed <= 0.0) parse_error(line_no, line);
    sites.push_back(site);
  }
  return sites;
}

std::vector<sim::SiteConfig> read_sites_file(const std::string& path) {
  auto in = open_input(path);
  return read_sites(in);
}

}  // namespace gridsched::workload
