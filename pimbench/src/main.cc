// pimbench: the PIMENTO benchmark binary. Runs one workload and prints a
// human-readable table (every metric with its unit, sample count and
// sub-window spread), one provenance line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// operation failed or answered wrongly, 2 on a usage error.
//
// Usage: pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--small] [--corrupt-one-answer]
//                 [--source-hash <h>] [--git-sha <sha>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "gate.h"
#include "report.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "pimbench: %s\nusage: pimbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--small] "
               "[--corrupt-one-answer] [--source-hash <h>] [--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pimbench::RunOptions options;
  options.work_dir = ".";
  std::string source_hash = "unknown";
  std::string git_sha = "unknown";
  bool small = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--small") {
      small = true;
    } else if (arg == "--corrupt-one-answer") {
      pimbench::SetCorruptOneAnswer(true);
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else if (arg == "--source-hash") {
      source_hash = v;
    } else if (arg == "--git-sha") {
      git_sha = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  options.scale = small ? pimbench::Scale::Small() : pimbench::Scale::Full();
  options.workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(options.work_dir);

  pimbench::Report report;
  report.Config("scale", small ? "small" : "full");
  report.Config("source_hash", source_hash);
  report.Config("git_sha", git_sha);
  if (!pimbench::RunWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (report.attempted == 0) report.Check("no operation was attempted");

  std::string config;
  for (const auto& [key, value] : report.config) {
    config += (config.empty() ? "" : ", ") + JsonString(key) + ": " +
              JsonString(value);
  }
  std::printf("# provenance {%s}\n", config.c_str());
  for (const std::string& f : report.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  const double failed_frac =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("# %-40s %14.6g %-9s n=%lld\n", "failed_frac", failed_frac,
              "ratio", static_cast<long long>(report.attempted));
  std::string metrics;
  for (const pimbench::Metric& m : report.metrics) {
    const char* mark = m.gated ? "" : "  (table only)";
    if (m.spread >= 0.0) {
      std::printf("# %-40s %14.6g %-9s n=%lld  window_spread=%.3f%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples), m.spread, mark);
    } else {
      std::printf("# %-40s %14.6g %-9s n=%lld%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples), mark);
    }
    if (!m.gated) continue;
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
