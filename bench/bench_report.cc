#include "bench_report.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "knn/kernel_simd.h"

namespace cpclean {
namespace benchreport {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

struct Row {
  std::string name;
  int64_t iterations = 0;
  double ns_per_op = 0.0;
  double cpu_ns_per_op = 0.0;
  int64_t threads = 1;
  // User counters (e.g. bench_serve's p50_ns / p99_ns / qps), emitted as
  // extra JSON fields on the row.
  std::vector<std::pair<std::string, double>> counters;
};

// Google Benchmark < 1.8 reports failed runs via Run::error_occurred; 1.8+
// replaced it with the Run::skipped enum. Detect at compile time so the
// shim builds against either generation, whatever the distro ships.
template <typename R, typename = void>
struct HasErrorOccurred : std::false_type {};
template <typename R>
struct HasErrorOccurred<
    R, std::void_t<decltype(std::declval<const R&>().error_occurred)>>
    : std::true_type {};

template <typename R>
bool RunWasSkippedOrErrored(const R& run) {
  if constexpr (HasErrorOccurred<R>::value) {
    return run.error_occurred;
  } else {
    return run.skipped != R::NotSkipped;
  }
}

/// Prints to the console like the default reporter and collects one row per
/// real (non-aggregate, non-errored) run for the JSON file.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (RunWasSkippedOrErrored(run) || run.report_big_o || run.report_rms) {
        continue;
      }
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      // Accumulated times are in seconds regardless of the display unit.
      row.ns_per_op = run.real_accumulated_time / iters * 1e9;
      row.cpu_ns_per_op = run.cpu_accumulated_time / iters * 1e9;
      row.threads = run.threads;
      for (const auto& counter : run.counters) {
        row.counters.emplace_back(counter.first,
                                  static_cast<double>(counter.second));
      }
      rows_.push_back(std::move(row));
    }
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_report: cannot write " << path << "\n";
      return false;
    }
    // Which similarity-kernel dispatch level produced these numbers —
    // without it, a committed per-ISA trajectory is unreadable.
    out << "{\"simd_level\": \""
        << SimdLevelName(simd::ActiveSimdLevel()) << "\",\n";
    out << " \"benchmarks\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "  {\"name\": \"" << JsonEscape(r.name)
          << "\", \"iterations\": " << r.iterations
          << ", \"ns_per_op\": " << r.ns_per_op
          << ", \"cpu_ns_per_op\": " << r.cpu_ns_per_op
          << ", \"threads\": " << r.threads;
      for (const auto& counter : r.counters) {
        out << ", \"" << JsonEscape(counter.first)
            << "\": " << counter.second;
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return true;
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int RunBenchmarksWithReport(int argc, char** argv, const char* report_path) {
  std::string path = report_path;
  bool explicit_path = false;
  bool filtered = false;
  // Extract our own flag before benchmark::Initialize sees the arguments.
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    const char* prefix = "--bench_report=";
    if (std::strncmp(*it, prefix, std::strlen(prefix)) == 0) {
      path = *it + std::strlen(prefix);
      explicit_path = true;
      it = args.erase(it);
    } else {
      const char* filter = "--benchmark_filter";
      if (std::strncmp(*it, filter, std::strlen(filter)) == 0) filtered = true;
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  args.resize(static_cast<size_t>(filtered_argc));
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // A filtered run holds only some rows; writing it to the default path
  // would replace a full committed report with a partial one.
  bool ok = true;
  if (filtered && !explicit_path) {
    std::cerr << "bench_report: filtered run, not writing " << path
              << " (pass --bench_report=<path> to keep these rows)\n";
  } else {
    ok = reporter.WriteJson(path);
  }
  benchmark::Shutdown();
  return ok ? 0 : 1;
}

}  // namespace benchreport
}  // namespace cpclean
