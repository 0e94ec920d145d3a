#ifndef CPCLEAN_BENCH_BENCH_REPORT_H_
#define CPCLEAN_BENCH_BENCH_REPORT_H_

namespace cpclean {
namespace benchreport {

/// Drop-in replacement for BENCHMARK_MAIN()'s body that, in addition to the
/// normal console output, writes a compact machine-readable report to
/// `report_path` (conventionally `BENCH_<suite>.json`, committed per PR so
/// the perf trajectory is diffable across the repo's history):
///
///   {"simd_level": "scalar|avx2|avx512",
///    "benchmarks": [
///     {"name": "...", "iterations": N, "ns_per_op": R, "cpu_ns_per_op": C,
///      "threads": T},
///     ...]}
///
/// `simd_level` is the resolved similarity-kernel dispatch level the run
/// used (hardware detection ∧ `CPCLEAN_SIMD` override), so committed
/// reports record the per-ISA trajectory.
///
/// User counters set via `state.counters` (e.g. bench_serve's latency
/// percentiles) appear as additional per-row fields.
///
/// ns_per_op is wall time per iteration; aggregate/complexity rows and
/// errored runs are omitted. Returns the process exit code. Pass
/// `--bench_report=<path>` on the command line to redirect the report. A
/// run with `--benchmark_filter` writes no report unless that flag names
/// a path, so a partial run never overwrites a full report.
int RunBenchmarksWithReport(int argc, char** argv, const char* report_path);

}  // namespace benchreport
}  // namespace cpclean

#endif  // CPCLEAN_BENCH_BENCH_REPORT_H_
