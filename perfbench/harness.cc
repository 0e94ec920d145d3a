// The repository benchmark's measuring program. `run.py` builds it next to
// `cpclean_server` and calls it once per run:
//
//   perfbench_harness table2 --seed N --seconds S --trace 0|1 --size full|tiny
//   perfbench_harness serve --workload serve_read|serve_clean --port P
//       --server-pid PID --seed N --seconds S --trace 0|1 --size full|tiny
//       --work DIR
//
// `table2` runs CPClean in process through the library. `serve` drives a
// running cpclean_server over TCP with a closed-loop load, then checks a
// seeded sample of the served answers against direct library calls. With
// `--trace 1` either mode also replays its work in process, timing each
// call into a layer as a span (see README.md, "Traced run").
//
// The last stdout line is one JSON object of raw measurements; run.py
// turns it into the benchmark result. `--corrupt 1` falsifies one checked
// answer so the benchmark's own smoke test can prove the check bites.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cleaning/cp_clean.h"
#include "common/cpu_features.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "core/witness.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "knn/kernel.h"
#include "knn/kernel_simd.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_registry.h"
#include "serve/session_store.h"

namespace pb {

using cpclean::CleaningSession;
using cpclean::CleaningTask;
using cpclean::JsonValue;
using cpclean::Rng;

// ---------------------------------------------------------------------------
// Clocks, resources, statistics.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU seconds (user + system) of this whole process, every thread.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double ProcessPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU seconds of another process, from /proc/<pid>/stat; -1 if unreadable.
double OtherCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime and stime are 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14 || index == 15) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of another process in MB; -1 if unreadable.
double OtherPeakRssMb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return -1.0;
}

/// Quantile with linear interpolation between closest ranks; 0 if empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

/// Summary of a latency sample: median, p95, and the highest of
/// p90/p95/p99/p99.9 that has at least ten samples beyond it.
JsonValue LatencySummary(const std::vector<double>& ms) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("n", JsonValue(static_cast<int>(ms.size())));
  out.Set("p50", JsonValue(Quantile(ms, 0.5)));
  out.Set("p95", JsonValue(Quantile(ms, 0.95)));
  const double candidates[] = {0.999, 0.99, 0.95, 0.9};
  for (double q : candidates) {
    if (static_cast<double>(ms.size()) * (1.0 - q) >= 10.0) {
      out.Set("tail_q", JsonValue(q));
      out.Set("tail", JsonValue(Quantile(ms, q)));
      break;
    }
  }
  return out;
}

JsonValue HostBuildStamp() {
  JsonValue out = JsonValue::MakeObject();
  out.Set("compiler", JsonValue(PERFBENCH_COMPILER));
  out.Set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
  out.Set("simd", JsonValue(cpclean::SimdLevelName(
                      cpclean::simd::ActiveSimdLevel())));
  out.Set("pool_threads", JsonValue(cpclean::GlobalThreadPoolThreads()));
  return out;
}

// ---------------------------------------------------------------------------
// Spans.

/// In-memory span log. A span is a timed call into one layer; `parent`
/// links it to the call that caused it and `request` groups one request's
/// spans. A `rerun` span times a part that its parent's public call hides:
/// the traced run re-executes that part on an identical state, so the span
/// lies outside its parent's interval and only its duration is attributed
/// (the parent's self time is its duration minus its children's).
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    int64_t request = -1;
    bool rerun = false;
  };

  int Record(const std::string& name, uint64_t start_ns, uint64_t end_ns,
             int parent, int64_t request, bool rerun) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request, rerun});
    if (rerun) rerun_ns_ += end_ns - start_ns;
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Sets the interval of a span opened before its children were known.
  void SetInterval(int id, uint64_t start_ns, uint64_t end_ns) {
    Span& span = spans_[static_cast<size_t>(id)];
    if (span.rerun) rerun_ns_ += (end_ns - start_ns) - (span.end_ns - span.start_ns);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
  }

  /// Time spent re-running hidden parts (not part of the replayed work).
  uint64_t rerun_ns() const { return rerun_ns_; }
  /// Counts the harness's own bookkeeping as re-run time (no span).
  void AddRerun(uint64_t ns) { rerun_ns_ += ns; }

  struct Layer {
    int64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  /// Per span name: call count, inclusive time, and self time.
  std::map<std::string, Layer> Layers(int* clamped) const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Layer> layers;
    *clamped = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      Layer& layer = layers[spans_[i].name];
      ++layer.count;
      layer.total_ns += dur;
      if (child_ns[i] > dur) {
        ++*clamped;
      } else {
        layer.self_ns += dur - child_ns[i];
      }
    }
    return layers;
  }

  /// Sum of root-span durations: the replayed work the layers account for.
  uint64_t RootNs() const {
    uint64_t total = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && !s.rerun) total += s.end_ns - s.start_ns;
    }
    return total;
  }

  void WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue line = JsonValue::MakeObject();
      line.Set("id", JsonValue(static_cast<int>(i)));
      line.Set("name", JsonValue(s.name));
      line.Set("start_ns", JsonValue(s.start_ns));
      line.Set("end_ns", JsonValue(s.end_ns));
      line.Set("parent", JsonValue(s.parent));
      line.Set("request", JsonValue(s.request));
      line.Set("rerun", JsonValue(s.rerun));
      out << line.Dump() << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  uint64_t rerun_ns_ = 0;
};

/// The per-layer summary of a traced replay: the self-time table, the
/// coverage of the replay's wall time, and the tracing overhead.
JsonValue TraceSummary(const Tracer& tracer, uint64_t traced_wall_ns,
                       double untraced_wall_s) {
  int clamped = 0;
  const std::map<std::string, Tracer::Layer> layers = tracer.Layers(&clamped);
  JsonValue table = JsonValue::MakeObject();
  for (const auto& entry : layers) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("count", JsonValue(entry.second.count));
    row.Set("total_ms", JsonValue(Ms(entry.second.total_ns)));
    row.Set("self_ms", JsonValue(Ms(entry.second.self_ns)));
    table.Set(entry.first, std::move(row));
  }
  const uint64_t replay_ns = traced_wall_ns - tracer.rerun_ns();
  JsonValue out = JsonValue::MakeObject();
  out.Set("layers", std::move(table));
  out.Set("clamped_spans", JsonValue(clamped));
  out.Set("traced_wall_s", JsonValue(static_cast<double>(traced_wall_ns) / 1e9));
  out.Set("rerun_s", JsonValue(static_cast<double>(tracer.rerun_ns()) / 1e9));
  out.Set("untraced_wall_s", JsonValue(untraced_wall_s));
  out.Set("overhead_s", JsonValue(static_cast<double>(traced_wall_ns) / 1e9 -
                                  untraced_wall_s));
  out.Set("coverage_frac",
          JsonValue(replay_ns > 0 ? static_cast<double>(tracer.RootNs()) /
                                        static_cast<double>(replay_ns)
                                  : 0.0));
  return out;
}

/// Self (or, for `inclusive`, total) milliseconds of one layer.
double LayerMs(const JsonValue& summary, const std::string& name,
               bool inclusive = false) {
  const JsonValue* row = summary.Find("layers")->Find(name);
  if (row == nullptr) return 0.0;
  return row->Find(inclusive ? "total_ms" : "self_ms")->number_value();
}

// ---------------------------------------------------------------------------
// Cleaning-step attribution, shared by table2 and serve_clean.

/// Validation-certainty flags mirrored outside the session: computed once
/// with Q1 checks, then advanced from each step's audit record (certainty
/// is monotone under cleaning).
std::vector<uint8_t> InitialCertainty(const CleaningSession& session,
                                      const CleaningTask& task,
                                      const cpclean::SimilarityKernel& kernel,
                                      int k) {
  const cpclean::CertainPredictor predictor(&kernel, k);
  std::vector<uint8_t> certain(task.val_x.size(), 0);
  for (size_t v = 0; v < task.val_x.size(); ++v) {
    certain[v] = predictor.IsCertain(session.working(), task.val_x[v]) ? 1 : 0;
  }
  return certain;
}

void AdvanceCertainty(const CleaningSession& session,
                      std::vector<uint8_t>* certain) {
  if (session.audit().empty()) return;
  for (int v : session.audit().back().newly_certain) {
    (*certain)[static_cast<size_t>(v)] = 1;
  }
}

struct PruneCounts {
  uint64_t pruned = 0;  // (val point, dirty tuple) pairs below TopKFloor
  uint64_t swept = 0;   // pairs that paid an EntropyPinnedSweep
};

/// Re-runs the selection the next StepGreedy will make, as a re-run child
/// of `parent`: FastSelectionScores itself, then its parts serially —
/// per active validation point the kernel sweep (FastQ2::SetTestPoint),
/// the unpinned scan, and the pinned sweeps over the unpruned tuples.
void RerunSelection(Tracer* tracer, CleaningSession* session,
                    const CleaningTask& task,
                    const cpclean::SimilarityKernel& kernel, int k,
                    const std::vector<uint8_t>& certain, int parent,
                    int64_t request, PruneCounts* prune) {
  const std::vector<int> dirty = session->working().DirtyExamples();
  if (dirty.empty()) return;
  uint64_t t0 = NowNs();
  (void)session->FastSelectionScores(dirty);
  const int selection = tracer->Record("cleaning.selection", t0, NowNs(),
                                       parent, request, true);
  cpclean::FastQ2 q2(&session->working(), k);
  for (size_t v = 0; v < task.val_x.size(); ++v) {
    if (certain[v]) continue;
    t0 = NowNs();
    q2.SetTestPoint(task.val_x[v], kernel);
    const uint64_t t1 = NowNs();
    tracer->Record("knn.sweep", t0, t1, selection, request, true);
    const double floor = q2.TopKFloor();
    uint64_t unpinned_ns = 0;
    uint64_t pinned_ns = 0;
    bool have_unpinned = false;
    for (int i : dirty) {
      if (q2.MaxSimilarity(i) < floor) {
        ++prune->pruned;
        if (!have_unpinned) {
          const uint64_t a = NowNs();
          (void)q2.EntropyUnpinned();
          unpinned_ns += NowNs() - a;
          have_unpinned = true;
        }
        continue;
      }
      ++prune->swept;
      const uint64_t a = NowNs();
      (void)q2.EntropyPinnedSweep(i);
      pinned_ns += NowNs() - a;
    }
    // One span per validation point and kind, its duration the sum of the
    // calls (thousands of sub-microsecond calls would swamp the log).
    if (unpinned_ns > 0) {
      tracer->Record("core.unpinned_scan", t1, t1 + unpinned_ns, selection,
                     request, true);
    }
    tracer->Record("core.pinned_sweep", t1 + unpinned_ns,
                   t1 + unpinned_ns + pinned_ns, selection, request, true);
  }
}

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  int port = -1;
  long server_pid = -1;
  std::string work = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--size") {
      args->tiny = value == "tiny";
    } else if (key == "--corrupt") {
      args->corrupt = value == "1";
    } else if (key == "--port") {
      args->port = std::atoi(value.c_str());
    } else if (key == "--server-pid") {
      args->server_pid = std::atol(value.c_str());
    } else if (key == "--work") {
      args->work = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// table2_clean: CPClean to convergence on the four Table 2 analogs.

struct Table2Scale {
  int train = 60;
  int val = 20;
  int test = 100;
};

/// The Table 2 experiments, prepared as exp_table2_end_to_end prepares
/// them (dataset seed 3, k = 3, negative Euclidean kernel).
std::vector<cpclean::PreparedExperiment> PrepareTable2(
    const Table2Scale& scale, const cpclean::SimilarityKernel& kernel,
    std::vector<std::string>* names) {
  std::vector<cpclean::PreparedExperiment> prepared;
  names->clear();
  for (const cpclean::PaperDatasetSpec& spec :
       cpclean::PaperDatasetSuite(scale.train, scale.val, scale.test)) {
    cpclean::ExperimentConfig config;
    config.dataset = spec;
    config.seed = 3;
    auto result = cpclean::PrepareExperiment(config, kernel);
    if (!result.ok()) {
      std::fprintf(stderr, "PrepareExperiment(%s): %s\n", spec.name.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    prepared.push_back(std::move(result).value());
    names->push_back(spec.name);
  }
  return prepared;
}

/// Serial: on a shared 4-vCPU host, short parallel steps measured mostly
/// how fast idle vCPUs woke up (the median step varied 2.3x between runs
/// on identical inputs, while CPU time varied 6%). The pool is measured on
/// serve_clean, whose clean steps run on the server's global pool.
cpclean::CpCleanOptions Table2Options() {
  cpclean::CpCleanOptions options;
  options.k = 3;
  options.num_threads = 1;
  options.track_test_accuracy = false;
  return options;
}

/// Test accuracy of the session's best-guess world (cleaned rows at their
/// repaired value, the rest at the default imputation).
double WorldTestAccuracy(const CleaningSession& session,
                         const CleaningTask& task,
                         const cpclean::SimilarityKernel& kernel) {
  std::vector<std::vector<double>> world = task.default_x;
  for (int i = 0; i < session.working().num_examples(); ++i) {
    if (session.working().num_candidates(i) == 1) {
      world[static_cast<size_t>(i)] = session.working().candidate(i, 0);
    }
  }
  return task.AccuracyWith(world, task.test_x, task.test_y, kernel, 3);
}

struct DatasetRun {
  std::vector<int> order;  // cleaned examples, in cleaning order
  double accuracy = 0.0;
  double gap_closed = 0.0;
  double cleaned_frac = 0.0;
};

struct Table2Pass {
  std::vector<DatasetRun> runs;  // indexed like the prepared experiments
  std::vector<double> step_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Table2Pass RunTable2Pass(
    const std::vector<cpclean::PreparedExperiment>& prepared,
    const std::vector<int>& dataset_order,
    const cpclean::SimilarityKernel& kernel) {
  Table2Pass pass;
  pass.runs.resize(prepared.size());
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  for (int d : dataset_order) {
    const cpclean::PreparedExperiment& exp = prepared[static_cast<size_t>(d)];
    CleaningSession session(&exp.task, &kernel, Table2Options());
    DatasetRun& run = pass.runs[static_cast<size_t>(d)];
    while (true) {
      const uint64_t s0 = NowNs();
      const int example = session.StepGreedy();
      if (example < 0) break;
      pass.step_ms.push_back(Ms(NowNs() - s0));
      run.order.push_back(example);
    }
    run.accuracy = WorldTestAccuracy(session, exp.task, kernel);
    run.gap_closed = cpclean::GapClosed(run.accuracy, exp.default_test_accuracy,
                                        exp.ground_truth_test_accuracy);
    run.cleaned_frac = static_cast<double>(run.order.size()) /
                       exp.task.dirty_train.num_rows();
  }
  pass.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  return pass;
}

/// The traced replay of one pass, with every step's selection re-run and
/// split into its parts.
JsonValue TraceTable2(const Table2Scale& scale,
                      const std::vector<int>& dataset_order,
                      const cpclean::SimilarityKernel& kernel,
                      double untraced_wall_s, const std::string& span_path,
                      double* prune_frac) {
  Tracer tracer;
  PruneCounts prune;
  const uint64_t t0 = NowNs();
  std::vector<std::string> names;
  uint64_t p0 = NowNs();
  const std::vector<cpclean::PreparedExperiment> prepared =
      PrepareTable2(scale, kernel, &names);
  tracer.Record("eval.prepare", p0, NowNs(), -1, -1, false);
  int64_t request = 0;
  for (int d : dataset_order) {
    const cpclean::PreparedExperiment& exp = prepared[static_cast<size_t>(d)];
    p0 = NowNs();
    CleaningSession session(&exp.task, &kernel, Table2Options());
    (void)session.FracValCertain();
    tracer.Record("cleaning.refresh", p0, NowNs(), -1, request, false);
    p0 = NowNs();
    std::vector<uint8_t> certain =
        InitialCertainty(session, exp.task, kernel, 3);
    tracer.AddRerun(NowNs() - p0);
    while (true) {
      ++request;
      const int step = tracer.Record("cleaning.step", 0, 0, -1, request, false);
      RerunSelection(&tracer, &session, exp.task, kernel, 3, certain, step,
                     request, &prune);
      const uint64_t s0 = NowNs();
      const int example = session.StepGreedy();
      tracer.SetInterval(step, s0, NowNs());
      if (example < 0) break;
      AdvanceCertainty(session, &certain);
    }
    p0 = NowNs();
    (void)WorldTestAccuracy(session, exp.task, kernel);
    tracer.Record("eval.accuracy", p0, NowNs(), -1, request, false);
  }
  const uint64_t wall = NowNs() - t0;
  tracer.WriteJsonl(span_path);
  *prune_frac = prune.pruned + prune.swept > 0
                    ? static_cast<double>(prune.pruned) /
                          static_cast<double>(prune.pruned + prune.swept)
                    : 0.0;
  return TraceSummary(tracer, wall, untraced_wall_s);
}

uint64_t CounterValue(const char* name) {
  return cpclean::MetricsRegistry::Get().GetCounter(name).Value();
}

/// The layer metrics a traced replay yields, named as in BENCHMARK.json.
void SetTraceValues(const JsonValue& summary, JsonValue* values) {
  values->Set("knn.sweep_ms", JsonValue(LayerMs(summary, "knn.sweep")));
  values->Set("core.pinned_sweep_ms",
              JsonValue(LayerMs(summary, "core.pinned_sweep")));
  values->Set("core.explain_ms", JsonValue(LayerMs(summary, "core.explain")));
  values->Set("cleaning.selection_ms",
              JsonValue(LayerMs(summary, "cleaning.selection", true)));
  values->Set("cleaning.refresh_ms",
              JsonValue(LayerMs(summary, "cleaning.step") +
                        LayerMs(summary, "cleaning.refresh")));
  values->Set("trace.overhead_s", *summary.Find("overhead_s"));
  values->Set("trace.coverage_frac", *summary.Find("coverage_frac"));
}

int RunTable2(const Args& args) {
  const Table2Scale scale =
      args.tiny ? Table2Scale{40, 10, 40} : Table2Scale{};
  const cpclean::NegativeEuclideanKernel kernel;
  std::vector<std::string> names;

  // Set-up: preparing the four experiments, several times.
  std::vector<double> setup_s;
  std::vector<cpclean::PreparedExperiment> prepared;
  for (int r = 0; r < 15; ++r) {
    const uint64_t t0 = NowNs();
    prepared = PrepareTable2(scale, kernel, &names);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Rng order_rng(args.seed);
  const std::vector<int> order =
      order_rng.Permutation(static_cast<int>(prepared.size()));

  // The first pass warms caches and is only checked, not timed. Then timed
  // passes while another fits in `seconds`: at least two (one when only
  // tracing).
  std::vector<Table2Pass> passes{RunTable2Pass(prepared, order, kernel)};
  const uint64_t start = NowNs();
  const size_t min_passes = args.trace ? 2 : 3;
  while (passes.size() < min_passes ||
         (!args.trace && passes.size() < 100 &&
          static_cast<double>(NowNs() - start) / 1e9 + passes.back().wall_s <=
              args.seconds)) {
    passes.push_back(RunTable2Pass(prepared, order, kernel));
  }

  // Answers: every pass must clean the same examples in the same order
  // and reach bit-identical accuracies.
  if (args.corrupt) passes[1].runs[0].accuracy += 1.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Table2Pass& pass : passes) {
    for (size_t d = 0; d < pass.runs.size(); ++d) {
      const DatasetRun& ref = passes[0].runs[d];
      const DatasetRun& run = pass.runs[d];
      attempted += static_cast<int64_t>(run.order.size()) + 1;
      const size_t n = std::max(ref.order.size(), run.order.size());
      for (size_t s = 0; s < n; ++s) {
        if (s >= ref.order.size() || s >= run.order.size() ||
            ref.order[s] != run.order[s]) {
          ++failed;
        }
      }
      if (std::memcmp(&ref.accuracy, &run.accuracy, sizeof(double)) != 0) {
        ++failed;
      }
    }
  }

  std::vector<double> wall, cpu, rate, step_ms;
  for (size_t p = 1; p < passes.size(); ++p) {
    const Table2Pass& pass = passes[p];
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    rate.push_back(static_cast<double>(pass.step_ms.size()) / pass.wall_s);
    step_ms.insert(step_ms.end(), pass.step_ms.begin(), pass.step_ms.end());
  }
  JsonValue values = JsonValue::MakeObject();
  values.Set("setup_s", JsonValue(Median(setup_s)));
  values.Set("wall_s", JsonValue(Median(wall)));
  values.Set("cpu_s", JsonValue(Median(cpu)));
  values.Set("peak_rss_mb", JsonValue(ProcessPeakRssMb()));
  values.Set("ops_per_s", JsonValue(Median(rate)));
  values.Set("op_ms.p50", JsonValue(Quantile(step_ms, 0.5)));
  values.Set("op_ms.p95", JsonValue(Quantile(step_ms, 0.95)));

  JsonValue detail = JsonValue::MakeObject();
  detail.Set("scale", JsonValue(JsonValue::MakeObject(
                          {{"train", JsonValue(scale.train)},
                           {"val", JsonValue(scale.val)},
                           {"test", JsonValue(scale.test)},
                           {"dataset_seed", JsonValue(3)}})));
  detail.Set("passes", JsonValue(static_cast<int>(passes.size())));
  detail.Set("pass_wall_s", JsonValue::FromDoubles(wall));
  detail.Set("clean_step_ms", LatencySummary(step_ms));
  double gap = 0.0;
  double frac = 0.0;
  JsonValue datasets = JsonValue::MakeArray();
  for (size_t d = 0; d < prepared.size(); ++d) {
    const DatasetRun& run = passes[0].runs[d];
    gap += run.gap_closed / static_cast<double>(prepared.size());
    frac += run.cleaned_frac / static_cast<double>(prepared.size());
    datasets.Append(JsonValue::MakeObject(
        {{"name", JsonValue(names[d])},
         {"steps", JsonValue(static_cast<int>(run.order.size()))},
         {"test_accuracy", JsonValue(run.accuracy)},
         {"gap_closed", JsonValue(run.gap_closed)},
         {"cleaned_frac", JsonValue(run.cleaned_frac)}}));
  }
  detail.Set("gap_closed", JsonValue(gap));
  detail.Set("cleaned_frac", JsonValue(frac));
  detail.Set("datasets", std::move(datasets));

  if (args.trace) {
    double prune_frac = 0.0;
    const JsonValue summary =
        TraceTable2(scale, order, kernel, Median(wall),
                    args.work + "/spans-table2_clean.jsonl", &prune_frac);
    values.Set("core.topk_prune_frac", JsonValue(prune_frac));
    SetTraceValues(summary, &values);
    detail.Set("trace", summary);
  }

  JsonValue out = JsonValue::MakeObject();
  out.Set("attempted", JsonValue(attempted));
  out.Set("failed", JsonValue(failed));
  out.Set("values", std::move(values));
  out.Set("detail", std::move(detail));
  out.Set("stamp", HostBuildStamp());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve_read / serve_clean: a closed loop over TCP.

/// One blocking loopback connection speaking the line protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Sends one request line and waits for its response line.
  bool Call(const std::string& line, std::string* reply) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = send(fd_, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        reply->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct Request {
  std::string op;
  std::vector<double> point;  // explicit point, or
  int val_index = -1;         // an index into the validation set
};

constexpr char kSession[] = "bench0";
constexpr char kCleanStepLine[] =
    "{\"op\":\"clean_step\",\"session\":\"bench0\",\"steps\":1}";
/// serve_clean pauses: its readers between requests, like a dashboard
/// polling answers, and its writer after each save, like an analyst
/// glancing at the step's result. serve_read readers never pause.
constexpr int kReaderThinkMs = 20;
constexpr int kWriterThinkMs = 200;

std::string RequestLine(int64_t id, const Request& r) {
  JsonValue req = JsonValue::MakeObject();
  req.Set("id", JsonValue(id));
  req.Set("op", JsonValue(r.op));
  req.Set("session", JsonValue(kSession));
  if (r.val_index >= 0) {
    req.Set("val_indices", JsonValue::FromInts({r.val_index}));
  } else {
    req.Set("points", JsonValue::MakeArray({JsonValue::FromDoubles(r.point)}));
  }
  return req.Dump();
}

/// One reader connection's request stream. serve_read: q2 60% / predict
/// 25% / explain 15% on explicit points, a quarter from a hot set shared by all
/// connections (smaller than the result cache), the rest fresh points never
/// sent before. serve_clean: q2 80% / predict 20%, walking the validation
/// set in a seeded order, so every run reads every point equally often.
/// (Each mix keeps the read median inside the q2-miss latencies, away from
/// the boundary with cheaper answers, where it would jump between runs.)
class ReadMix {
 public:
  ReadMix(bool explicit_points, uint64_t seed, int connection,
          const std::vector<std::vector<double>>* val_x,
          const std::vector<std::vector<double>>* hot)
      : explicit_points_(explicit_points),
        rng_(seed * 1000003 + static_cast<uint64_t>(connection) + 1),
        val_x_(val_x),
        hot_(hot),
        walk_(rng_.Permutation(static_cast<int>(val_x->size()))) {}

  Request Next() {
    Request r;
    const double u = rng_.NextDouble();
    const int n = static_cast<int>(val_x_->size());
    if (!explicit_points_) {
      r.op = u < 0.8 ? "q2" : "predict";
      r.val_index = walk_[next_++ % walk_.size()];
      return r;
    }
    r.op = u < 0.6 ? "q2" : (u < 0.85 ? "predict" : "explain");
    if (rng_.NextBernoulli(0.25)) {
      r.point = (*hot_)[rng_.NextUint64(hot_->size())];
    } else {
      r.point = (*val_x_)[rng_.NextUint64(static_cast<uint64_t>(n))];
      for (double& x : r.point) x += rng_.NextGaussian(0.0, 0.1);
    }
    return r;
  }

 private:
  bool explicit_points_;
  Rng rng_;
  const std::vector<std::vector<double>>* val_x_;
  const std::vector<std::vector<double>>* hot_;
  std::vector<int> walk_;
  size_t next_ = 0;
};

std::vector<std::vector<double>> HotSet(uint64_t seed,
                                        const std::vector<std::vector<double>>& val_x,
                                        int size) {
  Rng rng(seed * 7919 + 17);
  std::vector<std::vector<double>> hot;
  for (int h = 0; h < size; ++h) {
    std::vector<double> p = val_x[rng.NextUint64(val_x.size())];
    for (double& x : p) x += rng.NextGaussian(0.0, 0.1);
    hot.push_back(std::move(p));
  }
  return hot;
}

struct ServeScale {
  int train = 0;
  int val = 100;
  int test = 100;
};

/// The served session's dataset is fixed, like a deployed model's; the
/// benchmark seed varies the traffic. (Cleaning cost differs by up to 60%
/// between synthetic datasets of one size, which no bound could absorb.)
constexpr uint64_t kSessionDataSeed = 42;

JsonValue CreateSpec(const ServeScale& scale, int num_threads) {
  return JsonValue::MakeObject({{"source", JsonValue("synthetic")},
                                {"train_rows", JsonValue(scale.train)},
                                {"val_size", JsonValue(scale.val)},
                                {"test_size", JsonValue(scale.test)},
                                {"numeric", JsonValue(6)},
                                {"categorical", JsonValue(0)},
                                {"k", JsonValue(3)},
                                {"seed", JsonValue(kSessionDataSeed)},
                                {"num_threads", JsonValue(num_threads)}});
}

std::string OpLine(const char* op, const std::string& session,
                   const JsonValue* spec = nullptr) {
  JsonValue req = spec != nullptr ? *spec : JsonValue::MakeObject();
  req.Set("op", JsonValue(op));
  if (!session.empty()) req.Set("session", JsonValue(session));
  return req.Dump();
}

/// The `result` of an ok response, or null.
JsonValue ResultOf(const std::string& reply) {
  auto parsed = cpclean::ParseJson(reply);
  if (!parsed.ok()) return JsonValue();
  const JsonValue* ok = parsed.value().Find("ok");
  const JsonValue* result = parsed.value().Find("result");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() || result == nullptr) {
    return JsonValue();
  }
  return *result;
}

/// What the library answers for `op` at `point` on `working` — the bits a
/// served answer at the same dataset version must carry.
JsonValue DirectAnswer(const std::string& op, const std::vector<double>& point,
                       const cpclean::IncompleteDataset& working,
                       const cpclean::SimilarityKernel& kernel, int k) {
  JsonValue out = JsonValue::MakeObject();
  if (op == "q2") {
    cpclean::FastQ2 q2(&working, k);
    q2.SetTestPoint(point, kernel);
    const std::vector<double> probs = q2.Fractions();
    out.Set("probs", JsonValue::FromDoubles(probs));
    out.Set("entropy", JsonValue(cpclean::Entropy(probs)));
  } else if (op == "predict") {
    const cpclean::CertainPredictor predictor(&kernel, k);
    const int label = predictor.Check(working, point).CertainLabel();
    out.Set("certain", JsonValue(label >= 0));
    out.Set("label", JsonValue(label));
  } else {
    auto witness = cpclean::ExplainPrediction(working, point, kernel, k);
    if (!witness.ok()) return JsonValue();
    out.Set("certain", JsonValue(witness.value().certain));
    out.Set("label", JsonValue(witness.value().label));
    out.Set("witnesses", JsonValue::FromInts(witness.value().tuples));
    out.Set("support", JsonValue::FromInts(witness.value().support));
    out.Set("minimal", JsonValue(witness.value().minimal));
  }
  out.Set("version", JsonValue(working.version()));
  return out;
}

/// True when every member of `expected` appears in `served` with equal
/// bits.
bool SameAnswer(const JsonValue& expected, const JsonValue& served) {
  if (!expected.is_object() || !served.is_object()) return false;
  for (const JsonValue::Member& member : expected.object()) {
    const JsonValue* got = served.Find(member.first);
    if (got == nullptr || *got != member.second) return false;
  }
  return true;
}

struct Timing {
  std::string op;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool ok = false;
};

struct Sample {
  Request request;
  std::string reply;
};

struct WriterStep {
  int cleaned = -1;  // -1: the session had converged
  uint64_t version = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // end of the save that followed
};

/// Per-connection, per-op request counts.
struct OpCounts {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

struct ConnectionLog {
  std::vector<Timing> timings;
  std::vector<Sample> samples;
  std::map<std::string, OpCounts> counts;
  std::vector<WriterStep> steps;  // writer only
  bool broken = false;
};

void Count(ConnectionLog* log, const std::string& op, bool ok) {
  OpCounts& c = log->counts[op];
  ++c.sent;
  ++(ok ? c.ok : c.failed);
}

void ReaderLoop(int port, ReadMix mix, uint64_t sample_seed, int think_ms,
                uint64_t deadline, ConnectionLog* log) {
  Connection conn;
  if (!conn.Open(port)) {
    log->broken = true;
    return;
  }
  Rng sample_rng(sample_seed);
  int64_t id = 0;
  std::string reply;
  while (NowNs() < deadline) {
    const Request request = mix.Next();
    const std::string line = RequestLine(++id, request);
    Timing t{request.op, NowNs(), 0, false};
    const bool sent = conn.Call(line, &reply);
    t.end_ns = NowNs();
    t.ok = sent && reply.find("\"ok\":true") != std::string::npos;
    log->timings.push_back(t);
    Count(log, request.op, t.ok);
    if (!sent) {
      log->broken = true;
      return;
    }
    if (t.ok && log->samples.size() < 200 && sample_rng.NextBernoulli(1.0 / 16)) {
      log->samples.push_back(Sample{request, reply});
    }
    if (think_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
    }
  }
}

void WriterLoop(int port, uint64_t deadline, ConnectionLog* log) {
  Connection conn;
  if (!conn.Open(port)) {
    log->broken = true;
    return;
  }
  const std::string save_line = OpLine("save_session", kSession);
  std::string reply;
  while (NowNs() < deadline) {
    WriterStep step;
    Timing t{"clean_step", NowNs(), 0, false};
    step.start_ns = t.start_ns;
    bool sent = conn.Call(kCleanStepLine, &reply);
    t.end_ns = NowNs();
    const JsonValue result = sent ? ResultOf(reply) : JsonValue();
    t.ok = result.is_object();
    log->timings.push_back(t);
    Count(log, "clean_step", t.ok);
    if (!t.ok) {
      log->broken = !sent;
      if (!sent) return;
      continue;
    }
    const JsonValue& cleaned = *result.Find("cleaned");
    step.cleaned = cleaned.array().empty()
                       ? -1
                       : static_cast<int>(cleaned.array()[0].number_value());
    step.version = static_cast<uint64_t>(result.Find("version")->number_value());
    Timing s{"save_session", NowNs(), 0, false};
    sent = conn.Call(save_line, &reply);
    s.end_ns = NowNs();
    s.ok = sent && reply.find("\"ok\":true") != std::string::npos;
    log->timings.push_back(s);
    Count(log, "save_session", s.ok);
    step.end_ns = s.end_ns;
    log->steps.push_back(step);
    if (!sent) {
      log->broken = true;
      return;
    }
    if (step.cleaned < 0) return;  // converged: nothing left to write
    std::this_thread::sleep_for(std::chrono::milliseconds(kWriterThinkMs));
  }
}

/// serve_read's load is cut into slices of this length; the first warms
/// the cache and the engine pool.
constexpr uint64_t kSliceNs = 2'000'000'000;

/// serve_read's end-to-end values: each the median over the slices after
/// the first, so a stall in one slice moves no metric. Per slice: completed
/// reads per second, read latency p50/p95, and per 1,000 reads the wall
/// time and the server's CPU time (`slice_cpu` holds the server's CPU
/// seconds at each slice boundary).
void SetSliceMedians(const std::vector<ConnectionLog>& logs, uint64_t start,
                     const std::vector<double>& slice_cpu, JsonValue* values) {
  const size_t slices = slice_cpu.size() - 1;
  std::vector<std::vector<double>> latency(slices);
  std::vector<double> ok(slices, 0.0);
  for (const ConnectionLog& log : logs) {
    for (const Timing& t : log.timings) {
      const size_t slice = static_cast<size_t>((t.end_ns - start) / kSliceNs);
      if (slice >= slices) continue;
      latency[slice].push_back(Ms(t.end_ns - t.start_ns));
      if (t.ok) ok[slice] += 1.0;
    }
  }
  std::vector<double> rate, p50, p95, wall, cpu;
  const double slice_s = static_cast<double>(kSliceNs) / 1e9;
  for (size_t s = slices > 2 ? 1 : 0; s < slices; ++s) {
    const double reads = std::max<double>(static_cast<double>(latency[s].size()), 1);
    rate.push_back(ok[s] / slice_s);
    p50.push_back(Quantile(latency[s], 0.5));
    p95.push_back(Quantile(latency[s], 0.95));
    wall.push_back(slice_s / reads * 1000.0);
    cpu.push_back((slice_cpu[s + 1] - slice_cpu[s]) / reads * 1000.0);
  }
  values->Set("ops_per_s", JsonValue(Median(rate)));
  values->Set("op_ms.p50", JsonValue(Median(p50)));
  values->Set("op_ms.p95", JsonValue(Median(p95)));
  values->Set("wall_s", JsonValue(Median(wall)));
  values->Set("cpu_s", JsonValue(Median(cpu)));
}

/// The `metrics` op's snapshot, or null.
JsonValue FetchMetrics(Connection* control) {
  std::string reply;
  if (!control->Call(OpLine("metrics", ""), &reply)) return JsonValue();
  return ResultOf(reply);
}

double CounterDelta(const JsonValue& before, const JsonValue& after,
                    const char* name) {
  const JsonValue* a = after.Find("counters")->Find(name);
  const JsonValue* b = before.Find("counters")->Find(name);
  return (a != nullptr ? a->number_value() : 0.0) -
         (b != nullptr ? b->number_value() : 0.0);
}

double HistogramMs(const JsonValue& snapshot, const char* name,
                   const char* quantile) {
  const JsonValue* h = snapshot.Find("histograms")->Find(name);
  return h != nullptr ? h->Find(quantile)->number_value() / 1e6 : 0.0;
}

/// The request sequence the in-process replays run: the reader streams
/// round-robin, and for serve_clean a clean_step + save_session cycle
/// before every `reads_per_cycle` reads.
std::vector<Request> ReplaySequence(bool serve_read, uint64_t seed, int readers,
                                    int cycles, int reads_per_cycle,
                                    const std::vector<std::vector<double>>& val_x,
                                    const std::vector<std::vector<double>>& hot) {
  std::vector<ReadMix> mixes;
  for (int c = 0; c < readers; ++c) {
    mixes.emplace_back(serve_read, seed, c, &val_x, &hot);
  }
  std::vector<Request> sequence;
  int next = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (!serve_read) {
      sequence.push_back(Request{"clean_step", {}, -1});
      sequence.push_back(Request{"save_session", {}, -1});
    }
    for (int r = 0; r < reads_per_cycle; ++r) {
      sequence.push_back(mixes[static_cast<size_t>(next)].Next());
      next = (next + 1) % readers;
    }
  }
  return sequence;
}

std::string ReplayLine(int64_t id, const Request& r) {
  if (r.op == "clean_step") return kCleanStepLine;
  if (r.op == "save_session") return OpLine("save_session", kSession);
  return RequestLine(id, r);
}

std::vector<double> PointOf(const Request& r, const CleaningTask& task) {
  return r.val_index >= 0 ? task.val_x[static_cast<size_t>(r.val_index)]
                          : r.point;
}

/// Replays `sequence` in process through Server::HandleLine. Untraced
/// (`tracer` null): the serving configuration, timed as a whole. Traced:
/// the session runs serially; each request is a root span, and the parts
/// its public call hides are re-run on a library replica of the session
/// (kept in lockstep) as child spans.
double Replay(const JsonValue& create_spec, const std::vector<Request>& sequence,
              const std::string& data_dir, Tracer* tracer,
              std::vector<double>* hit_us, PruneCounts* prune) {
  cpclean::ServerOptions options;
  options.data_dir = data_dir;
  cpclean::Server server(options);
  const std::unique_ptr<cpclean::SimilarityKernel> kernel =
      cpclean::MakeKernel(cpclean::KernelKind::kNegativeEuclidean);
  const uint64_t t0 = NowNs();
  int64_t request = 0;
  const uint64_t h0 = NowNs();
  const std::string created =
      server.HandleLine(OpLine("create_session", kSession, &create_spec));
  const uint64_t h1 = NowNs();
  if (created.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "replay create_session failed: %s\n", created.c_str());
    std::exit(1);
  }
  if (tracer == nullptr) {
    for (const Request& r : sequence) server.HandleLine(ReplayLine(++request, r));
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  const int root = tracer->Record("serve.handle_line", h0, h1, -1, 0, false);
  uint64_t a = NowNs();
  auto task_or = cpclean::BuildTaskFromSpec(create_spec);
  tracer->Record("serve.build_task", a, NowNs(), root, 0, true);
  if (!task_or.ok()) std::exit(1);
  CleaningTask task = std::move(task_or).value();
  a = NowNs();
  auto session_options =
      cpclean::ServeSessionOptionsFromRequest(create_spec, 1024);
  (void)cpclean::ServeSession::Make("replica", task, session_options.value(),
                                    create_spec);
  tracer->Record("serve.session_make", a, NowNs(), root, 0, true);

  cpclean::CpCleanOptions clean_options;
  clean_options.k = 3;
  clean_options.num_threads = 1;
  clean_options.track_test_accuracy = false;
  auto replica_or = CleaningSession::Create(&task, kernel.get(), clean_options);
  CleaningSession& replica = *replica_or.value();
  a = NowNs();
  (void)replica.FracValCertain();
  std::vector<uint8_t> certain = InitialCertainty(replica, task, *kernel, 3);
  tracer->AddRerun(NowNs() - a);
  cpclean::FastQ2 engine(&replica.working(), 3);
  const std::shared_ptr<cpclean::ServeSession> session =
      server.registry().Get(kSession).value();

  for (const Request& r : sequence) {
    ++request;
    const std::string line = ReplayLine(request, r);
    if (r.op == "save_session") {
      // The store's save is called directly, then the request finds
      // nothing left to write: its span holds the real save as a child.
      const uint64_t s0 = NowNs();
      (void)server.store().Save(*session);
      const uint64_t s1 = NowNs();
      server.HandleLine(line);
      const int span =
          tracer->Record("serve.handle_line", s0, NowNs(), -1, request, false);
      tracer->Record("store.save", s0, s1, span, request, false);
      continue;
    }
    if (r.op == "clean_step") {
      const uint64_t s0 = NowNs();
      server.HandleLine(line);
      const int span =
          tracer->Record("serve.handle_line", s0, NowNs(), -1, request, false);
      const int step = tracer->Record("cleaning.step", 0, 0, span, request, true);
      RerunSelection(tracer, &replica, task, *kernel, 3, certain, step, request,
                     prune);
      const uint64_t c0 = NowNs();
      (void)replica.StepGreedy();
      tracer->SetInterval(step, c0, NowNs());
      AdvanceCertainty(replica, &certain);
      continue;
    }
    const uint64_t hits = CounterValue("serve.cache_hits_total");
    const uint64_t s0 = NowNs();
    server.HandleLine(line);
    const uint64_t s1 = NowNs();
    const int span = tracer->Record("serve.handle_line", s0, s1, -1, request, false);
    if (CounterValue("serve.cache_hits_total") != hits) {
      hit_us->push_back(static_cast<double>(s1 - s0) / 1e3);
      continue;
    }
    const std::vector<double> point = PointOf(r, task);
    a = NowNs();
    if (r.op == "q2") {
      engine.SetTestPoint(point, *kernel);
      const uint64_t b = NowNs();
      tracer->Record("knn.sweep", a, b, span, request, true);
      (void)engine.Fractions();
      tracer->Record("core.q2_scan", b, NowNs(), span, request, true);
    } else if (r.op == "predict") {
      (void)cpclean::CertainPredictor(kernel.get(), 3).Check(replica.working(),
                                                            point);
      tracer->Record("core.predict", a, NowNs(), span, request, true);
    } else {
      (void)cpclean::ExplainPrediction(replica.working(), point, *kernel, 3);
      tracer->Record("core.explain", a, NowNs(), span, request, true);
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

int RunServe(const Args& args) {
  const bool serve_read = args.workload == "serve_read";
  if (!serve_read && args.workload != "serve_clean") {
    std::fprintf(stderr, "unknown serve workload %s\n", args.workload.c_str());
    return 2;
  }
  ServeScale scale;
  scale.train = serve_read ? (args.tiny ? 300 : 4000) : (args.tiny ? 200 : 1000);
  if (!serve_read) scale.val = scale.test = 50;
  if (args.tiny) scale.val = scale.test = 20;
  const JsonValue spec = CreateSpec(scale, 0);

  Connection control;
  if (!control.Open(args.port)) {
    std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n", args.port);
    return 1;
  }
  std::string reply;
  // Set-up: create_session several times; the first session carries the
  // load.
  const int creates = serve_read ? 3 : 9;
  std::vector<double> setup_s;
  for (int r = 0; r < creates; ++r) {
    const std::string name = "bench" + std::to_string(r);
    const uint64_t t0 = NowNs();
    const bool sent = control.Call(OpLine("create_session", name, &spec), &reply);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!sent || !ResultOf(reply).is_object()) {
      std::fprintf(stderr, "create_session failed: %s\n", reply.c_str());
      return 1;
    }
    if (r > 0) control.Call(OpLine("drop_session", name), &reply);
  }

  // The library replica the answers are checked against.
  auto task_or = cpclean::BuildTaskFromSpec(spec);
  if (!task_or.ok()) return 1;
  const CleaningTask task = std::move(task_or).value();
  const std::unique_ptr<cpclean::SimilarityKernel> kernel =
      cpclean::MakeKernel(cpclean::KernelKind::kNegativeEuclidean);
  const std::vector<std::vector<double>> hot = HotSet(args.seed, task.val_x, 64);

  const JsonValue before = FetchMetrics(&control);
  const double server_cpu0 = OtherCpuSeconds(args.server_pid);
  const double client_cpu0 = ProcessCpuSeconds();
  const int readers = serve_read ? 4 : 3;
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<double> slice_cpu{server_cpu0};
  std::vector<ConnectionLog> logs(static_cast<size_t>(readers + (serve_read ? 0 : 1)));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < readers; ++c) {
      threads.emplace_back(ReaderLoop, args.port,
                           ReadMix(serve_read, args.seed, c, &task.val_x, &hot),
                           args.seed * 31 + static_cast<uint64_t>(c),
                           serve_read ? 0 : kReaderThinkMs, deadline,
                           &logs[static_cast<size_t>(c)]);
    }
    if (!serve_read) {
      threads.emplace_back(WriterLoop, args.port, deadline,
                           &logs[static_cast<size_t>(readers)]);
    }
    // Server CPU at every slice boundary (see SetSliceMedians).
    for (uint64_t edge = start + kSliceNs; edge <= deadline; edge += kSliceNs) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(edge)));
      slice_cpu.push_back(OtherCpuSeconds(args.server_pid));
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  const double client_cpu = ProcessCpuSeconds() - client_cpu0;
  const double server_cpu = OtherCpuSeconds(args.server_pid) - server_cpu0;
  const JsonValue after = FetchMetrics(&control);
  const double server_rss = OtherPeakRssMb(args.server_pid);

  // Load accounting.
  std::vector<double> read_ms, explain_ms, step_ms, save_ms, during_ms;
  std::vector<std::pair<uint64_t, uint64_t>> writes;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t reads_ok = 0;
  std::vector<WriterStep> steps;
  JsonValue per_connection = JsonValue::MakeArray();
  for (size_t c = 0; c < logs.size(); ++c) {
    JsonValue ops = JsonValue::MakeObject();
    for (const auto& entry : logs[c].counts) {
      attempted += entry.second.sent;
      failed += entry.second.failed;
      ops.Set(entry.first, JsonValue::MakeObject(
                               {{"sent", JsonValue(entry.second.sent)},
                                {"succeeded", JsonValue(entry.second.ok)},
                                {"failed", JsonValue(entry.second.failed)}}));
    }
    per_connection.Append(JsonValue::MakeObject(
        {{"connection", JsonValue(static_cast<int>(c))},
         {"role", JsonValue(c < static_cast<size_t>(readers) ? "reader" : "writer")},
         {"broken", JsonValue(logs[c].broken)},
         {"ops", std::move(ops)}}));
    if (logs[c].broken) ++failed;
    for (const Timing& t : logs[c].timings) {
      const double ms = Ms(t.end_ns - t.start_ns);
      if (t.op == "clean_step") {
        step_ms.push_back(ms);
        writes.emplace_back(t.start_ns, t.end_ns);
      } else if (t.op == "save_session") {
        save_ms.push_back(ms);
      } else {
        read_ms.push_back(ms);
        if (t.ok) ++reads_ok;
        if (t.op == "explain") explain_ms.push_back(ms);
      }
    }
    steps.insert(steps.end(), logs[c].steps.begin(), logs[c].steps.end());
  }
  // Reads that overlapped an in-flight clean_step, as the client saw them.
  for (size_t c = 0; c < static_cast<size_t>(readers); ++c) {
    for (const Timing& t : logs[c].timings) {
      for (const auto& w : writes) {
        if (t.start_ns < w.second && t.end_ns > w.first) {
          during_ms.push_back(Ms(t.end_ns - t.start_ns));
          break;
        }
      }
    }
  }

  // Answers: the writer's cleaning order against a library replay, and a
  // seeded sample of reads against direct library calls at the version
  // each response was stamped with.
  cpclean::CpCleanOptions clean_options;
  clean_options.k = 3;
  clean_options.track_test_accuracy = false;
  auto replica_or = CleaningSession::Create(&task, kernel.get(), clean_options);
  CleaningSession& replica = *replica_or.value();
  cpclean::WorkingStorageOptions storage;
  storage.journal = true;  // as every serving session is configured
  (void)replica.ConfigureWorkingStorage(storage);
  (void)replica.FracValCertain();
  struct Check {
    uint64_t version;
    Request request;
    JsonValue served;
  };
  std::vector<Check> checks;
  for (size_t c = 0; c < static_cast<size_t>(readers); ++c) {
    for (const Sample& s : logs[c].samples) {
      JsonValue result = ResultOf(s.reply);
      const JsonValue* list = result.is_object() ? result.Find("results") : nullptr;
      if (list == nullptr || list->array().size() != 1) {
        ++failed;
        continue;
      }
      const JsonValue& one = list->array()[0];
      const JsonValue* version = one.Find("version");
      checks.push_back(Check{
          version != nullptr ? static_cast<uint64_t>(version->number_value()) : 0,
          s.request, one});
    }
  }
  std::stable_sort(checks.begin(), checks.end(),
                   [](const Check& x, const Check& y) { return x.version < y.version; });
  size_t next_step = 0;
  int64_t checked = 0;
  int64_t wrong = 0;
  const auto advance_to = [&](uint64_t version) {
    while (replica.working().version() < version && next_step < steps.size()) {
      const int cleaned = replica.StepGreedy();
      const WriterStep& served = steps[next_step++];
      ++checked;
      if (cleaned != served.cleaned ||
          (cleaned >= 0 && replica.working().version() != served.version)) {
        ++wrong;
      }
    }
  };
  for (size_t i = 0; i < checks.size(); ++i) {
    advance_to(checks[i].version);
    JsonValue expected =
        DirectAnswer(checks[i].request.op, PointOf(checks[i].request, task),
                     replica.working(), *kernel, 3);
    if (args.corrupt && i == 0) expected.Set("version", JsonValue(-1));
    ++checked;
    if (!SameAnswer(expected, checks[i].served)) ++wrong;
  }
  advance_to(UINT64_MAX);
  failed += wrong;

  JsonValue values = JsonValue::MakeObject();
  values.Set("setup_s", JsonValue(Median(setup_s)));
  if (serve_read) {
    SetSliceMedians(logs, start, slice_cpu, &values);
  } else {
    std::vector<double> cycle_s;
    for (const WriterStep& s : steps) {
      cycle_s.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
    values.Set("wall_s", JsonValue(Median(cycle_s)));
    values.Set("cpu_s", JsonValue(server_cpu / static_cast<double>(
                                                   std::max<size_t>(steps.size(), 1))));
    values.Set("ops_per_s", JsonValue(static_cast<double>(reads_ok) / window_s));
    values.Set("op_ms.p50", JsonValue(Quantile(read_ms, 0.5)));
    values.Set("op_ms.p95", JsonValue(Quantile(read_ms, 0.95)));
  }
  values.Set("peak_rss_mb", JsonValue(server_rss));

  const double cache_hits = CounterDelta(before, after, "serve.cache_hits_total");
  const double cache_misses =
      CounterDelta(before, after, "serve.cache_misses_total");
  const double engine_hits = CounterDelta(before, after, "engine_pool.hits_total");
  const double engine_rebinds =
      CounterDelta(before, after, "engine_pool.rebinds_total");
  const double engine_misses =
      CounterDelta(before, after, "engine_pool.misses_total");
  const double leases = engine_hits + engine_rebinds + engine_misses;
  const double pool_threads = std::thread::hardware_concurrency();
  const double client_frac = client_cpu / (window_s * static_cast<double>(logs.size()));

  JsonValue detail = JsonValue::MakeObject();
  detail.Set("train_rows", JsonValue(scale.train));
  detail.Set("window_s", JsonValue(window_s));
  detail.Set("read_ms", LatencySummary(read_ms));
  detail.Set("explain_ms", LatencySummary(explain_ms));
  detail.Set("clean_step_ms", LatencySummary(step_ms));
  detail.Set("save_ms", LatencySummary(save_ms));
  detail.Set("read_during_write_ms", LatencySummary(during_ms));
  detail.Set("cache_hit_frac",
             JsonValue(cache_hits / std::max(cache_hits + cache_misses, 1.0)));
  detail.Set("steps", JsonValue(static_cast<int>(steps.size())));
  detail.Set("converged",
             JsonValue(!steps.empty() && steps.back().cleaned < 0));
  detail.Set("answers_checked", JsonValue(checked));
  detail.Set("answers_wrong", JsonValue(wrong));
  detail.Set("server_cpu_s", JsonValue(server_cpu));
  detail.Set("client", JsonValue::MakeObject(
                           {{"cpu_s", JsonValue(client_cpu)},
                            {"cpu_frac_per_connection", JsonValue(client_frac)},
                            {"client_bound", JsonValue(client_frac > 0.9)},
                            {"connections", std::move(per_connection)}}));
  detail.Set("setup_samples_s", JsonValue::FromDoubles(setup_s));

  if (args.trace) {
    values.Set("serve.queue_wait_ms.p99",
               JsonValue(HistogramMs(after, "serve.queue_wait_ns", "p99_ns")));
    values.Set("serve.exec_ms.p50",
               JsonValue(HistogramMs(after, "serve.exec_ns", "p50_ns")));
    values.Set("serve.cache_hit_frac", *detail.Find("cache_hit_frac"));
    values.Set("serve.cache_invalidations",
               JsonValue(CounterDelta(before, after,
                                      "serve.cache_invalidations_total")));
    values.Set("engine_pool.reuse_frac",
               JsonValue(leases > 0 ? (engine_hits + engine_rebinds) / leases : 0.0));
    values.Set("engine_pool.rebinds_total", JsonValue(engine_rebinds));
    values.Set("pool.jobs_total",
               JsonValue(CounterDelta(before, after, "pool.jobs_total")));
    values.Set("pool.steals_total",
               JsonValue(CounterDelta(before, after, "pool.steals_total")));
    values.Set("common.pool_busy_frac",
               JsonValue(server_cpu / (window_s * pool_threads)));
    values.Set("store.save_ms",
               JsonValue(serve_read ? 0.0
                                    : HistogramMs(after, "store.save_ns", "p50_ns")));
    values.Set("store.log_bytes_per_step",
               JsonValue(steps.empty() ? 0.0
                                       : CounterDelta(before, after,
                                                      "store.log_appended_bytes") /
                                             static_cast<double>(steps.size())));
    values.Set("serve.read_during_write_ms.p50",
               JsonValue(Quantile(during_ms, 0.5)));

    // In-process replays of one request sequence: untraced in the serving
    // configuration, then traced.
    const int cycles = serve_read ? 1 : (args.tiny ? 2 : 4);
    const int reads_per_cycle =
        serve_read ? (args.tiny ? 80 : 800) : (args.tiny ? 10 : 50);
    const std::vector<Request> sequence = ReplaySequence(
        serve_read, args.seed, readers, cycles, reads_per_cycle, task.val_x, hot);
    std::vector<double> hit_us;
    PruneCounts prune;
    const double plain_s = Replay(spec, sequence, args.work + "/replay_plain",
                                  nullptr, &hit_us, &prune);
    Tracer tracer;
    const uint64_t t0 = NowNs();
    Replay(CreateSpec(scale, 1), sequence,
           args.work + "/replay_traced", &tracer, &hit_us, &prune);
    const uint64_t traced_ns = NowNs() - t0;
    tracer.WriteJsonl(args.work + "/spans-" + args.workload + ".jsonl");
    const JsonValue summary = TraceSummary(tracer, traced_ns, plain_s);
    SetTraceValues(summary, &values);
    values.Set("core.topk_prune_frac",
               JsonValue(prune.pruned + prune.swept > 0
                             ? static_cast<double>(prune.pruned) /
                                   static_cast<double>(prune.pruned + prune.swept)
                             : 0.0));
    double hit_mean = 0.0;
    for (double us : hit_us) hit_mean += us / static_cast<double>(hit_us.size());
    values.Set("serve.handle_line_us", JsonValue(hit_mean));
    values.Set("serve.build_task_ms",
               JsonValue(LayerMs(summary, "serve.build_task")));
    values.Set("serve.session_make_ms",
               JsonValue(LayerMs(summary, "serve.session_make")));
    detail.Set("trace", summary);
  }

  JsonValue out = JsonValue::MakeObject();
  out.Set("attempted", JsonValue(attempted));
  out.Set("failed", JsonValue(failed));
  out.Set("values", std::move(values));
  out.Set("detail", std::move(detail));
  out.Set("stamp", HostBuildStamp());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  if (!pb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness table2|serve [--workload W] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] "
                 "[--port P] [--server-pid PID] [--work DIR] [--corrupt 0|1]\n");
    return 2;
  }
  if (args.mode == "table2") return pb::RunTable2(args);
  if (args.mode == "serve") return pb::RunServe(args);
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
