#include "eval/experiment.h"

#include <algorithm>

#include "cleaning/boost_clean.h"
#include "cleaning/holo_clean.h"
#include "cleaning/importance.h"
#include "cleaning/imputers.h"
#include "cleaning/missing_injector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/split.h"
#include "datasets/synthetic.h"
#include "eval/metrics.h"

namespace cpclean {

Result<CleaningTask> BuildExperimentTask(const ExperimentConfig& config,
                                         const SimilarityKernel& kernel) {
  Rng rng(config.seed ^ config.dataset.synthetic.seed);

  CP_ASSIGN_OR_RETURN(Table full, GenerateSynthetic(config.dataset.synthetic));
  CP_ASSIGN_OR_RETURN(DataSplit split,
                      TrainValTestSplit(full, config.dataset.val_size,
                                        config.dataset.test_size, &rng));
  CP_ASSIGN_OR_RETURN(const int label_col,
                      full.schema().FieldIndex(SyntheticLabelColumn()));

  // Feature importance measured on clean data (paper §5.1), then MNAR
  // injection into the training partition only.
  CP_ASSIGN_OR_RETURN(
      const std::vector<double> importance,
      ComputeFeatureImportance(split.train, split.val, label_col, config.k,
                               kernel));
  InjectionOptions injection;
  injection.missing_rate = config.dataset.missing_rate;
  CP_ASSIGN_OR_RETURN(
      Table dirty_train,
      InjectMissing(split.train, label_col, importance, injection, &rng));

  return BuildCleaningTask(dirty_train, split.train, split.val, split.test,
                           SyntheticLabelColumn(), config.repair_options);
}

Result<PreparedExperiment> PrepareExperiment(const ExperimentConfig& config,
                                             const SimilarityKernel& kernel) {
  PreparedExperiment prepared;
  CP_ASSIGN_OR_RETURN(prepared.task, BuildExperimentTask(config, kernel));
  const CleaningTask& task = prepared.task;
  const Table& dirty_train = task.dirty_train;
  prepared.observed_missing_rate =
      static_cast<double>(dirty_train.CountMissing()) /
      static_cast<double>(dirty_train.num_rows() *
                          (dirty_train.num_columns() - 1));
  prepared.dirty_rows = static_cast<int>(task.DirtyRows().size());
  prepared.ground_truth_test_accuracy = task.AccuracyWith(
      task.clean_train_x, task.test_x, task.test_y, kernel, config.k);
  prepared.default_test_accuracy = task.AccuracyWith(
      task.default_x, task.test_x, task.test_y, kernel, config.k);
  return prepared;
}

Result<Table2Row> RunTable2Row(const ExperimentConfig& config,
                               const SimilarityKernel& kernel) {
  CP_ASSIGN_OR_RETURN(PreparedExperiment prepared,
                      PrepareExperiment(config, kernel));
  const CleaningTask& task = prepared.task;

  Table2Row row;
  row.dataset = config.dataset.name;
  row.ground_truth_accuracy = prepared.ground_truth_test_accuracy;
  row.default_accuracy = prepared.default_test_accuracy;

  // BoostClean.
  CP_ASSIGN_OR_RETURN(const BoostCleanResult boost,
                      RunBoostClean(task, kernel, config.k));
  row.boost_clean_gap =
      GapClosed(boost.test_accuracy, row.default_accuracy,
                row.ground_truth_accuracy);

  // HoloClean (task-oblivious probabilistic imputation).
  CP_ASSIGN_OR_RETURN(const Table holo_table,
                      HoloCleanImpute(task.dirty_train, task.label_col));
  CP_ASSIGN_OR_RETURN(const auto holo_x, task.EncodeCompletedTrain(holo_table));
  const double holo_acc =
      task.AccuracyWith(holo_x, task.test_x, task.test_y, kernel, config.k);
  row.holo_clean_gap =
      GapClosed(holo_acc, row.default_accuracy, row.ground_truth_accuracy);

  // CPClean, run to convergence (all validation examples CP'ed).
  CpCleanOptions options;
  options.k = config.k;
  options.num_threads = config.num_threads;
  CleaningSession session(&task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  row.cp_clean_gap = GapClosed(run.final_test_accuracy, row.default_accuracy,
                               row.ground_truth_accuracy);
  const int total_rows = task.dirty_train.num_rows();
  row.cp_clean_examples_cleaned =
      total_rows > 0
          ? static_cast<double>(run.examples_cleaned) / total_rows
          : 0.0;

  // Early termination at a 20%-of-training-set budget (Table 2's last
  // discussion point): read the accuracy off the recorded trace.
  const int budget20 = std::max(1, total_rows / 5);
  double acc_at_20 = row.default_accuracy;
  for (const CleaningStepLog& log : run.steps) {
    if (log.step <= budget20) acc_at_20 = log.test_accuracy;
  }
  row.cp_clean_gap_at_20pct =
      GapClosed(acc_at_20, row.default_accuracy, row.ground_truth_accuracy);
  return row;
}

Result<CleaningCurves> RunCleaningCurves(const ExperimentConfig& config,
                                         const SimilarityKernel& kernel,
                                         int random_repeats) {
  CP_ASSIGN_OR_RETURN(PreparedExperiment prepared,
                      PrepareExperiment(config, kernel));
  const CleaningTask& task = prepared.task;

  CleaningCurves curves;
  curves.dataset = config.dataset.name;
  curves.ground_truth_accuracy = prepared.ground_truth_test_accuracy;
  curves.default_accuracy = prepared.default_test_accuracy;
  curves.total_dirty = prepared.dirty_rows;

  CpCleanOptions options;
  options.k = config.k;
  options.num_threads = config.num_threads;
  // Curves run the full cleaning trajectory, not stopping at all-CP'ed,
  // so both series span the same x-axis.
  options.stop_when_all_certain = false;

  CleaningSession session(&task, &kernel, options);
  curves.cp_clean = session.RunCpClean();

  // RandomClean, averaged point-wise across repeats.
  std::vector<CleaningRunResult> runs;
  Rng rng(config.seed ^ 0xAAAAull);
  for (int r = 0; r < random_repeats; ++r) {
    Rng child = rng.Fork();
    runs.push_back(session.RunRandomClean(&child));
  }
  size_t min_len = runs.empty() ? 0 : runs.front().steps.size();
  for (const auto& run : runs) min_len = std::min(min_len, run.steps.size());
  for (size_t s = 0; s < min_len; ++s) {
    CleaningStepLog mean;
    mean.step = static_cast<int>(s);
    mean.cleaned_example = -1;
    for (const auto& run : runs) {
      mean.frac_val_certain += run.steps[s].frac_val_certain;
      mean.test_accuracy += run.steps[s].test_accuracy;
      mean.mean_val_entropy += run.steps[s].mean_val_entropy;
    }
    const double denom = static_cast<double>(runs.size());
    mean.frac_val_certain /= denom;
    mean.test_accuracy /= denom;
    mean.mean_val_entropy /= denom;
    curves.random_clean_mean.push_back(mean);
  }
  return curves;
}

}  // namespace cpclean
