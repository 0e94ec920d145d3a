#ifndef CPCLEAN_EVAL_EXPERIMENT_H_
#define CPCLEAN_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "cleaning/cp_clean.h"
#include "common/result.h"
#include "datasets/paper_datasets.h"
#include "knn/kernel.h"

namespace cpclean {

/// End-to-end experiment configuration shared by the Table 2 / Figure 9 /
/// Figure 10 harnesses.
struct ExperimentConfig {
  PaperDatasetSpec dataset;
  int k = 3;
  uint64_t seed = 1;
  RepairOptions repair_options;
  /// Worker threads for the CPClean inner loops (see
  /// CpCleanOptions::num_threads): 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical for every value.
  int num_threads = 0;
};

/// A dataset instantiated for experiments: generated, split, injected
/// with MNAR missing values, and packaged as a CleaningTask; plus the two
/// accuracy anchors of the paper's protocol.
struct PreparedExperiment {
  CleaningTask task;
  double ground_truth_test_accuracy = 0.0;
  double default_test_accuracy = 0.0;
  double observed_missing_rate = 0.0;
  int dirty_rows = 0;
};

/// Generates the synthetic table, splits train/val/test, measures feature
/// importance on the clean data, injects MNAR missing values into the
/// training partition only, and builds the CleaningTask. Callers that need
/// only the task (the serving layer) stop here.
Result<CleaningTask> BuildExperimentTask(const ExperimentConfig& config,
                                         const SimilarityKernel& kernel);

/// BuildExperimentTask plus the observed missing rate, the dirty-row count
/// and the ground-truth and default test accuracies.
Result<PreparedExperiment> PrepareExperiment(const ExperimentConfig& config,
                                             const SimilarityKernel& kernel);

/// One row of the paper's Table 2.
struct Table2Row {
  std::string dataset;
  double ground_truth_accuracy = 0.0;
  double default_accuracy = 0.0;
  double boost_clean_gap = 0.0;
  double holo_clean_gap = 0.0;
  double cp_clean_gap = 0.0;
  double cp_clean_examples_cleaned = 0.0;  // fraction of train rows
  double cp_clean_gap_at_20pct = 0.0;      // early-termination column
};

/// Runs GroundTruth / Default / BoostClean / HoloClean / CPClean on one
/// prepared experiment and fills a Table 2 row.
Result<Table2Row> RunTable2Row(const ExperimentConfig& config,
                               const SimilarityKernel& kernel);

/// The Figure 9 series for one dataset: CPClean's and RandomClean's
/// cleaning curves (fraction cleaned vs. fraction CP'ed / gap closed).
struct CleaningCurves {
  std::string dataset;
  CleaningRunResult cp_clean;
  /// Point-wise average over `random_repeats` RandomClean runs, truncated
  /// to the shortest run.
  std::vector<CleaningStepLog> random_clean_mean;
  double ground_truth_accuracy = 0.0;
  double default_accuracy = 0.0;
  int total_dirty = 0;
};

Result<CleaningCurves> RunCleaningCurves(const ExperimentConfig& config,
                                         const SimilarityKernel& kernel,
                                         int random_repeats = 3);

}  // namespace cpclean

#endif  // CPCLEAN_EVAL_EXPERIMENT_H_
