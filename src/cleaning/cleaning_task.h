#ifndef CPCLEAN_CLEANING_CLEANING_TASK_H_
#define CPCLEAN_CLEANING_CLEANING_TASK_H_

#include <string>
#include <vector>

#include "cleaning/repair_generator.h"
#include "common/result.h"
#include "data/encoder.h"
#include "data/table.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {

/// Everything a "data cleaning for ML" experiment needs, bundled: the
/// relational views (dirty training set, held-back ground truth, complete
/// validation and test sets), the fitted encoders, the incomplete dataset
/// of encoded candidate repairs, and the simulated human oracle's answers.
///
/// Ground truth (`clean_train`) is used for two things only, mirroring the
/// paper's protocol: (1) the oracle answer for a cleaned tuple — the
/// candidate repair closest to the true value; (2) the "Ground Truth"
/// upper-bound accuracy.
struct CleaningTask {
  // Relational views (shared schema).
  Table dirty_train;
  Table clean_train;
  Table val;
  Table test;
  int label_col = -1;
  RepairOptions repair_options;

  // Encoding.
  FeatureEncoder encoder;
  LabelEncoder labels;

  // Candidate space.
  IncompleteDataset incomplete;  // encoded candidate sets, one per train row
  std::vector<std::vector<std::vector<Value>>> candidate_rows;
  std::vector<int> true_candidate;  // oracle answer per train row

  // Encoded fixed sets.
  std::vector<std::vector<double>> val_x, test_x, clean_train_x, default_x;
  std::vector<int> val_y, test_y, train_y;

  /// Train rows with more than one candidate repair.
  std::vector<int> DirtyRows() const { return incomplete.DirtyExamples(); }

  /// KNN accuracy on the encoded validation / test set when training on
  /// the given encoded feature matrix (labels = train_y).
  double AccuracyWith(const std::vector<std::vector<double>>& train_features,
                      const std::vector<std::vector<double>>& eval_x,
                      const std::vector<int>& eval_y,
                      const SimilarityKernel& kernel, int k) const;

  /// Encodes a completed relational training table (e.g., the output of an
  /// imputer) into feature vectors with the task's encoder.
  Result<std::vector<std::vector<double>>> EncodeCompletedTrain(
      const Table& completed) const;
};

/// Builds a task from the four tables. `label_name` selects the class
/// column. Candidate repairs are generated from `dirty_train` per
/// `repair_options`, one list per column (`ColumnRepairs`) shared by every
/// row; the feature encoder is fit on the default-imputed
/// training table plus val and test so every candidate has an encoding.
Result<CleaningTask> BuildCleaningTask(
    const Table& dirty_train, const Table& clean_train, const Table& val,
    const Table& test, const std::string& label_name,
    const RepairOptions& repair_options = RepairOptions());

}  // namespace cpclean

#endif  // CPCLEAN_CLEANING_CLEANING_TASK_H_
