#include "cleaning/cleaning_task.h"

#include <cmath>
#include <limits>

#include "cleaning/imputers.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "knn/knn_classifier.h"

namespace cpclean {

double CleaningTask::AccuracyWith(
    const std::vector<std::vector<double>>& train_features,
    const std::vector<std::vector<double>>& eval_x,
    const std::vector<int>& eval_y, const SimilarityKernel& kernel,
    int k) const {
  const KnnClassifier classifier(train_features, train_y,
                                 labels.num_labels(), k, &kernel);
  return classifier.Accuracy(eval_x, eval_y);
}

Result<std::vector<std::vector<double>>> CleaningTask::EncodeCompletedTrain(
    const Table& completed) const {
  if (completed.num_rows() != dirty_train.num_rows()) {
    return Status::InvalidArgument("completed table row count mismatch");
  }
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<size_t>(completed.num_rows()));
  for (int r = 0; r < completed.num_rows(); ++r) {
    CP_ASSIGN_OR_RETURN(auto x, encoder.EncodeRow(completed.row(r)));
    out.push_back(std::move(x));
  }
  return out;
}

namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace

Result<CleaningTask> BuildCleaningTask(const Table& dirty_train,
                                       const Table& clean_train,
                                       const Table& val, const Table& test,
                                       const std::string& label_name,
                                       const RepairOptions& repair_options) {
  if (!(dirty_train.schema() == clean_train.schema()) ||
      !(dirty_train.schema() == val.schema()) ||
      !(dirty_train.schema() == test.schema())) {
    return Status::InvalidArgument("all tables must share one schema");
  }
  if (dirty_train.num_rows() != clean_train.num_rows()) {
    return Status::InvalidArgument(
        "dirty and clean training tables must align row-by-row");
  }
  if (val.CountMissing() > 0 || test.CountMissing() > 0 ||
      clean_train.CountMissing() > 0) {
    return Status::InvalidArgument(
        "validation, test and ground-truth tables must be complete");
  }

  CleaningTask task;
  task.dirty_train = dirty_train;
  task.clean_train = clean_train;
  task.val = val;
  task.test = test;
  task.repair_options = repair_options;
  CP_ASSIGN_OR_RETURN(task.label_col,
                      dirty_train.schema().FieldIndex(label_name));

  // Labels: fit across train/val/test so ids are shared.
  std::vector<Value> all_labels = dirty_train.Column(task.label_col);
  for (const Value& v : val.Column(task.label_col)) all_labels.push_back(v);
  for (const Value& v : test.Column(task.label_col)) all_labels.push_back(v);
  CP_RETURN_NOT_OK(task.labels.Fit(all_labels));

  // Encoder: fit on the default-imputed training table plus val and test.
  CP_ASSIGN_OR_RETURN(Table default_train,
                      DefaultCleanImpute(dirty_train, task.label_col));
  Table fit_table = default_train;
  for (int r = 0; r < val.num_rows(); ++r) {
    CP_RETURN_NOT_OK(fit_table.AppendRow(val.row(r)));
  }
  for (int r = 0; r < test.num_rows(); ++r) {
    CP_RETURN_NOT_OK(fit_table.AppendRow(test.row(r)));
  }
  CP_RETURN_NOT_OK(task.encoder.Fit(fit_table, {task.label_col}));

  // Candidate space and the oracle's answers. Each column's repair list is
  // built once and shared by every row.
  const std::vector<std::vector<Value>> column_repairs =
      ColumnRepairs(dirty_train, task.label_col, repair_options);
  task.incomplete = IncompleteDataset(task.labels.num_labels());
  task.candidate_rows.reserve(static_cast<size_t>(dirty_train.num_rows()));
  task.true_candidate.reserve(static_cast<size_t>(dirty_train.num_rows()));
  for (int r = 0; r < dirty_train.num_rows(); ++r) {
    CP_ASSIGN_OR_RETURN(auto rows,
                        RowRepairs(dirty_train, r, task.label_col,
                                   column_repairs, repair_options));
    CP_ASSIGN_OR_RETURN(int y,
                        task.labels.Encode(dirty_train.at(r, task.label_col)));
    task.train_y.push_back(y);

    IncompleteExample example;
    example.label = y;
    for (const auto& row_values : rows) {
      CP_ASSIGN_OR_RETURN(auto x, task.encoder.EncodeRow(row_values));
      example.candidates.push_back(std::move(x));
    }

    // Oracle: candidate closest to the encoded ground truth.
    CP_ASSIGN_OR_RETURN(auto truth_x,
                        task.encoder.EncodeRow(clean_train.row(r)));
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < example.candidates.size(); ++j) {
      const double d = SquaredDistance(example.candidates[j], truth_x);
      if (d < best_dist) {
        best_dist = d;
        best = static_cast<int>(j);
      }
    }
    task.true_candidate.push_back(best);
    task.clean_train_x.push_back(std::move(truth_x));
    task.candidate_rows.push_back(std::move(rows));
    CP_RETURN_NOT_OK(task.incomplete.AddExample(std::move(example)));
  }

  // Default world (mean/mode-imputed training rows, encoded).
  for (int r = 0; r < default_train.num_rows(); ++r) {
    CP_ASSIGN_OR_RETURN(auto x, task.encoder.EncodeRow(default_train.row(r)));
    task.default_x.push_back(std::move(x));
  }

  // Validation and test sets, encoded.
  for (int r = 0; r < val.num_rows(); ++r) {
    CP_ASSIGN_OR_RETURN(auto x, task.encoder.EncodeRow(val.row(r)));
    CP_ASSIGN_OR_RETURN(int y, task.labels.Encode(val.at(r, task.label_col)));
    task.val_x.push_back(std::move(x));
    task.val_y.push_back(y);
  }
  for (int r = 0; r < test.num_rows(); ++r) {
    CP_ASSIGN_OR_RETURN(auto x, task.encoder.EncodeRow(test.row(r)));
    CP_ASSIGN_OR_RETURN(int y, task.labels.Encode(test.at(r, task.label_col)));
    task.test_x.push_back(std::move(x));
    task.test_y.push_back(y);
  }
  return task;
}

}  // namespace cpclean
