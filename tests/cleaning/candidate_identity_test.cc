// Candidate generation is defined per cell: every missing cell's repairs
// are `CellRepairs` of its column, and a row's candidates are the capped
// Cartesian product of its missing cells' repairs. `BuildCleaningTask`
// builds each column's list once and shares it across rows. These tests
// hold the built task to that per-cell definition, written out here as a
// reference, on the four paper analogs and on a 4,000-row synthetic task:
// every candidate row, its encoding and the oracle's answer must match.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "cleaning/repair_generator.h"
#include "data/csv.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

/// The per-cell definition: `CellRepairs(table, c)` for each missing cell,
/// expanded left to right (the last missing column varies fastest) and cut
/// at `max_candidates_per_row`.
std::vector<std::vector<Value>> ReferenceRowRepairs(
    const Table& table, int row, int label_col, const RepairOptions& options) {
  std::vector<std::vector<Value>> out = {table.row(row)};
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == label_col || !table.at(row, c).is_null()) continue;
    const std::vector<Value> repairs = CellRepairs(table, c, options);
    std::vector<std::vector<Value>> next;
    for (const auto& partial : out) {
      for (const Value& r : repairs) {
        if (static_cast<int>(next.size()) == options.max_candidates_per_row) {
          break;
        }
        next.push_back(partial);
        next.back()[static_cast<size_t>(c)] = r;
      }
    }
    out = std::move(next);
  }
  return out;
}

/// Index of the encoded candidate nearest to the encoded ground truth,
/// first on ties: the simulated oracle's answer.
int ReferenceTrueCandidate(const std::vector<std::vector<double>>& encoded,
                           const std::vector<double>& truth) {
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < encoded.size(); ++j) {
    double dist = 0.0;
    for (size_t d = 0; d < truth.size(); ++d) {
      const double diff = encoded[j][d] - truth[d];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<int>(j);
    }
  }
  return best;
}

/// Compares every row of `task` with the per-cell reference; returns the
/// number of rows that have more than one candidate.
int ExpectMatchesReference(const CleaningTask& task) {
  const Table& dirty = task.dirty_train;
  EXPECT_EQ(task.candidate_rows.size(), static_cast<size_t>(dirty.num_rows()));
  EXPECT_EQ(task.true_candidate.size(), static_cast<size_t>(dirty.num_rows()));
  EXPECT_EQ(task.incomplete.num_examples(), dirty.num_rows());
  int dirty_rows = 0;
  for (int r = 0; r < dirty.num_rows(); ++r) {
    const auto expected =
        ReferenceRowRepairs(dirty, r, task.label_col, task.repair_options);
    const auto& rows = task.candidate_rows[static_cast<size_t>(r)];
    if (rows != expected) {
      ADD_FAILURE() << "candidate rows differ at row " << r;
      return dirty_rows;
    }
    std::vector<std::vector<double>> encoded;
    for (const auto& values : expected) {
      encoded.push_back(task.encoder.EncodeRow(values).value());
    }
    if (task.incomplete.num_candidates(r) != static_cast<int>(encoded.size())) {
      ADD_FAILURE() << "candidate count differs at row " << r;
      return dirty_rows;
    }
    for (size_t j = 0; j < encoded.size(); ++j) {
      // Bit-identical: the same encoder on the same values.
      if (task.incomplete.candidate(r, static_cast<int>(j)) != encoded[j]) {
        ADD_FAILURE() << "encoded candidate " << j << " differs at row " << r;
        return dirty_rows;
      }
    }
    const auto truth = task.encoder.EncodeRow(task.clean_train.row(r)).value();
    if (task.true_candidate[static_cast<size_t>(r)] !=
        ReferenceTrueCandidate(encoded, truth)) {
      ADD_FAILURE() << "oracle answer differs at row " << r;
      return dirty_rows;
    }
    if (encoded.size() > 1) ++dirty_rows;
  }
  return dirty_rows;
}

TEST(CandidateIdentityTest, PaperAnalogsMatchPerCellDefinition) {
  const NegativeEuclideanKernel kernel;
  for (const PaperDatasetSpec& spec : PaperDatasetSuite()) {
    SCOPED_TRACE(spec.name);
    ExperimentConfig config;
    config.dataset = spec;
    config.seed = 3;
    const PreparedExperiment prepared =
        PrepareExperiment(config, kernel).value();
    EXPECT_GT(ExpectMatchesReference(prepared.task), 0);
  }
}

TEST(CandidateIdentityTest, ServedSizeSyntheticTaskMatchesPerCellDefinition) {
  // The served read benchmark's session: synthetic, 4,000 training rows,
  // six numeric features, data seed 42, k = 3.
  PaperDatasetSpec spec;
  spec.name = "synthetic";
  spec.synthetic.name = spec.name;
  spec.synthetic.num_rows = 4000 + 100 + 100;
  spec.synthetic.num_numeric = 6;
  spec.synthetic.num_categorical = 0;
  spec.synthetic.noise_sigma = 0.5;
  spec.synthetic.seed = 42;
  spec.val_size = 100;
  spec.test_size = 100;
  ExperimentConfig config;
  config.dataset = spec;
  config.seed = 42;
  const NegativeEuclideanKernel kernel;
  const PreparedExperiment prepared = PrepareExperiment(config, kernel).value();
  ASSERT_EQ(prepared.task.dirty_train.num_rows(), 4000);
  EXPECT_EQ(ExpectMatchesReference(prepared.task), prepared.dirty_rows);
}

TEST(CandidateIdentityTest, ThreeMissingCellsCappedAtSevenMatchReference) {
  const Table dirty = ReadCsvString(
                          "a,b,city,label\n"
                          "1,10,rome,0\n"
                          "2,20,paris,1\n"
                          "3,30,rome,0\n"
                          "4,40,oslo,1\n"
                          ",,,1\n"
                          "5,,rome,0\n")
                          .value();
  const Table clean = ReadCsvString(
                          "a,b,city,label\n"
                          "1,10,rome,0\n"
                          "2,20,paris,1\n"
                          "3,30,rome,0\n"
                          "4,40,oslo,1\n"
                          "4,20,paris,1\n"
                          "5,30,rome,0\n")
                          .value();
  RepairOptions options;
  options.max_candidates_per_row = 7;
  const CleaningTask task =
      BuildCleaningTask(dirty, clean, clean, clean, "label", options).value();
  EXPECT_EQ(task.candidate_rows[4].size(), 7u);  // 5 x 5 x 4, cut at 7
  EXPECT_EQ(task.candidate_rows[5].size(), 5u);
  EXPECT_EQ(ExpectMatchesReference(task), 2);
}

}  // namespace
}  // namespace cpclean
