// Using the library on external relational data: parse a CSV with missing
// cells, generate candidate repairs, and query certain predictions.
// (The CSV is inline here so the example is self-contained; ReadCsvFile
// works the same way on disk files.)

#include <cstdio>

#include "cleaning/cleaning_task.h"
#include "cleaning/imputers.h"
#include "cleaning/repair_generator.h"
#include "core/certain_predictor.h"
#include "eval/accuracy_bounds.h"
#include "data/csv.h"
#include "knn/kernel.h"

int main() {
  using namespace cpclean;

  const char* csv =
      "age,income,city,label\n"
      "25,48000,paris,0\n"
      "31,,rome,1\n"       // missing income
      "47,81000,rome,1\n"
      "38,62000,,1\n"      // missing city
      "29,51000,paris,0\n"
      "52,90000,rome,1\n"
      "23,39000,paris,0\n"
      "44,,paris,0\n";     // missing income

  auto table_or = ReadCsvString(csv);
  if (!table_or.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 table_or.status().ToString().c_str());
    return 1;
  }
  const Table& dirty = table_or.value();
  std::printf("parsed %d rows x %d columns, %d missing cells (%.1f%%)\n",
              dirty.num_rows(), dirty.num_columns(), dirty.CountMissing(),
              100.0 * dirty.MissingRate());

  const int label_col = dirty.schema().FieldIndex("label").value();

  // Candidate repairs, computed once per column (numeric: column
  // percentiles; categorical: frequent categories + "other"); each dirty
  // row's completions are the product of its missing columns' lists.
  const auto column_repairs = ColumnRepairs(dirty, label_col);
  for (int r : dirty.RowsWithMissing()) {
    auto repairs = RowRepairs(dirty, r, label_col, column_repairs);
    std::printf("row %d has %d candidate completions\n", r,
                static_cast<int>(repairs.value().size()));
  }

  // Encode everything through a CleaningTask. Here we have no ground
  // truth, so pass a default-imputed table as a stand-in "clean" version
  // (the CP queries below never look at it) and reuse the table itself as
  // val/test placeholder.
  auto default_or = DefaultCleanImpute(dirty, label_col);
  auto task_or = BuildCleaningTask(dirty, default_or.value(),
                                   default_or.value(), default_or.value(),
                                   "label");
  if (!task_or.ok()) {
    std::fprintf(stderr, "task build failed: %s\n",
                 task_or.status().ToString().c_str());
    return 1;
  }
  const CleaningTask& task = task_or.value();
  std::printf("possible worlds induced by the candidate sets: %s\n",
              task.incomplete.NumPossibleWorlds().ToString().c_str());

  NegativeEuclideanKernel kernel;
  CertainPredictor predictor(&kernel, /*k=*/3);
  int certain = 0;
  for (size_t v = 0; v < task.val_x.size(); ++v) {
    if (predictor.IsCertain(task.incomplete, task.val_x[v])) ++certain;
  }
  std::printf("%d of %d rows are certainly predicted despite the missing "
              "cells\n",
              certain, static_cast<int>(task.val_x.size()));

  // How much could the incompleteness move the accuracy? Every possible
  // world's accuracy provably lies inside this interval.
  const AccuracyBounds bounds = ComputeAccuracyBounds(
      task.incomplete, task.val_x, task.val_y, kernel, /*k=*/3);
  std::printf("accuracy over ALL possible worlds is within [%.3f, %.3f] "
              "(%d certain-correct, %d certain-incorrect, %d uncertain)\n",
              bounds.lower, bounds.upper, bounds.certain_correct,
              bounds.certain_incorrect, bounds.uncertain);
  return 0;
}
