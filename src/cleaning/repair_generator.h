#ifndef CPCLEAN_CLEANING_REPAIR_GENERATOR_H_
#define CPCLEAN_CLEANING_REPAIR_GENERATOR_H_

#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace cpclean {

/// Candidate-repair generation (paper §5.1, "CPClean" setup):
///  - numeric column with missing cells: {min, 25th percentile, mean,
///    75th percentile, max} of the observed values;
///  - categorical column: the top 4 most frequent categories plus a dummy
///    "other" category.
/// The repairs of a cell depend on its column only, never on its row, so
/// they are computed once per column (`ColumnRepairs`) and every row reads
/// those lists. A row with several missing cells takes the Cartesian
/// product of its columns' lists, capped at `max_candidates_per_row` (the
/// paper uses the full product; the cap only guards pathological rows).
struct RepairOptions {
  int numeric_percentile_candidates = 5;  // fixed classic set when 5
  int categorical_top_k = 4;
  std::string other_category = "__other__";
  int max_candidates_per_row = 125;
};

/// Candidate repairs for a single cell of `table` at column `col`, computed
/// from the observed (non-null) values of that column. O(rows log rows):
/// call it once per column, not once per cell.
std::vector<Value> CellRepairs(const Table& table, int col,
                               const RepairOptions& options = RepairOptions());

/// The candidate repairs of every column of `table`, indexed by column:
/// `CellRepairs` of each feature column, and an empty list for `label_col`
/// (labels are certain, paper Def. 1, and never repaired).
std::vector<std::vector<Value>> ColumnRepairs(
    const Table& table, int label_col,
    const RepairOptions& options = RepairOptions());

/// All candidate completions of row `row`: each returned row is a complete
/// copy of the original with every NULL feature cell replaced by one entry
/// of its column's list in `column_repairs` (as built by `ColumnRepairs`).
/// Completions enumerate the missing cells left to right, the rightmost
/// varying fastest, and stop at `options.max_candidates_per_row`. A
/// complete row yields exactly itself.
Result<std::vector<std::vector<Value>>> RowRepairs(
    const Table& table, int row, int label_col,
    const std::vector<std::vector<Value>>& column_repairs,
    const RepairOptions& options = RepairOptions());

}  // namespace cpclean

#endif  // CPCLEAN_CLEANING_REPAIR_GENERATOR_H_
