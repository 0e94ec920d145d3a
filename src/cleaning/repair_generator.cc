#include "cleaning/repair_generator.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace cpclean {

std::vector<Value> CellRepairs(const Table& table, int col,
                               const RepairOptions& options) {
  const Field& field = table.schema().field(col);
  std::vector<Value> repairs;
  if (field.type == ColumnType::kNumeric) {
    const std::vector<double> observed = table.NumericColumn(col);
    if (observed.empty()) {
      repairs.push_back(Value::Numeric(0.0));
      return repairs;
    }
    std::vector<double> stats;
    if (options.numeric_percentile_candidates == 5) {
      stats = {Min(observed), Percentile(observed, 25.0), Mean(observed),
               Percentile(observed, 75.0), Max(observed)};
    } else {
      const int c = std::max(options.numeric_percentile_candidates, 1);
      for (int i = 0; i < c; ++i) {
        stats.push_back(Percentile(
            observed, 100.0 * static_cast<double>(i) /
                          std::max(1, c - 1)));
      }
    }
    // Deduplicate (degenerate columns can repeat values).
    for (double s : stats) {
      const Value v = Value::Numeric(s);
      if (std::find(repairs.begin(), repairs.end(), v) == repairs.end()) {
        repairs.push_back(v);
      }
    }
  } else {
    std::map<std::string, int> freq;
    for (const std::string& cat : table.CategoricalColumn(col)) ++freq[cat];
    std::vector<std::pair<int, std::string>> ranked;
    ranked.reserve(freq.size());
    for (const auto& [cat, count] : freq) ranked.push_back({count, cat});
    // Most frequent first; ties broken alphabetically for determinism.
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    const int top = std::min<int>(options.categorical_top_k,
                                  static_cast<int>(ranked.size()));
    for (int i = 0; i < top; ++i) {
      repairs.push_back(Value::Categorical(ranked[static_cast<size_t>(i)].second));
    }
    repairs.push_back(Value::Categorical(options.other_category));
  }
  return repairs;
}

std::vector<std::vector<Value>> ColumnRepairs(const Table& table,
                                              int label_col,
                                              const RepairOptions& options) {
  std::vector<std::vector<Value>> lists(
      static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c != label_col) {
      lists[static_cast<size_t>(c)] = CellRepairs(table, c, options);
    }
  }
  return lists;
}

Result<std::vector<std::vector<Value>>> RowRepairs(
    const Table& table, int row, int label_col,
    const std::vector<std::vector<Value>>& column_repairs,
    const RepairOptions& options) {
  if (row < 0 || row >= table.num_rows()) {
    return Status::OutOfRange(StrFormat("row %d out of range", row));
  }
  if (static_cast<int>(column_repairs.size()) != table.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("%d column repair lists for %d columns",
                  static_cast<int>(column_repairs.size()),
                  table.num_columns()));
  }
  const std::vector<Value>& base = table.row(row);
  if (label_col >= 0 && label_col < table.num_columns() &&
      base[static_cast<size_t>(label_col)].is_null()) {
    return Status::InvalidArgument(
        "labels must not be NULL (paper assumes certain labels)");
  }
  std::vector<int> missing_cols;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == label_col || !base[static_cast<size_t>(c)].is_null()) continue;
    if (column_repairs[static_cast<size_t>(c)].empty()) {
      return Status::InvalidArgument(
          StrFormat("no candidate repairs for missing column %d", c));
    }
    missing_cols.push_back(c);
  }
  std::vector<std::vector<Value>> out;
  out.push_back(base);
  for (int c : missing_cols) {
    const std::vector<Value>& repairs = column_repairs[static_cast<size_t>(c)];
    std::vector<std::vector<Value>> next;
    next.reserve(out.size() * repairs.size());
    for (const auto& partial : out) {
      for (const Value& r : repairs) {
        if (static_cast<int>(next.size()) >= options.max_candidates_per_row) {
          break;
        }
        std::vector<Value> completed = partial;
        completed[static_cast<size_t>(c)] = r;
        next.push_back(std::move(completed));
      }
      if (static_cast<int>(next.size()) >= options.max_candidates_per_row) {
        break;
      }
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace cpclean
