#include "incomplete/incomplete_dataset.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {
double SquaredNorm(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return sum;
}
}  // namespace

IncompleteDataset::IncompleteDataset(const IncompleteDataset& other)
    : examples_(other.examples_),
      num_labels_(other.num_labels_),
      dim_(other.dim_),
      flat_(other.flat_),
      sq_norms_(other.sq_norms_),
      cand_start_(other.cand_start_),
      cand_capacity_(other.cand_capacity_),
      total_candidates_(other.total_candidates_),
      version_(other.version_) {}

IncompleteDataset& IncompleteDataset::operator=(
    const IncompleteDataset& other) {
  if (this == &other) return *this;
  IncompleteDataset copy(other);
  *this = std::move(copy);
  return *this;
}

void IncompleteDataset::WriteFlatRow(int row,
                                     const std::vector<double>& features) {
  CP_CHECK_EQ(static_cast<int>(features.size()), dim_);
  std::copy(features.begin(), features.end(),
            flat_.data() + static_cast<size_t>(row) *
                               static_cast<size_t>(dim_));
  sq_norms_[static_cast<size_t>(row)] = SquaredNorm(features);
}

void IncompleteDataset::AppendFlatRow(const std::vector<double>& features) {
  flat_.insert(flat_.end(), features.begin(), features.end());
  sq_norms_.push_back(SquaredNorm(features));
}

void IncompleteDataset::RebuildFlat() {
  flat_.clear();
  sq_norms_.clear();
  cand_start_.clear();
  cand_capacity_.clear();
  total_candidates_ = 0;
  int row = 0;
  for (const IncompleteExample& ex : examples_) {
    cand_start_.push_back(row);
    cand_capacity_.push_back(static_cast<int>(ex.candidates.size()));
    for (const auto& c : ex.candidates) {
      AppendFlatRow(c);
      ++row;
    }
    total_candidates_ += static_cast<int>(ex.candidates.size());
  }
}

void IncompleteDataset::EnableJournal() {
  journal_enabled_ = true;
  journal_base_version_ = version_;
  journal_.clear();
}

std::vector<MutationRecord> IncompleteDataset::JournalSince(
    uint64_t version) const {
  CP_CHECK(JournalCovers(version));
  std::vector<MutationRecord> out;
  for (const MutationRecord& rec : journal_) {
    if (rec.seq > version) out.push_back(rec);
  }
  return out;
}

void IncompleteDataset::OverrideVersionForReplay(uint64_t version) {
  CP_CHECK(!journal_enabled_);
  version_ = version;
}

Status IncompleteDataset::AddExample(IncompleteExample example) {
  if (example.candidates.empty()) {
    return Status::InvalidArgument("candidate set must be non-empty");
  }
  if (example.label < 0 || example.label >= num_labels_) {
    return Status::InvalidArgument(
        StrFormat("label %d out of range [0, %d)", example.label, num_labels_));
  }
  const int d = static_cast<int>(example.candidates.front().size());
  for (const auto& c : example.candidates) {
    if (static_cast<int>(c.size()) != d) {
      return Status::InvalidArgument("inconsistent candidate dimensions");
    }
  }
  if (dim_ == 0 && num_examples() == 0) {
    dim_ = d;
  } else if (d != dim_) {
    return Status::InvalidArgument(StrFormat(
        "candidate dimension %d does not match dataset dimension %d", d, dim_));
  }
  cand_start_.push_back(static_cast<int>(sq_norms_.size()));
  cand_capacity_.push_back(static_cast<int>(example.candidates.size()));
  for (const auto& c : example.candidates) {
    AppendFlatRow(c);
  }
  total_candidates_ += static_cast<int>(example.candidates.size());
  examples_.push_back(std::move(example));
  ++version_;
  if (journal_enabled_) {
    MutationRecord rec;
    rec.kind = MutationRecord::Kind::kAdd;
    rec.seq = version_;
    rec.label = examples_.back().label;
    rec.candidates = examples_.back().candidates;
    journal_.push_back(std::move(rec));
  }
  return Status::OK();
}

Status IncompleteDataset::AddCleanExample(std::vector<double> features,
                                          int label) {
  IncompleteExample example;
  example.candidates.push_back(std::move(features));
  example.label = label;
  return AddExample(std::move(example));
}

const IncompleteExample& IncompleteDataset::example(int i) const {
  CP_CHECK_GE(i, 0);
  CP_CHECK_LT(i, num_examples());
  return examples_[static_cast<size_t>(i)];
}

int IncompleteDataset::num_candidates(int i) const {
  return static_cast<int>(example(i).candidates.size());
}

int IncompleteDataset::max_candidates() const {
  int m = 0;
  for (const auto& ex : examples_) {
    m = std::max(m, static_cast<int>(ex.candidates.size()));
  }
  return m;
}

const std::vector<double>& IncompleteDataset::candidate(int i, int j) const {
  const auto& ex = example(i);
  CP_CHECK_GE(j, 0);
  CP_CHECK_LT(j, static_cast<int>(ex.candidates.size()));
  return ex.candidates[static_cast<size_t>(j)];
}

bool IncompleteDataset::IsComplete() const {
  for (const auto& ex : examples_) {
    if (ex.candidates.size() != 1) return false;
  }
  return true;
}

std::vector<int> IncompleteDataset::DirtyExamples() const {
  std::vector<int> out;
  for (int i = 0; i < num_examples(); ++i) {
    if (num_candidates(i) > 1) out.push_back(i);
  }
  return out;
}

BigUint IncompleteDataset::NumPossibleWorlds() const {
  BigUint count(1);
  for (const auto& ex : examples_) {
    count *= BigUint(static_cast<uint64_t>(ex.candidates.size()));
  }
  return count;
}

double IncompleteDataset::Log2NumPossibleWorlds() const {
  double total = 0.0;
  for (const auto& ex : examples_) {
    total += std::log2(static_cast<double>(ex.candidates.size()));
  }
  return total;
}

void IncompleteDataset::FixExample(int i, int j) {
  CP_CHECK_GE(i, 0);
  CP_CHECK_LT(i, num_examples());
  auto& ex = examples_[static_cast<size_t>(i)];
  CP_CHECK_GE(j, 0);
  CP_CHECK_LT(j, static_cast<int>(ex.candidates.size()));
  std::vector<double> chosen = ex.candidates[static_cast<size_t>(j)];
  total_candidates_ -= static_cast<int>(ex.candidates.size()) - 1;
  ex.candidates.clear();
  ex.candidates.push_back(std::move(chosen));
  // In-place collapse: the example keeps its flat slot range; only row 0
  // stays active. Rows past the first are retired, not reclaimed.
  WriteFlatRow(flat_row(i, 0), ex.candidates.front());
  ++version_;
  if (journal_enabled_) {
    MutationRecord rec;
    rec.kind = MutationRecord::Kind::kFix;
    rec.seq = version_;
    rec.example = i;
    rec.candidate = j;
    journal_.push_back(std::move(rec));
  }
}

void IncompleteDataset::ReplaceCandidates(
    int i, std::vector<std::vector<double>> candidates) {
  CP_CHECK_GE(i, 0);
  CP_CHECK_LT(i, num_examples());
  CP_CHECK(!candidates.empty());
  for (const auto& c : candidates) {
    CP_CHECK_EQ(static_cast<int>(c.size()), dim_);
  }
  total_candidates_ +=
      static_cast<int>(candidates.size()) - num_candidates(i);
  examples_[static_cast<size_t>(i)].candidates = std::move(candidates);
  const auto& stored = examples_[static_cast<size_t>(i)].candidates;
  if (static_cast<int>(stored.size()) <=
      cand_capacity_[static_cast<size_t>(i)]) {
    for (int j = 0; j < static_cast<int>(stored.size()); ++j) {
      WriteFlatRow(flat_row(i, j), stored[static_cast<size_t>(j)]);
    }
  } else {
    // The replacement outgrew the example's reserved slots: re-lay the slab.
    RebuildFlat();
  }
  ++version_;
  if (journal_enabled_) {
    MutationRecord rec;
    rec.kind = MutationRecord::Kind::kReplace;
    rec.seq = version_;
    rec.example = i;
    rec.candidates = stored;
    journal_.push_back(std::move(rec));
  }
}

bool BitIdentical(const IncompleteDataset& a, const IncompleteDataset& b) {
  if (a.num_labels() != b.num_labels() || a.dim() != b.dim() ||
      a.num_examples() != b.num_examples()) {
    return false;
  }
  for (int i = 0; i < a.num_examples(); ++i) {
    if (a.label(i) != b.label(i) ||
        a.num_candidates(i) != b.num_candidates(i)) {
      return false;
    }
    for (int j = 0; j < a.num_candidates(i); ++j) {
      // Exact double comparison on purpose: the serving layer's
      // snapshot/rehydrate contract is bit-identity, not tolerance.
      if (a.candidate(i, j) != b.candidate(i, j)) return false;
    }
  }
  return true;
}

}  // namespace cpclean
