#ifndef CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_
#define CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/big_uint.h"
#include "common/result.h"

namespace cpclean {

/// One incomplete data example (paper Def. 1): a finite candidate set
/// C_i = {x_{i,1}, x_{i,2}, ...} of possible feature vectors plus a certain
/// class label y_i. A "clean" example has exactly one candidate.
struct IncompleteExample {
  std::vector<std::vector<double>> candidates;
  int label = 0;
};

/// One logged mutation of an incomplete dataset — the unit of the
/// append-only cleaning log. `seq` is the dataset `version()` immediately
/// after the mutation, so a log replayed in sequence order onto a base
/// snapshot at version v applies exactly the records with seq > v.
struct MutationRecord {
  enum class Kind { kFix, kReplace, kAdd };
  Kind kind = Kind::kFix;
  uint64_t seq = 0;
  int example = -1;   // FixExample / ReplaceCandidates target
  int candidate = -1; // FixExample: the chosen candidate index
  std::vector<std::vector<double>> candidates;  // Replace / Add payload
  int label = 0;      // AddExample label
};

/// An incomplete dataset D = {(C_i, y_i)} — the block tuple-independent
/// structure whose possible worlds (Def. 2) the CP queries range over.
///
/// Candidate vectors are pre-encoded dense features; candidate sets may
/// have different sizes. Labels are dense ids in [0, num_labels).
///
/// Storage: candidates live twice. The vector-of-vectors `example()` /
/// `candidate()` view is the mutation API, and a row-major contiguous
/// mirror (`flat_data()`, one dim()-stride row per candidate, all rows of
/// an example adjacent) feeds the batched similarity kernels, together
/// with a cached squared L2 norm per row. Both are kept in sync by every
/// mutator. `FixExample` collapses in place — the example keeps its flat
/// slot range (capacity) and only its first row stays active — so a
/// cleaning step never reshuffles the slab. The flat mirror is one in-RAM
/// `std::vector`.
class IncompleteDataset {
 public:
  IncompleteDataset() = default;
  explicit IncompleteDataset(int num_labels) : num_labels_(num_labels) {}

  /// Copies do not carry the source's journal — a copy is a value snapshot
  /// of the candidate space (and its version), not of the persistence
  /// machinery.
  IncompleteDataset(const IncompleteDataset& other);
  IncompleteDataset& operator=(const IncompleteDataset& other);
  IncompleteDataset(IncompleteDataset&&) noexcept = default;
  IncompleteDataset& operator=(IncompleteDataset&&) noexcept = default;

  /// Appends an example. Fails when the candidate set is empty, a label is
  /// out of range, or feature dimensions are inconsistent.
  Status AddExample(IncompleteExample example);

  /// Convenience: appends a clean (single-candidate) example.
  Status AddCleanExample(std::vector<double> features, int label);

  int num_examples() const { return static_cast<int>(examples_.size()); }
  int num_labels() const { return num_labels_; }

  /// Feature dimensionality (0 while empty).
  int dim() const { return dim_; }

  const IncompleteExample& example(int i) const;
  int label(int i) const { return example(i).label; }

  /// Candidate-set size |C_i|.
  int num_candidates(int i) const;

  /// Largest candidate-set size M over all examples (0 while empty).
  int max_candidates() const;

  const std::vector<double>& candidate(int i, int j) const;

  // --- Flat view -----------------------------------------------------------

  /// Base of the row-major candidate slab; row r starts at
  /// `flat_data() + r * dim()`. Rows of example `i` occupy flat rows
  /// `[flat_row(i, 0), flat_row(i, 0) + num_candidates(i))`. Invalidated by
  /// `AddExample` and by a `ReplaceCandidates` that grows past capacity.
  const double* flat_data() const { return flat_.data(); }

  /// Flat row index of candidate (i, j).
  int flat_row(int i, int j) const {
    return cand_start_[static_cast<size_t>(i)] + j;
  }

  /// Pointer to candidate (i, j)'s features (dim() doubles).
  const double* candidate_ptr(int i, int j) const {
    return flat_data() + static_cast<size_t>(flat_row(i, j)) *
                             static_cast<size_t>(dim_);
  }

  /// Cached squared L2 norms, one per flat row (aligned with flat_data()).
  const double* flat_sq_norms() const { return sq_norms_.data(); }

  /// Cached ||x_{i,j}||^2.
  double candidate_sq_norm(int i, int j) const {
    return sq_norms_[static_cast<size_t>(flat_row(i, j))];
  }

  /// Number of *active* candidate rows (sum of |C_i|).
  int total_candidates() const { return total_candidates_; }

  /// Monotone mutation counter: bumped by every `AddExample`, `FixExample`,
  /// and `ReplaceCandidates`. Cached derived state (serving-layer result
  /// caches, bound query engines) compares versions to detect precisely
  /// when the candidate space changed. Copies carry the source's version
  /// forward (a copy of version v holds the same worlds as the original at
  /// v), and assignment adopts the assigned dataset's version.
  uint64_t version() const { return version_; }

  /// True when the slab has no retired rows — every flat row is an active
  /// candidate — so one batched kernel call can sweep the whole slab.
  bool flat_is_compact() const {
    return static_cast<size_t>(total_candidates_) *
               static_cast<size_t>(dim_) ==
           flat_.size();
  }

  // --- Mutation journal ----------------------------------------------------

  /// Starts recording every subsequent mutation as a `MutationRecord`.
  /// The journal's coverage starts at the current version; `JournalSince`
  /// answers only for versions at or past it.
  void EnableJournal();

  bool journal_enabled() const { return journal_enabled_; }

  /// True when the journal can reconstruct every mutation after `version`
  /// (journal enabled and `version` within its coverage).
  bool JournalCovers(uint64_t version) const {
    return journal_enabled_ && version >= journal_base_version_;
  }

  /// The records with seq > `version`, in sequence order. Call only when
  /// `JournalCovers(version)`.
  std::vector<MutationRecord> JournalSince(uint64_t version) const;

  /// Forces the version counter — used only when rehydrating a serialized
  /// dataset whose header carries the version it had when written, so log
  /// sequence numbers line up. CP_CHECK-fails if the journal is enabled.
  void OverrideVersionForReplay(uint64_t version);

  // -------------------------------------------------------------------------

  /// True when every candidate set is a singleton (a single possible world).
  bool IsComplete() const;

  /// Indices of examples with more than one candidate ("dirty" tuples).
  std::vector<int> DirtyExamples() const;

  /// Exact number of possible worlds: prod_i |C_i| (can be astronomical).
  BigUint NumPossibleWorlds() const;

  /// log2 of the number of possible worlds.
  double Log2NumPossibleWorlds() const;

  /// Collapses example `i` to its `j`-th candidate (a cleaning step: the
  /// human revealed the true value). Afterwards |C_i| == 1.
  void FixExample(int i, int j);

  /// Replaces the candidate set of example `i` entirely.
  void ReplaceCandidates(int i, std::vector<std::vector<double>> candidates);

 private:
  /// Writes `features` into flat row `row` and refreshes its cached norm.
  void WriteFlatRow(int row, const std::vector<double>& features);
  /// Appends one candidate row to the end of the slab.
  void AppendFlatRow(const std::vector<double>& features);
  /// Rebuilds the flat slab from `examples_` (used when a replacement
  /// outgrows an example's reserved slots).
  void RebuildFlat();

  std::vector<IncompleteExample> examples_;
  int num_labels_ = 0;
  int dim_ = 0;

  // Flat mirror. cand_start_[i] is example i's first flat row; the example
  // owns cand_capacity_[i] consecutive rows of which the first
  // num_candidates(i) are active.
  std::vector<double> flat_;
  std::vector<double> sq_norms_;
  std::vector<int> cand_start_;
  std::vector<int> cand_capacity_;
  int total_candidates_ = 0;
  uint64_t version_ = 0;

  bool journal_enabled_ = false;
  uint64_t journal_base_version_ = 0;
  std::vector<MutationRecord> journal_;
};

/// True when `a` and `b` describe bit-for-bit the same candidate space:
/// same shape (labels, dim, example count, candidate counts), same labels,
/// and exactly equal candidate doubles. Versions and flat-slab layout are
/// NOT compared — a rehydrated dataset that replayed the same mutations is
/// identical even if its internal capacity bookkeeping differs.
bool BitIdentical(const IncompleteDataset& a, const IncompleteDataset& b);

}  // namespace cpclean

#endif  // CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_
