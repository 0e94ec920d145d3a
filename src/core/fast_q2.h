#ifndef CPCLEAN_CORE_FAST_Q2_H_
#define CPCLEAN_CORE_FAST_Q2_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "knn/ordering.h"

namespace cpclean {

/// Production Q2 evaluator for CPClean's inner loop.
///
/// Same mathematics as `SsDcCount<DoubleSemiring, true>` (validated against
/// it in tests), but engineered for the access pattern of Algorithm 3 —
/// thousands of Q2 calls against one test point where a single tuple is
/// "pinned" to one candidate:
///
///  * the kernel evaluations are paid once per test point (`SetTestPoint`)
///    through the batched kernel API over the dataset's flat candidate
///    slab — no per-candidate virtual call or allocation;
///  * the similarity order is materialized *lazily*: `SetTestPoint` only
///    scores, and queries sort the descending scan in geometrically
///    growing prefixes on demand. Truncated queries touch only the
///    most-similar sliver of the scan, so they never pay the full
///    O(NM log NM) sort;
///  * the scan runs in *descending* similarity order and stops as soon as
///    the collected world mass reaches 1 - epsilon. Supports over all
///    boundary candidates partition the worlds, and nearly all mass sits
///    at the most-similar candidates, so typically only O(K * M) of the
///    N*M scan entries are touched;
///  * per-label segment trees live in flat double buffers; only leaves
///    touched by a query are reset afterwards, so a query allocates
///    nothing and costs O(touched * K^2 log N).
///
/// K is capped at `kMaxK`: the boundary polynomial scratch is a fixed
/// kMaxK+1 coefficients so queries stay allocation-free. Construction
/// fails fast (CP_CHECK) for larger K — raise the constant and recompile
/// if a workload ever legitimately needs K > 16.
class FastQ2 {
 public:
  static constexpr int kMaxK = 16;

  /// Binds to `dataset` (borrowed; must outlive this object). Call
  /// `Rebind` after the dataset's candidate sets change shape — or simply
  /// call `SetTestPoint`, which re-binds automatically when the dataset's
  /// mutation version has moved since the last binding (so one engine can
  /// be reused across serving requests interleaved with cleaning steps).
  FastQ2(const IncompleteDataset* dataset, int k, double epsilon = 1e-9);

  /// Re-reads the dataset's structure (sizes, labels).
  void Rebind();

  /// Computes all candidate similarities against `t` (batched; the
  /// descending order is materialized lazily by queries). Re-binds first
  /// when the dataset has been mutated since the last Rebind/SetTestPoint.
  void SetTestPoint(const std::vector<double>& t,
                    const SimilarityKernel& kernel);

  /// Q2 as label fractions for the bound test point.
  std::vector<double> Fractions() { return Run(-1, -1); }

  /// Q2 fractions with tuple `i` collapsed to its candidate `j`
  /// (the "what if candidate j is the truth" query of Equation 4).
  std::vector<double> FractionsPinned(int i, int j) { return Run(i, j); }

  /// Shannon entropy (natural log) of the Q2 label distribution — the
  /// allocation-free variants of Entropy(Fractions()) /
  /// Entropy(FractionsPinned(i, j)) that the selection loop hammers.
  double EntropyUnpinned() { return ResultEntropy(RunQuery(-1, -1)); }
  double EntropyPinned(int i, int j) { return ResultEntropy(RunQuery(i, j)); }

  /// `EntropyPinned(i, j)` for every candidate j of tuple `i` in one sweep,
  /// bit-identical to m separate calls. The pinned run for candidate j
  /// processes every other tuple's entries above j's position exactly as
  /// the unpinned scan does, so the sweep walks the scan once without tuple
  /// i and, at each of tuple i's entries, checkpoints the engine, replays
  /// that candidate's run from its own position, and rolls the trees back
  /// before walking on.
  /// Returns a reference to an internal buffer of `num_candidates(i)`
  /// entries, valid until the next query on this engine.
  const std::vector<double>& EntropyPinnedSweep(int i);

  /// Least / most similar candidate of tuple `i` for the bound test point.
  double MinSimilarity(int i) const { return tuple_min_[static_cast<size_t>(i)]; }
  double MaxSimilarity(int i) const { return tuple_max_[static_cast<size_t>(i)]; }

  /// The K-th largest per-tuple *minimum* similarity: any tuple whose
  /// maximum similarity is below this floor can never enter the top-K in
  /// any possible world, so pinning it cannot change the Q2 distribution.
  double TopKFloor() const;

  /// The dataset mutation version this engine is currently bound to (the
  /// engine-pool stamp: an idle engine whose bound version matches the
  /// dataset's current version can be reused without a Rebind).
  uint64_t bound_version() const { return bound_version_; }

  /// Provenance capture: when enabled, each unpinned/pinned query snapshots
  /// the tuples whose boundary supports carried world mass (the touched set
  /// the scan visits before reaching 1 - epsilon) into `last_support()`,
  /// sorted ascending. These are exactly the witnesses of the Q2 answer —
  /// every other tuple's contribution lies below the mass cutoff. Off by
  /// default so the selection hot loop never pays for the copy.
  void EnableSupportCapture(bool on) { capture_support_ = on; }
  const std::vector<int>& last_support() const { return last_support_; }

 private:
  /// Calls `f(std::integral_constant<int, W>())` with the width-specialized
  /// W for width_ (the polynomial loops fully unroll for the common K), or
  /// W = 0 for the dynamic fallback.
  template <typename F>
  auto WithWidth(F&& f);
  /// Runs the scan; fills result_ with per-label world masses and returns
  /// the total collected mass.
  double RunQuery(int pin_tuple, int pin_cand);
  /// W is the compile-time polynomial width (k + 1), or 0 for the dynamic
  /// fallback reading width_.
  template <int W>
  double RunQueryImpl(int pin_tuple, int pin_cand);
  /// Scans from entry `idx` until `*total` reaches 1 - epsilon, skipping
  /// tuple pin_tuple's candidates other than pin_cand; appends each
  /// processed entry's tuple to `log` when it is non-null.
  template <int W>
  void ScanFrom(size_t idx, int pin_tuple, int pin_cand, double* total,
                std::vector<int>* log);
  /// The per-entry scan body shared by ScanFrom and SweepImpl: tallies
  /// the boundary supports into result_ / `total` and moves the entry's
  /// candidate into the "above" region.
  template <int W>
  void ProcessEntry(const ScoredCandidate& entry, bool pinned_here,
                    double* total);
  template <int W>
  void SweepImpl(int pin_tuple);
  std::vector<double> Run(int pin_tuple, int pin_cand);
  /// Entropy of result_ masses given their total (mirrors common Entropy).
  double ResultEntropy(double total) const;
  /// Extends the sorted descending prefix of scan_ to cover `idx`.
  void EnsureSorted(size_t idx);
  void InitTrees();
  template <int W>
  void SetLeaf(int label, int slot, double below, double above);
  /// Writes prod over this label's leaves except `slot` into out[0..k_].
  template <int W>
  void ProductExcept(int label, int slot, double* out) const;

  const IncompleteDataset* dataset_;
  int k_;
  double epsilon_;
  int num_labels_ = 0;
  int width_ = 0;  // k_ + 1 coefficients per node
  uint64_t bound_version_ = 0;  // dataset_->version() at the last Rebind

  std::vector<int> slot_of_;
  std::vector<int> label_of_;
  std::vector<int> tree_size_;              // per label, power of two
  std::vector<std::vector<double>> nodes_;  // per label, 2*size*width coeffs

  std::vector<ScoredCandidate> scan_;  // [0, sorted_end_) sorted descending
  size_t sorted_end_ = 0;
  std::vector<double> tuple_min_, tuple_max_;
  std::vector<int> above_;

  // Valid tally vectors with their precomputed winner label.
  struct Tally {
    std::vector<int> gamma;
    int winner;
  };
  std::vector<Tally> tallies_;

  // Scratch (sized in ctor) so queries allocate nothing.
  mutable std::vector<double> scratch_a_, scratch_b_;
  std::vector<double> sims_;        // batched kernel output
  mutable std::vector<double> floor_scratch_;
  std::vector<int> touched_;
  std::vector<double> result_;
  bool capture_support_ = false;
  std::vector<int> last_support_;

  // EntropyPinnedSweep scratch: per-candidate entropies, the candidate-run
  // log (one tuple id per entry processed past the walk's checkpoint), dedup
  // marks for the leaf rollback, and the checkpointed per-label masses.
  std::vector<double> sweep_out_;
  std::vector<int> sweep_log_;
  std::vector<uint8_t> sweep_mark_;
  std::vector<double> sweep_result_;
};

}  // namespace cpclean

#endif  // CPCLEAN_CORE_FAST_Q2_H_
