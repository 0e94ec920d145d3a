#include "core/fast_q2.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <type_traits>

#include "common/logging.h"
#include "core/similarity.h"
#include "core/tally_enum.h"
#include "knn/vote.h"

namespace cpclean {

FastQ2::FastQ2(const IncompleteDataset* dataset, int k, double epsilon)
    : dataset_(dataset), k_(k), epsilon_(epsilon) {
  CP_CHECK(dataset_ != nullptr);
  // Unreachable from a request: every constructing path has already
  // answered a k outside [1, min(kMaxK, n)] with a Status — served
  // sessions and CleaningSession::Create through ValidateCleaningK, and
  // CertifyPrediction, ExplainPrediction and CheckOnSubset by their own
  // range checks.
  CP_CHECK_GE(k_, 1);
  CP_CHECK_LE(k_, kMaxK)
      << "FastQ2 supports k <= " << kMaxK
      << " (its boundary-polynomial scratch is compile-time sized); got k="
      << k_ << ". Raise FastQ2::kMaxK in core/fast_q2.h and recompile, or "
      << "use the SS-DC reference engine for this query.";
  width_ = k_ + 1;
  Rebind();
  // Precompute the valid label tallies and their winners once.
  EnumerateTallies(num_labels_, k_, [this](const std::vector<int>& gamma) {
    tallies_.push_back({gamma, ArgMaxLabel(gamma)});
  });
  scratch_a_.resize(static_cast<size_t>(width_));
  scratch_b_.resize(static_cast<size_t>(width_));
  result_.resize(static_cast<size_t>(num_labels_));
}

void FastQ2::Rebind() {
  bound_version_ = dataset_->version();
  num_labels_ = dataset_->num_labels();
  const int n = dataset_->num_examples();
  CP_CHECK_LE(k_, n);
  slot_of_.assign(static_cast<size_t>(n), -1);
  label_of_.assign(static_cast<size_t>(n), 0);
  std::vector<int> label_size(static_cast<size_t>(num_labels_), 0);
  for (int i = 0; i < n; ++i) {
    label_of_[static_cast<size_t>(i)] = dataset_->label(i);
    slot_of_[static_cast<size_t>(i)] =
        label_size[static_cast<size_t>(dataset_->label(i))]++;
  }
  tree_size_.assign(static_cast<size_t>(num_labels_), 1);
  nodes_.assign(static_cast<size_t>(num_labels_), {});
  for (int l = 0; l < num_labels_; ++l) {
    int size = 1;
    while (size < std::max(label_size[static_cast<size_t>(l)], 1)) size <<= 1;
    tree_size_[static_cast<size_t>(l)] = size;
    nodes_[static_cast<size_t>(l)].assign(
        static_cast<size_t>(2 * size * width_), 0.0);
  }
  InitTrees();
  above_.assign(static_cast<size_t>(n), 0);
  sweep_mark_.assign(static_cast<size_t>(n), 0);
  tuple_min_.assign(static_cast<size_t>(n), 0.0);
  tuple_max_.assign(static_cast<size_t>(n), 0.0);
  scan_.clear();
  sorted_end_ = 0;
}

void FastQ2::InitTrees() {
  // Every leaf (and padding slot) holds the constant polynomial 1: a tuple
  // with no candidate scanned yet is entirely "below" the boundary, which
  // contributes weight 1 at degree 0.
  for (int l = 0; l < num_labels_; ++l) {
    auto& buf = nodes_[static_cast<size_t>(l)];
    std::fill(buf.begin(), buf.end(), 0.0);
    const int size = tree_size_[static_cast<size_t>(l)];
    for (int node = 1; node < 2 * size; ++node) {
      buf[static_cast<size_t>(node * width_)] = 1.0;
    }
  }
}

template <int W>
void FastQ2::SetLeaf(int label, int slot, double below, double above) {
  const int w = W == 0 ? width_ : W;
  auto& buf = nodes_[static_cast<size_t>(label)];
  const int size = tree_size_[static_cast<size_t>(label)];
  int node = size + slot;
  {
    double* leaf = &buf[static_cast<size_t>(node * w)];
    leaf[0] = below;
    if (w > 1) leaf[1] = above;
    for (int c = 2; c < w; ++c) leaf[c] = 0.0;
  }
  for (node >>= 1; node >= 1; node >>= 1) {
    const double* left = &buf[static_cast<size_t>(2 * node * w)];
    const double* right = &buf[static_cast<size_t>((2 * node + 1) * w)];
    double* out = scratch_a_.data();
    std::fill(out, out + w, 0.0);
    for (int i = 0; i < w; ++i) {
      if (left[i] == 0.0) continue;
      const int jmax = w - i;
      for (int j = 0; j < jmax; ++j) {
        out[i + j] += left[i] * right[j];
      }
    }
    std::memcpy(&buf[static_cast<size_t>(node * w)], out,
                sizeof(double) * static_cast<size_t>(w));
  }
}

template <int W>
void FastQ2::ProductExcept(int label, int slot, double* out) const {
  const int w = W == 0 ? width_ : W;
  const auto& buf = nodes_[static_cast<size_t>(label)];
  const int size = tree_size_[static_cast<size_t>(label)];
  std::fill(out, out + w, 0.0);
  out[0] = 1.0;
  double* tmp = scratch_b_.data();
  for (int node = size + slot; node > 1; node >>= 1) {
    const double* sibling = &buf[static_cast<size_t>((node ^ 1) * w)];
    std::fill(tmp, tmp + w, 0.0);
    for (int i = 0; i < w; ++i) {
      if (out[i] == 0.0) continue;
      const int jmax = w - i;
      for (int j = 0; j < jmax; ++j) {
        tmp[i + j] += out[i] * sibling[j];
      }
    }
    std::memcpy(out, tmp, sizeof(double) * static_cast<size_t>(w));
  }
}

void FastQ2::SetTestPoint(const std::vector<double>& t,
                          const SimilarityKernel& kernel) {
  // Long-lived engines (one per serving session or worker slot) re-bind
  // lazily: any dataset mutation since the last binding — a cleaning step's
  // FixExample, a ReplaceCandidates — bumps the version counter, and the
  // next test point picks up the new candidate shapes automatically.
  if (dataset_->version() != bound_version_) Rebind();
  const int n = dataset_->num_examples();
  // One batched sweep over the flat candidate slab; no per-candidate
  // virtual call, and no sort here — queries order the scan lazily.
  sims_.resize(static_cast<size_t>(dataset_->total_candidates()));
  SimilarityScores(*dataset_, t, kernel, sims_.data());
  scan_.clear();
  scan_.reserve(sims_.size());
  size_t pos = 0;
  for (int i = 0; i < n; ++i) {
    const int m = dataset_->num_candidates(i);
    double lo = 0.0, hi = 0.0;
    for (int j = 0; j < m; ++j) {
      const double s = sims_[pos++];
      if (j == 0 || s < lo) lo = s;
      if (j == 0 || s > hi) hi = s;
      scan_.push_back({s, i, j});
    }
    tuple_min_[static_cast<size_t>(i)] = lo;
    tuple_max_[static_cast<size_t>(i)] = hi;
  }
  sorted_end_ = 0;
}

void FastQ2::EnsureSorted(size_t idx) {
  // Geometrically growing partial sorts. The sorted prefix under the strict
  // (similarity, tuple, candidate) total order is unique, so the scan
  // order — and every downstream result — is independent of how many
  // extension steps it took to reach an index.
  while (idx >= sorted_end_) {
    size_t chunk = std::max<size_t>(64, sorted_end_);
    chunk = std::min(chunk, scan_.size() - sorted_end_);
    const auto first = scan_.begin() + static_cast<ptrdiff_t>(sorted_end_);
    std::partial_sort(first, first + static_cast<ptrdiff_t>(chunk),
                      scan_.end(), MoreSimilar);
    sorted_end_ += chunk;
  }
}

double FastQ2::TopKFloor() const {
  floor_scratch_ = tuple_min_;
  CP_CHECK_GE(static_cast<int>(floor_scratch_.size()), k_);
  std::nth_element(floor_scratch_.begin(), floor_scratch_.begin() + (k_ - 1),
                   floor_scratch_.end(), std::greater<double>());
  return floor_scratch_[static_cast<size_t>(k_ - 1)];
}

template <typename F>
auto FastQ2::WithWidth(F&& f) {
  // Width-specialized instantiations: the polynomial multiply loops fully
  // unroll for the common K, which matters because they run once per
  // scanned candidate. The dynamic fallback handles every other K.
  switch (width_) {
    case 2:
      return f(std::integral_constant<int, 2>());  // k = 1
    case 3:
      return f(std::integral_constant<int, 3>());  // k = 2
    case 4:
      return f(std::integral_constant<int, 4>());  // k = 3
    case 6:
      return f(std::integral_constant<int, 6>());  // k = 5
    case 8:
      return f(std::integral_constant<int, 8>());  // k = 7
    default:
      return f(std::integral_constant<int, 0>());
  }
}

double FastQ2::RunQuery(int pin_tuple, int pin_cand) {
  return WithWidth([&](auto w) {
    return RunQueryImpl<decltype(w)::value>(pin_tuple, pin_cand);
  });
}

template <int W>
void FastQ2::ProcessEntry(const ScoredCandidate& entry, bool pinned_here,
                          double* total) {
  const int w = W == 0 ? width_ : W;
  const int num_labels = num_labels_;
  const int i = entry.tuple;
  const int b = label_of_[static_cast<size_t>(i)];
  const int slot = slot_of_[static_cast<size_t>(i)];
  const int m = dataset_->num_candidates(i);

  // scratch_a_ is clobbered by SetLeaf; boundary polynomials need their own
  // storage that survives the tally loop.
  double boundary[kMaxK + 1];

  // Boundary support for this candidate: tuples scanned earlier are
  // "above" (more similar); the current tuple is pinned to this value.
  ProductExcept<W>(b, slot, boundary);
  const double pin_weight = pinned_here ? 1.0 : 1.0 / static_cast<double>(m);
  for (const Tally& tally : tallies_) {
    const int gb = tally.gamma[static_cast<size_t>(b)];
    if (gb < 1) continue;
    double support = pin_weight * boundary[gb - 1];
    if (support == 0.0) continue;
    for (int l = 0; l < num_labels && support != 0.0; ++l) {
      if (l == b) continue;
      const auto& buf = nodes_[static_cast<size_t>(l)];
      support *=
          buf[static_cast<size_t>(w + tally.gamma[static_cast<size_t>(l)])];
    }
    result_[static_cast<size_t>(tally.winner)] += support;
    *total += support;
  }

  // Move this candidate into the "above" region for later boundaries.
  if (above_[static_cast<size_t>(i)] == 0) touched_.push_back(i);
  const int above = ++above_[static_cast<size_t>(i)];
  const double frac_above =
      pinned_here ? 1.0 : static_cast<double>(above) / static_cast<double>(m);
  SetLeaf<W>(b, slot, 1.0 - frac_above, frac_above);
}

template <int W>
void FastQ2::ScanFrom(size_t idx, int pin_tuple, int pin_cand, double* total,
                      std::vector<int>* log) {
  const double target = 1.0 - epsilon_;
  // Two-level loop: materialize a sorted block, then scan it with a tight
  // inner loop free of the sorting machinery (EnsureSorted would otherwise
  // pin every member load inside the hot loop).
  while (idx < scan_.size()) {
    EnsureSorted(idx);
    const size_t block_end = sorted_end_;
    for (; idx < block_end; ++idx) {
      const ScoredCandidate& entry = scan_[idx];
      const bool pinned_here = entry.tuple == pin_tuple;
      if (pinned_here && entry.candidate != pin_cand) continue;
      if (log != nullptr) log->push_back(entry.tuple);
      ProcessEntry<W>(entry, pinned_here, total);
      if (*total >= target) return;
    }
  }
}

template <int W>
double FastQ2::RunQueryImpl(int pin_tuple, int pin_cand) {
  CP_CHECK(!scan_.empty()) << "call SetTestPoint first";
  std::fill(result_.begin(), result_.end(), 0.0);
  touched_.clear();
  double total = 0.0;
  ScanFrom<W>(0, pin_tuple, pin_cand, &total, nullptr);

  if (capture_support_) {
    last_support_.assign(touched_.begin(), touched_.end());
    std::sort(last_support_.begin(), last_support_.end());
  }

  // Restore the touched leaves and tallies for the next query.
  for (int i : touched_) {
    SetLeaf<W>(label_of_[static_cast<size_t>(i)],
               slot_of_[static_cast<size_t>(i)], 1.0, 0.0);
    above_[static_cast<size_t>(i)] = 0;
  }
  return total;
}

const std::vector<double>& FastQ2::EntropyPinnedSweep(int i) {
  WithWidth([&](auto w) { SweepImpl<decltype(w)::value>(i); });
  return sweep_out_;
}

template <int W>
void FastQ2::SweepImpl(int pin_tuple) {
  CP_CHECK(!scan_.empty()) << "call SetTestPoint first";
  const int m = dataset_->num_candidates(pin_tuple);
  // Entropies are >= 0, so -1 marks a candidate the walk has not reached.
  sweep_out_.assign(static_cast<size_t>(m), -1.0);
  std::fill(result_.begin(), result_.end(), 0.0);
  touched_.clear();
  double total = 0.0;
  const double target = 1.0 - epsilon_;
  int unreached = m;
  bool done = false;

  // One walk in scan order over every other tuple's entries, with tuple i's
  // leaf left pristine. The pinned run for candidate j processes exactly the
  // walk's entries before j's position, in the same order, so at each
  // tuple-i entry the walk is that run's checkpoint: run j's suffix from
  // there, roll back, and walk on.
  for (size_t idx = 0; unreached > 0 && !done;) {
    EnsureSorted(idx);
    const size_t block_end = sorted_end_;
    for (; idx < block_end && unreached > 0; ++idx) {
      const ScoredCandidate& entry = scan_[idx];
      if (entry.tuple != pin_tuple) {
        ProcessEntry<W>(entry, /*pinned_here=*/false, &total);
        if (total >= target) {
          done = true;
          break;
        }
        continue;
      }
      --unreached;
      const int j = entry.candidate;
      sweep_result_.assign(result_.begin(), result_.end());
      const size_t walk_touched = touched_.size();
      double run_total = total;
      sweep_log_.clear();
      ScanFrom<W>(idx, pin_tuple, j, &run_total, &sweep_log_);
      sweep_out_[static_cast<size_t>(j)] = ResultEntropy(run_total);

      // Roll back to the checkpoint: reverse the above_ increments, then
      // restore each distinct run-touched leaf to its checkpoint fraction
      // (above == 0 gives the pristine (1, 0) leaf, which also covers the
      // pinned tuple itself). The restored leaf has the checkpoint's bits
      // (same above/m division), and a segment tree node recomputed from
      // bit-identical children reproduces its coefficients exactly — the
      // argument that makes the end-of-query restore in RunQueryImpl sound.
      for (size_t t = sweep_log_.size(); t-- > 0;) {
        --above_[static_cast<size_t>(sweep_log_[t])];
      }
      for (const int tuple : sweep_log_) {
        if (sweep_mark_[static_cast<size_t>(tuple)] != 0) continue;
        sweep_mark_[static_cast<size_t>(tuple)] = 1;
        const int above = above_[static_cast<size_t>(tuple)];
        const double frac =
            static_cast<double>(above) /
            static_cast<double>(dataset_->num_candidates(tuple));
        SetLeaf<W>(label_of_[static_cast<size_t>(tuple)],
                   slot_of_[static_cast<size_t>(tuple)], 1.0 - frac, frac);
      }
      for (const int tuple : sweep_log_) {
        sweep_mark_[static_cast<size_t>(tuple)] = 0;
      }
      touched_.resize(walk_touched);
      std::copy(sweep_result_.begin(), sweep_result_.end(), result_.begin());
    }
  }

  // The walk reached the mass target before these candidates' entries:
  // each of their pinned runs stops at the same entry with the same masses.
  if (unreached > 0) {
    const double entropy = ResultEntropy(total);
    for (double& e : sweep_out_) {
      if (e < 0.0) e = entropy;
    }
  }

  // Standard end-of-query restore of the walk's touched leaves.
  for (int t : touched_) {
    SetLeaf<W>(label_of_[static_cast<size_t>(t)],
               slot_of_[static_cast<size_t>(t)], 1.0, 0.0);
    above_[static_cast<size_t>(t)] = 0;
  }
}

std::vector<double> FastQ2::Run(int pin_tuple, int pin_cand) {
  const double total = RunQuery(pin_tuple, pin_cand);
  std::vector<double> fractions(result_.begin(), result_.end());
  if (total > 0.0) {
    for (double& f : fractions) f /= total;
  }
  return fractions;
}

double FastQ2::ResultEntropy(double total) const {
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (const double mass : result_) {
    if (mass <= 0.0) continue;
    const double p = mass / total;
    entropy -= p * std::log(p);
  }
  return entropy;
}

}  // namespace cpclean
