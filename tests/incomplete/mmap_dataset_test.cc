// The file-backed (mmap) candidate slab: bit-identity with RAM mode for
// every similarity kernel and compiled SIMD level, streamed multi-block
// scans, in-place and growing mutations while mapped, journal semantics,
// copy semantics, and the v3 (versioned) serialization round-trip.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/fault_injection.h"
#include "core/similarity.h"
#include "incomplete/incomplete_dataset.h"
#include "incomplete/serialization.h"
#include "knn/kernel.h"
#include "knn/kernel_simd.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::MakeRandomTestPoint;
using testing_util::RandomDatasetSpec;

IncompleteDataset MakeDataset(uint64_t seed, int num_examples = 20) {
  RandomDatasetSpec spec;
  spec.num_examples = num_examples;
  spec.max_candidates = 4;
  spec.num_labels = 2;
  spec.dim = 5;
  spec.seed = seed;
  return MakeRandomDataset(spec);
}

/// Backs `dataset` with an mmap scratch file (tiny window so streamed
/// scans need many blocks) and asserts it really switched modes.
void BackOrDie(IncompleteDataset* dataset, size_t window_bytes = 128) {
  const Status backed =
      dataset->BackWithFile(::testing::TempDir(), window_bytes);
  ASSERT_TRUE(backed.ok()) << backed.ToString();
  ASSERT_TRUE(dataset->file_backed());
}

std::vector<double> ScoresFor(const IncompleteDataset& dataset,
                              const std::vector<double>& t,
                              const SimilarityKernel& kernel) {
  std::vector<double> out(static_cast<size_t>(dataset.total_candidates()));
  SimilarityScores(dataset, t, kernel, out.data());
  return out;
}

void ExpectBitIdenticalScores(const std::vector<double>& want,
                              const std::vector<double>& got,
                              const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << context << " row " << i << ": " << want[i] << " vs " << got[i];
  }
}

TEST(MmapDatasetTest, BackWithFilePreservesEveryByte) {
  const IncompleteDataset ram = MakeDataset(11);
  IncompleteDataset mapped = ram;
  BackOrDie(&mapped);
  EXPECT_TRUE(BitIdentical(ram, mapped));
  EXPECT_EQ(mapped.version(), ram.version());
  // The raw slab bytes are identical, not merely the logical values.
  const size_t doubles = static_cast<size_t>(ram.total_candidates()) *
                         static_cast<size_t>(ram.dim());
  EXPECT_EQ(std::memcmp(ram.flat_data(), mapped.flat_data(),
                        doubles * sizeof(double)),
            0);
  // Re-backing is a no-op that may retune the window.
  ASSERT_TRUE(mapped.BackWithFile(::testing::TempDir(), 4096).ok());
  EXPECT_EQ(mapped.stream_window_bytes(), 4096u);
}

TEST(MmapDatasetTest, StreamedScanBitIdenticalAcrossKernels) {
  const IncompleteDataset ram = MakeDataset(12, 40);
  IncompleteDataset mapped = ram;
  // 128-byte window, 5-double rows: 3 rows per block, so a 40-example
  // dataset streams through many blocks.
  BackOrDie(&mapped, 128);
  const std::vector<double> t = MakeRandomTestPoint(ram.dim(), 7);
  for (const KernelKind kind :
       {KernelKind::kNegativeEuclidean, KernelKind::kRbf, KernelKind::kLinear,
        KernelKind::kCosine}) {
    const std::unique_ptr<SimilarityKernel> kernel = MakeKernel(kind, 0.7);
    ExpectBitIdenticalScores(ScoresFor(ram, t, *kernel),
                             ScoresFor(mapped, t, *kernel), kernel->name());
  }
  // Degenerate windows are floored at one row per block.
  ASSERT_TRUE(mapped.BackWithFile(::testing::TempDir(), 1).ok());
  const std::unique_ptr<SimilarityKernel> kernel =
      MakeKernel(KernelKind::kNegativeEuclidean);
  ExpectBitIdenticalScores(ScoresFor(ram, t, *kernel),
                           ScoresFor(mapped, t, *kernel), "window=1");
}

TEST(MmapDatasetTest, SlabBitIdenticalAcrossCompiledSimdLevels) {
  const IncompleteDataset ram = MakeDataset(13, 17);
  IncompleteDataset mapped = ram;
  BackOrDie(&mapped);
  const int n = ram.total_candidates();
  const int dim = ram.dim();
  const std::vector<double> t = MakeRandomTestPoint(dim, 9);
  std::vector<double> want(static_cast<size_t>(n));
  std::vector<double> got(static_cast<size_t>(n));
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const simd::KernelBatchTable* table = simd::TableForLevel(level);
    if (table == nullptr) continue;
    table->neg_euclidean_norms(ram.flat_data(), ram.flat_sq_norms(), n, dim,
                               t.data(), want.data());
    table->neg_euclidean_norms(mapped.flat_data(), mapped.flat_sq_norms(), n,
                               dim, t.data(), got.data());
    ExpectBitIdenticalScores(
        want, got, std::string("neg_euclidean ") + SimdLevelName(level));
    table->cosine_norms(ram.flat_data(), ram.flat_sq_norms(), n, dim,
                        t.data(), want.data());
    table->cosine_norms(mapped.flat_data(), mapped.flat_sq_norms(), n, dim,
                        t.data(), got.data());
    ExpectBitIdenticalScores(
        want, got, std::string("cosine ") + SimdLevelName(level));
  }
}

TEST(MmapDatasetTest, MutationsWhileMappedMatchRamTwin) {
  IncompleteDataset ram = MakeDataset(14);
  IncompleteDataset mapped = ram;
  BackOrDie(&mapped);
  const auto mutate = [](IncompleteDataset* d) {
    d->FixExample(2, 0);
    // Same-size replacement stays in place; the larger one forces the
    // slab to grow (file mode: remap) or rebuild.
    d->ReplaceCandidates(5, {{1.0, 2.0, 3.0, 4.0, 5.0}});
    d->ReplaceCandidates(
        7, {{0.1, 0.2, 0.3, 0.4, 0.5},
            {1.5, 2.5, 3.5, 4.5, 5.5},
            {-1.0, -2.0, -3.0, -4.0, -5.0},
            {9.0, 8.0, 7.0, 6.0, 5.0},
            {1.0 / 3.0, 2.0 / 3.0, 1e300, -0.0, 4.2}});
    IncompleteExample extra;
    extra.label = 1;
    extra.candidates = {{1.0, 1.0, 1.0, 1.0, 1.0},
                        {2.0, 2.0, 2.0, 2.0, 2.0}};
    ASSERT_TRUE(d->AddExample(std::move(extra)).ok());
    d->FixExample(0, 0);
  };
  mutate(&ram);
  mutate(&mapped);
  EXPECT_TRUE(mapped.file_backed());
  EXPECT_TRUE(BitIdentical(ram, mapped));
  EXPECT_EQ(mapped.version(), ram.version());
  const std::vector<double> t = MakeRandomTestPoint(ram.dim(), 5);
  const std::unique_ptr<SimilarityKernel> kernel =
      MakeKernel(KernelKind::kNegativeEuclidean);
  ExpectBitIdenticalScores(ScoresFor(ram, t, *kernel),
                           ScoresFor(mapped, t, *kernel), "post-mutation");
}

TEST(MmapDatasetTest, JournalRecordsMutationsSinceEnable) {
  IncompleteDataset dataset = MakeDataset(15);
  const uint64_t v0 = dataset.version();
  EXPECT_FALSE(dataset.journal_enabled());
  dataset.EnableJournal();
  EXPECT_TRUE(dataset.JournalCovers(v0));
  EXPECT_FALSE(dataset.JournalCovers(v0 - 1));
  dataset.FixExample(1, 0);
  dataset.FixExample(3, 0);
  const std::vector<MutationRecord> all = dataset.JournalSince(v0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].seq, v0 + 1);
  EXPECT_EQ(all[0].example, 1);
  EXPECT_EQ(all[1].seq, v0 + 2);
  EXPECT_EQ(all[1].example, 3);
  EXPECT_EQ(dataset.JournalSince(v0 + 1).size(), 1u);
  EXPECT_EQ(dataset.JournalSince(v0 + 2).size(), 0u);
}

TEST(MmapDatasetTest, CopiesMaterializeToRamAndDropJournal) {
  IncompleteDataset mapped = MakeDataset(16);
  BackOrDie(&mapped);
  mapped.EnableJournal();
  mapped.FixExample(0, 0);
  const IncompleteDataset copy = mapped;
  EXPECT_FALSE(copy.file_backed());
  EXPECT_FALSE(copy.journal_enabled());
  EXPECT_EQ(copy.version(), mapped.version());
  EXPECT_TRUE(BitIdentical(copy, mapped));
}

TEST(MmapDatasetTest, InjectedMapFaultLeavesRamMode) {
  IncompleteDataset dataset = MakeDataset(17);
  ASSERT_TRUE(FaultInjection::Configure("mmap.map=once").ok());
  EXPECT_FALSE(dataset.BackWithFile(::testing::TempDir(), 4096).ok());
  EXPECT_FALSE(dataset.file_backed());
  FaultInjection::Clear();
  // And the dataset is fully usable in RAM mode afterwards.
  EXPECT_TRUE(dataset.BackWithFile(::testing::TempDir(), 4096).ok());
}

TEST(MmapDatasetTest, V3SerializationCarriesVersion) {
  IncompleteDataset dataset = MakeDataset(18);
  dataset.FixExample(1, 0);
  const uint64_t version = dataset.version();
  const Result<DeserializedDataset> parsed =
      DeserializeIncompleteDataset(SerializeIncompleteDataset(dataset, {}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().dataset.version(), version);
  EXPECT_TRUE(BitIdentical(dataset, parsed.value().dataset));
}

}  // namespace
}  // namespace cpclean
