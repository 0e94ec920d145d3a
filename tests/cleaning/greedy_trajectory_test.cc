// Pins CPClean's greedy trajectory to committed literals: the examples
// StepGreedy cleans, in order, and the bits of the final test accuracy on
// the four paper-dataset analogs. The FastQ2 bit-match tests compare two
// query paths that share one scan body; these literals hold the whole
// selection loop to the answers of an independent earlier engine.
//
// The literals are this test's failure output (it prints the observed
// trajectory in literal form) from a run against the earlier engine, whose
// pinned sweep checkpointed once at the pinned tuple's first scan entry
// and replayed every candidate from there.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cleaning/cp_clean.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

struct Trajectory {
  std::string dataset;
  std::vector<int> cleaned;
  uint64_t final_test_accuracy_bits;
};

const Trajectory kGolden[] = {
    {"BabyProduct", {}, 0x3fe4000000000000u},
    {"Supreme",
     {28, 35, 32, 8, 37, 2, 24, 6, 38, 7, 18, 34, 19, 30, 39, 33, 15, 16, 3,
      20},
     0x3fe4cccccccccccdu},
    {"Bank",
     {16, 34, 1, 29, 5, 8, 6, 22, 12, 2, 18, 38, 31, 19, 32, 0, 28, 26, 10,
      37, 13, 25, 21, 11, 20},
     0x3fe0cccccccccccdu},
    {"Puma",
     {26, 10, 16, 28, 3, 6, 17, 2, 31, 19, 36, 25, 18, 12, 33, 35, 29, 39,
      15, 37, 1},
     0x3fea666666666666u},
};

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(double));
  return b;
}

std::string AsLiteral(const Trajectory& t) {
  std::ostringstream out;
  out << "{\"" << t.dataset << "\", {";
  for (size_t s = 0; s < t.cleaned.size(); ++s) {
    out << (s == 0 ? "" : ", ") << t.cleaned[s];
  }
  out << "}, 0x" << std::hex << t.final_test_accuracy_bits << "u},";
  return out.str();
}

Trajectory RunToConvergence(const PaperDatasetSpec& spec) {
  ExperimentConfig config;
  config.dataset = spec;
  config.k = 3;
  config.seed = 3;
  NegativeEuclideanKernel kernel;
  const PreparedExperiment prepared = PrepareExperiment(config, kernel).value();
  CpCleanOptions options;
  options.k = 3;
  options.num_threads = 1;
  CleaningSession session(&prepared.task, &kernel, options);

  Trajectory t;
  t.dataset = spec.name;
  for (int example = session.StepGreedy(); example >= 0;
       example = session.StepGreedy()) {
    t.cleaned.push_back(example);
  }
  // The session's best-guess world: cleaned and born-clean rows hold their
  // single candidate, still-dirty rows their default imputation.
  const IncompleteDataset& working = session.working();
  std::vector<std::vector<double>> world = prepared.task.default_x;
  for (int i = 0; i < working.num_examples(); ++i) {
    if (working.num_candidates(i) == 1) {
      world[static_cast<size_t>(i)] = working.candidate(i, 0);
    }
  }
  t.final_test_accuracy_bits =
      Bits(prepared.task.AccuracyWith(world, prepared.task.test_x,
                                      prepared.task.test_y, kernel, 3));
  return t;
}

TEST(GreedyTrajectoryTest, PaperSuiteMatchesGoldenLiterals) {
  const std::vector<PaperDatasetSpec> suite = PaperDatasetSuite(40, 10, 40);
  ASSERT_EQ(suite.size(), std::size(kGolden));
  for (size_t d = 0; d < suite.size(); ++d) {
    const Trajectory got = RunToConvergence(suite[d]);
    const Trajectory& want = kGolden[d];
    EXPECT_EQ(got.dataset, want.dataset);
    EXPECT_EQ(got.cleaned, want.cleaned) << AsLiteral(got);
    EXPECT_EQ(got.final_test_accuracy_bits, want.final_test_accuracy_bits)
        << AsLiteral(got);
  }
}

}  // namespace
}  // namespace cpclean
