// Sparse execution engine suite (DESIGN.md §6 "Sparse execution"). The
// contract under test: a CSR layout reconstructs the weight bit-for-bit, a
// dense layout's masks mark exactly its nonzero weights, the Linear entry is
// memcmp-identical to the dense reference across the full
// RP_SPARSE × RP_SIMD × RP_THREADS matrix,
// and the obs counters observe the sparse path without perturbing a single
// bit.

#include "tensor/sparse.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pruner.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "conv_ref.hpp"
#include "obs/obs.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp {
namespace {

/// Restores RP_SPARSE env resolution when a test exits, pass or fail.
struct SparseGuard {
  ~SparseGuard() { sparse::reset(); }
};

/// Restores RP_SIMD env+CPU dispatch resolution when a test exits.
struct SimdGuard {
  ~SimdGuard() { simd::reset(); }
};

/// Restores the default lane count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  // An empty tensor's data() may be null, which memcmp must not receive.
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data().data(), b.data().data(),
                                        static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

/// Random matrix pruned unstructured to roughly `density`, with row
/// `rows / 2` fully zeroed so every layout handles an empty row.
Tensor make_pruned(int64_t rows, int64_t cols, double density, uint64_t seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{rows, cols}, rng);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.uniform() >= density) w.at(i, j) = 0.0f;
    }
  }
  if (rows > 2) {
    for (int64_t j = 0; j < cols; ++j) w.at(rows / 2, j) = 0.0f;
  }
  return w;
}

const double kDensities[] = {1.0, 0.5, 0.2, 0.1, 0.05, 0.0};
const std::pair<int64_t, int64_t> kShapes[] = {
    {1, 1},    // degenerate
    {7, 13},   // odd in both dims
    {10, 40},  // wide
    {64, 64},  // square
};

/// Batch sizes for the Linear entry: empty, single, below / at / above the
/// vector widths, and one wider than the scalar conv kernel's 2048-float pass.
const int64_t kBatches[] = {0, 1, 4, 9, 33, 2100};

/// Memcmps the Linear entry rhs_matmul_into(w, sw, x) against `ref` under
/// RP_THREADS {1, 4} × {scalar, dispatched}.
void expect_linear_bits(const Tensor& w, const sparse::SparseWeight& sw, const Tensor& x,
                        const Tensor& ref) {
  for (const bool scalar : {true, false}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(sparse::layout_name(sw.layout)) + " n=" +
                   std::to_string(x.size(0)) + " RP_SIMD=" + (scalar ? "off" : "auto") +
                   " RP_THREADS=" + std::to_string(threads));
      if (scalar) {
        simd::force(simd::Isa::kScalar);
      } else {
        simd::reset();
      }
      parallel::set_num_threads(threads);
      Tensor y = Tensor::full(Shape{x.size(0), sw.rows}, -1.0f);  // every output is written
      sparse::rhs_matmul_into(w, sw, x, y);
      EXPECT_TRUE(bits_equal(y, ref));
    }
  }
}

/// The Linear entry for weight w [out, in] against the chain y = x @ wᵀ
/// skipping zero weights (ref_matmul), for every batch size in kBatches
/// under every mode (auto is dense at high density, CSR below), across
/// RP_THREADS × RP_SIMD.
void expect_linear_matches_dense(const Tensor& w, uint64_t seed) {
  for (const int64_t n : kBatches) {
    Rng rng(seed + static_cast<uint64_t>(n));
    const Tensor x = Tensor::randn(Shape{n, w.size(1)}, rng);
    Tensor ref(Shape{n, w.size(0)});
    testing::ref_matmul(x, w, ref, false, /*tb=*/true, testing::SkipZeros::kB);
    for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
      SCOPED_TRACE(sparse::mode_name(mode));
      expect_linear_bits(w, sparse::compile(w, mode), x, ref);
    }
  }
}

// ---------------------------------------------------------------------------
// Mode resolution

TEST(SparseMode, ForceAndResetPinTheMode) {
  SparseGuard guard;
  sparse::force(sparse::Mode::kOff);
  EXPECT_EQ(sparse::mode(), sparse::Mode::kOff);
  sparse::force(sparse::Mode::kCsr);
  EXPECT_EQ(sparse::mode(), sparse::Mode::kCsr);
  sparse::reset();
  // Unset RP_SPARSE resolves to auto in the test environment unless the
  // outer harness overrides it; either way the resolved value is a valid
  // mode with a printable name.
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kOff), "off");
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kCsr), "csr");
  EXPECT_STREQ(sparse::mode_name(sparse::Mode::kAuto), "auto");
  EXPECT_STREQ(sparse::layout_name(sparse::Layout::kDense), "dense");
  EXPECT_STREQ(sparse::layout_name(sparse::Layout::kCsr), "csr");
}

// ---------------------------------------------------------------------------
// analyze(): layout choice from the measured pattern

TEST(SparseAnalyze, AutoKeepsDenseAtHighDensity) {
  const Tensor w = make_pruned(32, 32, 1.0, 1);
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kDense);
  EXPECT_DOUBLE_EQ(plan.density, static_cast<double>(plan.nnz) / (32.0 * 32.0));
  EXPECT_GE(plan.density, sparse::kDenseDensityThreshold);
}

TEST(SparseAnalyze, AutoPicksCsrForUnstructuredLowDensity) {
  const Tensor w = make_pruned(64, 64, 0.1, 2);
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kCsr);
  EXPECT_LT(plan.density, sparse::kDenseDensityThreshold);
}

TEST(SparseAnalyze, AutoPicksCsrForFilterPrunedRows) {
  // FT-style structured sparsity: whole output rows (filters) zeroed, one
  // in four kept, so density is exactly 0.25. Auto plans CSR, and the
  // Linear product is memcmp-identical to the dense reference.
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  const int64_t rows = 32, cols = 72;
  Rng rng(3);
  Tensor w = Tensor::randn(Shape{rows, cols}, rng);
  for (int64_t i = 0; i < rows; ++i) {
    if (i % 4 == 0) continue;
    for (int64_t j = 0; j < cols; ++j) w.at(i, j) = 0.0f;
  }
  const auto plan = sparse::analyze(w, sparse::Mode::kAuto);
  EXPECT_EQ(plan.layout, sparse::Layout::kCsr);
  EXPECT_EQ(plan.nnz, rows / 4 * cols);
  EXPECT_DOUBLE_EQ(plan.density, 0.25);
  expect_linear_matches_dense(w, 30);
}

TEST(SparseAnalyze, ForcedModesOverrideTheMeasurement) {
  const Tensor w = make_pruned(16, 16, 1.0, 4);
  EXPECT_EQ(sparse::analyze(w, sparse::Mode::kOff).layout, sparse::Layout::kDense);
  EXPECT_EQ(sparse::analyze(w, sparse::Mode::kCsr).layout, sparse::Layout::kCsr);
}

// ---------------------------------------------------------------------------
// compile(): a CSR layout round-trips through to_dense() bit for bit, and a
// dense layout's masks mark exactly the nonzero weights

/// Expects `sw` to be the layout compile() gives under `mode` for w: CSR
/// reconstructs w bit for bit; the dense masks set bit o % 4 of byte
/// (o / 4)·cols + r exactly when w[o, r] != 0 and no other bit, and hold no
/// values (to_dense throws).
void expect_compiled(const sparse::SparseWeight& sw, const Tensor& w, sparse::Mode mode) {
  const int64_t rows = w.size(0), cols = w.size(1);
  EXPECT_EQ(sw.layout, sparse::analyze(w, mode).layout);
  EXPECT_EQ(sw.rows, rows);
  EXPECT_EQ(sw.cols, cols);
  EXPECT_EQ(sw.nnz, sparse::analyze(w, mode).nnz);
  EXPECT_GT(sw.bytes(), 0);
  if (sw.layout == sparse::Layout::kCsr) {
    EXPECT_TRUE(sw.masks.empty());
    EXPECT_TRUE(bits_equal(sw.to_dense(), w));
    return;
  }
  EXPECT_TRUE(sw.row_ptr.empty() && sw.col_idx.empty() && sw.values.empty());
  EXPECT_THROW(sw.to_dense(), std::logic_error);
  ASSERT_EQ(sw.masks.size(), static_cast<size_t>((rows + 3) / 4 * cols));
  for (int64_t o = 0; o < (rows + 3) / 4 * 4; ++o) {
    for (int64_t r = 0; r < cols; ++r) {
      const bool set = (sw.masks[static_cast<size_t>((o / 4) * cols + r)] >> (o % 4)) & 1u;
      EXPECT_EQ(set, o < rows && w.at(o, r) != 0.0f) << "row " << o << ", column " << r;
    }
  }
}

TEST(SparseRoundTrip, EveryLayoutReconstructsEveryDensityBitExact) {
  uint64_t seed = 10;
  for (const auto& [rows, cols] : kShapes) {
    for (const double density : kDensities) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) + " @ " +
                   std::to_string(density));
      const Tensor w = make_pruned(rows, cols, density, seed++);
      for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
        SCOPED_TRACE(sparse::mode_name(mode));
        expect_compiled(sparse::compile(w, mode), w, mode);
      }
      // rebuild() recompiles in place to the dense layout, from either one.
      for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr}) {
        SCOPED_TRACE(std::string("rebuild from ") + sparse::mode_name(mode));
        sparse::SparseWeight sw = sparse::compile(make_pruned(rows, cols, 0.5, seed++), mode);
        sparse::rebuild(w, sw);
        expect_compiled(sw, w, sparse::Mode::kOff);
      }
    }
  }
}

TEST(SparseRoundTrip, AllZeroMatrixCompilesToEmptySparseForms) {
  Tensor w = Tensor::zeros(Shape{12, 20});
  for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    SCOPED_TRACE(sparse::mode_name(mode));
    const auto sw = sparse::compile(w, mode);
    EXPECT_EQ(sw.nnz, 0);
    expect_compiled(sw, w, mode);
  }
}

// ---------------------------------------------------------------------------
// Kernels: memcmp-identical to the dense reference

// The Linear entry (rhs_matmul_into) is the only matrix-product entry of the
// engine; both layouts run their conv kernel as a 1×1 conv over the batch.

TEST(SparseMatmul, MatchesDenseGemmBitExactAcrossLayoutsAndThreads) {
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  uint64_t seed = 40;
  for (const auto& [rows, cols] : kShapes) {
    for (const double density : kDensities) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) + " @ " +
                   std::to_string(density));
      const Tensor w = make_pruned(rows, cols, density, seed++);
      expect_linear_matches_dense(w, 1000 * seed++);
    }
  }
}

TEST(SparseMatmul, RhsOrientationMatchesLinearReferenceBitExact) {
  // A ragged Linear weight [out, in] and resnet8's 64 -> 10 classifier head
  // at the densities its prune-retrain cycles reach.
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  expect_linear_matches_dense(make_pruned(24, 40, 0.1, 77), 78);
  for (const double density : {0.55, 0.17, 0.05}) {
    SCOPED_TRACE("head @ " + std::to_string(density));
    expect_linear_matches_dense(make_pruned(10, 64, density, 79), 80);
  }
}

TEST(SparseMatmul, ScalarVsDispatchedKernelsBitExact) {
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  expect_linear_matches_dense(make_pruned(33, 65, 0.2, 90), 91);  // ragged in rows and cols
}

TEST(SparseMatmul, StoredZerosSkipNonFiniteInputs) {
  // A CSR weight may hold explicit zeros (a caller can zero stored values
  // after compiling). The kernel skips them like the dense zero skip, so
  // NaN / ±Inf inputs in a column whose stored weights are all ±0 never
  // reach an output: the result equals the dense reference on finite input.
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  const int64_t rows = 12, cols = 20, p = 7;
  Tensor w = make_pruned(rows, cols, 0.3, 95);
  for (int64_t i = 0; i < rows; ++i) w.at(i, p) = 1.0f;  // stored in every row
  sparse::SparseWeight sw = sparse::compile(w, sparse::Mode::kCsr);
  for (size_t t = 0; t < sw.values.size(); ++t) {
    if (sw.col_idx[t] == p) sw.values[t] = t % 2 == 0 ? 0.0f : -0.0f;
  }
  const Tensor w0 = sw.to_dense();
  const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  for (const int64_t n : kBatches) {
    Rng rng(96 + static_cast<uint64_t>(n));
    const Tensor x = Tensor::randn(Shape{n, cols}, rng);
    Tensor ref(Shape{n, rows});
    testing::ref_matmul(x, w0, ref, false, /*tb=*/true, testing::SkipZeros::kB);
    Tensor bad = x;
    for (int64_t i = 0; i < n; ++i) bad.at(i, p) = kNonFinite[i % 3];
    expect_linear_bits(w0, sw, bad, ref);
  }
}

TEST(SparseMatmul, MismatchedOutputShapeThrows) {
  // The Linear entry checks y before writing it, so a wrong output shape is
  // an error, not a write past y's buffer, under every mode. A dense layout
  // also rejects a weight of another shape than the one it was compiled from,
  // whose values its kernel would read.
  const Tensor w = make_pruned(4, 6, 0.5, 97);
  const Tensor x(Shape{3, 6});
  for (const auto mode : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    SCOPED_TRACE(sparse::mode_name(mode));
    const sparse::SparseWeight sw = sparse::compile(w, mode);
    for (const Shape& bad : {Shape{4, 3}, Shape{3, 5}, Shape{3, 4, 1}, Shape{12}}) {
      Tensor y(bad);
      EXPECT_THROW(sparse::rhs_matmul_into(w, sw, x, y), std::invalid_argument)
          << bad.to_string();
    }
  }
  Tensor y(Shape{3, 4});
  EXPECT_THROW(
      sparse::rhs_matmul_into(Tensor(Shape{6, 4}), sparse::compile(w, sparse::Mode::kOff), x, y),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: predict is memcmp-identical across the whole matrix, and the
// obs counters see the sparse path without touching the results.

TEST(SparsePredict, MemcmpIdenticalAcrossSparseSimdThreadMatrix) {
  SparseGuard sparse_guard;
  SimdGuard simd_guard;
  ThreadGuard thread_guard;
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 5);
  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.9);
  net->enforce_masks();
  Rng rng(6);
  const Tensor images = Tensor::rand(Shape{6, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kOff);
  parallel::set_num_threads(1);
  const Tensor ref = nn::predict(*net, images, 4);

  for (const auto mode : {sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    for (const bool scalar : {true, false}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string("RP_SPARSE=") + sparse::mode_name(mode) +
                     " RP_SIMD=" + (scalar ? "off" : "auto") +
                     " RP_THREADS=" + std::to_string(threads));
        sparse::force(mode);
        if (scalar) {
          simd::force(simd::Isa::kScalar);
        } else {
          simd::reset();
        }
        parallel::set_num_threads(threads);
        EXPECT_TRUE(bits_equal(nn::predict(*net, images, 4), ref));
      }
    }
  }
}

TEST(SparsePredict, ObsCountersObserveTheSparsePathResultNeutrally) {
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  parallel::set_num_threads(1);
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 7);
  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.9);
  net->enforce_masks();
  Rng rng(8);
  const Tensor images = Tensor::rand(Shape{4, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kOff);
  const Tensor ref = nn::predict(*net, images, 4);

  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  sparse::force(sparse::Mode::kCsr);
  const Tensor sparse_out = nn::predict(*net, images, 4);
  EXPECT_GT(obs::counter_value(obs::Counter::kGemmSparseCalls), 0);
  EXPECT_GT(obs::counter_value(obs::Counter::kSparseNnz), 0);
  EXPECT_GT(obs::counter_value(obs::Counter::kSparseBytesSaved), 0);
  obs::configure({});

  // Observability never affects results: counted run == uncounted reference.
  EXPECT_TRUE(bits_equal(sparse_out, ref));
}

TEST(SparsePredict, SparseScopeDiscardsCompiledFormsAfterEval) {
  // Pruning more after an evaluate must be reflected by the next evaluate:
  // the compiled forms may not outlive the call that compiled them.
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  parallel::set_num_threads(1);
  const auto task = nn::synth_cifar_task();
  auto net = nn::build_network("resnet8", task, 9);
  Rng rng(10);
  const Tensor images = Tensor::rand(Shape{4, task.in_c, task.in_h, task.in_w}, rng);

  sparse::force(sparse::Mode::kAuto);
  const Tensor before_sparse = nn::predict(*net, images, 4);

  core::prune_to_ratio(*net, core::PruneMethod::WT, 0.95);
  net->enforce_masks();
  const Tensor after_sparse = nn::predict(*net, images, 4);
  sparse::force(sparse::Mode::kOff);
  const Tensor after_dense = nn::predict(*net, images, 4);

  // The post-prune sparse run tracked the new weights (== dense), not the
  // stale pre-prune compilation.
  EXPECT_TRUE(bits_equal(after_sparse, after_dense));
  EXPECT_FALSE(bits_equal(before_sparse, after_sparse));
}

}  // namespace
}  // namespace rp
