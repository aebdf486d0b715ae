// SIMD dispatch + bit-exactness suite (DESIGN.md §6). The contract under
// test: every kernel produces bit-identical output under RP_SIMD=off and the
// dispatched ISA, for any thread count — including ragged shapes that miss
// the vector width, pruned (zero) rows hitting the zero skips, and
// accumulating gradients. On a host without a vector ISA the forced comparisons
// degenerate to scalar-vs-scalar and pass trivially; the dispatch tests
// still verify the RP_SIMD resolution machinery.

#include "tensor/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "conv_ref.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace rp {
namespace {

/// Restores env+CPU dispatch resolution when a test exits, pass or fail.
struct SimdGuard {
  ~SimdGuard() { simd::reset(); }
};

/// Restores the default lane count when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ----- dispatch -----------------------------------------------------------

TEST(SimdDispatch, ForceAndResetPinTheIsa) {
  SimdGuard guard;
  simd::force(simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::isa_name(simd::active()), "scalar");

  if (simd::avx2_kernels() != nullptr) {
    simd::force(simd::Isa::kAvx2);
    // On an AVX2 host this pins avx2; elsewhere force() falls back to scalar.
    EXPECT_TRUE(simd::active() == simd::Isa::kAvx2 || simd::active() == simd::Isa::kScalar);
  }
  simd::reset();
  // Whatever auto resolves to, the kernel table must be complete.
  const simd::Kernels& k = simd::kernels();
  EXPECT_NE(k.conv_dense, nullptr);
  EXPECT_NE(k.relu, nullptr);
  EXPECT_NE(k.sgd_step, nullptr);
}

TEST(SimdDispatch, EveryCompiledTableIsComplete) {
  for (const simd::Kernels* t : {simd::avx2_kernels(), simd::neon_kernels()}) {
    if (t == nullptr) continue;
    EXPECT_NE(t->conv_dense, nullptr);
    EXPECT_NE(t->conv_csr, nullptr);
    EXPECT_NE(t->conv_dw, nullptr);
    EXPECT_NE(t->conv_dx, nullptr);
    EXPECT_NE(t->relu, nullptr);
    EXPECT_NE(t->relu_grad, nullptr);
    EXPECT_NE(t->add, nullptr);
    EXPECT_NE(t->mul, nullptr);
    EXPECT_NE(t->add_scalar, nullptr);
    EXPECT_NE(t->scale, nullptr);
    EXPECT_NE(t->div_scalar, nullptr);
    EXPECT_NE(t->clamp, nullptr);
    EXPECT_NE(t->reduce_max, nullptr);
    EXPECT_NE(t->reduce_abs_max, nullptr);
    EXPECT_NE(t->sgd_step, nullptr);
  }
}

// ----- Linear products on the conv kernels ---------------------------------------

struct LinearRun {
  Tensor y, dx, dw;
};

/// Training forward and backward of a bias-free Linear with weight w, whose
/// gradient starts at grad0.
LinearRun run_linear(const Tensor& w, const Tensor& x, const Tensor& dy, const Tensor& grad0) {
  Rng rng(0);
  nn::Linear fc("fc", w.size(1), w.size(0), false, rng);
  fc.weight().value = w;
  fc.weight().grad = grad0;
  LinearRun r;
  r.y = fc.forward(x, true);
  r.dx = fc.backward(dy);
  r.dw = fc.weight().grad;
  return r;
}

/// The same three products as plain chains: y = x @ wᵀ and dx = dy @ w
/// skipping zero weights, dW = grad0 + dyᵀ @ x skipping zero dy.
LinearRun ref_linear(const Tensor& w, const Tensor& x, const Tensor& dy, const Tensor& grad0) {
  using testing::SkipZeros;
  LinearRun r{Tensor(Shape{x.size(0), w.size(0)}), Tensor(x.shape()), Tensor(w.shape())};
  testing::ref_matmul(x, w, r.y, false, /*tb=*/true, SkipZeros::kB);
  testing::ref_matmul(dy, w, r.dx, false, false, SkipZeros::kB);
  testing::ref_matmul(dy, x, r.dw, /*ta=*/true, false, SkipZeros::kA);
  for (int64_t j = 0; j < r.dw.numel(); ++j) r.dw[j] += grad0[j];
  return r;
}

void expect_linear_run(const LinearRun& got, const LinearRun& want) {
  EXPECT_TRUE(bits_equal(got.y, want.y)) << "forward";
  EXPECT_TRUE(bits_equal(got.dx, want.dx)) << "dx";
  EXPECT_TRUE(bits_equal(got.dw, want.dw)) << "dW";
}

/// Shapes (batch, in, out) chosen to hit every kernel tier and tail: extents
/// below one vector, positions and channels that miss the vector widths,
/// and 64s that fill them, from a zero and a non-zero incoming gradient.
/// A pruned output row, scattered zero weights and zero dy exercise both
/// zero skips.
TEST(SimdGemm, ScalarVsSimdBitExact) {
  SimdGuard guard;
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1}, {5, 7, 9}, {17, 31, 257}, {33, 300, 130}, {64, 64, 64},
  };
  for (const auto& [n, in, out] : shapes) {
    for (const bool accumulate : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " in=" + std::to_string(in) + " out=" +
                   std::to_string(out) + " accumulate=" + std::to_string(accumulate));
      Rng rng(static_cast<uint64_t>(n * 7919 + in * 131 + out * 17) + 100);
      Tensor w = Tensor::randn(Shape{out, in}, rng);
      for (int64_t j = 0; j < in; ++j) w.at(out / 2, j) = 0.0f;
      for (int64_t o = 0; o < out; o += 3) w.at(o, in / 2) = 0.0f;
      const Tensor x = Tensor::randn(Shape{n, in}, rng);
      Tensor dy = Tensor::randn(Shape{n, out}, rng);
      for (int64_t i = 0; i < dy.numel(); i += 7) dy[i] = 0.0f;
      const Tensor grad0 = accumulate ? Tensor::randn(Shape{out, in}, rng) : Tensor(Shape{out, in});
      const LinearRun want = ref_linear(w, x, dy, grad0);

      simd::force(simd::Isa::kScalar);
      expect_linear_run(run_linear(w, x, dy, grad0), want);
      simd::reset();
      expect_linear_run(run_linear(w, x, dy, grad0), want);
    }
  }
}

/// The full cross: {scalar, dispatched} x {1 thread, 8 threads} must agree
/// bitwise on a ragged shape whose forward goes across lanes.
TEST(SimdGemm, SimdAndThreadCountCommute) {
  SimdGuard guard;
  ThreadGuard tguard;
  Rng rng(42);
  const Tensor w = Tensor::randn(Shape{131, 257}, rng);
  const Tensor x = Tensor::randn(Shape{130, 257}, rng);
  const Tensor dy = Tensor::randn(Shape{130, 131}, rng);
  const Tensor grad0 = Tensor::randn(Shape{131, 257}, rng);
  const LinearRun want = ref_linear(w, x, dy, grad0);
  for (const bool use_simd : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string(use_simd ? "simd" : "scalar") + " threads=" +
                   std::to_string(threads));
      if (use_simd) {
        simd::reset();
      } else {
        simd::force(simd::Isa::kScalar);
      }
      parallel::set_num_threads(threads);
      expect_linear_run(run_linear(w, x, dy, grad0), want);
    }
  }
}

// ----- elementwise / reduction ops -----------------------------------------

/// Sizes around and below the vector widths so heads, bodies, and tails are
/// all covered; data includes -0.0f and NaN (relu/clamp must pass both
/// through with identical bits).
TEST(SimdVops, ScalarVsSimdBitExact) {
  SimdGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{31},
                          int64_t{64}, int64_t{100}, int64_t{1000}}) {
    Rng rng(static_cast<uint64_t>(n) + 7);
    Tensor base = Tensor::randn(Shape{n}, rng);
    base[0] = -0.0f;
    if (n > 3) base[3] = nan;
    Tensor other = Tensor::randn(Shape{n}, rng);
    Tensor grad = Tensor::randn(Shape{n}, rng);

    auto run_pair = [&](auto&& fn) {
      simd::force(simd::Isa::kScalar);
      Tensor scalar_out = fn();
      simd::reset();
      Tensor simd_out = fn();
      ASSERT_TRUE(bits_equal(scalar_out, simd_out)) << "n=" << n;
    };

    run_pair([&] {
      Tensor t = base;
      simd::relu(t.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = other;
      simd::relu_grad(base.data().data(), t.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::add(t.data().data(), other.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::mul(t.data().data(), other.data().data(), n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::add_scalar(t.data().data(), 0.7f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::scale(t.data().data(), 1.3f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::div_scalar(t.data().data(), 0.9f, n);
      return t;
    });
    run_pair([&] {
      Tensor t = base;
      simd::clamp(t.data().data(), -0.5f, 0.5f, n);
      return t;
    });
    run_pair([&] {
      Tensor p = base, vel = other;
      simd::sgd_step(p.data().data(), grad.data().data(), vel.data().data(), 0.1f, 0.9f, 5e-4f,
                     /*nesterov=*/true, n);
      Tensor both(Shape{2 * n});
      std::memcpy(both.data().data(), p.data().data(), static_cast<size_t>(n) * sizeof(float));
      std::memcpy(both.data().data() + n, vel.data().data(),
                  static_cast<size_t>(n) * sizeof(float));
      return both;
    });
  }
}

TEST(SimdVops, ReductionsMatchScalar) {
  SimdGuard guard;
  for (const int64_t n : {int64_t{1}, int64_t{5}, int64_t{8}, int64_t{13}, int64_t{200}}) {
    Rng rng(static_cast<uint64_t>(n) * 31 + 1);
    Tensor t = Tensor::randn(Shape{n}, rng);
    simd::force(simd::Isa::kScalar);
    const float smax = simd::reduce_max(t.data().data(), n);
    const float samax = simd::reduce_abs_max(t.data().data(), n);
    simd::reset();
    EXPECT_EQ(smax, simd::reduce_max(t.data().data(), n)) << "n=" << n;
    EXPECT_EQ(samax, simd::reduce_abs_max(t.data().data(), n)) << "n=" << n;
  }
}

// ----- conv forward/backward ------------------------------------------------

struct ConvRun {
  Tensor y, dx, dw, db;
};

/// One forward+backward pass of a fresh, identically-seeded Conv2d. Shapes
/// chosen so oplane (15*15=225) misses the vector widths and the weight has
/// pruned (zeroed) filter rows.
ConvRun run_conv(int threads) {
  Rng rng(7);
  nn::Conv2d conv("c", /*in_c=*/3, /*out_c=*/10, /*k=*/3, /*stride=*/1, /*pad=*/1,
                  /*in_h=*/15, /*in_w=*/15, /*use_bias=*/true, rng);
  // Prune two filters end to end: their dW rows stay exactly zero and the
  // zero-weight skip sees full zero rows.
  for (int64_t j = 0; j < conv.weight().value.size(1); ++j) {
    conv.weight().value.at(2, j) = 0.0f;
    conv.weight().value.at(7, j) = 0.0f;
  }
  Rng drng(11);
  Tensor x = Tensor::randn(Shape{6, 3, 15, 15}, drng);
  Tensor dy = Tensor::randn(Shape{6, 10, 15, 15}, drng);

  parallel::set_num_threads(threads);
  ConvRun r;
  r.y = conv.forward(x, /*train=*/true);
  r.dx = conv.backward(dy);
  std::vector<nn::Parameter*> params;
  conv.collect_params(params);
  r.dw = params[0]->grad;
  r.db = params[1]->grad;
  return r;
}

TEST(SimdConv, ForwardBackwardScalarVsSimdBitExact) {
  SimdGuard guard;
  ThreadGuard tguard;
  simd::force(simd::Isa::kScalar);
  const ConvRun scalar = run_conv(1);
  simd::reset();
  const ConvRun simd_run = run_conv(1);
  EXPECT_TRUE(bits_equal(scalar.y, simd_run.y));
  EXPECT_TRUE(bits_equal(scalar.dx, simd_run.dx));
  EXPECT_TRUE(bits_equal(scalar.dw, simd_run.dw));
  EXPECT_TRUE(bits_equal(scalar.db, simd_run.db));
}

/// The parallel backward contract: per-sample partials folded in sample order
/// make gradients bit-identical for any RP_THREADS.
TEST(SimdConv, ParallelBackwardMatchesSerialBitExact) {
  ThreadGuard tguard;
  const ConvRun serial = run_conv(1);
  for (const int threads : {2, 8}) {
    const ConvRun threaded = run_conv(threads);
    EXPECT_TRUE(bits_equal(serial.y, threaded.y)) << "threads=" << threads;
    EXPECT_TRUE(bits_equal(serial.dx, threaded.dx)) << "threads=" << threads;
    EXPECT_TRUE(bits_equal(serial.dw, threaded.dw)) << "threads=" << threads;
    EXPECT_TRUE(bits_equal(serial.db, threaded.db)) << "threads=" << threads;
  }
}

/// Pruned filters must receive exactly-zero input gradient contributions:
/// with the whole filter row zero, dcols = Wᵀ dy gets no contribution from
/// that filter under the zero-skip, in every ISA.
TEST(SimdConv, PrunedFilterRowsStayZeroInWeightGrad) {
  SimdGuard guard;
  ThreadGuard tguard;
  const ConvRun r = run_conv(1);
  // dW rows of pruned filters are dy_row @ colsᵀ with dy rows generally
  // nonzero — so dW is NOT zero there; what must hold is that the forward
  // output of a pruned filter is exactly its bias plane.
  for (const int64_t f : {int64_t{2}, int64_t{7}}) {
    const float b = r.y.at(0, f, 0, 0);
    for (int64_t p = 0; p < 15 * 15; ++p) {
      ASSERT_EQ(r.y.data().data()[(0 * 10 + f) * 225 + p], b);
    }
  }
}

}  // namespace
}  // namespace rp
