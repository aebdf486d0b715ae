#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "conv_ref.hpp"
#include "grad_check.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp::nn {
namespace {

constexpr double kGradTol = 3e-2;  // float forward + central differences

Tensor away_from_kinks(Shape shape, Rng& rng) {
  // Inputs with |x| > 0.1 so ReLU/maxpool finite differences never straddle
  // a non-differentiable point.
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (float& v : t.data()) {
    if (std::fabs(v) < 0.15f) v = v >= 0 ? v + 0.2f : v - 0.2f;
  }
  return t;
}

// ----- Conv2d --------------------------------------------------------------------

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv("c", 3, 8, 3, 1, 1, 6, 6, true, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 6, 6}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 6, 6}));
}

TEST(Conv2d, StridedOutputShape) {
  Rng rng(2);
  Conv2d conv("c", 2, 4, 3, 2, 1, 8, 8, false, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 8, 8}, rng);
  EXPECT_EQ(conv.forward(x, false).shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, KnownValueIdentityKernel) {
  Rng rng(3);
  Conv2d conv("c", 1, 1, 1, 1, 0, 3, 3, false, rng);
  conv.weight().value.fill(2.0f);
  Tensor x = Tensor::arange(9).reshape(Shape{1, 1, 3, 3});
  Tensor y = conv.forward(x, false);
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], 2.0f * x[i]);
}

TEST(Conv2d, BiasIsAddedPerChannel) {
  Rng rng(4);
  Conv2d conv("c", 1, 2, 1, 1, 0, 2, 2, true, rng);
  conv.weight().value.zero();
  std::vector<Parameter*> params;
  conv.collect_params(params);
  params[1]->value[0] = 1.5f;
  params[1]->value[1] = -0.5f;
  Tensor x = Tensor::randn(Shape{1, 1, 2, 2}, rng);
  Tensor y = conv.forward(x, false);
  for (int64_t p = 0; p < 4; ++p) {
    EXPECT_FLOAT_EQ(y[p], 1.5f);
    EXPECT_FLOAT_EQ(y[4 + p], -0.5f);
  }
}

TEST(Conv2d, InputGradient) {
  Rng rng(5);
  Conv2d conv("c", 2, 3, 3, 1, 1, 4, 4, true, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(conv, x, rng), kGradTol);
}

TEST(Conv2d, ParamGradients) {
  Rng rng(6);
  Conv2d conv("c", 2, 3, 3, 2, 1, 4, 4, true, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  EXPECT_LT(rp::testing::check_param_gradients(conv, x, rng), kGradTol);
}

TEST(Conv2d, WrongInputGeometryThrows) {
  Rng rng(7);
  Conv2d conv("c", 2, 3, 3, 1, 1, 4, 4, false, rng);
  Tensor bad = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  EXPECT_THROW(conv.forward(bad, false), std::invalid_argument);
}

TEST(Conv2d, PrunableSpecDescribesLayer) {
  Rng rng(8);
  Conv2d conv("c", 3, 8, 3, 1, 1, 6, 6, true, rng);
  std::vector<PrunableSpec> specs;
  conv.collect_prunable(specs);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].out_units, 8);
  EXPECT_EQ(specs[0].in_groups, 3);
  EXPECT_EQ(specs[0].group_size, 9);
  EXPECT_EQ(specs[0].out_positions, 36);
  EXPECT_EQ(specs[0].weight->value.shape(), (Shape{8, 27}));
  EXPECT_TRUE(specs[0].weight->prunable);
}

TEST(Conv2d, ProfilingRecordsActivationStats) {
  Rng rng(9);
  Conv2d conv("c", 2, 4, 3, 1, 1, 4, 4, false, rng);
  conv.set_profiling(true);
  Tensor x = Tensor::randn(Shape{3, 2, 4, 4}, rng);
  conv.forward(x, false);
  std::vector<PrunableSpec> specs;
  conv.collect_prunable(specs);
  float in_max = 0.0f;
  for (float v : x.data()) in_max = std::max(in_max, std::fabs(v));
  float recorded = 0.0f;
  for (float v : *specs[0].in_act_stat) recorded = std::max(recorded, v);
  EXPECT_FLOAT_EQ(recorded, in_max);
  // Toggling profiling back on resets the stats.
  conv.set_profiling(true);
  for (float v : *specs[0].in_act_stat) EXPECT_EQ(v, 0.0f);
}

/// A NaN in the input must not make the profiling stat depend on RP_SIMD:
/// channel 0's 16 pixels end in a NaN at (3, 3), the last lane of a second
/// 8-wide block, and the stat must come out with the same bits either way.
TEST(Conv2d, ProfilingStatOverNanInputIsTheSameUnderEverySimd) {
  struct SimdGuard {
    ~SimdGuard() { simd::reset(); }
  } guard;
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  x.at(0, 0, 3, 3) = std::numeric_limits<float>::quiet_NaN();
  auto stat = [&] {
    Rng wrng(10);
    Conv2d conv("c", 2, 4, 3, 1, 1, 4, 4, false, wrng);
    conv.set_profiling(true);
    conv.forward(x, false);
    std::vector<PrunableSpec> specs;
    conv.collect_prunable(specs);
    return *specs[0].in_act_stat;
  };
  simd::force(simd::Isa::kScalar);
  const std::vector<float> off = stat();
  simd::reset();
  const std::vector<float> dispatched = stat();
  ASSERT_EQ(off.size(), dispatched.size());
  EXPECT_EQ(std::memcmp(off.data(), dispatched.data(), off.size() * sizeof(float)), 0)
      << "channel 0: " << off[0] << " under RP_SIMD=off, " << dispatched[0] << " dispatched";
}

TEST(Conv2d, FlopsTrackMask) {
  Rng rng(10);
  Conv2d conv("c", 2, 4, 3, 1, 1, 4, 4, false, rng);
  const int64_t dense = conv.flops();
  EXPECT_EQ(dense, 4 * 2 * 9 * 16);  // out_c * in_c * k*k * positions
  conv.weight().mask.zero();
  EXPECT_EQ(conv.flops(), 0);
}

// ----- Conv2d bit identity against the reference formulation ----------------------
//
// The layer computes its output and both gradients straight from the input
// and dy, with no patch matrix. The reference below is the plain
// formulation those replace: a bounds-tested im2col, plain fma-chain
// products (ref_matmul), and col2im into a zeroed image (conv_ref.hpp). Every output and
// gradient element is the same chain in both, so they must agree bit for
// bit.

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

struct ConvResult {
  Tensor y, dx, dw, db;
};

/// Reference forward + backward, serial, per sample. `dw`/`db` start from
/// the given existing gradients; per-sample partials fold in sample order.
ConvResult ref_conv(const ConvGeom& g, const Tensor& w, const Tensor* bias, const Tensor& x,
                    const Tensor& dy, const Tensor& dw0, const Tensor& db0) {
  const int64_t n = x.size(0), out_c = w.size(0), oplane = g.out_h() * g.out_w();
  const int64_t isz = g.in_c * g.in_h * g.in_w;
  ConvResult r{Tensor(Shape{n, out_c, g.out_h(), g.out_w()}), Tensor(x.shape()), dw0, db0};
  Tensor cols(Shape{g.patch(), oplane}), y_n(Shape{out_c, oplane});
  Tensor dy_n(Shape{out_c, oplane}), dw_n(Shape{out_c, g.patch()}), dcols(Shape{g.patch(), oplane});
  for (int64_t i = 0; i < n; ++i) {
    rp::testing::ref_im2col(x.data().data() + i * isz, g, cols);
    rp::testing::ref_matmul(w, cols, y_n, false, false, rp::testing::SkipZeros::kA);
    float* y = r.y.data().data() + i * out_c * oplane;
    for (int64_t c = 0; c < out_c; ++c) {
      for (int64_t p = 0; p < oplane; ++p) {
        y[c * oplane + p] = bias ? y_n.at(c, p) + (*bias)[c] : y_n.at(c, p);
      }
    }
    std::memcpy(dy_n.data().data(), dy.data().data() + i * out_c * oplane,
                static_cast<size_t>(out_c * oplane) * sizeof(float));
    rp::testing::ref_matmul(dy_n, cols, dw_n, false, /*tb=*/true, rp::testing::SkipZeros::kA);
    for (int64_t j = 0; j < dw_n.numel(); ++j) r.dw[j] += dw_n[j];
    rp::testing::ref_matmul(w, dy_n, dcols, /*ta=*/true, false, rp::testing::SkipZeros::kA);
    rp::testing::ref_col2im(dcols, g, r.dx.data().data() + i * isz);
    if (bias) {
      for (int64_t c = 0; c < out_c; ++c) {
        float s = 0.0f;
        for (int64_t p = 0; p < oplane; ++p) s += dy_n.at(c, p);
        r.db[c] += s;
      }
    }
  }
  return r;
}

struct ConvCase {
  int64_t in_c, out_c, k, stride, pad, h, w;
  bool bias;
};

/// Weight masks of the bit-identity sweep. kPattern is the original fixed
/// pattern (every third weight kept, row 1 pruned whole); the random masks
/// draw every weight independently, so the zero pattern differs between the
/// channels of one register block, at the densities the sparse engine
/// compiles to dense (0.55) and CSR (0.17, 0.05).
enum class ConvMask { kDense, kPattern, kRandom55, kRandom17, kRandom05, kZero };

void apply_mask(Parameter& w, ConvMask m, Rng& rng) {
  if (m == ConvMask::kDense) return;
  const double density = m == ConvMask::kRandom55   ? 0.55
                         : m == ConvMask::kRandom17 ? 0.17
                         : m == ConvMask::kRandom05 ? 0.05
                                                    : 0.0;
  for (int64_t j = 0; j < w.mask.numel(); ++j) {
    const bool pruned = m == ConvMask::kPattern
                            ? (j % 3 != 0 || j / w.value.size(1) == 1)
                            : rng.uniform() >= static_cast<float>(density);
    if (pruned) w.mask[j] = 0.0f;
  }
  w.enforce_mask();
}

/// The NaN an invalid operation (Inf − Inf, Inf · 0) produces on this
/// machine. When an fma or add meets two NaN operands, which one it returns
/// depends on the instruction form the compiler picked, an order IEEE 754
/// leaves open; with every NaN in play carrying these bits, the sums are
/// comparable bit for bit whichever one propagates.
float machine_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// Output gradients with the values the gradient kernels must treat
/// exactly: sample 0 is all exact zeros of both signs (its input holds NaN
/// and ±Inf, which those zeros must keep out of dW), sample 1 holds NaN and
/// ±Inf, and the other samples have about a quarter of their entries set
/// to +0 or −0, scattered across the lanes of each channel vector.
void add_special_gradients(Tensor& dy, Tensor& x, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const int64_t n = dy.size(0), ysz = dy.numel() / n, xsz = x.numel() / n;
  float* d = dy.data().data();
  float* xd = x.data().data();
  for (int64_t j = 0; j < ysz; ++j) d[j] = j % 2 == 0 ? 0.0f : -0.0f;
  for (int64_t j = 0; j < xsz; ++j) {
    if (j % 5 == 0) xd[j] = machine_nan();
    if (j % 5 == 2) xd[j] = j % 3 == 0 ? inf : -inf;
  }
  for (int64_t j = 0; j < ysz && n > 1; ++j) {
    if (j % 7 == 3) d[ysz + j] = machine_nan();
    if (j % 11 == 5) d[ysz + j] = inf;
    if (j % 13 == 6) d[ysz + j] = -inf;
  }
  for (int64_t j = 2 * ysz; j < n * ysz; ++j) {
    const float u = rng.uniform();
    if (u < 0.125f) d[j] = 0.0f;
    if (u >= 0.125f && u < 0.25f) d[j] = -0.0f;
  }
}

TEST(ConvBitIdentity, MatchesReferenceFormulation) {
  const ConvCase cases[] = {
      {3, 5, 3, 1, 1, 6, 6, true},    // k3/s1/p1
      {7, 9, 3, 2, 1, 8, 8, false},   // k3/s2/p1
      {6, 10, 1, 2, 0, 8, 8, true},   // k1/s2/p0: the plane is read in place
      {5, 3, 3, 1, 1, 5, 7, false},   // odd 5×7 plane
      {4, 6, 3, 2, 1, 5, 7, true},    // odd plane, strided
      {2, 3, 5, 2, 2, 7, 5, false},   // k5: the generic kernel-size path
      // out_c 1/3/5/10 against output widths 1…9 and 16: the kernels' full,
      // paired-row and masked slots and their channel-block tails.
      {2, 1, 3, 1, 1, 3, 1, true},    // ow 1
      {3, 3, 3, 2, 1, 4, 4, false},   // 2×2 output
      {2, 5, 3, 1, 1, 3, 3, true},    // ow 3
      {3, 10, 3, 1, 1, 5, 4, false},  // ow 4, odd oh: row pairs + one masked row
      {2, 1, 3, 1, 1, 4, 4, true},    // ow 4, even oh
      {2, 3, 3, 1, 1, 2, 5, true},    // ow 5
      {2, 5, 3, 2, 1, 4, 11, false},  // ow 6, strided
      {3, 1, 1, 1, 0, 3, 7, true},    // ow 7, 1×1 read in place
      {2, 10, 3, 1, 1, 4, 8, false},  // ow 8
      {2, 3, 3, 2, 1, 3, 17, true},   // ow 9: one full slot + a 1-wide tail
      {3, 5, 3, 1, 1, 3, 16, false},  // ow 16
      {4, 10, 1, 2, 0, 9, 9, true},   // 1×1 stride-2 shortcut, ow 5
      {2, 5, 5, 1, 2, 6, 12, false},  // k5/p2, ow 12
      {1, 2, 3, 1, 1, 2, 2100, true}, // rows wider than the scalar kernel's buffer
      // out_c past one 8-channel vector and not a multiple of it: the
      // weight gradient's 16-channel tiles and their masked tails.
      {3, 13, 3, 1, 1, 6, 6, false},  // one 16-channel tile, 5 lanes masked
      {4, 20, 3, 2, 1, 9, 9, true},   // a full 16-channel tile + a 4-lane tail
      {5, 16, 3, 1, 1, 4, 4, false},  // 4×4 output: dx slots span grid rows
      // Pad 0 with k > 1: dx grid rows longer than dy's, one slot per row.
      {3, 9, 3, 1, 0, 6, 10, true},
      {2, 4, 3, 2, 0, 9, 9, false},
      {2, 3, 3, 3, 1, 8, 7, true},    // stride 3: nine dx phases
  };
  const ConvMask masks[] = {ConvMask::kDense,    ConvMask::kPattern,  ConvMask::kRandom55,
                            ConvMask::kRandom17, ConvMask::kRandom05, ConvMask::kZero};
  for (const ConvCase& cc : cases) {
    for (const ConvMask mask : masks) {
      // The non-finite input puts NaN and +Inf into channel 0, whose weights
      // are all zeroed: skipped terms must keep them out of every output.
      // The special gradients (add_special_gradients) test the backward's
      // zero skips and non-finite propagation. They are not combined with
      // the non-finite channel 0: its NaN times a NaN gradient is a product
      // of two NaNs, whose result IEEE 754 leaves to the instruction form.
      for (const auto& [nonfinite, special] :
           {std::pair{false, false}, {true, false}, {false, true}}) {
        SCOPED_TRACE("in_c " + std::to_string(cc.in_c) + " out_c " + std::to_string(cc.out_c) +
                     " k" + std::to_string(cc.k) + " s" + std::to_string(cc.stride) + " " +
                     std::to_string(cc.h) + "x" + std::to_string(cc.w) + " mask " +
                     std::to_string(static_cast<int>(mask)) +
                     (nonfinite ? " nonfinite" : "") + (special ? " special dy" : ""));
        Rng rng(100 + cc.in_c);
        Conv2d conv("c", cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad, cc.h, cc.w, cc.bias, rng);
        std::vector<Parameter*> params;
        conv.collect_params(params);
        if (cc.bias) params[1]->value = Tensor::randn(Shape{cc.out_c}, rng);
        Parameter& w = conv.weight();
        apply_mask(w, mask, rng);
        const ConvGeom& g = conv.geom();
        Tensor x = Tensor::randn(Shape{5, cc.in_c, cc.h, cc.w}, rng);
        if (nonfinite) {
          const int64_t kk = cc.k * cc.k;
          for (int64_t o = 0; o < cc.out_c; ++o) {
            for (int64_t j = 0; j < kk; ++j) w.mask.at(o, j) = 0.0f;
          }
          w.enforce_mask();
          const int64_t plane = cc.h * cc.w;
          for (int64_t i = 0; i < 5; ++i) {
            float* c0 = x.data().data() + i * cc.in_c * plane;
            for (int64_t p = 0; p < plane; ++p) {
              if (p % 2 == 0) c0[p] = std::numeric_limits<float>::quiet_NaN();
              if (p % 3 == 1) c0[p] = std::numeric_limits<float>::infinity();
            }
          }
        }
        // Every operand is an exact-size heap tensor, so a kernel read past
        // the end of x, dy or the weight shows under ASan.
        Tensor dy = Tensor::randn(Shape{5, cc.out_c, g.out_h(), g.out_w()}, rng);
        if (special) add_special_gradients(dy, x, rng);
        const Tensor dw0 = Tensor::randn(w.value.shape(), rng);
        const Tensor db0 = Tensor::randn(Shape{cc.out_c}, rng);
        const ConvResult ref =
            ref_conv(g, w.value, cc.bias ? &params[1]->value : nullptr, x, dy, dw0, db0);
        if (nonfinite && !special) {
          for (const float v : ref.y.data()) ASSERT_TRUE(std::isfinite(v));
        }

        for (const int threads : {1, 2, 4}) {
          for (const bool scalar : {true, false}) {
            SCOPED_TRACE(std::to_string(threads) +
                         (scalar ? " threads, scalar" : " threads, simd"));
            parallel::set_num_threads(threads);
            if (scalar) {
              simd::force(simd::Isa::kScalar);
            } else {
              simd::reset();
            }
            w.grad = dw0;
            if (cc.bias) params[1]->grad = db0;
            const Tensor y = conv.forward(x, true);
            const Tensor dx = conv.backward(dy);
            EXPECT_TRUE(same_bits(y, ref.y));
            EXPECT_TRUE(same_bits(dx, ref.dx));
            EXPECT_TRUE(same_bits(w.grad, ref.dw));
            if (cc.bias) {
              EXPECT_TRUE(same_bits(params[1]->grad, ref.db));
            }
            // The compiled eval forward: auto picks dense or CSR from the
            // density, csr forces the CSR conv kernel at every density, off
            // freezes the dense masks.
            for (const sparse::Mode m : {sparse::Mode::kAuto, sparse::Mode::kCsr, sparse::Mode::kOff}) {
              sparse::force(m);
              conv.set_sparse(true);
              EXPECT_TRUE(same_bits(conv.forward(x, false), ref.y))
                  << "sparse mode " << sparse::mode_name(m);
              conv.set_sparse(false);
            }
            sparse::reset();
          }
        }
        simd::reset();
        parallel::set_num_threads(0);
      }
    }
  }
}

// ----- Linear ---------------------------------------------------------------------

TEST(Linear, KnownValue) {
  Rng rng(11);
  Linear fc("fc", 2, 2, true, rng);
  fc.weight().value = Tensor(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  std::vector<Parameter*> params;
  fc.collect_params(params);
  params[1]->value = Tensor(Shape{2}, {0.5f, -0.5f});
  Tensor x(Shape{1, 2}, {1.0f, 1.0f});
  Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

/// Linear runs its forward and both gradients on the conv kernels as 1×1
/// convs over the batch. Each must equal the plain chain (ref_matmul) bit
/// for bit under every RP_SPARSE layout, ISA and lane count:
///   y  = x @ Wᵀ + b, the chain skipping zero weights;
///   dW = grad + (dyᵀ @ x from +0, skipping zero dy), here on a non-zero
///        incoming grad, where the sum differs from a chain that starts at
///        grad;
///   dx = dy @ W, the chain skipping zero weights.
/// Batch 2049 passes the scalar kernels' 2048-float buffer. x, W and dy are
/// exact-size heap tensors, so the sanitizer build catches a read past
/// them. Column 3 of W is zero and x holds a NaN there, which reaches no
/// output, whichever path runs the forward. Last, non-finite dy and
/// weights pin which zeros the input gradient skips.
TEST(Linear, ZeroWeightColumnKeepsNanOutOfEveryLayout) {
  using rp::testing::SkipZeros;
  constexpr int64_t kIn = 13, kOut = 10;
  for (const int64_t n : {1, 7, 64, 2049}) {
    for (const int per_mille : {1000, 500, 100}) {
      SCOPED_TRACE("batch " + std::to_string(n) + ", density " + std::to_string(per_mille));
      Rng rng(static_cast<uint64_t>(n * 1000 + per_mille));
      Linear fc("fc", kIn, kOut, true, rng);
      std::vector<Parameter*> params;
      fc.collect_params(params);
      Parameter& w = fc.weight();
      params[1]->value = Tensor::randn(Shape{kOut}, rng);
      for (float& v : w.value.data()) {
        if (rng.uniform() * 1000.0f >= static_cast<float>(per_mille)) v = 0.0f;
      }
      for (int64_t o = 0; o < kOut; ++o) w.value.at(o, 3) = 0.0f;
      Tensor x = Tensor::randn(Shape{n, kIn}, rng);
      x.at(0, 3) = std::numeric_limits<float>::quiet_NaN();
      Tensor dy = Tensor::randn(Shape{n, kOut}, rng);
      for (int64_t i = 0; i < dy.numel(); i += 5) dy[i] = 0.0f;
      const Tensor grad0 = Tensor::randn(Shape{kOut, kIn}, rng);

      Tensor y_ref(Shape{n, kOut}), sum(Shape{kOut, kIn}), dx_ref(Shape{n, kIn});
      rp::testing::ref_matmul(x, w.value, y_ref, false, /*tb=*/true, SkipZeros::kB);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t o = 0; o < kOut; ++o) y_ref.at(i, o) += params[1]->value[o];
      }
      for (const float v : y_ref.data()) ASSERT_TRUE(std::isfinite(v));
      rp::testing::ref_matmul(dy, x, sum, /*ta=*/true, false, SkipZeros::kA);
      Tensor dw_ref = grad0;
      for (int64_t j = 0; j < dw_ref.numel(); ++j) dw_ref[j] += sum[j];
      rp::testing::ref_matmul(dy, w.value, dx_ref, false, false, SkipZeros::kB);

      for (const int threads : {1, 2, 4}) {
        for (const bool scalar : {false, true}) {
          SCOPED_TRACE(std::to_string(threads) + (scalar ? " threads, scalar" : " threads, simd"));
          parallel::set_num_threads(threads);
          if (scalar) {
            simd::force(simd::Isa::kScalar);
          } else {
            simd::reset();
          }
          w.grad = grad0;
          EXPECT_TRUE(same_bits(fc.forward(x, true), y_ref)) << "training forward";
          EXPECT_TRUE(same_bits(fc.backward(dy), dx_ref)) << "dx";
          EXPECT_TRUE(same_bits(w.grad, dw_ref)) << "dW";
          for (const sparse::Mode m : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
            sparse::force(m);
            fc.set_sparse(true);
            EXPECT_TRUE(same_bits(fc.forward(x, false), y_ref))
                << "RP_SPARSE=" << sparse::mode_name(m);
            fc.set_sparse(false);
          }
          sparse::reset();
        }
      }
      simd::reset();
      parallel::set_num_threads(0);
    }
  }

  // dx skips zero weights, as the conv kernels do, not zero dy: a NaN or Inf
  // dy under a pruned output unit reaches no dx, and a 0 dy against an Inf
  // weight gives NaN. From a +0 gradient, dW is the chain from +0 itself.
  Rng rng(15);
  Linear fc("fc", 6, 4, false, rng);
  Parameter& w = fc.weight();
  for (int64_t c = 0; c < 6; ++c) w.value.at(2, c) = 0.0f;
  w.value.at(1, 4) = std::numeric_limits<float>::infinity();
  const Tensor x = Tensor::randn(Shape{2, 6}, rng);
  Tensor dy = Tensor::randn(Shape{2, 4}, rng);
  dy.at(0, 2) = std::numeric_limits<float>::quiet_NaN();
  dy.at(1, 2) = std::numeric_limits<float>::infinity();
  dy.at(0, 1) = 0.0f;
  Tensor sum(Shape{4, 6});
  rp::testing::ref_matmul(dy, x, sum, /*ta=*/true, false, SkipZeros::kA);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "simd");
    if (scalar) simd::force(simd::Isa::kScalar);
    w.grad.zero();
    fc.forward(x, true);
    const Tensor dx = fc.backward(dy);
    EXPECT_TRUE(std::isnan(dx.at(0, 4)));
    EXPECT_TRUE(std::isinf(dx.at(1, 4)));
    for (int64_t c = 0; c < 6; ++c) {
      if (c == 4) continue;
      EXPECT_TRUE(std::isfinite(dx.at(0, c))) << c;
      EXPECT_TRUE(std::isfinite(dx.at(1, c))) << c;
    }
    EXPECT_TRUE(same_bits(w.grad, sum));
    simd::reset();
  }
}

TEST(Linear, InputGradient) {
  Rng rng(12);
  Linear fc("fc", 5, 4, true, rng);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(fc, x, rng), kGradTol);
}

TEST(Linear, ParamGradients) {
  Rng rng(13);
  Linear fc("fc", 5, 4, true, rng);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  EXPECT_LT(rp::testing::check_param_gradients(fc, x, rng), kGradTol);
}

TEST(Linear, WrongInputThrows) {
  Rng rng(14);
  Linear fc("fc", 5, 4, false, rng);
  EXPECT_THROW(fc.forward(Tensor(Shape{3, 6}), false), std::invalid_argument);
}

// ----- The compiled weight's freeze contract (Module::set_sparse) ---------------------

/// Runs the freeze contract on a fresh layer from `make` under RP_SPARSE
/// off, csr and auto:
///   1. set_sparse(true) compiles the weight, and the eval forward then
///      equals the uncompiled one bit for bit;
///   2. after set_sparse(false), pruning more weights reaches the eval and
///      then the training forward;
///   3. after set_sparse(true) and more pruning, a training forward runs the
///      live weight too.
/// Pruning phase p (0 in step 2, 1 in step 3) zeroes, through the mask and
/// enforce_mask, every weight that reads an input NaN in x_dead[p]
/// (`dead(p, j)`) plus every third entry. The forwards after it run on
/// x_dead[p] and must equal `ref(w, x_dead[p])`, which skips zero weights:
/// a compiled form that went stale (live at a newly dead weight) would turn
/// an output NaN or change its bits.
template <typename Make, typename Dead, typename Ref>
void expect_freeze_contract(Make make, const Tensor& x, const Tensor (&x_dead)[2], Dead dead,
                            Ref ref) {
  for (const sparse::Mode m : {sparse::Mode::kOff, sparse::Mode::kCsr, sparse::Mode::kAuto}) {
    SCOPED_TRACE(std::string("RP_SPARSE=") + sparse::mode_name(m));
    sparse::force(m);
    auto layer = make();
    Parameter& w = layer->weight();
    auto prune = [&](int phase) {
      for (int64_t j = 0; j < w.mask.numel(); ++j) {
        if (dead(phase, j) || j % 3 == phase) w.mask[j] = 0.0f;
      }
      w.enforce_mask();
      const Tensor want = ref(w.value, x_dead[phase]);
      for (const float v : want.data()) EXPECT_TRUE(std::isfinite(v));
      return want;
    };

    const Tensor live = layer->forward(x, false);
    layer->set_sparse(true);
    EXPECT_TRUE(same_bits(layer->forward(x, false), live)) << "compiled eval forward";
    layer->set_sparse(false);

    const Tensor pruned = prune(0);
    EXPECT_TRUE(same_bits(layer->forward(x_dead[0], false), pruned)) << "eval forward after off";
    EXPECT_TRUE(same_bits(layer->forward(x_dead[0], true), pruned)) << "training forward after off";

    layer->set_sparse(true);
    const Tensor pruned_more = prune(1);
    EXPECT_TRUE(same_bits(layer->forward(x_dead[1], true), pruned_more)) << "training forward";
    layer->set_sparse(false);
  }
  sparse::reset();
}

TEST(CompiledWeight, Conv2dFreezesAtSetSparseAndThawsOnOffOrTraining) {
  // Input channel 0 dies in phase 0 and channel 1 in phase 1; channel c's
  // weights are columns [c·k·k, (c + 1)·k·k) of each row.
  constexpr int64_t kInC = 3, kOutC = 6, kK = 3, kHw = 6, kN = 2;
  constexpr int64_t kPatch = kInC * kK * kK, kPlane = kHw * kHw;
  Rng rng(31);
  const Tensor x = Tensor::randn(Shape{kN, kInC, kHw, kHw}, rng);
  Tensor x_dead[2] = {x, x};
  for (int phase = 0; phase < 2; ++phase) {
    for (int64_t i = 0; i < kN; ++i) {
      float* xi = x_dead[phase].data().data() + i * kInC * kPlane;
      for (int64_t p = 0; p < (phase + 1) * kPlane; ++p) {
        xi[p] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  const Tensor bias = Tensor::randn(Shape{kOutC}, rng);
  auto make = [&] {
    Rng init(32);
    auto conv = std::make_unique<Conv2d>("c", kInC, kOutC, kK, 1, 1, kHw, kHw, true, init);
    std::vector<Parameter*> params;
    conv->collect_params(params);
    params[1]->value = bias;
    return conv;
  };
  const ConvGeom g{kInC, kHw, kHw, kK, 1, 1};
  const Tensor dy(Shape{kN, kOutC, kHw, kHw}), dw0(Shape{kOutC, kPatch}), db0(Shape{kOutC});
  expect_freeze_contract(
      make, x, x_dead, [&](int phase, int64_t j) { return j % kPatch / (kK * kK) <= phase; },
      [&](const Tensor& w, const Tensor& in) { return ref_conv(g, w, &bias, in, dy, dw0, db0).y; });
}

TEST(CompiledWeight, LinearFreezesAtSetSparseAndThawsOnOffOrTraining) {
  // Input column 3 dies in phase 0 and column 7 in phase 1.
  constexpr int64_t kIn = 13, kOut = 10, kN = 5;
  Rng rng(33);
  const Tensor x = Tensor::randn(Shape{kN, kIn}, rng);
  Tensor x_dead[2] = {x, x};
  for (int64_t i = 0; i < kN; ++i) {
    x_dead[0].at(i, 3) = x_dead[1].at(i, 3) = std::numeric_limits<float>::quiet_NaN();
    x_dead[1].at(i, 7) = std::numeric_limits<float>::quiet_NaN();
  }
  const Tensor bias = Tensor::randn(Shape{kOut}, rng);
  auto make = [&] {
    Rng init(34);
    auto fc = std::make_unique<Linear>("fc", kIn, kOut, true, init);
    std::vector<Parameter*> params;
    fc->collect_params(params);
    params[1]->value = bias;
    return fc;
  };
  expect_freeze_contract(
      make, x, x_dead,
      [&](int phase, int64_t j) { return j % kIn == 3 || (phase == 1 && j % kIn == 7); },
      [&](const Tensor& w, const Tensor& in) {
        Tensor y(Shape{in.size(0), kOut});
        rp::testing::ref_matmul(in, w, y, false, /*tb=*/true, rp::testing::SkipZeros::kB);
        for (int64_t i = 0; i < in.size(0); ++i) {
          for (int64_t o = 0; o < kOut; ++o) y.at(i, o) += bias[o];
        }
        return y;
      });
}

// ----- BatchNorm2d -------------------------------------------------------------------

TEST(BatchNorm2d, NormalizesInTrainMode) {
  BatchNorm2d bn("bn", 2);
  Rng rng(15);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f);
  x += 5.0f;
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int64_t c = 0; c < 2; ++c) {
    double s = 0.0, s2 = 0.0;
    int64_t n = 0;
    for (int64_t i = 0; i < 8; ++i) {
      for (int64_t p = 0; p < 16; ++p) {
        const float v = y.at(i, c, p / 4, p % 4);
        s += v;
        s2 += static_cast<double>(v) * v;
        ++n;
      }
    }
    EXPECT_NEAR(s / n, 0.0, 1e-3);
    EXPECT_NEAR(s2 / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn("bn", 1);
  Rng rng(16);
  // Train on data with mean 2, std 1 for a while to converge running stats.
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn(Shape{16, 1, 2, 2}, rng);
    x += 2.0f;
    bn.forward(x, true);
  }
  // In eval, an input equal to the running mean maps to ~beta = 0.
  Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, 2.0f);
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.15f);
}

TEST(BatchNorm2d, InputGradient) {
  BatchNorm2d bn("bn", 3);
  Rng rng(17);
  Tensor x = Tensor::randn(Shape{4, 3, 2, 2}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(bn, x, rng, /*train=*/true, /*eps=*/1e-2f),
            kGradTol);
}

TEST(BatchNorm2d, ParamGradients) {
  BatchNorm2d bn("bn", 3);
  Rng rng(18);
  Tensor x = Tensor::randn(Shape{4, 3, 2, 2}, rng);
  EXPECT_LT(rp::testing::check_param_gradients(bn, x, rng), kGradTol);
}

TEST(BatchNorm2d, BuffersAreCollected) {
  BatchNorm2d bn("bn", 4);
  std::vector<std::pair<std::string, Tensor*>> bufs;
  bn.collect_buffers(bufs);
  ASSERT_EQ(bufs.size(), 2u);
  EXPECT_EQ(bufs[0].first, "bn.running_mean");
  EXPECT_EQ(bufs[1].first, "bn.running_var");
}

TEST(BatchNorm2d, ChannelMismatchThrows) {
  BatchNorm2d bn("bn", 4);
  EXPECT_THROW(bn.forward(Tensor(Shape{1, 3, 2, 2}), true), std::invalid_argument);
}

// ----- BatchNorm2d bit identity against the serial per-channel reference ------------
//
// The layer runs the per-channel double sums of four channels as
// interleaved independent chains. Each channel keeps its own summation
// order, so the result must match the plain one-channel-at-a-time loops.

struct BnRef {
  std::vector<float> gamma, beta, rmean, rvar, inv_std;
  Tensor xhat;
  float momentum = 0.1f, eps = 1e-5f;

  Tensor forward(const Tensor& x, bool train) {
    const int64_t n = x.size(0), c_ = x.size(1), plane = x.size(2) * x.size(3);
    const float count = static_cast<float>(n * plane);
    xhat = Tensor(x.shape());
    inv_std.assign(static_cast<size_t>(c_), 0.0f);
    Tensor y(x.shape());
    const float* xd = x.data().data();
    for (int64_t c = 0; c < c_; ++c) {
      const size_t cs = static_cast<size_t>(c);
      float m, v;
      if (train) {
        double s = 0.0;
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < plane; ++j) s += xd[(i * c_ + c) * plane + j];
        }
        m = static_cast<float>(s / count);
        double sv = 0.0;
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < plane; ++j) {
            const double d = xd[(i * c_ + c) * plane + j] - m;
            sv += d * d;
          }
        }
        v = static_cast<float>(sv / count);
        rmean[cs] = (1 - momentum) * rmean[cs] + momentum * m;
        rvar[cs] = (1 - momentum) * rvar[cs] + momentum * v;
      } else {
        m = rmean[cs];
        v = rvar[cs];
      }
      inv_std[cs] = 1.0f / std::sqrt(v + eps);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < plane; ++j) {
          const int64_t e = (i * c_ + c) * plane + j;
          xhat[e] = (xd[e] - m) * inv_std[cs];
          y[e] = gamma[cs] * xhat[e] + beta[cs];
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& dy, std::vector<float>& dgamma, std::vector<float>& dbeta) {
    const int64_t n = dy.size(0), c_ = dy.size(1), plane = dy.size(2) * dy.size(3);
    const float count = static_cast<float>(n * plane);
    Tensor dx(dy.shape());
    for (int64_t c = 0; c < c_; ++c) {
      const size_t cs = static_cast<size_t>(c);
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < plane; ++j) {
          const int64_t e = (i * c_ + c) * plane + j;
          sum_dy += dy[e];
          sum_dy_xhat += static_cast<double>(dy[e]) * xhat[e];
        }
      }
      dgamma[cs] += static_cast<float>(sum_dy_xhat);
      dbeta[cs] += static_cast<float>(sum_dy);
      const float mean_dy = static_cast<float>(sum_dy) / count;
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat) / count;
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < plane; ++j) {
          const int64_t e = (i * c_ + c) * plane + j;
          dx[e] = gamma[cs] * inv_std[cs] * (dy[e] - mean_dy - xhat[e] * mean_dy_xhat);
        }
      }
    }
    return dx;
  }
};

std::vector<float> as_vector(const Tensor& t) { return {t.data().begin(), t.data().end()}; }

bool same_bits(const Tensor& a, const std::vector<float>& b) {
  return a.numel() == static_cast<int64_t>(b.size()) &&
         std::memcmp(a.data().data(), b.data(), b.size() * sizeof(float)) == 0;
}

TEST(BatchNormBitIdentity, MatchesSerialPerChannelReference) {
  // Every lane count must match the serial reference.
  for (const int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    for (const int64_t channels : {3, 5, 8, 10}) {  // 10: densenet's growth, a tail group of 2
      SCOPED_TRACE("channels " + std::to_string(channels) + ", " + std::to_string(threads) +
                   " threads");
      Rng rng(200 + channels);
      BatchNorm2d bn("bn", channels);
      bn.gamma().value = Tensor::randn(Shape{channels}, rng);
      bn.beta().value = Tensor::randn(Shape{channels}, rng);
      bn.running_var() = Tensor::rand(Shape{channels}, rng, 0.5f, 2.0f);
      bn.running_mean() = Tensor::randn(Shape{channels}, rng);
      BnRef ref{as_vector(bn.gamma().value), as_vector(bn.beta().value),
                as_vector(bn.running_mean()), as_vector(bn.running_var()), {}, Tensor(), 0.1f,
                1e-5f};
      std::vector<float> dgamma(static_cast<size_t>(channels), 0.25f), dbeta(dgamma);
      bn.gamma().grad = Tensor(Shape{channels}, dgamma);
      bn.beta().grad = Tensor(Shape{channels}, dbeta);

      // Train step, an eval batch of another size, then a second train step:
      // the cached normalized input follows every batch-shape change.
      for (const auto& [n, train] : {std::pair<int64_t, bool>{4, true}, {2, false}, {4, true}}) {
        SCOPED_TRACE(train ? "train" : "eval");
        const Tensor x = Tensor::randn(Shape{n, channels, 3, 5}, rng, 2.0f) + 0.5f;
        EXPECT_TRUE(same_bits(bn.forward(x, train), ref.forward(x, train)));
        EXPECT_TRUE(same_bits(bn.running_mean(), ref.rmean));
        EXPECT_TRUE(same_bits(bn.running_var(), ref.rvar));
        const Tensor dy = Tensor::randn(x.shape(), rng);
        EXPECT_TRUE(same_bits(bn.backward(dy), ref.backward(dy, dgamma, dbeta)));
        EXPECT_TRUE(same_bits(bn.gamma().grad, dgamma));
        EXPECT_TRUE(same_bits(bn.beta().grad, dbeta));
      }
    }
  }
  parallel::set_num_threads(0);
}

// ----- ReLU / pools / reshape ----------------------------------------------------------

TEST(ReLU, ForwardClampsNegative) {
  ReLU relu;
  Tensor x(Shape{1, 1, 1, 4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  Tensor y = relu.forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  EXPECT_EQ(y[3], 2.0f);
}

TEST(ReLU, Gradient) {
  ReLU relu;
  Rng rng(19);
  Tensor x = away_from_kinks(Shape{2, 3, 2, 2}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(relu, x, rng), kGradTol);
}

TEST(MaxPool2d, ForwardPicksMax) {
  MaxPool2d pool;
  Tensor x = Tensor::arange(16).reshape(Shape{1, 1, 4, 4});
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool2d, OddSpatialThrows) {
  MaxPool2d pool;
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 3, 4}), false), std::invalid_argument);
}

TEST(MaxPool2d, Gradient) {
  MaxPool2d pool;
  Rng rng(20);
  Tensor x = away_from_kinks(Shape{2, 2, 4, 4}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(pool, x, rng), kGradTol);
}

TEST(GlobalAvgPool, ForwardAverages) {
  GlobalAvgPool gap;
  Tensor x = Tensor::arange(8).reshape(Shape{1, 2, 2, 2});
  Tensor y = gap.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);
}

TEST(GlobalAvgPool, Gradient) {
  GlobalAvgPool gap;
  Rng rng(21);
  Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(gap, x, rng), kGradTol);
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Rng rng(22);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 5}, rng);
  Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Upsample2x, ForwardReplicates) {
  Upsample2x up;
  Tensor x = Tensor::arange(4).reshape(Shape{1, 1, 2, 2});
  Tensor y = up.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 0, 0, 1), 0.0f);
  EXPECT_EQ(y.at(0, 0, 1, 1), 0.0f);
  EXPECT_EQ(y.at(0, 0, 2, 2), 3.0f);
  EXPECT_EQ(y.at(0, 0, 3, 3), 3.0f);
}

TEST(Upsample2x, Gradient) {
  Upsample2x up;
  Rng rng(23);
  Tensor x = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(up, x, rng), kGradTol);
}

// ----- Sequential -----------------------------------------------------------------------

TEST(Sequential, ComposesChildren) {
  Rng rng(24);
  Sequential seq("s");
  seq.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1, 4, 4, false, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<GlobalAvgPool>());
  Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  EXPECT_EQ(seq.forward(x, false).shape(), (Shape{2, 2}));
  EXPECT_EQ(seq.size(), 3u);
}

TEST(Sequential, Gradient) {
  Rng rng(25);
  Sequential seq("s");
  seq.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1, 4, 4, true, rng));
  seq.add(std::make_unique<BatchNorm2d>("bn", 2));
  seq.add(std::make_unique<ReLU>());
  Tensor x = Tensor::randn(Shape{3, 1, 4, 4}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(seq, x, rng), kGradTol);
  // Conv -> BN chains amplify float finite-difference noise; allow more slack.
  EXPECT_LT(rp::testing::check_param_gradients(seq, x, rng), 2 * kGradTol);
}

TEST(Sequential, CollectsEverything) {
  Rng rng(26);
  Sequential seq("s");
  seq.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1, 4, 4, true, rng));
  seq.add(std::make_unique<BatchNorm2d>("bn", 2));
  std::vector<Parameter*> params;
  seq.collect_params(params);
  EXPECT_EQ(params.size(), 4u);  // weight, bias, gamma, beta
  std::vector<PrunableSpec> specs;
  seq.collect_prunable(specs);
  EXPECT_EQ(specs.size(), 1u);
  std::vector<std::pair<std::string, Tensor*>> bufs;
  seq.collect_buffers(bufs);
  EXPECT_EQ(bufs.size(), 2u);
}

// ----- concat ----------------------------------------------------------------------------

TEST(ConcatChannels, StacksAlongChannelAxis) {
  Tensor a = Tensor::full(Shape{1, 2, 2, 2}, 1.0f);
  Tensor b = Tensor::full(Shape{1, 3, 2, 2}, 2.0f);
  Tensor y = concat_channels(a, b);
  ASSERT_EQ(y.shape(), (Shape{1, 5, 2, 2}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(y.at(0, 1, 1, 1), 1.0f);
  EXPECT_EQ(y.at(0, 2, 0, 0), 2.0f);
  EXPECT_EQ(y.at(0, 4, 1, 1), 2.0f);
}

TEST(ConcatChannels, MismatchThrows) {
  Tensor a(Shape{1, 2, 2, 2}), b(Shape{1, 2, 3, 3});
  EXPECT_THROW(concat_channels(a, b), std::invalid_argument);
  Tensor c(Shape{2, 2, 2, 2});
  EXPECT_THROW(concat_channels(a, c), std::invalid_argument);
}

}  // namespace
}  // namespace rp::nn
