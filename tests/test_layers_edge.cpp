// Edge-case coverage for layer configurations the architectures exercise
// implicitly (1x1 kernels, stride-2 projections, bias-free layers).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "grad_check.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace rp::nn {
namespace {

constexpr double kGradTol = 3e-2;

TEST(Conv2dEdge, OneByOneKernelActsPerPixel) {
  Rng rng(1);
  Conv2d conv("c", 2, 3, 1, 1, 0, 4, 4, false, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 3, 4, 4}));
  // Output at each pixel is a linear map of input channels at that pixel.
  const auto& w = conv.weight().value;
  for (int64_t p = 0; p < 16; ++p) {
    for (int64_t o = 0; o < 3; ++o) {
      const float expect = w.at(o, 0) * x[p] + w.at(o, 1) * x[16 + p];
      EXPECT_NEAR(y[o * 16 + p], expect, 1e-5f);
    }
  }
}

TEST(Conv2dEdge, StrideTwoProjectionGradient) {
  Rng rng(2);
  Conv2d conv("c", 3, 6, 1, 2, 0, 4, 4, false, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  EXPECT_EQ(conv.forward(x, false).shape(), (Shape{2, 6, 2, 2}));
  EXPECT_LT(rp::testing::check_input_gradient(conv, x, rng), kGradTol);
  EXPECT_LT(rp::testing::check_param_gradients(conv, x, rng), kGradTol);
}

TEST(Conv2dEdge, BiasFreeCollectsOnlyWeight) {
  Rng rng(3);
  Conv2d conv("c", 1, 2, 3, 1, 1, 4, 4, false, rng);
  std::vector<Parameter*> params;
  conv.collect_params(params);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(params[0]->prunable);
  std::vector<PrunableSpec> specs;
  conv.collect_prunable(specs);
  EXPECT_EQ(specs[0].bias, nullptr);
}

TEST(Conv2dEdge, BatchOfOne) {
  Rng rng(4);
  Conv2d conv("c", 2, 2, 3, 1, 1, 4, 4, true, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  EXPECT_EQ(conv.forward(x, false).shape(), (Shape{1, 2, 4, 4}));
  EXPECT_LT(rp::testing::check_input_gradient(conv, x, rng), kGradTol);
}

TEST(Conv2dEdge, ForwardIsDeterministicAcrossCalls) {
  Rng rng(5);
  Conv2d conv("c", 2, 2, 3, 1, 1, 4, 4, true, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  Tensor y1 = conv.forward(x, false);
  Tensor y2 = conv.forward(x, false);
  EXPECT_LT(l2_distance(y1, y2), 1e-7f);
}

/// A geometry with no valid output is refused at construction, with the
/// layer's name in the message, before any weight is drawn.
TEST(Conv2dEdge, InvalidGeometryThrowsNamingTheLayer) {
  struct Bad {
    const char* why;
    int64_t in_c, out_c, k, stride, pad, h, w;
  };
  const Bad bad[] = {
      {"k 0", 2, 3, 0, 1, 1, 4, 4},
      {"k < 0", 2, 3, -1, 1, 1, 4, 4},
      {"stride 0 (divides by zero in out_h)", 2, 3, 3, 0, 1, 4, 4},
      {"stride < 0", 2, 3, 3, -2, 1, 4, 4},
      {"pad < 0", 2, 3, 3, 1, -1, 4, 4},
      {"in_c 0", 0, 3, 3, 1, 1, 4, 4},
      {"out_c 0", 2, 0, 3, 1, 1, 4, 4},
      {"in_h 0", 2, 3, 1, 1, 0, 0, 4},
      {"k > in_h + 2 pad (out_h < 1)", 2, 3, 5, 1, 0, 4, 8},
      {"k > in_w + 2 pad (out_w < 1)", 2, 3, 5, 2, 0, 8, 3},
      {"k > in + 2 pad at stride 2 (truncation would say out_h 1)", 1, 1, 3, 2, 0, 2, 2},
  };
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.why);
    Rng rng(8);
    try {
      Conv2d conv("net.s1b1.conv", b.in_c, b.out_c, b.k, b.stride, b.pad, b.h, b.w, false, rng);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("net.s1b1.conv"), std::string::npos) << e.what();
    }
  }
  // The tightest valid geometries still construct and run.
  Rng rng(9);
  Conv2d fits("c", 1, 2, 3, 2, 0, 3, 3, false, rng);  // k == in: one output
  EXPECT_EQ(fits.forward(Tensor(Shape{1, 1, 3, 3}), false).shape(), (Shape{1, 2, 1, 1}));
  Conv2d pad_only("c", 1, 2, 3, 1, 1, 1, 1, false, rng);  // a 1×1 image, k == 1 + 2 pad
  EXPECT_EQ(pad_only.forward(Tensor(Shape{1, 1, 1, 1}), false).shape(), (Shape{1, 2, 1, 1}));
}

TEST(LinearEdge, NoBiasOmitsBiasTerm) {
  Rng rng(6);
  Linear fc("fc", 3, 2, false, rng);
  std::vector<Parameter*> params;
  fc.collect_params(params);
  EXPECT_EQ(params.size(), 1u);
  Tensor zero(Shape{1, 3});
  Tensor y = fc.forward(zero, false);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 1), 0.0f);
}

TEST(BatchNormEdge, SingleChannelManyPixels) {
  BatchNorm2d bn("bn", 1);
  Rng rng(7);
  Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  EXPECT_LT(rp::testing::check_input_gradient(bn, x, rng), kGradTol);
}

TEST(BatchNormEdge, MaskedGammaStaysZeroThroughForward) {
  // Structured pruning zeroes gamma/beta; the channel must emit exactly 0
  // in both train and eval modes.
  BatchNorm2d bn("bn", 2);
  bn.gamma().mask = Tensor::ones(Shape{2});
  bn.beta().mask = Tensor::ones(Shape{2});
  bn.gamma().mask[0] = 0.0f;
  bn.beta().mask[0] = 0.0f;
  bn.gamma().enforce_mask();
  bn.beta().enforce_mask();
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{4, 2, 2, 2}, rng);
  Tensor y_train = bn.forward(x, true);
  Tensor y_eval = bn.forward(x, false);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t p = 0; p < 4; ++p) {
      EXPECT_EQ(y_train.at(i, 0, p / 2, p % 2), 0.0f);
      EXPECT_EQ(y_eval.at(i, 0, p / 2, p % 2), 0.0f);
    }
  }
}

TEST(SequentialEdge, EmptySequentialIsIdentity) {
  Sequential seq("empty");
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{2, 3}, rng);
  Tensor y = seq.forward(x, true);
  EXPECT_LT(l2_distance(y, x), 1e-7f);
  Tensor dx = seq.backward(y);
  EXPECT_LT(l2_distance(dx, y), 1e-7f);
}

TEST(MaxPoolEdge, TieBreaksConsistently) {
  // Equal values in a window: gradient must go to exactly one input.
  MaxPool2d pool;
  Tensor x = Tensor::ones(Shape{1, 1, 2, 2});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y[0], 1.0f);
  Tensor dy = Tensor::ones(Shape{1, 1, 1, 1});
  Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(sum(dx), 1.0f);
  EXPECT_EQ(count_nonzero(dx), 1);
}

}  // namespace
}  // namespace rp::nn
