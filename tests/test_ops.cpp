#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/simd.hpp"

namespace rp {
namespace {

TEST(Ops, SumAndMean) {
  Tensor t = Tensor::arange(5);  // 0..4
  EXPECT_FLOAT_EQ(sum(t), 10.0f);
  EXPECT_FLOAT_EQ(mean(t), 2.0f);
}

TEST(Ops, MeanOfEmptyIsZero) { EXPECT_EQ(mean(Tensor{}), 0.0f); }

TEST(Ops, SumIsStableForLongInputs) {
  Tensor t = Tensor::full(Shape{1000000}, 0.1f);
  EXPECT_NEAR(sum(t), 100000.0f, 0.5f);
}

TEST(Ops, MinMaxArgmax) {
  Tensor t(Shape{4}, {3.0f, -1.0f, 7.0f, 2.0f});
  EXPECT_EQ(max(t), 7.0f);
  EXPECT_EQ(min(t), -1.0f);
  EXPECT_EQ(argmax(t), 2);
}

TEST(Ops, EmptyReductionsThrow) {
  Tensor t;
  EXPECT_THROW(max(t), std::invalid_argument);
  EXPECT_THROW(min(t), std::invalid_argument);
  EXPECT_THROW(argmax(t), std::invalid_argument);
}

TEST(Ops, CountNonzero) {
  Tensor t(Shape{5}, {0.0f, 1.0f, 0.0f, -2.0f, 0.0f});
  EXPECT_EQ(count_nonzero(t), 2);
}

TEST(Ops, Norms) {
  Tensor t(Shape{3}, {3.0f, -4.0f, 0.0f});
  EXPECT_FLOAT_EQ(l1_norm(t), 7.0f);
  EXPECT_FLOAT_EQ(l2_norm(t), 5.0f);
  EXPECT_FLOAT_EQ(linf_norm(t), 4.0f);
}

/// linf_norm over a NaN in the last lane of an 8-wide block reads the same
/// bits under RP_SIMD=off and dispatched.
TEST(Ops, LinfNormOverNanIsTheSameUnderEverySimd) {
  struct SimdGuard {
    ~SimdGuard() { simd::reset(); }
  } guard;
  Tensor t = Tensor::arange(16);
  t[15] = std::numeric_limits<float>::quiet_NaN();
  simd::force(simd::Isa::kScalar);
  const float off = linf_norm(t);
  simd::reset();
  const float dispatched = linf_norm(t);
  EXPECT_EQ(std::memcmp(&off, &dispatched, sizeof(float)), 0)
      << off << " under RP_SIMD=off, " << dispatched << " dispatched";
}

TEST(Ops, L2Distance) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b(Shape{2}, {4.0f, 6.0f});
  EXPECT_FLOAT_EQ(l2_distance(a, b), 5.0f);
  EXPECT_THROW(l2_distance(a, Tensor(Shape{3})), std::invalid_argument);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Tensor logits(Shape{3, 4});
  Rng rng(1);
  for (float& v : logits.data()) v = rng.normal(0.0f, 3.0f);
  Tensor p = softmax_rows(logits);
  for (int64_t i = 0; i < 3; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  Tensor a(Shape{1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor b(Shape{1, 3}, {0.0f, 1.0f, 2.0f});
  const Tensor pa = softmax_rows(a), pb = softmax_rows(b);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(pa.at(0, j), pb.at(0, j), 1e-5f);
    EXPECT_FALSE(std::isnan(pa.at(0, j)));
  }
}

TEST(Ops, SoftmaxRejectsNonMatrix) {
  EXPECT_THROW(softmax_rows(Tensor(Shape{3})), std::invalid_argument);
}

TEST(Ops, ArgmaxRows) {
  Tensor m(Shape{2, 3}, {1.0f, 5.0f, 2.0f, 9.0f, 0.0f, 3.0f});
  const auto a = argmax_rows(m);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);
}

TEST(Ops, LogsumexpMatchesDirect) {
  Tensor m(Shape{1, 3}, {1.0f, 2.0f, 3.0f});
  const double expect = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(logsumexp_rows(m)[0], expect, 1e-5);
}

TEST(Ops, LogsumexpIsOverflowSafe) {
  Tensor m(Shape{1, 2}, {10000.0f, 10000.0f});
  const float v = logsumexp_rows(m)[0];
  EXPECT_FALSE(std::isinf(v));
  EXPECT_NEAR(v, 10000.0f + std::log(2.0f), 1e-2f);
}

TEST(Ops, Clamp) {
  Tensor t(Shape{3}, {-1.0f, 0.5f, 2.0f});
  Tensor c = clamp(t, 0.0f, 1.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.5f);
  EXPECT_EQ(c[2], 1.0f);
}

TEST(Ops, Relu) {
  Tensor t(Shape{3}, {-1.0f, 0.0f, 2.0f});
  Tensor r = relu(t);
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[1], 0.0f);
  EXPECT_EQ(r[2], 2.0f);
}

}  // namespace
}  // namespace rp
