#include "tensor/conv.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "conv_ref.hpp"
#include "tensor/ops.hpp"

namespace rp {
namespace {

// ----- the reference product ------------------------------------------------------
//
// Every kernel bit-identity test compares against testing::ref_matmul, so
// the reference itself is checked here against a double-precision triple
// loop, for every transpose combination.

/// Reference triple-loop product in double precision.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t n = tb ? b.size(0) : b.size(1);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        s += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

using GemmParam = std::tuple<int, int, int, bool, bool>;

class GemmTest : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + k * 100 + n * 10 + ta * 2 + tb));
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor got(Shape{m, n});
  testing::ref_matmul(a, b, got, ta, tb, testing::SkipZeros::kA);
  Tensor want = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmParam{1, 1, 1, false, false}, GemmParam{3, 4, 5, false, false},
                      GemmParam{3, 4, 5, true, false}, GemmParam{3, 4, 5, false, true},
                      GemmParam{3, 4, 5, true, true}, GemmParam{16, 32, 8, false, false},
                      GemmParam{7, 13, 7, true, true}, GemmParam{64, 27, 64, false, false},
                      GemmParam{1, 100, 1, false, true}));

// ----- conv plan ------------------------------------------------------------------
//
// The forward's ConvPlan replaces the im2col patch matrix: patch row r reads
// output p = (y, x) at planes[off[r] + y*ld + x]. These suites keep the
// hand-computed im2col expectations and check them through that address.

/// Bounds-tested im2col element: patch row (c, ki, kj), output position p.
float im2col_at(const float* image, const ConvGeom& g, int64_t row, int64_t p) {
  const int64_t c = row / (g.k * g.k), ki = row / g.k % g.k, kj = row % g.k;
  const int64_t sy = p / g.out_w() * g.stride + ki - g.pad;
  const int64_t sx = p % g.out_w() * g.stride + kj - g.pad;
  const bool inside = sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w;
  return inside ? image[(c * g.in_h + sy) * g.in_w + sx] : 0.0f;
}

/// Element (row, p) of the patch matrix as the plan addresses it.
float plan_at(const ConvPlan& plan, const float* planes, int64_t row, int64_t p) {
  const int64_t ow = plan.g.out_w();
  return planes[plan.off[static_cast<size_t>(row)] + p / ow * plan.ld() + p % ow];
}

/// The patch matrix [patch, out_h*out_w] read through the plan.
Tensor plan_patches(const ConvPlan& plan, const Tensor& image) {
  std::vector<float> scratch(static_cast<size_t>(plan.plane_size()), 0.0f);
  const float* planes = plan.fill(image.data().data(), scratch.data());
  const int64_t oplane = plan.g.out_h() * plan.g.out_w();
  Tensor cols(Shape{plan.g.patch(), oplane});
  for (int64_t r = 0; r < plan.g.patch(); ++r) {
    for (int64_t p = 0; p < oplane; ++p) cols.at(r, p) = plan_at(plan, planes, r, p);
  }
  return cols;
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1, no padding: the patch matrix is the flattened
  // image, and the plan reads it in place.
  ConvGeom g{2, 3, 3, 1, 1, 0};
  const ConvPlan plan(g, "c");
  Rng rng(3);
  Tensor img = Tensor::randn(Shape{2, 3, 3}, rng);
  EXPECT_EQ(plan.plane_size(), 0);
  EXPECT_EQ(plan.fill(img.data().data(), nullptr), img.data().data());
  Tensor cols = plan_patches(plan, img);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, ZeroPaddingFillsBorders) {
  ConvGeom g{1, 2, 2, 3, 1, 1};
  const ConvPlan plan(g, "c");
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  Tensor cols = plan_patches(plan, img);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Kernel offset (0,0) reads the pixel up-left of each output: for output
  // (0,0) that's padding -> 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Kernel center (1,1) reads the pixel itself -> 1.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
  EXPECT_EQ(cols.at(4, 3), 1.0f);
}

TEST(Im2col, StrideSkipsPositions) {
  ConvGeom g{1, 4, 4, 1, 2, 0};
  const ConvPlan plan(g, "c");
  // A 1x1 stride-2 kernel reads phase (0, 0) only: the 2x2 even pixels.
  EXPECT_EQ(plan.phases, 1);
  EXPECT_EQ(plan.plane_size(), 4);
  Tensor img = Tensor::arange(16).reshape(Shape{1, 4, 4});
  Tensor cols = plan_patches(plan, img);
  ASSERT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 8.0f);
  EXPECT_EQ(cols[3], 10.0f);
}

/// A plan refuses a geometry whose kernel does not fit the padded image,
/// naming its owner; the same kernel fits once padding makes room.
TEST(Im2col, GeometryMismatchThrows) {
  try {
    const ConvPlan plan(ConvGeom{1, 4, 4, 5, 1, 0}, "stem");
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("stem: ", 0), 0u) << e.what();
  }
  const ConvPlan padded(ConvGeom{1, 4, 4, 5, 1, 1}, "stem");
  EXPECT_EQ(padded.oh, 2);
}

/// Every offset of the plan addresses the element im2col puts at that patch
/// row, for every position, across kernel sizes, strides, pads and odd
/// extents.
TEST(Im2col, PlanAddressesEveryPatchElement) {
  const ConvGeom geoms[] = {
      {2, 5, 7, 3, 1, 1}, {3, 8, 8, 3, 2, 1}, {2, 8, 8, 1, 2, 0}, {2, 7, 5, 5, 2, 2},
      {1, 9, 9, 3, 3, 0}, {2, 4, 4, 1, 1, 2}, {3, 6, 6, 3, 1, 0}, {2, 5, 5, 1, 3, 1},
      {1, 3, 1, 3, 1, 1}, {2, 16, 16, 5, 1, 2}, {1, 11, 6, 3, 2, 0},
  };
  Rng rng(6);
  for (const ConvGeom& g : geoms) {
    SCOPED_TRACE("k" + std::to_string(g.k) + " s" + std::to_string(g.stride) + " p" +
                 std::to_string(g.pad) + " " + std::to_string(g.in_h) + "x" +
                 std::to_string(g.in_w));
    const ConvPlan plan(g, "c");
    const Tensor img = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
    const Tensor cols = plan_patches(plan, img);
    for (int64_t r = 0; r < g.patch(); ++r) {
      for (int64_t p = 0; p < g.out_h() * g.out_w(); ++p) {
        ASSERT_EQ(cols.at(r, p), im2col_at(img.data().data(), g, r, p)) << "row " << r << " p " << p;
      }
    }
  }
}

/// The reference fold the conv input gradient is checked against must be
/// the adjoint of the plan's patch reads: <patches(x), y> == <x, fold(y)>.
TEST(Col2im, IsAdjointOfIm2col) {
  ConvGeom g{2, 5, 4, 3, 2, 1};
  const ConvPlan plan(g, "c");
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{2, 5, 4}, rng);
  Tensor cols = plan_patches(plan, x);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back(Shape{2, 5, 4});
  testing::ref_col2im(y, g, back.data().data());

  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 16, 16, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.patch(), 27);
  ConvGeom same{3, 16, 16, 3, 1, 1};
  EXPECT_EQ(same.out_h(), 16);
  ConvGeom valid{1, 5, 5, 3, 1, 0};
  EXPECT_EQ(valid.out_h(), 3);
}

}  // namespace
}  // namespace rp
