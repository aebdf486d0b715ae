#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "conv_ref.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace rp {
namespace {

/// Reference triple-loop GEMM for validation.
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
  Tensor got = matmul(a, b, ta, tb);
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

TEST(Gemm, BetaOneAccumulates) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{2, 2}, rng);
  Tensor b = Tensor::randn(Shape{2, 2}, rng);
  Tensor c(Shape{2, 2});
  gemm(a, b, c);
  Tensor once = c;
  gemm(a, b, c, false, false, /*accumulate=*/true);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(c[i], 2.0f * once[i], 1e-4f);
}

TEST(Gemm, IncompatibleShapesThrow) {
  Tensor a(Shape{2, 3}), b(Shape{4, 5}), c(Shape{2, 5});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
  Tensor b2(Shape{3, 5}), c_bad(Shape{3, 5});
  EXPECT_THROW(gemm(a, b2, c_bad), std::invalid_argument);
}

TEST(Gemm, NonMatrixThrows) {
  Tensor a(Shape{2, 3, 4}), b(Shape{3, 2}), c(Shape{2, 2});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

// ----- thread-count determinism ---------------------------------------------------

/// Restores the default lane count when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

/// The determinism contract (DESIGN.md "Threading model"): parallel GEMM must
/// be bit-identical to serial for every transpose combination, including
/// ragged sizes that do not divide the KC/NC block sizes and shapes large
/// enough to cross the parallel-dispatch threshold.
TEST(GemmDeterminism, ParallelMatchesSerialBitExact) {
  ThreadGuard guard;
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1},        // degenerate
      {3, 5, 2},        // tiny, below the parallel threshold
      {33, 129, 65},    // ragged, spans one KC/NC block boundary
      {130, 257, 131},  // ragged, multiple K blocks
      {96, 300, 260},   // multiple N panels (packed path)
  };
  for (const auto& [m, k, n] : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Rng rng(static_cast<uint64_t>(m * 7919 + k * 131 + n * 17 + ta * 2 + tb));
        Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
        Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);

        parallel::set_num_threads(1);
        const Tensor serial = matmul(a, b, ta, tb);
        parallel::set_num_threads(8);
        const Tensor threaded = matmul(a, b, ta, tb);

        ASSERT_EQ(serial.shape(), threaded.shape());
        ASSERT_EQ(std::memcmp(serial.data().data(), threaded.data().data(),
                              static_cast<size_t>(serial.numel()) * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta << " tb=" << tb;
      }
    }
  }
}

/// The zeroing pre-pass is chunked across lanes too; accumulating and
/// overwriting calls must both stay bit-identical to serial.
TEST(GemmDeterminism, BetaPathsMatchSerialBitExact) {
  ThreadGuard guard;
  Rng rng(99);
  Tensor a = Tensor::randn(Shape{130, 70}, rng);
  Tensor b = Tensor::randn(Shape{70, 190}, rng);
  for (const bool accumulate : {false, true}) {
    Tensor c1 = Tensor::full(Shape{130, 190}, 0.25f);
    Tensor c8 = c1;
    parallel::set_num_threads(1);
    gemm(a, b, c1, false, false, accumulate);
    parallel::set_num_threads(8);
    gemm(a, b, c8, false, false, accumulate);
    ASSERT_EQ(std::memcmp(c1.data().data(), c8.data().data(),
                          static_cast<size_t>(c1.numel()) * sizeof(float)),
              0)
        << "accumulate=" << accumulate;
  }
}

/// k == 0 contributes nothing: an overwriting call still zeroes C, an
/// accumulating one leaves it as it was, and empty C stays a no-op.
TEST(Gemm, EmptyShapesKeepBetaSemantics) {
  Tensor a(Shape{2, 0}), b(Shape{0, 3});
  Tensor c = Tensor::full(Shape{2, 3}, 2.0f);
  gemm(a, b, c, false, false, /*accumulate=*/true);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 2.0f);
  gemm(a, b, c);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);

  Tensor a0(Shape{0, 4}), b0(Shape{4, 3}), c0(Shape{0, 3});
  EXPECT_NO_THROW(gemm(a0, b0, c0));
}

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
