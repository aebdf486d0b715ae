#pragma once

// References for the bit-identity tests: a plain fma-chain matrix product,
// a bounds-tested im2col and the textbook col2im fold, the formulation the
// conv kernels replace.

#include <cmath>
#include <cstring>

#include "tensor/conv.hpp"

namespace rp::testing {

/// Which operand of ref_matmul has its zero terms skipped.
enum class SkipZeros { kA, kB };

/// c = op(a) @ op(b), or c += op(a) @ op(b) when `accumulate`, where op
/// transposes its operand when ta / tb is set. Each element of c is one
/// explicit std::fma chain over k ascending, from +0 (from c's own value
/// when accumulating), skipping the terms whose `skip` operand is 0.0f.
inline void ref_matmul(const Tensor& a, const Tensor& b, Tensor& c, bool ta, bool tb,
                       SkipZeros skip, bool accumulate = false) {
  const int64_t m = ta ? a.size(1) : a.size(0), k = ta ? a.size(0) : a.size(1);
  const int64_t n = tb ? b.size(0) : b.size(1);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c.at(i, j) : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        if ((skip == SkipZeros::kA ? av : bv) == 0.0f) continue;
        acc = std::fma(av, bv, acc);
      }
      c.at(i, j) = acc;
    }
  }
}

/// cols [patch, out_h·out_w] of one image [in_c, in_h, in_w], zero outside it.
inline void ref_im2col(const float* image, const ConvGeom& g, Tensor& cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.k; ++ki) {
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t sy = y * g.stride + ki - g.pad, sx = x * g.stride + kj - g.pad;
            const bool inside = sy >= 0 && sy < g.in_h && sx >= 0 && sx < g.in_w;
            cols.at(row, y * ow + x) = inside ? image[(c * g.in_h + sy) * g.in_w + sx] : 0.0f;
          }
        }
      }
    }
  }
}

/// Folds cols [patch, out_h·out_w] into a zeroed image: each pixel gets its
/// in-image contributions in patch-row order.
inline void ref_col2im(const Tensor& cols, const ConvGeom& g, float* image) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  std::memset(image, 0, static_cast<size_t>(g.in_c * g.in_h * g.in_w) * sizeof(float));
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.k; ++ki) {
      for (int64_t kj = 0; kj < g.k; ++kj, ++row) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t sy = y * g.stride + ki - g.pad, sx = x * g.stride + kj - g.pad;
            if (sy < 0 || sy >= g.in_h || sx < 0 || sx >= g.in_w) continue;
            image[(c * g.in_h + sy) * g.in_w + sx] += cols.at(row, y * ow + x);
          }
        }
      }
    }
  }
}

}  // namespace rp::testing
