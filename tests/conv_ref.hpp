#pragma once

// Reference conv data movement for the bit-identity tests: a bounds-tested
// im2col and the textbook col2im fold, the formulation the conv kernels
// replace.

#include <cstring>

#include "tensor/gemm.hpp"

namespace rp::testing {

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
