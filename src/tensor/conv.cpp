#include "tensor/conv.hpp"

#include <algorithm>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "tensor/simd.hpp"

namespace rp {

namespace {

// Output indices o in [0, n) whose input coordinate o * stride + off lands
// inside [0, extent), as the half-open range [*lo, *hi).
void valid_span(int64_t off, int64_t extent, int64_t stride, int64_t n, int64_t* lo,
                int64_t* hi) {
  *lo = off < 0 ? (-off + stride - 1) / stride : 0;
  *hi = off >= extent ? 0 : std::min(n, (extent - 1 - off) / stride + 1);
  *hi = std::max(*hi, *lo);
}

void check_conv_geometry(const ConvGeom& g, const std::string& who) {
  const char* bad = nullptr;
  if (g.in_c < 1) {
    bad = "in_c must be >= 1";
  } else if (g.in_h < 1 || g.in_w < 1) {
    bad = "the input extent must be >= 1";
  } else if (g.k < 1) {
    bad = "k must be >= 1";
  } else if (g.stride < 1) {
    bad = "stride must be >= 1";
  } else if (g.pad < 0) {
    bad = "pad must be >= 0";
  } else if (g.k > g.padded_h() || g.k > g.padded_w()) {
    bad = "the kernel is larger than the padded input, so out_h/out_w < 1";
  }
  if (bad == nullptr) return;
  throw std::invalid_argument(who + ": invalid conv geometry (in_c " + std::to_string(g.in_c) +
                              ", " + std::to_string(g.in_h) + "x" + std::to_string(g.in_w) +
                              ", k " + std::to_string(g.k) + ", stride " +
                              std::to_string(g.stride) + ", pad " + std::to_string(g.pad) +
                              "): " + bad);
}

// Copies one image [in_c, in_h, in_w] into the interior of a zero-padded
// plane [in_c, in_h + 2p, in_w + 2p], never writing the border.
void pad_image(const float* image, const ConvGeom& g, float* padded) {
  const int64_t pw = g.padded_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* src = image + c * g.in_h * g.in_w;
    float* dst = padded + (c * g.padded_h() + g.pad) * pw + g.pad;
    for (int64_t y = 0; y < g.in_h; ++y) {
      std::memcpy(dst + y * pw, src + y * g.in_w, static_cast<size_t>(g.in_w) * sizeof(float));
    }
  }
}

}  // namespace

void transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  constexpr int64_t kTile = 16;
  for (int64_t i0 = 0; i0 < rows; i0 += kTile) {
    const int64_t i1 = std::min(rows, i0 + kTile);
    for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
      const int64_t j1 = std::min(cols, j0 + kTile);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t i = i0; i < i1; ++i) dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
}

ConvPlan::ConvPlan(const ConvGeom& geom, const std::string& who) : g(geom) {
  check_conv_geometry(g, who);
  const int64_t s = g.stride;
  oh = g.out_h();
  ow = g.out_w();
  ph_h = oh + (g.k - 1) / s;
  ph_w = ow + (g.k - 1) / s;
  // The patch rows read phases (a, b) with a, b < min(k, s), numbered
  // a * min(k, s) + b.
  const int64_t m = std::min(g.k, s);
  phases = (s == 1 && g.pad == 0) ? 0 : m * m;  // pad 0 at stride 1: read the image in place
  if (m * m * g.in_c * ph_h * ph_w > INT32_MAX) {
    throw std::invalid_argument(who + ": conv input too large for 32-bit plane offsets");
  }
  // Phase (a, b) of the input takes kernel row ki from output row
  // m + (a + pad - ki) / s when s divides a + pad - ki, and columns alike.
  tap_ptr.push_back(0);
  for (int64_t a = 0; a < s; ++a) {
    for (int64_t b = 0; b < s; ++b) {
      for (int64_t ki = 0; ki < g.k; ++ki) {
        if ((a + g.pad - ki) % s != 0) continue;
        for (int64_t kj = 0; kj < g.k; ++kj) {
          if ((b + g.pad - kj) % s != 0) continue;
          taps.push_back(simd::ConvTap{static_cast<int32_t>(ki * g.k + kj),
                                       static_cast<int32_t>((a + g.pad - ki) / s),
                                       static_cast<int32_t>((b + g.pad - kj) / s)});
        }
      }
      tap_ptr.push_back(static_cast<int32_t>(taps.size()));
    }
  }
  off.reserve(static_cast<size_t>(g.patch()));
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.k; ++ki) {
      for (int64_t kj = 0; kj < g.k; ++kj) {
        const int64_t slot = (ki % s) * m + kj % s;
        off.push_back(
            static_cast<int32_t>(((slot * g.in_c + c) * ph_h + ki / s) * ph_w + kj / s));
      }
    }
  }
}

const float* ConvPlan::fill(const float* image, float* planes) const {
  if (phases == 0) return image;
  const int64_t s = g.stride;
  if (s == 1) {
    pad_image(image, g, planes);  // the one phase is the padded plane
    return planes;
  }
  const int64_t cplane = ph_h * ph_w;
  const int64_t m = std::min(g.k, s);
  for (int64_t a = 0; a < m; ++a) {
    int64_t i0 = 0, i1 = 0;
    valid_span(a - g.pad, g.in_h, s, ph_h, &i0, &i1);
    for (int64_t b = 0; b < m; ++b) {
      const int64_t slot = a * m + b;
      int64_t j0 = 0, j1 = 0;
      valid_span(b - g.pad, g.in_w, s, ph_w, &j0, &j1);
      for (int64_t c = 0; c < g.in_c; ++c) {
        const float* src = image + c * g.in_h * g.in_w;
        float* dst = planes + (slot * g.in_c + c) * cplane;
        for (int64_t i = i0; i < i1; ++i) {
          const float* __restrict sr = src + (i * s + a - g.pad) * g.in_w + (j0 * s + b - g.pad);
          float* __restrict dr = dst + i * ph_w;
          for (int64_t j = j0; j < j1; ++j, sr += s) dr[j] = *sr;
        }
      }
    }
  }
  return planes;
}

simd::ConvArgs ConvPlan::args(const float* planes, const float* bias, float* y) const {
  return simd::ConvArgs{planes, off.data(), static_cast<int64_t>(off.size()), oh, ow, ld(), bias, y};
}

simd::ConvDwArgs ConvPlan::dw_args(const float* planes, const float* dyt, int64_t out_c,
                                   float* dwt) const {
  return simd::ConvDwArgs{planes, off.data(), g.patch(), oh, ow, ld(), dyt, out_c, dwt};
}

simd::ConvDxArgs ConvPlan::dx_args(const float* wx, int64_t out_c, const float* dy,
                                   float* dx) const {
  return simd::ConvDxArgs{dy,     wx,       taps.data(), tap_ptr.data(), out_c, g.in_c,
                          g.in_h, g.in_w, g.stride,    oh,             ow,    dx};
}

BatchPlane::BatchPlane(const Tensor& x)
    : n(x.size(0)),
      cols(x.size(1)),
      xt(Tensor::scratch(Shape{cols, n})),
      off(static_cast<size_t>(cols), 0, mem::ScratchAllocator<int32_t>(true)) {
  if (cols * n > INT32_MAX) {
    throw std::invalid_argument("BatchPlane: batch too large for 32-bit plane offsets");
  }
  for (int64_t r = 0; r < cols; ++r) off[static_cast<size_t>(r)] = static_cast<int32_t>(r * n);
  transpose(x.data().data(), n, cols, xt.data().data());
}

simd::ConvArgs BatchPlane::args(float* yt) const {
  return simd::ConvArgs{xt.data().data(), off.data(), cols, 1, n, n, nullptr, yt};
}

simd::ConvDxArgs batch_dx_args(const float* w, int64_t out_c, int64_t in_c, int64_t n,
                               const float* dyt, float* dxt) {
  static constexpr simd::ConvTap kTap{0, 0, 0};
  static constexpr int32_t kTapPtr[2] = {0, 1};
  return simd::ConvDxArgs{dyt, w, &kTap, kTapPtr, out_c, in_c, 1, n, 1, 1, n, dxt};
}

void conv_dx_weight(const Tensor& w, const ConvGeom& g, float* wx) {
  const int64_t out_c = w.size(0), kk = g.k * g.k, patch = g.patch();
  const float* wd = w.data().data();
  for (int64_t o = 0; o < out_c; ++o) {
    for (int64_t c = 0; c < g.in_c; ++c) {
      for (int64_t t = 0; t < kk; ++t) wx[(t * out_c + o) * g.in_c + c] = wd[o * patch + c * kk + t];
    }
  }
}

// rp-lint: hot
void conv_grad_weight(const simd::ConvDwArgs& a) {
  obs::count(obs::Counter::kGemmCalls);
  simd::kernels().conv_dw(a);
}

// rp-lint: hot
void conv_grad_input(const simd::ConvDxArgs& a) {
  obs::count(obs::Counter::kGemmCalls);
  simd::kernels().conv_dx(a);
}

}  // namespace rp
