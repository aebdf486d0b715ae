#include "tensor/gemm.hpp"

#include <algorithm>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp {

namespace {

// Cache blocking: B is consumed in KC x NC panels (128 KiB packed,
// comfortably L2-resident) so every A element loaded is multiplied against a
// hot panel instead of streaming the whole of B per output row.
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 128;

// Below this many multiply-adds the parallel dispatch overhead dominates;
// small GEMMs (per-sample conv layers, classifier heads) run serial and are
// instead parallelized by the loops above them.
constexpr int64_t kParallelMinMacs = int64_t{1} << 18;

// Scratch reused across gemm calls. Nested parallel loops run inline on the
// current lane, so each lane owns exactly one set and the buffers stop being
// reallocated per call.
// rp-lint: allow(R3) per-lane GEMM scratch; never aliased across lanes
thread_local std::vector<float> tl_at_buf, tl_bt_buf, tl_pack_buf;

void gemm_blocked(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k) {
  // The panel microkernel — C[i0:i1, 0:nc] += A[i0:i1, 0:kc] @
  // panel[0:kc, 0:nc] — is ISA-dispatched (simd.hpp). Each output row is
  // owned by exactly one task and its k-accumulation order is fixed by the
  // (jc, pc) loop nest and unchanged by vectorization (lanes run across
  // columns only), so results are bit-identical for any thread count AND any
  // RP_SIMD setting.
  const auto kernel_panel = simd::kernels().gemm_panel;
  const bool threaded = 2 * m * n * k >= kParallelMinMacs;
  const int64_t grain =
      std::max<int64_t>(1, m / (4 * static_cast<int64_t>(parallel::num_threads())));
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      // Pack the panel only when its rows are strided (nc < n); a
      // single-block B is already contiguous and used in place.
      const float* panel = b + pc * n + jc;
      int64_t ldp = n;
      if (nc < n) {
        tl_pack_buf.resize(static_cast<size_t>(kc * nc));  // rp-lint: allow(R12) thread_local pack scratch; grows once, steady-state alloc-free
        for (int64_t p = 0; p < kc; ++p) {
          std::memcpy(tl_pack_buf.data() + p * nc, b + (pc + p) * n + jc,
                      static_cast<size_t>(nc) * sizeof(float));
        }
        panel = tl_pack_buf.data();
        ldp = nc;
      }
      auto rows = [&](int64_t i0, int64_t i1) {
        kernel_panel(a + pc, k, panel, ldp, c + jc, n, i0, i1, kc, nc);
      };
      if (threaded) {
        parallel::parallel_for(0, m, grain, rows);
      } else {
        rows(0, m);
      }
    }
  }
}

// Output indices o in [0, n) whose input coordinate o * stride + off lands
// inside [0, extent), as the half-open range [*lo, *hi).
void valid_span(int64_t off, int64_t extent, int64_t stride, int64_t n, int64_t* lo,
                int64_t* hi) {
  *lo = off < 0 ? (-off + stride - 1) / stride : 0;
  *hi = off >= extent ? 0 : std::min(n, (extent - 1 - off) / stride + 1);
  *hi = std::max(*hi, *lo);
}

// Output channels per task when one sample's conv forward is split across
// lanes (a batch of one; inside the per-sample loop the split runs inline):
// about four tasks per lane, in whole blocks of the kernels' four-channel
// register tiles.
int64_t channel_grain(int64_t out_c) {
  const int64_t per = out_c / (4 * static_cast<int64_t>(parallel::num_threads()));
  return std::max<int64_t>(4, (per + 3) / 4 * 4);
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

// rp-lint: hot
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a, bool trans_b,
          bool accumulate) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2) {
    throw std::invalid_argument("gemm expects 2-D tensors");
  }
  obs::count(obs::Counter::kGemmCalls);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t k = trans_a ? a.size(0) : a.size(1);
  const int64_t kb = trans_b ? b.size(1) : b.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb || c.size(0) != m || c.size(1) != n) {
    throw std::invalid_argument("gemm: incompatible shapes " + a.shape().to_string() + " x " +
                                b.shape().to_string() + " -> " + c.shape().to_string());
  }
  if (m == 0 || n == 0) return;  // C is empty — nothing to zero or accumulate

  // An overwriting call zeroes C first, chunked so large C matrices clear in
  // parallel (disjoint ranges — bit-deterministic).
  float* cd = c.data().data();
  if (!accumulate) {
    parallel::parallel_for(0, m * n, int64_t{1} << 16, [&](int64_t lo, int64_t hi) {
      std::memset(cd + lo, 0, static_cast<size_t>(hi - lo) * sizeof(float));
    });
  }
  if (k == 0) return;

  // Materialize transposed operands once; at this repository's matrix sizes
  // (K, N <= a few thousand) the copy is cheaper than strided inner loops.
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  if (trans_a) {
    tl_at_buf.resize(static_cast<size_t>(m * k));  // rp-lint: allow(R12) thread_local transpose scratch; grows once, steady-state alloc-free
    transpose(ad, k, m, tl_at_buf.data());
    ad = tl_at_buf.data();
  }
  if (trans_b) {
    tl_bt_buf.resize(static_cast<size_t>(k * n));  // rp-lint: allow(R12) thread_local transpose scratch; grows once, steady-state alloc-free
    transpose(bd, n, k, tl_bt_buf.data());
    bd = tl_bt_buf.data();
  }

  gemm_blocked(ad, bd, cd, m, n, k);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  Tensor c(Shape{m, n});
  gemm(a, b, c, trans_a, trans_b);
  return c;
}

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

void conv_zero_masks(const Tensor& w, uint8_t* nz) {
  const int64_t out_c = w.size(0), patch = w.size(1);
  const float* wd = w.data().data();
  std::memset(nz, 0, static_cast<size_t>(conv_mask_size(out_c, patch)));
  for (int64_t o = 0; o < out_c; ++o) {
    uint8_t* row = nz + (o / 4) * patch;
    const auto bit = static_cast<uint8_t>(1u << (o % 4));
    for (int64_t r = 0; r < patch; ++r) {
      if (wd[o * patch + r] != 0.0f) row[r] |= bit;
    }
  }
}

// rp-lint: hot
void conv_forward(const Tensor& w, const uint8_t* nz, const ConvPlan& plan, const float* planes,
                  const float* bias, float* y) {
  obs::count(obs::Counter::kGemmCalls);
  const simd::ConvArgs a = plan.args(planes, bias, y);
  const int64_t out_c = w.size(0);
  const float* wd = w.data().data();
  const auto kernel = simd::kernels().conv_dense;
  auto channels = [&](int64_t o0, int64_t o1) { kernel(a, wd, nz, o0, o1); };
  if (2 * out_c * a.patch * a.oh * a.ow >= kParallelMinMacs) {
    parallel::parallel_for(0, out_c, channel_grain(out_c), channels);
  } else {
    channels(0, out_c);
  }
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
void conv_grad_weight(const ConvPlan& plan, const float* planes, const float* dyt, int64_t out_c,
                      float* dwt) {
  obs::count(obs::Counter::kGemmCalls);
  simd::kernels().conv_dw(simd::ConvDwArgs{planes, plan.off.data(), plan.g.patch(), plan.oh,
                                           plan.ow, plan.ld(), dyt, out_c, dwt});
}

// rp-lint: hot
void conv_grad_input(const ConvPlan& plan, const float* wx, int64_t out_c, const float* dy,
                     float* dx) {
  obs::count(obs::Counter::kGemmCalls);
  const ConvGeom& g = plan.g;
  simd::kernels().conv_dx(simd::ConvDxArgs{dy, wx, plan.taps.data(), plan.tap_ptr.data(), out_c,
                                           g.in_c, g.in_h, g.in_w, g.stride, plan.oh, plan.ow,
                                           dx});
}

}  // namespace rp
