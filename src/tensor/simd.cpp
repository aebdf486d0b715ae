#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/envspec.hpp"

namespace rp::simd {

namespace {

// -- scalar conv kernels --------------------------------------------------
//
// Every multiply-add is an explicit std::fma: a single-rounded fused op,
// exactly what the AVX2 kernels (vfmadd) execute per lane. That — plus
// vectorizing only across the element index — is the whole bit-exactness
// argument; see DESIGN.md §6. GCC still auto-vectorizes these loops, so the
// scalar table is a correctness reference, not a slow path.

void fma_row(float w, const float* __restrict src, float* __restrict dst, int64_t n) {
  for (int64_t x = 0; x < n; ++x) dst[x] = std::fma(w, src[x], dst[x]);
}

// Floats of the stack buffer a scalar conv pass accumulates in.
constexpr int64_t kConvBuf = 2048;

// One output channel of the scalar conv kernels. chain(step) calls
// step(w, r) for each term of the channel's chain in order; step runs that
// term for every output position of the current pass. A pass accumulates a
// group of output rows in a buffer with the plane's row stride, so each
// term is one contiguous fma run over the whole pass; the columns past ow it
// also computes are read from inside the plane and dropped. Rows too wide
// for the buffer are taken one row and kConvBuf columns at a time.
template <typename Chain>
void scalar_conv_channel(const ConvArgs& a, int64_t o, Chain&& chain) {
  float* yo = a.y + o * a.oh * a.ow;
  const int64_t rows = std::max<int64_t>(1, kConvBuf / a.ld);
  const int64_t cols = std::min(a.ow, kConvBuf);
  float buf[kConvBuf];
  for (int64_t y0 = 0; y0 < a.oh; y0 += rows) {
    const int64_t y1 = std::min(a.oh, y0 + rows);
    for (int64_t x0 = 0; x0 < a.ow; x0 += cols) {
      const int64_t x1 = std::min(a.ow, x0 + cols);
      const int64_t len = (y1 - y0 - 1) * a.ld + (x1 - x0);
      std::fill(buf, buf + len, 0.0f);
      const float* at = a.plane + y0 * a.ld + x0;
      chain([&](float w, int64_t r) { fma_row(w, at + a.off[r], buf, len); });
      for (int64_t y = y0; y < y1; ++y) {
        const float* src = buf + (y - y0) * a.ld;
        float* dst = yo + y * a.ow + x0;
        for (int64_t x = 0; x < x1 - x0; ++x) {
          dst[x] = a.bias != nullptr ? src[x] + a.bias[o] : src[x];
        }
      }
    }
  }
}

void scalar_conv_dense(const ConvArgs& a, const float* w, const uint8_t* /*nz*/, int64_t o0,
                       int64_t o1) {
  for (int64_t o = o0; o < o1; ++o) {
    const float* wo = w + o * a.patch;
    scalar_conv_channel(a, o, [&](auto&& step) {
      for (int64_t r = 0; r < a.patch; ++r) {
        if (wo[r] != 0.0f) step(wo[r], r);  // the dense zero skip
      }
    });
  }
}

void scalar_conv_csr(const ConvArgs& a, const int32_t* row_ptr, const int32_t* col_idx,
                     const float* values, int64_t o0, int64_t o1) {
  for (int64_t o = o0; o < o1; ++o) {
    scalar_conv_channel(a, o, [&](auto&& step) {
      for (int32_t t = row_ptr[o]; t < row_ptr[o + 1]; ++t) {
        if (values[t] != 0.0f) step(values[t], col_idx[t]);  // a stored 0.0f stays a no-op
      }
    });
  }
}

// Weight gradient of channels [o, o + w), w <= 8, for patch rows
// [r, r + R), as a local R × 8 tile the compiler keeps in vector registers.
// A term whose dy is 0 keeps its accumulator (a select, so the tile
// vectorizes); the lanes past w read dy as 0 and are never stored.
template <int R, bool Full>
void dw_block(const ConvDwArgs& a, int64_t r, int64_t o, int64_t w) {
  float acc[R][8] = {};
  int64_t off[R];
  for (int i = 0; i < R; ++i) off[i] = a.off[r + i];
  const float* d = a.dyt + o;
  for (int64_t y = 0; y < a.oh; ++y) {
    const float* row = a.plane + y * a.ld;
    for (int64_t x = 0; x < a.ow; ++x, d += a.out_c) {
      float dv[8] = {};
      if constexpr (Full) {
        for (int j = 0; j < 8; ++j) dv[j] = d[j];
      } else {
        std::copy(d, d + w, dv);
      }
      for (int i = 0; i < R; ++i) {
        const float v = row[off[i] + x];
        for (int j = 0; j < 8; ++j) {
          const float f = std::fma(dv[j], v, acc[i][j]);
          acc[i][j] = dv[j] != 0.0f ? f : acc[i][j];  // the dy zero skip
        }
      }
    }
  }
  for (int i = 0; i < R; ++i) std::copy(acc[i], acc[i] + w, a.dwt + (r + i) * a.out_c + o);
}

// t[i] for i in [i, i1): one tap's chain over the output channels,
// fma(w, src[o·oplane + i], ·) from +0 with zero weights skipped, N
// positions at a time in a local tile the compiler keeps in registers.
// Returns where it stopped.
template <int N>
int64_t dx_chains(const float* w, int64_t cin, int64_t out_c, const float* src, int64_t oplane,
                  float* t, int64_t i, int64_t i1) {
  for (; i + N <= i1; i += N) {
    float tt[N] = {};
    for (int64_t o = 0; o < out_c; ++o) {
      const float wv = w[o * cin];
      if (wv == 0.0f) continue;  // the zero-weight skip
      const float* p = src + o * oplane + i;
      for (int j = 0; j < N; ++j) tt[j] = std::fma(wv, p[j], tt[j]);
    }
    std::copy(tt, tt + N, t + i);
  }
  return i;
}

void scalar_conv_dw(const ConvDwArgs& a) {
  constexpr int kRows = 4;
  for (int64_t o = 0; o < a.out_c; o += 8) {
    const int64_t w = std::min<int64_t>(8, a.out_c - o);
    int64_t r = 0;
    if (w == 8) {
      for (; r + kRows <= a.patch; r += kRows) dw_block<kRows, true>(a, r, o, w);
      for (; r < a.patch; ++r) dw_block<1, true>(a, r, o, w);
    } else {
      for (; r + kRows <= a.patch; r += kRows) dw_block<kRows, false>(a, r, o, w);
      for (; r < a.patch; ++r) dw_block<1, false>(a, r, o, w);
    }
  }
}

// A pass covers grid rows [m0, m1) × columns [q0, q1), at most kConvBuf
// pixels, several rows only when the grid rows are as long as dy's: then a
// tap's dy reads for the whole pass are one contiguous run. acc holds the
// pass's pixel sums, t one tap's chains (dx_chains).
void scalar_conv_dx(const ConvDxArgs& a) {
  const int64_t s = a.stride, oplane = a.oh * a.ow, cin = a.in_c;
  float acc[kConvBuf], t[kConvBuf];
  for (int64_t ph = 0; ph < s * s; ++ph) {
    const int64_t pa = ph / s, pb = ph % s;
    const int64_t mh = (a.in_h - pa + s - 1) / s, qw = (a.in_w - pb + s - 1) / s;
    const ConvTap* t0 = a.taps + a.tap_ptr[ph];
    const ConvTap* t1 = a.taps + a.tap_ptr[ph + 1];
    const int64_t rows = qw == a.ow ? std::max<int64_t>(1, kConvBuf / qw) : 1;
    const int64_t cols = std::min(qw, kConvBuf);
    for (int64_t c = 0; c < cin; ++c) {
      for (int64_t m0 = 0; m0 < mh; m0 += rows) {
        const int64_t m1 = std::min(mh, m0 + rows);
        for (int64_t q0 = 0; q0 < qw; q0 += cols) {
          const int64_t q1 = std::min(qw, q0 + cols), width = q1 - q0;
          std::fill(acc, acc + (m1 - m0) * width, 0.0f);
          for (const ConvTap* tap = t0; tap < t1; ++tap) {
            // The pixels whose output (m + dy, q + dx) lies inside dy.
            const int64_t ma = std::max(m0, -int64_t{tap->dy});
            const int64_t mb = std::min(m1, a.oh - tap->dy);
            const int64_t qa = std::max(q0, -int64_t{tap->dx});
            const int64_t qb = std::min(q1, a.ow - tap->dx);
            if (ma >= mb || qa >= qb) continue;
            // One run from the first such pixel to the last.
            const int64_t i0 = (ma - m0) * width + (qa - q0);
            const int64_t i1 = (mb - 1 - m0) * width + (qb - q0);
            const float* w = a.wx + tap->t * a.out_c * cin + c;
            const float* src = a.dy + (m0 + tap->dy) * a.ow + q0 + tap->dx;
            int64_t i = dx_chains<32>(w, cin, a.out_c, src, oplane, t, i0, i1);
            i = dx_chains<8>(w, cin, a.out_c, src, oplane, t, i, i1);
            dx_chains<1>(w, cin, a.out_c, src, oplane, t, i, i1);
            for (int64_t m = ma; m < mb; ++m) {
              for (int64_t q = qa; q < qb; ++q) {
                const int64_t j = (m - m0) * width + (q - q0);
                acc[j] += t[j];
              }
            }
          }
          for (int64_t m = m0; m < m1; ++m) {
            float* dst = a.dx + (c * a.in_h + m * s + pa) * a.in_w + pb;
            for (int64_t q = q0; q < q1; ++q) dst[q * s] = acc[(m - m0) * width + (q - q0)];
          }
        }
      }
    }
  }
}

constexpr Kernels kScalarKernels{scalar_conv_dense, scalar_conv_csr, scalar_conv_dw,
                                 scalar_conv_dx};

}  // namespace

// -- elementwise / reduction ops ---------------------------------------------
//
// The only implementation: the Release flags let GCC vectorize every loop
// here except the two reductions, whose std::max fold it keeps in order.

void relu(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

void relu_grad(const float* x, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
}

void add(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void mul(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void add_scalar(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += v;
}

void scale(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] *= v;
}

void div_scalar(float* dst, float v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] /= v;
}

void clamp(float* x, float lo, float hi, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

float reduce_max(const float* x, int64_t n) {
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float reduce_abs_max(const float* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
              bool nesterov, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = std::fma(wd, p[i], grad[i]);
    const float v = std::fma(mu, vel[i], g);
    vel[i] = v;
    const float t = nesterov ? std::fma(mu, v, g) : v;
    p[i] = std::fma(-lr, t, p[i]);
  }
}

// -- dispatch --------------------------------------------------------------

namespace {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

bool parse_isa_spec(const std::string& text, Isa* out) {
  if (text == "off" || text == "scalar") {
    *out = Isa::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = Isa::kAvx2;
    return true;
  }
  if (text == "auto") return false;
  throw std::invalid_argument("RP_SIMD: bad value '" + text +
                              "' (expected off|scalar|avx2|auto)");
}

namespace {

Isa resolve_from_env() {
  std::string want = "auto";
  if (const char* env = std::getenv("RP_SIMD")) want = env;
  Isa requested = Isa::kScalar;
  const bool specific = env::die_on_bad_spec([&] { return parse_isa_spec(want, &requested); });
  // auto, or an explicit avx2: AVX2 when compiled in + supported.
  if (specific && requested == Isa::kScalar) return Isa::kScalar;
  return (avx2_kernels() != nullptr && cpu_has_avx2_fma()) ? Isa::kAvx2 : Isa::kScalar;
}

// Dispatch override for force()/reset(); -1 = resolve from env+CPU. Written
// only by test hooks, read with acquire/release — every ISA produces
// bit-identical results, so even a racy transition could not change outputs.
// rp-lint: allow(R3) dispatch pin for tests; all ISAs are bit-identical
std::atomic<int> g_forced{-1};

Isa resolved() {
  const int f = g_forced.load(std::memory_order_acquire);
  if (f >= 0) return static_cast<Isa>(f);
  // Resolve once; RP_SIMD is read at first use, like RP_THREADS.
  static const Isa env_isa = resolve_from_env();  // rp-lint: allow(R3) resolved-once constant
  return env_isa;
}

const Kernels* table_for(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return avx2_kernels();
    case Isa::kScalar:
      break;
  }
  return &kScalarKernels;
}

}  // namespace

Isa active() {
  const Isa isa = resolved();
  return table_for(isa) != nullptr ? isa : Isa::kScalar;
}

const Kernels& kernels() {
  const Kernels* t = table_for(resolved());
  return t != nullptr ? *t : kScalarKernels;
}

void force(Isa isa) {
  if (table_for(isa) == nullptr) isa = Isa::kScalar;
  g_forced.store(static_cast<int>(isa), std::memory_order_release);
}

void reset() { g_forced.store(-1, std::memory_order_release); }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace rp::simd
