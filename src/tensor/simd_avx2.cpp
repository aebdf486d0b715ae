// AVX2/FMA kernel table. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt); everything here is guarded so
// the file is an empty stub on toolchains without AVX2 support. Dispatch
// guarantees these kernels only run on CPUs reporting avx2+fma.
//
// Bit-exactness (DESIGN.md §6): lanes run across the element index (the GEMM
// n dimension) only, every multiply-add is a fused vfmadd — the same
// single-rounded op as the scalar kernels' std::fma — and NaN/-0 semantics of
// max/min/compare formulations are chosen to match the scalar std::max /
// std::clamp exactly. Outputs are therefore bit-identical to RP_SIMD=off.
#include "tensor/simd.hpp"

#if defined(RP_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

namespace rp::simd {

namespace {

// -- GEMM panel microkernel -------------------------------------------------
//
// Same loop nest as the scalar kernel (row i -> k index p -> column j), but
// the C row is held in ymm accumulators across the whole kc loop, cutting the
// C load/store traffic that bounds the scalar kernel. Legal because each
// output element still accumulates its k terms in the original order:
// ((c + a0*b0) + a1*b1) + ... . Column blocks of 64 use 8 independent
// accumulator chains to cover FMA latency; 16/8-wide tiers and a scalar
// std::fma tail handle the remainder. The pruning-aware zero skip is kept in
// every tier: av == 0 contributes exactly nothing in fused arithmetic
// (c + 0*b == c for finite c), and skipping also avoids touching the panel
// row of a pruned weight.

void a_gemm_panel(const float* a, int64_t lda, const float* panel, int64_t ldp, float* c,
                  int64_t ldc, int64_t i0, int64_t i1, int64_t kc, int64_t nc) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    int64_t j = 0;
    for (; j + 64 <= nc; j += 64) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      __m256 c2 = _mm256_loadu_ps(cj + 16);
      __m256 c3 = _mm256_loadu_ps(cj + 24);
      __m256 c4 = _mm256_loadu_ps(cj + 32);
      __m256 c5 = _mm256_loadu_ps(cj + 40);
      __m256 c6 = _mm256_loadu_ps(cj + 48);
      __m256 c7 = _mm256_loadu_ps(cj + 56);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = panel + p * ldp + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
        c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 16), c2);
        c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 24), c3);
        c4 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 32), c4);
        c5 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 40), c5);
        c6 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 48), c6);
        c7 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 56), c7);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
      _mm256_storeu_ps(cj + 16, c2);
      _mm256_storeu_ps(cj + 24, c3);
      _mm256_storeu_ps(cj + 32, c4);
      _mm256_storeu_ps(cj + 40, c5);
      _mm256_storeu_ps(cj + 48, c6);
      _mm256_storeu_ps(cj + 56, c7);
    }
    for (; j + 16 <= nc; j += 16) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj + 0);
      __m256 c1 = _mm256_loadu_ps(cj + 8);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* bp = panel + p * ldp + j;
        c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 0), c0);
        c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
      }
      _mm256_storeu_ps(cj + 0, c0);
      _mm256_storeu_ps(cj + 8, c1);
    }
    for (; j + 8 <= nc; j += 8) {
      float* cj = ci + j;
      __m256 c0 = _mm256_loadu_ps(cj);
      for (int64_t p = 0; p < kc; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(av), _mm256_loadu_ps(panel + p * ldp + j), c0);
      }
      _mm256_storeu_ps(cj, c0);
    }
    if (j < nc) {
      for (int64_t p = 0; p < kc; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        const float* bp = panel + p * ldp;
        for (int64_t jj = j; jj < nc; ++jj) ci[jj] = std::fma(av, bp[jj], ci[jj]);
      }
    }
  }
}

// -- implicit-GEMM conv kernels -------------------------------------------
//
// Same contract as the scalar conv kernels: each output keeps its chain over
// the patch rows (dense) or stored entries (CSR) in ascending order, one
// fused vfmadd per term, zero weights skipped, then one add of the bias.
// Lanes run across output positions only. The positions are covered by
// 8-lane slots of three kinds, so no load or store touches memory outside
// the plane rows and output rows the outputs cover:
//   kFull  8 consecutive columns of one output row;
//   kPair  the 4 columns of two consecutive rows of a 4-wide output (one
//          128-bit load per row, 8 consecutive outputs);
//   kMask  the first `len` < 8 columns left in a row, through a lane mask.
// A tile is up to NV slots of one kind; the dense kernel also blocks four
// output channels, so every plane vector it loads feeds four chains.

enum class Slot { kFull, kPair, kMask };

struct Pos {
  int64_t src;  // plane offset relative to a patch row's output (0, 0)
  int64_t dst;  // output offset within one channel
};

template <Slot S>
inline __m256 load_slot(const float* p, int64_t ld, __m256i mask) {
  if constexpr (S == Slot::kFull) {
    return _mm256_loadu_ps(p);
  } else if constexpr (S == Slot::kPair) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(p)), _mm_loadu_ps(p + ld), 1);
  } else {
    return _mm256_maskload_ps(p, mask);
  }
}

template <Slot S>
inline void store_slot(float* p, __m256 v, __m256i mask) {
  if constexpr (S == Slot::kMask) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// Calls tile(kind, pos, count, mask) over groups of at most NV slots of one
// kind that together cover every output position exactly once.
template <int NV, typename F>
void for_tiles(const ConvArgs& a, F&& tile) {
  Pos buf[NV];
  int count = 0;
  auto flush = [&](Slot kind, __m256i mask) {
    if (count > 0) tile(kind, static_cast<const Pos*>(buf), count, mask);
    count = 0;
  };
  auto push = [&](Slot kind, __m256i mask, Pos p) {
    buf[count++] = p;
    if (count == NV) flush(kind, mask);
  };
  const __m256i all = _mm256_set1_epi32(-1);
  // Where the plane rows are as long as the output rows (k = 1) both are
  // contiguous across rows, and the whole output is covered as one row.
  const bool flat = a.ld == a.ow;
  const int64_t oh = flat ? 1 : a.oh, ow = flat ? a.oh * a.ow : a.ow;
  int64_t y0 = 0;  // first row left for the kFull / kMask slots
  if (ow == 4) {
    for (; y0 + 2 <= oh; y0 += 2) push(Slot::kPair, all, Pos{y0 * a.ld, y0 * 4});
    flush(Slot::kPair, all);
  }
  const int64_t full = ow / 8 * 8;
  for (int64_t y = y0; y < oh; ++y) {
    for (int64_t x = 0; x < full; x += 8) push(Slot::kFull, all, Pos{y * a.ld + x, y * ow + x});
  }
  flush(Slot::kFull, all);
  if (full < ow) {
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(ow - full)),
                                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (int64_t y = y0; y < oh; ++y) push(Slot::kMask, mask, Pos{y * a.ld + full, y * ow + full});
    flush(Slot::kMask, mask);
  }
}

// Output channel o's plane and its bias, read once per tile: the stores
// below would otherwise reload them from `a` for every slot.
struct Out {
  float* y;
  bool has_bias;
  __m256 bias;

  Out(const ConvArgs& a, int64_t o)
      : y(a.y + o * a.oh * a.ow),
        has_bias(a.bias != nullptr),
        bias(has_bias ? _mm256_set1_ps(a.bias[o]) : _mm256_setzero_ps()) {}

  // Stores one accumulator at output offset dst, adding the bias first when
  // there is one. Takes the vector by value: an accumulator whose address is
  // taken would be kept in memory instead of a register.
  template <Slot S>
  void store(int64_t dst, __m256 v, __m256i mask) const {
    store_slot<S>(y + dst, has_bias ? _mm256_add_ps(v, bias) : v, mask);
  }
};

// Calls f(std::integral_constant<int, i>{}) for i = 0 … N-1. The tile loops
// over channels and slots go through this, so every accumulator index is a
// constant before optimization starts and the accumulators stay in
// registers (runtime-indexed arrays of vectors are kept in memory).
template <int N, typename F>
__attribute__((always_inline)) inline void unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) __attribute__((always_inline)) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

// Dense tile: OB output channels from o × NV slots. nz holds one byte of
// nonzero bits per (four-channel block, patch row), see conv_zero_masks: a
// row whose OB weights are all nonzero runs its fmas with no test per
// channel, an all-zero row is skipped without loading the plane, and a
// mixed row tests each channel's bit.
template <int OB, int NV, Slot S>
void dense_tile(const ConvArgs& a, const float* w, const uint8_t* nz, int64_t o, const Pos* pos,
                __m256i mask) {
  constexpr unsigned kAll = (1u << OB) - 1;
  const float* plane = a.plane;
  const int32_t* off = a.off;
  const int64_t patch = a.patch, ld = a.ld;
  int64_t src[NV];
  unroll<NV>([&](auto j) __attribute__((always_inline)) { src[j] = pos[j].src; });
  const float* wo = w + o * patch;
  const uint8_t* nzo = nz + (o / 4) * patch;
  const unsigned shift = static_cast<unsigned>(o % 4);
  __m256 acc[OB][NV];
  unroll<OB>([&](auto c) __attribute__((always_inline)) {
    unroll<NV>([&](auto j) __attribute__((always_inline)) { acc[c][j] = _mm256_setzero_ps(); });
  });
  for (int64_t r = 0; r < patch; ++r) {
    const unsigned m = (static_cast<unsigned>(nzo[r]) >> shift) & kAll;
    if (m == 0) continue;
    const float* base = plane + off[r];
    __m256 xv[NV];
    unroll<NV>([&](auto j) __attribute__((always_inline)) {
      xv[j] = load_slot<S>(base + src[j], ld, mask);
    });
    unroll<OB>([&](auto c) __attribute__((always_inline)) {
      if (m != kAll && (m & (1u << c)) == 0) return;
      const __m256 vw = _mm256_broadcast_ss(wo + c * patch + r);
      unroll<NV>([&](auto j) __attribute__((always_inline)) {
        acc[c][j] = _mm256_fmadd_ps(vw, xv[j], acc[c][j]);
      });
    });
  }
  unroll<OB>([&](auto c) __attribute__((always_inline)) {
    const Out out(a, o + c);
    unroll<NV>([&](auto j) __attribute__((always_inline)) {
      out.store<S>(pos[j].dst, acc[c][j], mask);
    });
  });
}

// CSR tile: one output channel × NV slots.
template <int NV, Slot S>
void csr_tile(const ConvArgs& a, const int32_t* row_ptr, const int32_t* col_idx,
              const float* values, int64_t o, const Pos* pos, __m256i mask) {
  const float* plane = a.plane;
  const int32_t* off = a.off;
  const int64_t ld = a.ld;
  int64_t src[NV];
  unroll<NV>([&](auto j) __attribute__((always_inline)) { src[j] = pos[j].src; });
  __m256 acc[NV];
  unroll<NV>([&](auto j) __attribute__((always_inline)) { acc[j] = _mm256_setzero_ps(); });
  const int32_t t1 = row_ptr[o + 1];
  for (int32_t t = row_ptr[o]; t < t1; ++t) {
    if (values[t] == 0.0f) [[unlikely]] {
      continue;
    }
    const __m256 vw = _mm256_broadcast_ss(values + t);
    const float* base = plane + off[col_idx[t]];
    unroll<NV>([&](auto j) __attribute__((always_inline)) {
      acc[j] = _mm256_fmadd_ps(vw, load_slot<S>(base + src[j], ld, mask), acc[j]);
    });
  }
  const Out out(a, o);
  unroll<NV>([&](auto j) __attribute__((always_inline)) { out.store<S>(pos[j].dst, acc[j], mask); });
}

// Instantiates body.template run<N, S>() for a runtime slot count and kind.
template <int N, typename B>
void by_kind(Slot kind, const B& body) {
  switch (kind) {
    case Slot::kFull:
      body.template run<N, Slot::kFull>();
      break;
    case Slot::kPair:
      body.template run<N, Slot::kPair>();
      break;
    case Slot::kMask:
      body.template run<N, Slot::kMask>();
      break;
  }
}

template <int N, typename B>
void by_count(int count, Slot kind, const B& body) {
  if constexpr (N > 1) {
    if (count < N) {
      by_count<N - 1>(count, kind, body);
      return;
    }
  }
  by_kind<N>(kind, body);
}

constexpr int kDenseSlots = 3;  // 4 channels × 3 slots: 12 accumulators
constexpr int kCsrSlots = 8;    // 1 channel × 8 slots: 8 accumulators

// Runs one tile over output channels [o0, o1): blocks of four, then one at a
// time. by_count instantiates run<N, S> for the tile's slot count and kind.
struct DenseTiles {
  const ConvArgs& a;
  const float* w;
  const uint8_t* nz;
  int64_t o0, o1;
  const Pos* pos;
  __m256i mask;
  template <int N, Slot S>
  void run() const {
    // Single channels up to a four-channel boundary, so every block lines
    // up with one byte of nz; then blocks; then the tail.
    int64_t o = o0;
    for (; o < o1 && o % 4 != 0; ++o) dense_tile<1, N, S>(a, w, nz, o, pos, mask);
    for (; o + 4 <= o1; o += 4) dense_tile<4, N, S>(a, w, nz, o, pos, mask);
    for (; o < o1; ++o) dense_tile<1, N, S>(a, w, nz, o, pos, mask);
  }
};

struct CsrTiles {
  const ConvArgs& a;
  const int32_t* row_ptr;
  const int32_t* col_idx;
  const float* values;
  int64_t o0, o1;
  const Pos* pos;
  __m256i mask;
  template <int N, Slot S>
  void run() const {
    for (int64_t o = o0; o < o1; ++o) csr_tile<N, S>(a, row_ptr, col_idx, values, o, pos, mask);
  }
};

void a_conv_dense(const ConvArgs& a, const float* w, const uint8_t* nz, int64_t o0,
                  int64_t o1) {
  for_tiles<kDenseSlots>(a, [&](Slot kind, const Pos* pos, int count, __m256i mask) {
    by_count<kDenseSlots>(count, kind, DenseTiles{a, w, nz, o0, o1, pos, mask});
  });
}

void a_conv_csr(const ConvArgs& a, const int32_t* row_ptr, const int32_t* col_idx,
                const float* values, int64_t o0, int64_t o1) {
  for_tiles<kCsrSlots>(a, [&](Slot kind, const Pos* pos, int count, __m256i mask) {
    by_count<kCsrSlots>(count, kind, CsrTiles{a, row_ptr, col_idx, values, o0, o1, pos, mask});
  });
}

// -- elementwise / reduction kernels ----------------------------------------

// max_ps(0, v) matches std::max(v, 0.0f) exactly: MAXPS returns the second
// operand on equal (+0 vs -0 keeps v's -0) and on unordered (NaN passes
// through), which is precisely the (a < b ? b : a) scalar behavior.
void a_relu(float* x, int64_t n) {
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(vz, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

// Zero d where x <= 0 (ordered compare: NaN x leaves d untouched, like the
// scalar `if (x <= 0)`).
void a_relu_grad(const float* x, float* d, int64_t n) {
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead = _mm256_cmp_ps(_mm256_loadu_ps(x + i), vz, _CMP_LE_OQ);
    _mm256_storeu_ps(d + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(d + i)));
  }
  for (; i < n; ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
}

void a_add(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void a_mul(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void a_add_scalar(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] += v;
}

void a_scale(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] *= v;
}

void a_div_scalar(float* dst, float v, int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_div_ps(_mm256_loadu_ps(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] /= v;
}

// min_ps(hi, max_ps(lo, v)) matches std::clamp(v, lo, hi) exactly, including
// NaN passthrough (both MAXPS and MINPS return the second operand when
// unordered, and v sits in the second slot of both).
void a_clamp(float* x, float lo, float hi, int64_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_min_ps(vhi, _mm256_max_ps(vlo, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

float hmax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

// max over finite floats is order-independent, so the lane-parallel reduction
// is bit-identical to the scalar sequential one for any non-NaN input.
float a_reduce_max(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
    return m;
  }
  __m256 vm = _mm256_loadu_ps(x);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  float m = hmax(vm);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float a_reduce_abs_max(const float* x, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vm = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)));
  }
  float m = hmax(vm);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

// Same fused-op chain as the scalar s_sgd_step: vfnmadd computes p - lr*t
// with a single rounding, bit-identical to std::fma(-lr, t, p).
void a_sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                bool nesterov, int64_t n) {
  const __m256 vwd = _mm256_set1_ps(wd);
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vlr = _mm256_set1_ps(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 pv = _mm256_loadu_ps(p + i);
    const __m256 g = _mm256_fmadd_ps(vwd, pv, _mm256_loadu_ps(grad + i));
    const __m256 v = _mm256_fmadd_ps(vmu, _mm256_loadu_ps(vel + i), g);
    _mm256_storeu_ps(vel + i, v);
    const __m256 t = nesterov ? _mm256_fmadd_ps(vmu, v, g) : v;
    _mm256_storeu_ps(p + i, _mm256_fnmadd_ps(vlr, t, pv));
  }
  for (; i < n; ++i) {
    const float g = std::fma(wd, p[i], grad[i]);
    const float v = std::fma(mu, vel[i], g);
    vel[i] = v;
    const float t = nesterov ? std::fma(mu, v, g) : v;
    p[i] = std::fma(-lr, t, p[i]);
  }
}

constexpr Kernels kAvx2Kernels{
    a_gemm_panel, a_conv_dense, a_conv_csr,
    a_relu,       a_relu_grad,  a_add,      a_mul,
    a_add_scalar, a_scale, a_div_scalar, a_clamp,
    a_reduce_max, a_reduce_abs_max,      a_sgd_step,
};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace rp::simd

#else  // !RP_SIMD_AVX2

namespace rp::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace rp::simd

#endif
