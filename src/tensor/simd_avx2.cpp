// AVX2/FMA conv kernel table. This translation unit carries -mavx2 -mfma of
// its own (see src/tensor/CMakeLists.txt); everything here is guarded so the
// file is an empty stub on toolchains without AVX2 support. Dispatch
// guarantees these kernels only run on CPUs reporting avx2+fma.
//
// Bit-exactness (DESIGN.md §6): lanes run across the element index (output
// positions, channels or pixels) only, and every multiply-add is a fused
// vfmadd — the same single-rounded op as the scalar kernels' std::fma.
// Outputs are therefore bit-identical to RP_SIMD=off.
#include "tensor/simd.hpp"

#if defined(RP_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>
#include <utility>

namespace rp::simd {

namespace {

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
// nonzero bits per (four-channel block, patch row), see SparseWeight::masks: a
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

// -- conv backward kernels --------------------------------------------------
//
// Same contract as the scalar conv_dw / conv_dx: every gradient element
// keeps its scalar chain, one fused vfmadd per term.
//
// conv_dw runs its lanes across output channels, over the position-major
// dyᵀ, and stores dWᵀ rows. A tile is CV 8-channel vectors × R patch rows,
// each plane value broadcast once per position and fed to CV chains. A
// lane whose dy is 0 keeps its accumulator through a blend, so the skip is
// exact; positions where no lane of the tile is 0 take the plain fmas.

// Lanes [0, n) of a vector, as a mask.
inline __m256i lane_mask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Channel vector v of a tile: masked to the channels that exist when it is
// the last one of a Tail tile.
template <int CV, bool Tail, int V>
inline __m256 load_channels(const float* p, __m256i tail) {
  if constexpr (Tail && V == CV - 1) {
    return _mm256_maskload_ps(p, tail);
  } else {
    return _mm256_loadu_ps(p);
  }
}

// Sets dz[v] to the lanes of dv[v] equal to 0 and returns whether any
// channel of the tile has one.
template <int CV, bool Tail>
inline bool any_zero(const __m256 (&dv)[CV], __m256 (&dz)[CV], __m256i tail) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 any = zero;
  unroll<CV>([&](auto v) __attribute__((always_inline)) {
    dz[v] = _mm256_cmp_ps(dv[v], zero, _CMP_EQ_OQ);
    if constexpr (Tail && v == CV - 1) {
      any = _mm256_or_ps(any, _mm256_and_ps(dz[v], _mm256_castsi256_ps(tail)));
    } else {
      any = _mm256_or_ps(any, dz[v]);
    }
  });
  return _mm256_movemask_ps(any) != 0;
}

// One tile: CV channel vectors from o × R patch rows from r, over every
// position. Zeros: some dy of these channels is 0, so test each position.
template <int CV, int R, bool Tail, bool Zeros>
void dw_tile(const ConvDwArgs& a, int64_t r, int64_t o, __m256i tail) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t off[R];
  unroll<R>([&](auto i) __attribute__((always_inline)) { off[i] = a.off[r + i]; });
  __m256 acc[R][CV];
  unroll<R>([&](auto i) __attribute__((always_inline)) {
    unroll<CV>([&](auto v) __attribute__((always_inline)) { acc[i][v] = zero; });
  });
  const float* d = a.dyt + o;
  for (int64_t y = 0; y < a.oh; ++y) {
    const float* row = a.plane + y * a.ld;
    for (int64_t x = 0; x < a.ow; ++x, d += a.out_c) {
      __m256 dv[CV], dz[CV];
      unroll<CV>([&](auto v) __attribute__((always_inline)) {
        dv[v] = load_channels<CV, Tail, v>(d + 8 * v, tail);
      });
      const float* at = row + x;
      if (!Zeros || !any_zero<CV, Tail>(dv, dz, tail)) {
        unroll<R>([&](auto i) __attribute__((always_inline)) {
          const __m256 xv = _mm256_broadcast_ss(at + off[i]);
          unroll<CV>([&](auto v) __attribute__((always_inline)) {
            acc[i][v] = _mm256_fmadd_ps(dv[v], xv, acc[i][v]);
          });
        });
      } else {
        unroll<R>([&](auto i) __attribute__((always_inline)) {
          const __m256 xv = _mm256_broadcast_ss(at + off[i]);
          unroll<CV>([&](auto v) __attribute__((always_inline)) {
            acc[i][v] = _mm256_blendv_ps(_mm256_fmadd_ps(dv[v], xv, acc[i][v]), acc[i][v], dz[v]);
          });
        });
      }
    }
  }
  unroll<R>([&](auto i) __attribute__((always_inline)) {
    float* dst = a.dwt + (r + i) * a.out_c + o;
    unroll<CV>([&](auto v) __attribute__((always_inline)) {
      if constexpr (Tail && v == CV - 1) {
        _mm256_maskstore_ps(dst + 8 * v, tail, acc[i][v]);
      } else {
        _mm256_storeu_ps(dst + 8 * v, acc[i][v]);
      }
    });
  });
}

// The last `left` (< N + 1) patch rows from r as one tile.
template <int CV, bool Tail, bool Zeros, int N>
void dw_rest(const ConvDwArgs& a, int64_t r, int64_t left, int64_t o, __m256i tail) {
  if constexpr (N > 0) {
    if (left == N) {
      dw_tile<CV, N, Tail, Zeros>(a, r, o, tail);
      return;
    }
    dw_rest<CV, Tail, Zeros, N - 1>(a, r, left, o, tail);
  }
}

// Every patch row for the channels from o: tiles of R rows, then the rest.
// Tiles test each position's dy for zeros only when the channels hold any.
template <int CV, bool Tail, int R>
void dw_rows(const ConvDwArgs& a, int64_t o, __m256i tail) {
  bool zeros = false;
  const float* d = a.dyt + o;
  for (int64_t p = 0; p < a.oh * a.ow && !zeros; ++p, d += a.out_c) {
    __m256 dv[CV], dz[CV];
    unroll<CV>([&](auto v) __attribute__((always_inline)) {
      dv[v] = load_channels<CV, Tail, v>(d + 8 * v, tail);
    });
    zeros = any_zero<CV, Tail>(dv, dz, tail);
  }
  int64_t r = 0;
  if (zeros) {
    for (; r + R <= a.patch; r += R) dw_tile<CV, R, Tail, true>(a, r, o, tail);
    dw_rest<CV, Tail, true, R - 1>(a, r, a.patch - r, o, tail);
  } else {
    for (; r + R <= a.patch; r += R) dw_tile<CV, R, Tail, false>(a, r, o, tail);
    dw_rest<CV, Tail, false, R - 1>(a, r, a.patch - r, o, tail);
  }
}

// 16-channel tiles take 5 rows (10 accumulators), 8-channel tiles 8.
void a_conv_dw(const ConvDwArgs& a) {
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t o = 0;
  for (; o + 16 <= a.out_c; o += 16) dw_rows<2, false, 5>(a, o, all);
  const int64_t left = a.out_c - o;
  if (left > 8) {
    dw_rows<2, true, 5>(a, o, lane_mask(left - 8));
  } else if (left == 8) {
    dw_rows<1, false, 8>(a, o, all);
  } else if (left > 0) {
    dw_rows<1, true, 8>(a, o, lane_mask(left));
  }
}

// conv_dx gathers: lanes run across the input pixels of one stride phase,
// and each pixel's sum stays in a register across its taps, stored once.
// A tile is CB input channels × NV slots of 8 pixels; one dy vector per
// slot feeds CB chains, whose weights sit side by side in wx. A slot is 8
// consecutive pixels of the phase grid flattened, when its rows are as long
// as dy's (then a tap shifts all lanes' dy reads by one offset), else up to
// 8 pixels of one grid row. Per tap, lanes whose output falls outside dy
// are masked: their dy reads are masked loads unless the whole slot reads
// inside the channel plane, and their sums keep the old value by a blend.

struct DxSlot {
  int64_t src;     // dy offset of lane 0's output before the tap shift
  __m256i m, q;    // grid row and column of each lane
  __m256i live;    // lanes that hold a pixel
  int lanes;       // number of live lanes, from lane 0
  alignas(32) int32_t pix[8];  // image offset of each live lane's pixel
};

constexpr int kDxSlots = 3;  // 4 channels × 3 slots: 12 chains

template <int CB, int NV>
void dx_tile(const ConvDxArgs& a, const ConvTap* t0, const ConvTap* t1, const DxSlot* sl,
             int64_t c) {
  constexpr unsigned kAll = (1u << CB) - 1;
  const int64_t oplane = a.oh * a.ow, cin = a.in_c, plane = a.in_h * a.in_w;
  const __m256i neg1 = _mm256_set1_epi32(-1);
  const __m256i vh = _mm256_set1_epi32(static_cast<int>(a.oh));
  const __m256i vw = _mm256_set1_epi32(static_cast<int>(a.ow));
  int64_t src[NV];
  unroll<NV>([&](auto j) __attribute__((always_inline)) { src[j] = sl[j].src; });
  __m256 acc[CB][NV];
  unroll<CB>([&](auto b) __attribute__((always_inline)) {
    unroll<NV>([&](auto j) __attribute__((always_inline)) { acc[b][j] = _mm256_setzero_ps(); });
  });
  for (const ConvTap* tap = t0; tap < t1; ++tap) {
    const __m256i ty = _mm256_set1_epi32(tap->dy), tx = _mm256_set1_epi32(tap->dx);
    const int64_t shift = tap->dy * a.ow + tap->dx;
    __m256i valid[NV];
    int any = 0, all = 1;
    bool inplane = true;
    unroll<NV>([&](auto j) __attribute__((always_inline)) {
      const __m256i y = _mm256_add_epi32(sl[j].m, ty), x = _mm256_add_epi32(sl[j].q, tx);
      const __m256i in_y = _mm256_and_si256(_mm256_cmpgt_epi32(y, neg1), _mm256_cmpgt_epi32(vh, y));
      const __m256i in_x = _mm256_and_si256(_mm256_cmpgt_epi32(x, neg1), _mm256_cmpgt_epi32(vw, x));
      valid[j] = _mm256_and_si256(sl[j].live, _mm256_and_si256(in_y, in_x));
      const int bits = _mm256_movemask_ps(_mm256_castsi256_ps(valid[j]));
      any |= bits;
      all &= static_cast<int>(bits == 0xFF);
      const int64_t lo = src[j] + shift;
      inplane = inplane && lo >= 0 && lo + 8 <= oplane;
    });
    if (any == 0) continue;
    __m256 t[CB][NV];
    unroll<CB>([&](auto b) __attribute__((always_inline)) {
      unroll<NV>([&](auto j) __attribute__((always_inline)) { t[b][j] = _mm256_setzero_ps(); });
    });
    // One tap's chains over the output channels: o ascending, zero weights
    // skipped (a block with none left skips the dy loads too).
    auto chain = [&](auto masked) __attribute__((always_inline)) {
      const float* w = a.wx + tap->t * a.out_c * cin + c;
      const float* d = a.dy + shift;
      for (int64_t o = 0; o < a.out_c; ++o, w += cin, d += oplane) {
        unsigned mb;
        if constexpr (CB == 4) {
          mb = static_cast<unsigned>(
              _mm_movemask_ps(_mm_cmpneq_ps(_mm_loadu_ps(w), _mm_setzero_ps())));
        } else {
          mb = 0;
          unroll<CB>([&](auto b) __attribute__((always_inline)) {
            mb |= static_cast<unsigned>(w[b] != 0.0f) << b;
          });
        }
        if (mb == 0) continue;
        __m256 dv[NV];
        unroll<NV>([&](auto j) __attribute__((always_inline)) {
          if constexpr (decltype(masked)::value) {
            dv[j] = _mm256_maskload_ps(d + src[j], valid[j]);
          } else {
            dv[j] = _mm256_loadu_ps(d + src[j]);
          }
        });
        unroll<CB>([&](auto b) __attribute__((always_inline)) {
          if (mb != kAll && (mb & (1u << b)) == 0) return;
          const __m256 wv = _mm256_broadcast_ss(w + b);
          unroll<NV>([&](auto j) __attribute__((always_inline)) {
            t[b][j] = _mm256_fmadd_ps(wv, dv[j], t[b][j]);
          });
        });
      }
    };
    if (inplane) {
      chain(std::false_type{});
    } else {
      chain(std::true_type{});
    }
    unroll<CB>([&](auto b) __attribute__((always_inline)) {
      unroll<NV>([&](auto j) __attribute__((always_inline)) {
        const __m256 sum = _mm256_add_ps(acc[b][j], t[b][j]);
        acc[b][j] = all ? sum : _mm256_blendv_ps(acc[b][j], sum, _mm256_castsi256_ps(valid[j]));
      });
    });
  }
  unroll<CB>([&](auto b) __attribute__((always_inline)) {
    float* dx = a.dx + (c + b) * plane;
    unroll<NV>([&](auto j) __attribute__((always_inline)) {
      const DxSlot& s = sl[j];
      if (a.stride == 1) {  // the lanes' pixels are consecutive
        if (s.lanes == 8) {
          _mm256_storeu_ps(dx + s.pix[0], acc[b][j]);
        } else {
          _mm256_maskstore_ps(dx + s.pix[0], s.live, acc[b][j]);
        }
      } else {
        alignas(32) float v[8];
        _mm256_store_ps(v, acc[b][j]);
        for (int l = 0; l < s.lanes; ++l) dx[s.pix[l]] = v[l];
      }
    });
  });
}

// Runs one tile over every input channel: blocks of four, then one block
// of the 1–3 left.
struct DxTiles {
  const ConvDxArgs& a;
  const ConvTap* t0;
  const ConvTap* t1;
  const DxSlot* sl;
  template <int NV>
  void run() const {
    int64_t c = 0;
    for (; c + 4 <= a.in_c; c += 4) dx_tile<4, NV>(a, t0, t1, sl, c);
    switch (a.in_c - c) {
      case 3:
        dx_tile<3, NV>(a, t0, t1, sl, c);
        break;
      case 2:
        dx_tile<2, NV>(a, t0, t1, sl, c);
        break;
      case 1:
        dx_tile<1, NV>(a, t0, t1, sl, c);
        break;
      default:
        break;
    }
  }
};

// Runs tiles.run<count>() for a runtime slot count in [1, N].
template <int N>
void dx_slots(const DxTiles& tiles, int count) {
  if constexpr (N > 1) {
    if (count < N) {
      dx_slots<N - 1>(tiles, count);
      return;
    }
  }
  tiles.run<N>();
}

void a_conv_dx(const ConvDxArgs& a) {
  const int64_t s = a.stride;
  // Phases no tap reaches (three of four for a 1×1 stride-2 shortcut) are
  // all +0: clear the image once instead of storing them pixel by pixel.
  bool cleared = false;
  for (int64_t ph = 0; ph < s * s && !cleared; ++ph) {
    if (a.tap_ptr[ph] == a.tap_ptr[ph + 1]) {
      std::fill(a.dx, a.dx + a.in_c * a.in_h * a.in_w, 0.0f);
      cleared = true;
    }
  }
  for (int64_t ph = 0; ph < s * s; ++ph) {
    const int64_t pa = ph / s, pb = ph % s;
    const int64_t mh = (a.in_h - pa + s - 1) / s, qw = (a.in_w - pb + s - 1) / s;
    if (mh <= 0 || qw <= 0 || a.tap_ptr[ph] == a.tap_ptr[ph + 1]) continue;
    DxSlot buf[kDxSlots];
    const DxTiles tiles{a, a.taps + a.tap_ptr[ph], a.taps + a.tap_ptr[ph + 1], buf};
    int count = 0;
    auto flush = [&] {
      if (count > 0) dx_slots<kDxSlots>(tiles, count);
      count = 0;
    };
    // The next `lanes` pixels of the grid from (m, q), row-major, as one
    // slot; (m, q) moves past them. Dead lanes repeat the last live pixel.
    int32_t m = 0, q = 0;
    auto push = [&](int64_t lanes) {
      DxSlot& sl = buf[count++];
      alignas(32) int32_t lm[8], lq[8];
      sl.src = m * a.ow + q;
      for (int l = 0; l < 8; ++l) {
        lm[l] = m;
        lq[l] = q;
        sl.pix[l] = static_cast<int32_t>((m * s + pa) * a.in_w + q * s + pb);
        if (l + 1 < lanes && ++q == qw) {
          q = 0;
          ++m;
        }
      }
      if (++q == qw) {
        q = 0;
        ++m;
      }
      const __m256i all = _mm256_set1_epi32(-1);
      sl.m = _mm256_maskload_epi32(lm, all);
      sl.q = _mm256_maskload_epi32(lq, all);
      sl.live = lane_mask(lanes);
      sl.lanes = static_cast<int>(lanes);
      if (count == kDxSlots) flush();
    };
    if (qw == a.ow) {
      for (int64_t f = 0; f < mh * qw; f += 8) push(std::min<int64_t>(8, mh * qw - f));
    } else {
      for (int64_t row = 0; row < mh; ++row) {
        for (int64_t col = 0; col < qw; col += 8) push(std::min<int64_t>(8, qw - col));
      }
    }
    flush();
  }
}

constexpr Kernels kAvx2Kernels{a_conv_dense, a_conv_csr, a_conv_dw, a_conv_dx};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace rp::simd

#else  // !RP_SIMD_AVX2

namespace rp::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace rp::simd

#endif
