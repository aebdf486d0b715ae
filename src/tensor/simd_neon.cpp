// NEON (AArch64) kernel table — the ARM analog of simd_avx2.cpp. NEON is
// baseline on AArch64 so no extra compile flags are needed; the file is an
// empty stub elsewhere.
//
// Bit-exactness follows the same argument as the AVX2 TU: lanes across the
// element index only, fused vfma per multiply-add (same single rounding as
// std::fma), and select-based formulations for relu/clamp so NaN and -0.0f
// behave exactly like the scalar std::max / std::clamp (NEON's vmaxq maps
// (+0, -0) and NaN differently, so it is not used where that matters).
#include "tensor/simd.hpp"

#if defined(RP_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace rp::simd {

namespace {

// std::max(v, 0.0f) is (v < 0) ? 0 : v — expressed as a select so NaN and
// -0.0f pass through exactly like the scalar version.
void n_relu(float* x, int64_t n) {
  const float32x4_t vz = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    vst1q_f32(x + i, vbslq_f32(vcltq_f32(v, vz), vz, v));
  }
  for (; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

void n_relu_grad(const float* x, float* d, int64_t n) {
  const float32x4_t vz = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t dead = vcleq_f32(vld1q_f32(x + i), vz);
    vst1q_f32(d + i, vbslq_f32(dead, vz, vld1q_f32(d + i)));
  }
  for (; i < n; ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
}

void n_add(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void n_mul(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void n_add_scalar(float* dst, float v, int64_t n) {
  const float32x4_t vv = vdupq_n_f32(v);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vv));
  for (; i < n; ++i) dst[i] += v;
}

void n_scale(float* dst, float v, int64_t n) {
  const float32x4_t vv = vdupq_n_f32(v);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), vv));
  for (; i < n; ++i) dst[i] *= v;
}

void n_div_scalar(float* dst, float v, int64_t n) {
  const float32x4_t vv = vdupq_n_f32(v);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(dst + i, vdivq_f32(vld1q_f32(dst + i), vv));
  for (; i < n; ++i) dst[i] /= v;
}

// std::clamp(v, lo, hi) = (v < lo) ? lo : ((hi < v) ? hi : v) as two selects;
// NaN fails both compares and passes through, matching the scalar exactly.
void n_clamp(float* x, float lo, float hi, int64_t n) {
  const float32x4_t vlo = vdupq_n_f32(lo);
  const float32x4_t vhi = vdupq_n_f32(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const float32x4_t t = vbslq_f32(vcltq_f32(v, vlo), vlo, v);
    vst1q_f32(x + i, vbslq_f32(vcgtq_f32(t, vhi), vhi, t));
  }
  for (; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

float n_reduce_max(const float* x, int64_t n) {
  if (n < 4) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
    return m;
  }
  float32x4_t vm = vld1q_f32(x);
  int64_t i = 4;
  for (; i + 4 <= n; i += 4) vm = vmaxq_f32(vm, vld1q_f32(x + i));
  float m = vmaxvq_f32(vm);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float n_reduce_abs_max(const float* x, int64_t n) {
  float32x4_t vm = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vm = vmaxq_f32(vm, vabsq_f32(vld1q_f32(x + i)));
  float m = vmaxvq_f32(vm);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

// vfmsq computes p - lr*t with one rounding — bit-identical to the scalar
// std::fma(-lr, t, p).
void n_sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
                bool nesterov, int64_t n) {
  const float32x4_t vwd = vdupq_n_f32(wd);
  const float32x4_t vmu = vdupq_n_f32(mu);
  const float32x4_t vlr = vdupq_n_f32(lr);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t pv = vld1q_f32(p + i);
    const float32x4_t g = vfmaq_f32(vld1q_f32(grad + i), vwd, pv);
    const float32x4_t v = vfmaq_f32(g, vmu, vld1q_f32(vel + i));
    vst1q_f32(vel + i, v);
    const float32x4_t t = nesterov ? vfmaq_f32(g, vmu, v) : v;
    vst1q_f32(p + i, vfmsq_f32(pv, vlr, t));
  }
  for (; i < n; ++i) {
    const float g = std::fma(wd, p[i], grad[i]);
    const float v = std::fma(mu, vel[i], g);
    vel[i] = v;
    const float t = nesterov ? std::fma(mu, v, g) : v;
    p[i] = std::fma(-lr, t, p[i]);
  }
}

constexpr Kernels kNeonKernels{
    scalar_conv_dense, scalar_conv_csr, scalar_conv_dw, scalar_conv_dx,
    n_relu,       n_relu_grad,  n_add,      n_mul,
    n_add_scalar, n_scale, n_div_scalar, n_clamp,
    n_reduce_max, n_reduce_abs_max,      n_sgd_step,
};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace rp::simd

#else  // !RP_SIMD_NEON

namespace rp::simd {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace rp::simd

#endif
