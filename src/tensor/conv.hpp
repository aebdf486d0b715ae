#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace rp {

/// Dense row-major transpose: dst[cols, rows] = src[rows, cols]ᵀ. Walks
/// square tiles so both the reads and the writes stay within a few cache
/// lines; values are copied, never combined, so any tiling is exact.
void transpose(const float* src, int64_t rows, int64_t cols, float* dst);

/// Geometry of a 2-D convolution; shared by the conv plan, conv layers, and
/// the FLOP model so they can never disagree.
struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t k = 3;       ///< square kernel size
  int64_t stride = 1;
  int64_t pad = 1;

  int64_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  /// Rows of the patch matrix = in_c * k * k, ordered (c, ki, kj).
  int64_t patch() const { return in_c * k * k; }
  /// Extents of one channel of the zero-padded input.
  int64_t padded_h() const { return in_h + 2 * pad; }
  int64_t padded_w() const { return in_w + 2 * pad; }
};

/// Implicit-GEMM plan of one conv geometry, built once per layer: the
/// forward and the weight gradient read every patch element straight from a
/// copy of the sample's zero-padded plane, and the input gradient gathers
/// from the output gradient through per-phase taps, with no patch matrix.
///
/// The copy is split by stride phase: phase (a, b) holds padded rows a, a+s,
/// … and padded columns b, b+s, … of every channel, as a [in_c, ph_h, ph_w]
/// block. Patch row (c, ki, kj) then reads output (y, x) at
/// `off[row] + y * ld() + x` of the phase (ki mod s, kj mod s), so each of
/// its output rows is one contiguous run at any stride. Only the phases some
/// patch row reads are built: a 1×1 stride-2 shortcut reads phase (0, 0)
/// only. At stride 1 the single phase is the padded plane itself, and with
/// pad 0 as well the image is read in place.
///
/// Construction throws std::invalid_argument, prefixed with `who`, for a
/// geometry with no valid output: k, stride, channels or extents < 1,
/// pad < 0, or a kernel larger than the padded plane.
struct ConvPlan {
  ConvPlan(const ConvGeom& geom, const std::string& who);

  ConvGeom g;
  int64_t oh = 0, ow = 0;      ///< g.out_h(), g.out_w(), computed once
  int64_t ph_h = 0, ph_w = 0;  ///< extent of one channel of one phase
  int64_t phases = 0;          ///< phases built (0 when read in place)
  std::vector<int32_t> off;    ///< [patch] offset of output (0, 0) of each patch row
  /// Input-gradient taps (simd::ConvTap) of each input phase (a, b), at
  /// [tap_ptr[a·s + b], tap_ptr[a·s + b + 1]): the kernel taps ki·k + kj
  /// with ki ≡ a + pad and kj ≡ b + pad (mod s), ascending.
  std::vector<simd::ConvTap> taps;
  std::vector<int32_t> tap_ptr;  ///< [s·s + 1]

  /// Plane stride between consecutive output rows.
  int64_t ld() const { return ph_w; }
  /// Floats of phase-plane scratch one sample needs (0 when read in place).
  int64_t plane_size() const { return phases * g.in_c * ph_h * ph_w; }
  /// The sample's phase planes: `image` itself when read in place, else
  /// `planes` (plane_size() floats) with the image's pixels copied in. Cells
  /// that map to padding are never written, so scratch that starts zeroed
  /// stays valid for every image copied into it.
  const float* fill(const float* image, float* planes) const;
  /// Kernel arguments for one sample: `planes` from fill(), `bias` [out_c]
  /// or nullptr, output `y` [out_c, out_h*out_w].
  simd::ConvArgs args(const float* planes, const float* bias, float* y) const;
  /// Weight-gradient arguments for one sample: `planes` from fill(), the
  /// output gradient dyt [out_h·out_w, out_c], and dwt [patch, out_c].
  simd::ConvDwArgs dw_args(const float* planes, const float* dyt, int64_t out_c,
                           float* dwt) const;
  /// Input-gradient arguments for one sample: `wx` from conv_dx_weight, the
  /// output gradient dy [out_c, out_h, out_w], and dx [in_c, in_h, in_w].
  simd::ConvDxArgs dx_args(const float* wx, int64_t out_c, const float* dy, float* dx) const;
};

/// A batch x [n, cols] as the input of a 1×1 conv whose n pixels are the
/// samples: the plane xᵀ [cols, n], patch row r at offset r·n, one output row
/// of n positions. Linear runs its forward on the conv kernels through it.
/// xᵀ and the offsets are scratch, built once per call. Throws
/// std::invalid_argument when cols·n overflows the kernels' 32-bit plane
/// offsets.
struct BatchPlane {
  explicit BatchPlane(const Tensor& x);

  int64_t n = 0, cols = 0;
  Tensor xt;  ///< [cols, n]
  std::vector<int32_t, mem::ScratchAllocator<int32_t>> off;

  /// Forward arguments writing yᵀ [out_c, n], with no bias.
  simd::ConvArgs args(float* yt) const;
};

/// Input-gradient arguments of a Linear as a 1×1, stride-1, one-phase conv
/// over n pixels: the one tap {0, 0, 0}, wx = w [out_c, in_c] itself, the
/// output gradient dyt = dyᵀ [out_c, 1, n], and dxt = dxᵀ [in_c, 1, n].
simd::ConvDxArgs batch_dx_args(const float* w, int64_t out_c, int64_t in_c, int64_t n,
                               const float* dyt, float* dxt);

/// The input-gradient kernel's weight operand wx [k·k, out_c, in_c] (as
/// many floats as w), from a dense conv weight w [out_c, patch]: wx[(t·out_c + o)·in_c + c] =
/// w[o, c·k·k + t]. The weights of one tap and output channel sit side by
/// side across input channels.
void conv_dx_weight(const Tensor& w, const ConvGeom& g, float* wx);

/// Weight gradient, transposed: dwt[r, o] = Σ_pos dyt[pos, o] · patch(r, pos)
/// for the arguments of ConvPlan::dw_args, or of a Linear's batch read in
/// place as n output rows of one position (Linear::backward). Each
/// element is the fma chain over positions ascending from +0, terms whose dy
/// is 0 skipped. Runs on the calling lane. Counts one gemm.calls.
void conv_grad_weight(const simd::ConvDwArgs& a);

/// Input gradient for the arguments of ConvPlan::dx_args or batch_dx_args.
/// Each pixel is +0 plus, for its taps in ascending order, the chain over
/// output channels ascending from +0 of fma(w, dy, ·) with zero weights
/// skipped, gathered in registers and stored once: the sum col2im forms
/// when it folds dcols = Wᵀ @ dy into a zeroed image. Runs on the calling
/// lane. Counts one gemm.calls.
void conv_grad_input(const simd::ConvDxArgs& a);

}  // namespace rp
