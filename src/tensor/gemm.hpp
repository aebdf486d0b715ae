#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace rp {

/// C = op(A) @ op(B) for row-major float matrices, or C += op(A) @ op(B)
/// when `accumulate`.
///
/// `a` is [M, K] (or [K, M] when `trans_a`), `b` is [K, N] (or [N, K] when
/// `trans_b`), `c` is [M, N]. The kernel is cache-blocked (B packed into
/// L2-sized panels) and parallelized over row blocks via the shared thread
/// pool (see tensor/parallel.hpp); each output row is owned by exactly one
/// lane and keeps the serial accumulation order, so results are bit-identical
/// for any RP_THREADS value. Rows of op(A) that are entirely zero after
/// masking are skipped, so structured pruning shows real wall-clock savings.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false, bool trans_b = false,
          bool accumulate = false);

/// Convenience allocation form: returns op(A) @ op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false, bool trans_b = false);

/// Dense row-major transpose: dst[cols, rows] = src[rows, cols]ᵀ. Walks
/// square tiles so both the reads and the writes stay within a few cache
/// lines; values are copied, never combined, so any tiling is exact.
void transpose(const float* src, int64_t rows, int64_t cols, float* dst);

/// Geometry of a 2-D convolution; shared by the conv plan, the backward's
/// patch builders, conv layers, and the FLOP model so they can never
/// disagree.
struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t k = 3;       ///< square kernel size
  int64_t stride = 1;
  int64_t pad = 1;

  int64_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  /// Rows of the patch matrix = in_c * k * k, ordered (c, ki, kj).
  int64_t patch() const { return in_c * k * k; }
  /// Extents of one channel of the zero-padded plane the patch builders read.
  int64_t padded_h() const { return in_h + 2 * pad; }
  int64_t padded_w() const { return in_w + 2 * pad; }
  /// Floats in the whole padded plane, [in_c, padded_h, padded_w].
  int64_t padded_size() const { return in_c * padded_h() * padded_w(); }
};

/// Implicit-GEMM plan of one conv geometry, built once per layer: the
/// forward computes every output straight from a copy of the sample's
/// zero-padded plane, with no patch matrix.
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
};

/// Bytes of zero masks conv_zero_masks writes for an [out_c, patch] weight.
inline int64_t conv_mask_size(int64_t out_c, int64_t patch) { return (out_c + 3) / 4 * patch; }

/// Zero masks of a dense conv weight w [out_c, patch], for the dense conv
/// kernel: byte (o / 4) * patch + r has bit o % 4 set when w[o, r] != 0.0f.
/// They change whenever w does, so a training forward rebuilds them per call
/// (out_c * patch tests, against out_c * patch * out_h * out_w MACs).
void conv_zero_masks(const Tensor& w, uint8_t* nz);

/// Implicit-GEMM conv forward of one sample with a dense weight
/// [out_c, patch] and its zero masks: y[o, p] = Σ_row w[o, row] ·
/// patch(row, p) (+ bias[o] when `bias` is non-null) for `planes` from
/// ConvPlan::fill, written to y [out_c, out_h·out_w]. Per output element
/// this is the fma chain `gemm` runs on the explicit patch matrix — rows in
/// ascending order, zero weights skipped — so results are bit-identical to
/// it, for any RP_THREADS. Counts one gemm.calls.
void conv_forward(const Tensor& w, const uint8_t* nz, const ConvPlan& plan, const float* planes,
                  const float* bias, float* y);

// Conv data movement of the backward, raw-pointer form for the layer hot
// loops. The builders read a zero-padded plane, so no element needs a
// bounds test; for pad == 0 the padded plane *is* the image and can be read
// in place.

/// Copies one image [in_c, in_h, in_w] into the interior of a padded plane
/// [in_c, padded_h, padded_w]. The border is never written: a plane that
/// starts zeroed stays a valid padded plane for every image copied into it.
void pad_image(const float* image, const ConvGeom& g, float* padded);

/// The patch matrix transposed, [out_h*out_w, patch] (row = output position,
/// column = (c, ki, kj)), from a padded plane: the B operand of the
/// weight-gradient GEMM dW = dY @ colsᵀ.
void patches_t_from_padded(const float* padded, const ConvGeom& g, float* cols_t);

/// Adds the fold of a patch-matrix gradient [patch, out_h*out_w] into an
/// image gradient [in_c, in_h, in_w]. Each pixel receives its contributions
/// in patch-row order, so folding into a zeroed image is bit-identical to
/// the textbook col2im.
void fold_patches_add(const float* cols, const ConvGeom& g, float* image);

}  // namespace rp
