#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace rp {

/// C = alpha * op(A) @ op(B) + beta * C for row-major float matrices.
///
/// `a` is [M, K] (or [K, M] when `trans_a`), `b` is [K, N] (or [N, K] when
/// `trans_b`), `c` is [M, N]. The kernel is cache-blocked (B packed into
/// L2-sized panels) and parallelized over row blocks via the shared thread
/// pool (see tensor/parallel.hpp); each output row is owned by exactly one
/// lane and keeps the serial accumulation order, so results are bit-identical
/// for any RP_THREADS value. Rows of op(A) that are entirely zero after
/// masking are skipped, so structured pruning shows real wall-clock savings.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false, bool trans_b = false,
          float alpha = 1.0f, float beta = 0.0f);

/// Convenience allocation form: returns op(A) @ op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false, bool trans_b = false);

/// Dense row-major transpose: dst[cols, rows] = src[rows, cols]ᵀ. Walks
/// square tiles so both the reads and the writes stay within a few cache
/// lines; values are copied, never combined, so any tiling is exact.
void transpose(const float* src, int64_t rows, int64_t cols, float* dst);

/// Geometry of a 2-D convolution; shared by the patch builders, conv layers,
/// and the FLOP model so the three can never disagree.
struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t k = 3;       ///< square kernel size
  int64_t stride = 1;
  int64_t pad = 1;

  int64_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  /// Rows of the im2col patch matrix = in_c * k * k.
  int64_t patch() const { return in_c * k * k; }
  /// Extents of one channel of the zero-padded plane the patch builders read.
  int64_t padded_h() const { return in_h + 2 * pad; }
  int64_t padded_w() const { return in_w + 2 * pad; }
  /// Floats in the whole padded plane, [in_c, padded_h, padded_w].
  int64_t padded_size() const { return in_c * padded_h() * padded_w(); }
};

// Conv data movement, raw-pointer form for the layer hot loops. The patch
// builders read a zero-padded plane, so no element needs a bounds test; for
// pad == 0 the padded plane *is* the image and can be read in place.

/// Copies one image [in_c, in_h, in_w] into the interior of a padded plane
/// [in_c, padded_h, padded_w]. The border is never written: a plane that
/// starts zeroed stays a valid padded plane for every image copied into it.
void pad_image(const float* image, const ConvGeom& g, float* padded);

/// Patch matrix [patch, out_h*out_w] (row = (c, ki, kj), column = output
/// position) from a padded plane: the B operand of the forward GEMM.
void patches_from_padded(const float* padded, const ConvGeom& g, float* cols);

/// The same patch matrix transposed, [out_h*out_w, patch], built directly:
/// the B operand of the weight-gradient GEMM dW = dY @ colsᵀ.
void patches_t_from_padded(const float* padded, const ConvGeom& g, float* cols_t);

/// Adds the fold of a patch-matrix gradient [patch, out_h*out_w] into an
/// image gradient [in_c, in_h, in_w]. Each pixel receives its contributions
/// in patch-row order, so folding into a zeroed image is bit-identical to
/// col2im.
void fold_patches_add(const float* cols, const ConvGeom& g, float* image);

/// Unfolds one image [C, H, W] into a patch matrix [C*k*k, out_h*out_w]
/// (zero padding), so convolution becomes a single GEMM.
void im2col(const Tensor& image, const ConvGeom& g, Tensor& cols);

/// Transpose of im2col: folds gradient columns [C*k*k, out_h*out_w] back into
/// an image gradient [C, H, W], accumulating overlapping patches.
void col2im(const Tensor& cols, const ConvGeom& g, Tensor& image);

}  // namespace rp
