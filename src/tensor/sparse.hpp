#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

// Compile-to-sparse execution engine: turns a pruned layer's measured zero
// pattern into a compact CSR layout run by one sparse×dense kernel (the CSR
// conv kernel, which serves Linear layers as 1×1 convs), so prune ratio
// becomes wall-clock speedup on the eval path.
//
// Contract (DESIGN.md §6 "Sparse execution"): the sparse path is bit-identical
// to the dense one. Every output element is one chain: the nonzero weights
// in ascending column order, each a single-rounded fused multiply-add, from a
// +0 start. The dense kernel walks every column and skips the zero weights;
// the CSR kernel walks only the stored ones, so both run the same terms. The
// memcmp tests in tests/test_sparse.cpp enforce this across RP_SPARSE ×
// RP_SIMD × RP_THREADS.
//
// Selection: RP_SPARSE=off forces the dense path, =csr forces CSR for every
// compiled layer, and unset/auto picks per layer from the measured density
// (see analyze()). This mirrors the RP_SIMD escape hatch.
namespace rp::sparse {

// ---------------------------------------------------------------------------
// Mode — the RP_SPARSE escape hatch.

enum class Mode { kOff = 0, kCsr = 1, kAuto = 2 };

/// Mode resolved once from RP_SPARSE (or the last force()).
Mode mode();

/// Test hooks: pin the mode / restore env resolution — same shape as
/// simd::force/reset.
void force(Mode m);
void reset();

/// Spec name of a mode ("off", "csr", "auto").
const char* mode_name(Mode m);

/// Parses an RP_SPARSE spec: "off"/"dense" -> kOff, "csr" -> kCsr,
/// "auto" -> kAuto. Anything else throws
/// std::invalid_argument naming RP_SPARSE — at the env-resolution site that
/// means exit(2), never a silent fall-through to auto.
Mode parse_mode_spec(const std::string& text);

// ---------------------------------------------------------------------------
// Layouts

enum class Layout { kDense = 0, kCsr = 1 };

/// Display name of a layout ("dense", "csr").
const char* layout_name(Layout l);

/// auto keeps a layer dense at or above this density and compiles everything
/// sparser to CSR (DESIGN.md §6 has the measured crossover).
inline constexpr double kDenseDensityThreshold = 0.5;

/// What the compiler decided for one weight matrix, and why.
struct Plan {
  Layout layout = Layout::kDense;
  int64_t nnz = 0;
  double density = 1.0;  ///< nnz / numel (1.0 for an empty matrix)
};

/// Inspects the measured zero pattern of a 2-D weight matrix and picks the
/// layout `compile()` would use under mode `m`.
Plan analyze(const Tensor& w, Mode m);

// ---------------------------------------------------------------------------
// Compiled representation

/// One weight matrix compiled for sparse execution. Exactly one layout's
/// fields are populated; `to_dense()` reconstructs the original matrix
/// bit-for-bit in both layouts.
struct SparseWeight {
  Layout layout = Layout::kDense;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;

  // CSR: row i owns values[row_ptr[i]:row_ptr[i+1]] at strictly ascending
  // columns col_idx[...].
  std::vector<int32_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;

  // Dense layout keeps the matrix as-is.
  Tensor dense;

  /// Bytes this representation occupies (index + value storage).
  int64_t bytes() const;
  /// Exact dense reconstruction, Shape{rows, cols}.
  Tensor to_dense() const;
};

/// Compiles a 2-D weight matrix under mode `m` (default: the RP_SPARSE
/// mode). Counts obs sparse.nnz / sparse.bytes_saved.
SparseWeight compile(const Tensor& w, Mode m);
SparseWeight compile(const Tensor& w);

// ---------------------------------------------------------------------------
// Execution

/// y [n, rows] = x [n, cols] @ Wᵀ — the Linear forward — as a 1×1 conv over
/// the batch (rp::BatchPlane): the layout's conv forward kernel runs on the
/// plane xᵀ into a scratch yᵀ, which is transposed into y. Every output is
/// the chain over cols ascending from +0 with zero weights skipped, so NaN
/// or Inf input under a zero weight never reaches an output, whatever the
/// layout. `nz` is the conv_zero_masks of w.dense for a dense layout and is
/// ignored for CSR. Both layouts are memcmp-identical for any RP_THREADS and
/// RP_SIMD. Throws std::invalid_argument unless x is [n, cols] and y is
/// [n, rows], or when cols·n overflows the kernels' 32-bit plane offsets.
void rhs_matmul_into(const SparseWeight& w, const uint8_t* nz, const Tensor& x, Tensor& y);

/// rhs_matmul_into for an uncompiled dense [rows, cols] weight (a Linear
/// whose sparse path is off) and its conv_zero_masks `nz`: the same code
/// path as a compiled dense layout.
void dense_rhs_matmul_into(const Tensor& w, const uint8_t* nz, const Tensor& x, Tensor& y);

/// Conv forward for a compiled [out_c, patch] weight, with the arguments of
/// ConvPlan::args or BatchPlane::args: a dense layout runs rp::conv_forward
/// with `nz`, the conv_zero_masks of w.dense (counting gemm.calls); a CSR
/// layout runs the CSR conv kernel and ignores `nz` (counting
/// gemm.sparse_calls). Both run the same chain, for any RP_THREADS.
void conv_forward(const SparseWeight& w, const uint8_t* nz, const simd::ConvArgs& a);

}  // namespace rp::sparse
