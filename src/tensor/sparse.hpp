#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

// Compile-to-sparse execution engine: turns a pruned layer's measured zero
// pattern into the one compiled form (SparseWeight) a Conv2d or Linear runs
// its forward through. A dense layout is the zero masks of the layer's own
// weight, read by the dense conv kernel; a CSR layout is a compact copy of
// the stored entries, run by the CSR conv kernel (which serves Linear
// layers as 1×1 convs), so prune ratio becomes wall-clock speedup on the
// eval path.
//
// Contract (DESIGN.md §6 "Sparse execution"): the sparse path is bit-identical
// to the dense one. Every output element is one chain: the nonzero weights
// in ascending column order, each a single-rounded fused multiply-add, from a
// +0 start. The dense kernel walks every column and skips the weights its
// masks mark zero; the CSR kernel walks only the stored ones, so both run
// the same terms. The memcmp tests in tests/test_sparse.cpp enforce this
// across RP_SPARSE × RP_SIMD × RP_THREADS.
//
// A compiled form is frozen: it describes the weight at compile time. A
// layer whose weight changes either rebuilds its dense masks in place
// (rebuild(), every training or uncompiled forward) or compiles again.
//
// Selection: RP_SPARSE=off compiles every layer to the dense layout, =csr
// compiles every layer to CSR, and unset/auto picks per layer from the
// measured density (see analyze()). This mirrors the RP_SIMD escape hatch.
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

/// One weight matrix w [rows, cols] compiled for execution: the one form a
/// Conv2d or Linear runs its forward through. Exactly one layout's fields
/// are populated. The dense layout holds no values: its kernel reads them
/// from the layer's own weight, which is passed to every execution entry.
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

  // Dense: zero masks for the dense conv kernel, one byte per (block of four
  // rows, column): byte (o / 4)·cols + r has bit o % 4 set exactly when
  // w[o, r] != 0 at compile time; every other bit is 0.
  std::vector<uint8_t> masks;

  /// Bytes this representation occupies (masks, or index + value storage).
  int64_t bytes() const;
  /// Exact dense reconstruction of a CSR layout, Shape{rows, cols}. Throws
  /// std::logic_error for the dense layout, which holds no values.
  Tensor to_dense() const;
};

/// Compiles a 2-D weight matrix under mode `m` (default: the RP_SPARSE
/// mode). A CSR layout counts obs sparse.nnz / sparse.bytes_saved.
SparseWeight compile(const Tensor& w, Mode m);
SparseWeight compile(const Tensor& w);

/// Recompiles `sw` in place as the dense layout of w, the form
/// compile(w, Mode::kOff) returns. Once sw holds masks of w's size, no
/// allocation: a layer calls it on every training or uncompiled forward.
void rebuild(const Tensor& w, SparseWeight& sw);

// ---------------------------------------------------------------------------
// Execution
//
// Both entries take `w`, the weight `compiled` was compiled from: a dense
// layout runs the dense conv kernel on w's values with compiled.masks
// (counting gemm.calls), a CSR layout runs the CSR conv kernel and ignores w
// (counting gemm.sparse_calls). Both run the same chain, for any
// RP_THREADS and RP_SIMD. For a dense layout, w must be [rows, cols]; a
// weight changed since compiling runs with the frozen masks.

/// y [n, rows] = x [n, cols] @ wᵀ — the Linear forward — as a 1×1 conv over
/// the batch (rp::BatchPlane): the layout's conv forward kernel runs on the
/// plane xᵀ into a scratch yᵀ, which is transposed into y. Every output is
/// the chain over cols ascending from +0 with zero weights skipped, so NaN
/// or Inf input under a zero weight never reaches an output, whatever the
/// layout. Throws std::invalid_argument unless x is [n, cols] and y is
/// [n, rows], when a dense layout's w is not [rows, cols], or when cols·n
/// overflows the kernels' 32-bit plane offsets.
void rhs_matmul_into(const Tensor& w, const SparseWeight& compiled, const Tensor& x, Tensor& y);

/// Conv forward for an [out_c, patch] weight, with the arguments of
/// ConvPlan::args or BatchPlane::args: y[o, p] = Σ_r w[o, r] · patch(r, p)
/// (+ bias[o] when a.bias is non-null). Each output is the fma chain over r
/// ascending from +0, zero weights skipped, then one add of the bias.
/// Blocks of four output channels (dense) or rows (CSR) go across lanes by
/// parallel_for's cost rule; each is owned by one lane, so results are
/// bit-identical for any RP_THREADS. Throws std::invalid_argument when a
/// dense layout's w is not [rows, cols].
void conv_forward(const Tensor& w, const SparseWeight& compiled, const simd::ConvArgs& a);

}  // namespace rp::sparse
