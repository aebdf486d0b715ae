#pragma once

#include <cstdint>
#include <string>

// Runtime-dispatched SIMD kernels for the hot loops the profiler actually
// sees: the dense and CSR implicit-GEMM conv kernels and the conv backward's
// two gradient kernels, which run every conv and Linear layer. Two tables
// hold them: the scalar one and, where the toolchain and CPU have it,
// AVX2+FMA. The elementwise/reduction ops below the tables (used by layers,
// the optimizer and the losses) have one implementation, compiled once and
// left to the compiler's auto-vectorizer; RP_SIMD does not switch them.
//
// Contract (DESIGN.md §6): the AVX2 conv kernels perform the *same
// per-element arithmetic in the same order* as the scalar ones. Vector lanes
// run across independent output elements only, so each output element still
// sees its accumulation chain in the original serial order, and every
// multiply-add is a single-rounded fused op (`std::fma` in scalar code,
// vfmadd in vector code). Results are therefore bit-identical across
// RP_SIMD=off/on — the same guarantee the thread pool gives for RP_THREADS=1
// vs N.
//
// Selection: RP_SIMD=off|scalar forces the scalar conv kernels, RP_SIMD=avx2
// requests AVX2 (falling back to scalar when unavailable), and unset/auto
// picks AVX2 when it is compiled in and supported by the CPU.
namespace rp::simd {

enum class Isa { kScalar = 0, kAvx2 = 1 };

// One sample of an implicit-GEMM conv forward (tensor/conv.hpp ConvPlan), or
// a Linear batch as a 1×1 conv (BatchPlane).
// Patch row r reads output position (y, x) at plane[off[r] + y * ld + x].
struct ConvArgs {
  const float* plane;   // the sample's phase planes
  const int32_t* off;   // [patch] plane offset of output (0, 0) per patch row
  int64_t patch;        // patch rows = weight columns
  int64_t oh, ow;       // output extent
  int64_t ld;           // plane stride between output rows
  const float* bias;    // [out_c] added after the chain, or nullptr for none
  float* y;             // [out_c, oh * ow] output, overwritten
};

// One sample of the conv weight gradient (tensor/conv.hpp
// conv_grad_weight): the forward's planes and offsets, read against the
// sample's output gradient in transposed layout.
struct ConvDwArgs {
  const float* plane;   // the sample's phase planes (ConvPlan::fill)
  const int32_t* off;   // [patch] plane offset of output (0, 0) per patch row
  int64_t patch;        // patch rows
  int64_t oh, ow;       // output extent
  int64_t ld;           // plane stride between output rows
  const float* dyt;     // [oh * ow, out_c] output gradient, position-major
  int64_t out_c;        // output channels
  float* dwt;           // [patch, out_c] weight gradient, transposed, overwritten
};

// One tap of an input-gradient phase (tensor/conv.hpp ConvPlan::taps):
// kernel tap t = ki·k + kj carries output (m + dy, q + dx) into input pixel
// (s·m + a, s·q + b) of phase (a, b).
struct ConvTap {
  int32_t t, dy, dx;
};

// One sample of the conv input gradient (tensor/conv.hpp conv_grad_input).
// Input pixels are split by stride phase: phase (a, b) = rows a, a+s, … and
// columns b, b+s, …, a [ceil((in_h-a)/s), ceil((in_w-b)/s)] grid. Its taps
// are taps[tap_ptr[a·s + b] : tap_ptr[a·s + b + 1]], in ascending t.
struct ConvDxArgs {
  const float* dy;       // [out_c, oh, ow] output gradient, read in place
  const float* wx;       // [k·k, out_c, in_c]: wx[(t·out_c + o)·in_c + c] = w[o, c·k·k + t]
  const ConvTap* taps;
  const int32_t* tap_ptr;  // [s·s + 1]
  int64_t out_c, in_c, in_h, in_w, stride, oh, ow;
  float* dx;             // [in_c, in_h, in_w] input gradient, every element overwritten
};

// Conv kernel function-pointer table. One instance per compiled-in ISA; all
// entries are non-null in every table.
struct Kernels {
  // Implicit-GEMM conv forward over output channels [o0, o1) of one sample:
  //   y[o, y·ow + x] = Σ_r w[o, r] · plane[off[r] + y·ld + x]  (+ bias[o])
  // as one fma chain per output element: patch rows r ascending, every
  // multiply-add single-rounded from a +0 start, weights equal to 0.0f
  // skipped (so a NaN/Inf input under a zero weight never reaches the
  // output), then one add of bias[o] when bias is non-null. conv_dense reads a dense row-major w [out_c, patch] plus its
  // zero masks nz (tensor/sparse.hpp SparseWeight::masks), which it may use in
  // place of testing w; conv_csr walks row o's stored CSR entries
  // (values[row_ptr[o]:row_ptr[o+1]] at ascending columns col_idx[...]) in
  // order, so a stored 0.0f stays a no-op too. Neither reads the plane
  // outside the rows and columns the outputs cover. A Linear layer runs on
  // both as a 1×1 conv over its batch (tensor/conv.hpp BatchPlane).
  void (*conv_dense)(const ConvArgs& a, const float* w, const uint8_t* nz, int64_t o0,
                     int64_t o1);
  void (*conv_csr)(const ConvArgs& a, const int32_t* row_ptr, const int32_t* col_idx,
                   const float* values, int64_t o0, int64_t o1);

  // Conv backward of one sample (or a Linear batch), with no patch matrix
  // built.
  //   conv_dw: dwt[r, o] = Σ_pos dyt[pos, o] · plane[off[r] + y·ld + x]
  //     (pos = y·ow + x), the chain of dW = dy @ colsᵀ: positions ascending,
  //     one single-rounded fma each from a +0 start, terms whose dyt is
  //     0.0f skipped (so NaN or Inf under a zero gradient never enters).
  //   conv_dx: the fold of dcols = Wᵀ @ dy into a zeroed image, gathered:
  //     each input pixel is +0 plus, for each tap that reaches an output
  //     inside [0, oh) × [0, ow), in ascending t, the chain over o
  //     ascending of fma(wx, dy, ·) from +0 with zero weights skipped. Out-of-
  //     range outputs are never added.
  // Neither reads dy or the plane outside the channel planes they index.
  void (*conv_dw)(const ConvDwArgs& a);
  void (*conv_dx)(const ConvDxArgs& a);
};

// ISA resolved once from RP_SIMD + CPU/compile-time support (or the last
// force()); `kernels()` is the table for that ISA.
Isa active();
const Kernels& kernels();

// Parses an RP_SIMD spec: sets *out and returns true for "off"/"scalar"
// (kScalar), "avx2"; returns false for "auto" (resolution picks the
// best available ISA). Anything else throws std::invalid_argument naming
// RP_SIMD — at the env-resolution site that means exit(2), never a silent
// fall-through to auto ("RP_SIMD=axv2" must not quietly change what a
// benchmark measured).
bool parse_isa_spec(const std::string& text, Isa* out);

// Test hooks: pin the dispatch to a specific ISA (no-op fallback to scalar if
// the ISA isn't available) / restore env+CPU resolution.
void force(Isa isa);
void reset();

// Human-readable name of an ISA ("scalar", "avx2").
const char* isa_name(Isa isa);

// The AVX2 table, or nullptr when it wasn't compiled in. (Internal wiring
// for simd.cpp, exposed for the dispatch unit test.)
const Kernels* avx2_kernels();

// -- elementwise / reduction ops --------------------------------------------
//
// One implementation each (simd.cpp), whatever RP_SIMD says. The reductions
// fold in index order through std::max, which keeps the running value when
// the new element is NaN: reduce_abs_max drops every NaN, reduce_max every
// NaN but one at x[0].

void relu(float* x, int64_t n);                       // x = max(x, 0)
void relu_grad(const float* x, float* d, int64_t n);  // d = x<=0 ? 0 : d
void add(float* dst, const float* src, int64_t n);    // dst += src
void mul(float* dst, const float* src, int64_t n);    // dst *= src
void add_scalar(float* dst, float v, int64_t n);      // dst += v
void scale(float* dst, float v, int64_t n);           // dst *= v
void div_scalar(float* dst, float v, int64_t n);      // dst /= v
void clamp(float* x, float lo, float hi, int64_t n);  // x = clamp(x, lo, hi)
float reduce_max(const float* x, int64_t n);          // max(x); n >= 1
float reduce_abs_max(const float* x, int64_t n);      // max(|x|); 0 for n == 0
// Fused SGD+momentum step over one parameter block:
//   g = grad + wd * p;  v = mu * v + g;  p -= lr * (nesterov ? g + mu*v : v)
// every multiply-add single-rounded (std::fma).
void sgd_step(float* p, const float* grad, float* vel, float lr, float mu, float wd,
              bool nesterov, int64_t n);

}  // namespace rp::simd
