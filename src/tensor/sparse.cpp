#include "tensor/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "obs/obs.hpp"
#include "tensor/conv.hpp"
#include "tensor/envspec.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rp::sparse {

// -- mode resolution (mirrors simd.cpp's RP_SIMD handling) ------------------

Mode parse_mode_spec(const std::string& text) {
  if (text == "off" || text == "dense") return Mode::kOff;
  if (text == "csr") return Mode::kCsr;
  if (text == "auto") return Mode::kAuto;
  throw std::invalid_argument("RP_SPARSE: bad value '" + text +
                              "' (expected off|dense|csr|auto)");
}

namespace {

Mode resolve_from_env() {
  std::string want = "auto";
  if (const char* env = std::getenv("RP_SPARSE")) want = env;
  // Strict parse-or-exit(2): "RP_SPARSE=csrr" must not silently serve the
  // auto heuristic while the operator believes they pinned a layout.
  return env::die_on_bad_spec([&] { return parse_mode_spec(want); });
}

// Mode override for force()/reset(); -1 = resolve from env. Written only by
// test hooks; every mode produces bit-identical results, so even a racy
// transition could not change outputs — only which layout executes them.
// rp-lint: allow(R3) mode pin for tests; all layouts are bit-identical
std::atomic<int> g_forced{-1};

void require_2d(const Tensor& w, const char* who) {
  if (w.ndim() != 2) {
    throw std::invalid_argument(std::string(who) + " expects a 2-D weight, got " +
                                w.shape().to_string());
  }
}

// Runs the CSR conv kernel over every output channel of a CSR weight,
// parallel over disjoint channels by parallel_for's cost rule, at a row's
// mean stored entries. Each output row is owned by exactly one lane, so any
// thread count is bit-identical.
void csr_forward(const SparseWeight& w, const simd::ConvArgs& a) {
  obs::count(obs::Counter::kGemmSparseCalls);
  const auto kernel = simd::kernels().conv_csr;
  auto channels = [&](int64_t o0, int64_t o1) {
    kernel(a, w.row_ptr.data(), w.col_idx.data(), w.values.data(), o0, o1);
  };
  const int64_t row_cost = w.rows > 0 ? 2 * w.nnz * a.oh * a.ow / w.rows : 0;
  parallel::parallel_for(0, w.rows, row_cost, channels);
}

// Runs the dense conv kernel on w's values with the dense layout's masks.
// The index is a block of four output channels, the kernel's register tile,
// so a chunk never splits a tile.
void dense_forward(const Tensor& w, const SparseWeight& sw, const simd::ConvArgs& a) {
  if (w.ndim() != 2 || w.size(0) != sw.rows || w.size(1) != sw.cols) {
    throw std::invalid_argument("sparse::conv_forward: weight " + w.shape().to_string() +
                                " does not match its compiled [" + std::to_string(sw.rows) +
                                ", " + std::to_string(sw.cols) + "]");
  }
  obs::count(obs::Counter::kGemmCalls);
  const float* wd = w.data().data();
  const uint8_t* nz = sw.masks.data();
  const auto kernel = simd::kernels().conv_dense;
  auto blocks = [&](int64_t b0, int64_t b1) {
    kernel(a, wd, nz, 4 * b0, std::min(sw.rows, 4 * b1));
  };
  parallel::parallel_for(0, (sw.rows + 3) / 4, 2 * 4 * a.patch * a.oh * a.ow, blocks);
}

void check_linear(int64_t rows, int64_t cols, const Tensor& x, const Tensor& y,
                  const char* who) {
  if (x.ndim() != 2 || y.ndim() != 2 || x.size(1) != cols || y.size(0) != x.size(0) ||
      y.size(1) != rows) {
    throw std::invalid_argument(std::string(who) + ": incompatible shapes");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Mode

Mode mode() {
  const int f = g_forced.load(std::memory_order_acquire);
  if (f >= 0) return static_cast<Mode>(f);
  // Resolve once; RP_SPARSE is read at first use, like RP_SIMD/RP_THREADS.
  static const Mode env_mode = resolve_from_env();  // rp-lint: allow(R3) resolved-once constant
  return env_mode;
}

void force(Mode m) { g_forced.store(static_cast<int>(m), std::memory_order_release); }

void reset() { g_forced.store(-1, std::memory_order_release); }

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kCsr:
      return "csr";
    case Mode::kAuto:
      break;
  }
  return "auto";
}

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kCsr:
      return "csr";
    case Layout::kDense:
      break;
  }
  return "dense";
}

// ---------------------------------------------------------------------------
// Analysis & compilation

Plan analyze(const Tensor& w, Mode m) {
  require_2d(w, "sparse::analyze");
  const int64_t numel = w.numel();
  const float* d = w.data().data();

  Plan plan;
  for (int64_t i = 0; i < numel; ++i) plan.nnz += d[i] != 0.0f;
  plan.density = numel > 0 ? static_cast<double>(plan.nnz) / static_cast<double>(numel) : 1.0;

  switch (m) {
    case Mode::kOff:
      plan.layout = Layout::kDense;
      break;
    case Mode::kCsr:
      plan.layout = Layout::kCsr;
      break;
    case Mode::kAuto:
      plan.layout = plan.density >= kDenseDensityThreshold ? Layout::kDense : Layout::kCsr;
      break;
  }
  return plan;
}

SparseWeight compile(const Tensor& w, Mode m) {
  require_2d(w, "sparse::compile");
  const Plan plan = analyze(w, m);
  const int64_t rows = w.size(0), cols = w.size(1);
  const float* d = w.data().data();

  SparseWeight sw;
  if (plan.layout == Layout::kDense) {
    rebuild(w, sw);
    return sw;
  }
  sw.layout = Layout::kCsr;
  sw.rows = rows;
  sw.cols = cols;
  sw.nnz = plan.nnz;

  sw.row_ptr.reserve(static_cast<size_t>(rows) + 1);
  sw.col_idx.reserve(static_cast<size_t>(plan.nnz));
  sw.values.reserve(static_cast<size_t>(plan.nnz));
  sw.row_ptr.push_back(0);
  for (int64_t i = 0; i < rows; ++i) {
    const float* wr = d + i * cols;
    for (int64_t k = 0; k < cols; ++k) {
      if (wr[k] != 0.0f) {
        sw.col_idx.push_back(static_cast<int32_t>(k));
        sw.values.push_back(wr[k]);
      }
    }
    sw.row_ptr.push_back(static_cast<int32_t>(sw.col_idx.size()));
  }

  obs::count(obs::Counter::kSparseNnz, sw.nnz);
  const int64_t dense_bytes = rows * cols * static_cast<int64_t>(sizeof(float));
  obs::count(obs::Counter::kSparseBytesSaved, std::max<int64_t>(0, dense_bytes - sw.bytes()));
  return sw;
}

SparseWeight compile(const Tensor& w) { return compile(w, mode()); }

void rebuild(const Tensor& w, SparseWeight& sw) {
  require_2d(w, "sparse::rebuild");
  if (sw.layout != Layout::kDense) sw = SparseWeight{};  // frees the CSR arrays
  const int64_t rows = w.size(0), cols = w.size(1);
  sw.rows = rows;
  sw.cols = cols;
  sw.masks.assign(static_cast<size_t>((rows + 3) / 4 * cols), 0);
  const float* d = w.data().data();
  int64_t nnz = 0;
  for (int64_t o = 0; o < rows; ++o) {
    uint8_t* row = sw.masks.data() + (o / 4) * cols;
    const auto bit = static_cast<uint8_t>(1u << (o % 4));
    for (int64_t r = 0; r < cols; ++r) {
      const bool live = d[o * cols + r] != 0.0f;
      row[r] |= live ? bit : 0;
      nnz += live;
    }
  }
  sw.nnz = nnz;
}

int64_t SparseWeight::bytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<int64_t>(v.size() * sizeof(v[0]));
  };
  if (layout == Layout::kDense) return vec_bytes(masks);
  return vec_bytes(row_ptr) + vec_bytes(col_idx) + vec_bytes(values);
}

Tensor SparseWeight::to_dense() const {
  if (layout == Layout::kDense) {
    throw std::logic_error("SparseWeight::to_dense: the dense layout holds no values");
  }
  Tensor out(Shape{rows, cols});
  float* d = out.data().data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int32_t t = row_ptr[static_cast<size_t>(i)]; t < row_ptr[static_cast<size_t>(i) + 1];
         ++t) {
      d[i * cols + col_idx[static_cast<size_t>(t)]] = values[static_cast<size_t>(t)];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Execution

// rp-lint: hot
void rhs_matmul_into(const Tensor& w, const SparseWeight& compiled, const Tensor& x, Tensor& y) {
  check_linear(compiled.rows, compiled.cols, x, y, "sparse::rhs_matmul_into");
  const int64_t n = x.size(0);
  if (n == 0 || compiled.rows == 0 || compiled.cols == 0) {
    y.zero();
    return;
  }
  // A 1×1 conv over the batch: the forward kernel runs on the plane xᵀ into
  // the scratch yᵀ, which is then transposed into y.
  const BatchPlane plane(x);
  Tensor yt = Tensor::scratch(Shape{compiled.rows, n});
  conv_forward(w, compiled, plane.args(yt.data().data()));
  transpose(yt.data().data(), compiled.rows, n, y.data().data());
}

// rp-lint: hot
void conv_forward(const Tensor& w, const SparseWeight& compiled, const simd::ConvArgs& a) {
  if (compiled.layout == Layout::kCsr) {
    csr_forward(compiled, a);
    return;
  }
  dense_forward(w, compiled, a);
}

}  // namespace rp::sparse
