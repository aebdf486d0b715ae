#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "tensor/arena.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace rp {

/// Dense, contiguous, row-major float32 tensor with value semantics.
///
/// This is the storage type shared by the whole repository: network
/// parameters, activations, gradients, pruning masks, images, and labels
/// (stored as floats). Copies are deep; moves are cheap. All shape-changing
/// operations on a contiguous layout (reshape/flatten) are metadata-only.
///
/// Storage comes in two kinds. The default is a plain heap vector — stable,
/// long-lived, what parameters and datasets use. `Tensor::scratch()` builds
/// the same zero-filled tensor with storage routed through rp::mem's
/// per-lane pow2 pool, the sanctioned form for hot-loop temporaries. The
/// kind is carried by the storage allocator: copies (construction *and*
/// assignment) always land on heap storage, so a scratch block changes
/// hands only by an explicit move construction — assignment into an
/// existing tensor copies elements into the destination's own storage.
class Tensor {
 public:
  /// Element storage: allocator-routed so scratch tensors can live on the
  /// lane pool while heap tensors keep std::allocator behavior.
  using Storage = std::vector<float, mem::ScratchAllocator<float>>;

  /// Empty 0-element tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(static_cast<size_t>(shape_.numel()), 0.0f) {}

  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    if (static_cast<int64_t>(data_.size()) != shape_.numel()) {
      throw std::invalid_argument("data size does not match shape " + shape_.to_string());
    }
  }

  // ----- factories ---------------------------------------------------------

  /// Zero-initialized tensor whose storage routes through the rp::mem
  /// pool: bit-identical to Tensor(Shape) everywhere, but allocation-free
  /// in steady state on hot paths (a lane free-list pop). Use for
  /// per-iteration temporaries; anything long-lived should be copy-assigned
  /// into a heap tensor (which a copy lands on automatically).
  static Tensor scratch(Shape shape) { return Tensor(std::move(shape), ScratchTag{}); }

  /// Scratch tensor of `shape` pre-filled from `src` (shape.numel() floats)
  /// — one copy pass, no zero-fill. Storage kind matches `scratch()`.
  static Tensor scratch_copy(Shape shape, const float* src) {
    return Tensor(std::move(shape), src, ScratchTag{});
  }

  /// True when this tensor's storage is scratch-kind (lane-pool routed).
  bool is_scratch() const { return data_.get_allocator().scratch; }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// [0, 1, ..., n-1] as a 1-D tensor.
  static Tensor arange(int64_t n);
  /// I.i.d. standard normal entries scaled by `stddev`.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  // ----- metadata ----------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int ndim() const { return shape_.ndim(); }
  int64_t size(int axis) const { return shape_[axis]; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  // ----- element access ----------------------------------------------------

  std::span<float> data() { return {data_.data(), data_.size()}; }
  std::span<const float> data() const { return {data_.data(), data_.size()}; }

  float& operator[](int64_t flat) { return data_[static_cast<size_t>(flat)]; }
  float operator[](int64_t flat) const { return data_[static_cast<size_t>(flat)]; }

  float& at(int64_t i, int64_t j) { return data_[static_cast<size_t>(i * shape_[1] + j)]; }
  float at(int64_t i, int64_t j) const { return data_[static_cast<size_t>(i * shape_[1] + j)]; }

  float& at(int64_t i, int64_t j, int64_t k) {
    return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }

  float& at(int64_t i, int64_t j, int64_t k, int64_t l) {
    return data_[static_cast<size_t>(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
  }
  float at(int64_t i, int64_t j, int64_t k, int64_t l) const {
    return data_[static_cast<size_t>(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
  }

  // ----- shape manipulation (metadata-only) --------------------------------

  /// Same data, new shape; element counts must match.
  Tensor reshape(Shape new_shape) const;
  /// 1-D view-copy of the data.
  Tensor flatten() const { return reshape(Shape{numel()}); }

  /// Copies row `i` of axis 0 into a tensor of shape `shape()[1:]`.
  Tensor slice0(int64_t i) const;

  /// Copy of row `i` on scratch storage regardless of this tensor's own
  /// kind — the form hot loops use to stage per-sample rows without heap
  /// traffic (slice0 only stays scratch when the source already is).
  Tensor slice0_scratch(int64_t i) const;
  /// Writes `row` (shape `shape()[1:]`) into row `i` of axis 0.
  void set_slice0(int64_t i, const Tensor& row);

  // ----- in-place arithmetic -----------------------------------------------

  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(const Tensor& o);  ///< elementwise (Hadamard)
  Tensor& operator+=(float v);
  Tensor& operator*=(float v);
  void fill(float v);
  void zero() { fill(0.0f); }

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

 private:
  struct ScratchTag {};
  Tensor(Shape shape, ScratchTag)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.numel()), 0.0f, mem::ScratchAllocator<float>(true)) {}
  Tensor(Shape shape, const float* src, ScratchTag)
      : shape_(std::move(shape)),
        data_(src, src + shape_.numel(), mem::ScratchAllocator<float>(true)) {}

  Shape shape_;
  Storage data_;
};

// ----- out-of-place arithmetic ----------------------------------------------

Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, const Tensor& b);  ///< elementwise
Tensor operator+(Tensor a, float v);
Tensor operator*(Tensor a, float v);
Tensor operator*(float v, Tensor a);

}  // namespace rp
