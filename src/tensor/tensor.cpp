#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/simd.hpp"

namespace rp {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.shape().to_string() +
                                " vs " + b.shape().to_string());
  }
}
}  // namespace

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::arange(int64_t n) {
  Tensor t(Shape{n});
  for (int64_t i = 0; i < n; ++i) t[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = rng.normal(0.0f, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("reshape: cannot view " + shape_.to_string() + " as " +
                                new_shape.to_string());
  }
  if (is_scratch()) {
    // Hot-path reshapes (flatten() between conv and linear stages) run on
    // scratch activations: the copy lands back on the lane pool, so steady
    // state stays heap-allocation-free.
    return scratch_copy(std::move(new_shape), data().data());
  }
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::slice0(int64_t i) const {
  if (ndim() < 1 || i < 0 || i >= shape_[0]) {
    throw std::out_of_range("slice0: index " + std::to_string(i) + " for shape " +
                            shape_.to_string());
  }
  Shape row_shape(shape_.dims().subspan(1));
  const int64_t stride = row_shape.numel();
  if (is_scratch()) {
    return scratch_copy(std::move(row_shape), data().data() + i * stride);
  }
  Tensor out(row_shape);
  std::memcpy(out.data().data(), data().data() + i * stride,
              static_cast<size_t>(stride) * sizeof(float));
  return out;
}

Tensor Tensor::slice0_scratch(int64_t i) const {
  if (ndim() < 1 || i < 0 || i >= shape_[0]) {
    throw std::out_of_range("slice0: index " + std::to_string(i) + " for shape " +
                            shape_.to_string());
  }
  Shape row_shape(shape_.dims().subspan(1));
  const int64_t stride = row_shape.numel();
  return scratch_copy(std::move(row_shape), data().data() + i * stride);
}

void Tensor::set_slice0(int64_t i, const Tensor& row) {
  if (ndim() < 1 || i < 0 || i >= shape_[0]) {
    throw std::out_of_range("set_slice0: index out of range");
  }
  const int64_t stride = numel() / shape_[0];
  if (row.numel() != stride) {
    throw std::invalid_argument("set_slice0: row has " + std::to_string(row.numel()) +
                                " elements, expected " + std::to_string(stride));
  }
  std::memcpy(data().data() + i * stride, row.data().data(),
              static_cast<size_t>(stride) * sizeof(float));
}

Tensor& Tensor::operator+=(const Tensor& o) {
  check_same_shape(*this, o, "operator+=");
  simd::add(data_.data(), o.data().data(), numel());
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  check_same_shape(*this, o, "operator-=");
  const float* ob = o.data().data();
  float* tb = data_.data();
  for (size_t i = 0; i < data_.size(); ++i) tb[i] -= ob[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& o) {
  check_same_shape(*this, o, "operator*=");
  simd::mul(data_.data(), o.data().data(), numel());
  return *this;
}

Tensor& Tensor::operator+=(float v) {
  simd::add_scalar(data_.data(), v, numel());
  return *this;
}

Tensor& Tensor::operator*=(float v) {
  simd::scale(data_.data(), v, numel());
  return *this;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor operator+(Tensor a, const Tensor& b) { return a += b; }
Tensor operator-(Tensor a, const Tensor& b) { return a -= b; }
Tensor operator*(Tensor a, const Tensor& b) { return a *= b; }
Tensor operator+(Tensor a, float v) { return a += v; }
Tensor operator*(Tensor a, float v) { return a *= v; }
Tensor operator*(float v, Tensor a) { return a *= v; }

}  // namespace rp
