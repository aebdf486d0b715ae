#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/conv.hpp"
#include "tensor/rng.hpp"
#include "tensor/sparse.hpp"

namespace rp::nn {

/// 2-D convolution over [N, C, H, W] batches. The forward and both
/// gradients are computed straight from the input and dy through a plan
/// built at construction (tensor/conv.hpp ConvPlan), with no patch matrix.
///
/// The weight is stored as a [out_c, in_c*k*k] matrix, which is both the
/// conv kernels' operand and the row-per-filter layout structured pruners expect.
/// Input spatial size is fixed at construction (all networks in this
/// repository run on fixed-size synthetic images), which lets the layer
/// pre-compute its geometry and report mask-aware FLOPs without a dry run.
/// The constructor throws std::invalid_argument naming the layer for a
/// geometry with no valid output (see ConvPlan) or out_c < 1.
class Conv2d final : public Module {
 public:
  Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t k, int64_t stride, int64_t pad,
         int64_t in_h, int64_t in_w, bool use_bias, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void collect_prunable(std::vector<PrunableSpec>& out) override;
  void set_profiling(bool on) override;
  void set_sparse(bool on) override;
  int64_t flops() const override;
  std::string name() const override { return name_; }

  const ConvGeom& geom() const { return plan_.g; }
  Parameter& weight() { return weight_; }
  /// Extra per-out-unit parameters (e.g. the following batch norm's affine
  /// terms) that a structured pruner must zero together with a filter.
  void add_out_coupled(Parameter* p) { out_coupled_.push_back(p); }

 private:
  std::string name_;
  ConvPlan plan_;  ///< geometry + implicit-GEMM offsets, validated at construction
  int64_t out_c_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;
  std::vector<Parameter*> out_coupled_;

  Tensor cached_input_;

  bool profiling_ = false;
  std::vector<float> in_stat_, out_stat_;

  /// The weight's one compiled form (tensor/sparse.hpp), which every
  /// forward runs. Unless frozen, it is the dense layout, sized at
  /// construction, whose masks each forward rebuilds in place from the live
  /// weight.
  sparse::SparseWeight compiled_;
  /// Set by set_sparse(true): eval forwards run compiled_ as compiled, under
  /// every RP_SPARSE mode. Cleared by set_sparse(false) and by a training
  /// forward, whose step changes the weight.
  bool frozen_ = false;
};

/// Fully connected layer over [N, in] batches: y = x Wᵀ + b. The forward and
/// both gradients run on the conv kernels as 1×1 convs whose pixels are the
/// batch (the forward through tensor/conv.hpp BatchPlane).
class Linear final : public Module {
 public:
  Linear(std::string name, int64_t in, int64_t out, bool use_bias, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void collect_prunable(std::vector<PrunableSpec>& out) override;
  void set_profiling(bool on) override;
  void set_sparse(bool on) override;
  int64_t flops() const override;
  std::string name() const override { return name_; }

  Parameter& weight() { return weight_; }

 private:
  std::string name_;
  int64_t in_, out_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;

  Tensor cached_input_;
  bool profiling_ = false;
  std::vector<float> in_stat_, out_stat_;

  sparse::SparseWeight compiled_;  ///< as in Conv2d
  bool frozen_ = false;            ///< as in Conv2d
};

/// Batch normalization over the channel axis of [N, C, H, W].
class BatchNorm2d final : public Module {
 public:
  BatchNorm2d(std::string name, int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) override;
  int64_t flops() const override { return flops_; }
  std::string name() const override { return name_; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  /// Running statistics participate in network state (de)serialization.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  std::string name_;
  int64_t c_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  int64_t flops_ = 0;
};

/// Elementwise max(x, 0).
class ReLU final : public Module {
 public:
  ReLU() = default;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

/// 2x2 max pooling with stride 2 over [N, C, H, W].
class MaxPool2d final : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "maxpool2"; }

 private:
  Shape in_shape_;
  std::vector<int32_t> arg_;  // flat input offset of each pooled max
};

/// Global average pooling: [N, C, H, W] → [N, C].
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "gap"; }

 private:
  Shape in_shape_;
};

/// [N, C, H, W] → [N, C*H*W].
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "flatten"; }

 private:
  Shape in_shape_;
};

/// Nearest-neighbour 2x upsampling over [N, C, H, W] (decoder path of the
/// segmentation network).
class Upsample2x final : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::string name() const override { return "upsample2x"; }

 private:
  Shape in_shape_;
};

/// Runs children in order; the composition primitive for all architectures.
class Sequential final : public Module {
 public:
  explicit Sequential(std::string name = "seq") : name_(std::move(name)) {}

  Sequential& add(ModulePtr m) {
    children_.push_back(std::move(m));  // rp-lint: allow(R12) network construction time; hot only via name merge with tensor add()
    return *this;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void collect_prunable(std::vector<PrunableSpec>& out) override;
  void collect_buffers(std::vector<std::pair<std::string, Tensor*>>& out) override;
  void set_profiling(bool on) override;
  void set_sparse(bool on) override;
  int64_t flops() const override;
  std::string name() const override { return name_; }

  size_t size() const { return children_.size(); }
  Module& child(size_t i) { return *children_[i]; }

 private:
  std::string name_;
  std::vector<ModulePtr> children_;
};

/// Concatenates two [N, C, H, W] tensors along the channel axis.
Tensor concat_channels(const Tensor& a, const Tensor& b);

}  // namespace rp::nn
