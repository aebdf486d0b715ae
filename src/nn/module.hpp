#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace rp::nn {

/// A learnable tensor plus its gradient and (optionally) a binary pruning
/// mask. The mask is the paper's `c` in Algorithm 1: weights with mask 0 are
/// pruned and are kept at exactly zero by the optimizer. Parameters that are
/// never pruned (biases, batch-norm affine terms) have an empty mask.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  Tensor mask;          ///< same shape as value when prunable, else empty
  bool prunable = false;

  Parameter() = default;
  Parameter(std::string n, Tensor v, bool is_prunable)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()), prunable(is_prunable) {
    if (prunable) mask = Tensor::ones(value.shape());
  }

  /// Re-applies the mask so pruned weights stay exactly zero.
  void enforce_mask() {
    if (!mask.empty()) value *= mask;
  }

  int64_t numel() const { return value.numel(); }
  /// Number of unpruned weights (numel() when not prunable).
  int64_t active() const;
};

/// Structural description of one prunable layer, consumed by the pruners in
/// `rp::core`. `weight` is always a 2-D [out_units, fan_in] matrix: filters
/// are rows for convolutions, output neurons are rows for linear layers.
struct PrunableSpec {
  std::string layer_name;
  Parameter* weight = nullptr;
  Parameter* bias = nullptr;                 ///< per-out-unit, may be null
  std::vector<Parameter*> out_coupled;       ///< params zeroed with a filter (BN gamma/beta)

  int64_t out_units = 0;
  /// fan_in = in_groups * group_size; for conv, in_groups = input channels
  /// and group_size = k*k, so weight column c*k*k+i belongs to input group c.
  int64_t in_groups = 0;
  int64_t group_size = 1;

  /// Activation statistics captured during a profiling pass (see
  /// Module::set_profiling): max |a| per input group / output unit over the
  /// profiled samples. Used by the data-informed pruners SiPP and PFP.
  /// Mutable because a sharded profile_activations() max-merges the stats of
  /// its per-lane network clones back through these pointers.
  std::vector<float>* in_act_stat = nullptr;
  std::vector<float>* out_act_stat = nullptr;

  /// Output spatial positions of this layer (1 for linear); used by the
  /// mask-aware FLOP model.
  int64_t out_positions = 1;
};

/// Base class of every layer and composite block.
///
/// The contract is classic define-by-run backprop: `forward` caches whatever
/// `backward` needs; `backward` consumes the upstream gradient, accumulates
/// into parameter `grad`s, and returns the input gradient. Calls must be
/// strictly paired (one backward per forward) — the trainer guarantees this.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module() = default;

  /// `train` toggles batch-statistics behaviour (batch norm).
  virtual Tensor forward(const Tensor& x, bool train) = 0;
  virtual Tensor backward(const Tensor& dy) = 0;

  /// Appends raw pointers to this module's parameters (stable for the
  /// module's lifetime).
  virtual void collect_params(std::vector<Parameter*>& /*out*/) {}

  /// Appends descriptions of prunable layers, in forward order.
  virtual void collect_prunable(std::vector<PrunableSpec>& /*out*/) {}

  /// Appends named non-learnable state (batch-norm running statistics) that
  /// must round-trip through network (de)serialization.
  virtual void collect_buffers(std::vector<std::pair<std::string, Tensor*>>& /*out*/) {}

  /// When profiling is on, layers with prunable weights record activation
  /// statistics during forward passes (for SiPP/PFP sensitivities).
  virtual void set_profiling(bool /*on*/) {}

  /// Layers with prunable weights run every forward through one compiled
  /// form of their weight (tensor/sparse.hpp), bit-identical whatever its
  /// layout. On compiles the current weight under the RP_SPARSE mode (under
  /// off: the dense layout, its zero masks frozen too) and eval forwards run
  /// that frozen form until the next call. Off (the default) unfreezes it:
  /// each forward rebuilds the dense masks from the live weight in place. A
  /// training forward unfreezes as well. Training and pruning mutate the
  /// weights, so callers must compile again after any weight change.
  /// Composites forward to children.
  virtual void set_sparse(bool /*on*/) {}

  /// Mask-aware multiply-accumulate count for one sample's forward pass.
  virtual int64_t flops() const { return 0; }

  virtual std::string name() const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace rp::nn
