#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace rp::nn {

/// Describes the inference task a network is built for. All networks in the
/// repository consume fixed-size [C, H, W] images; classification nets emit
/// [N, num_classes] logits, segmentation nets [N, num_classes, H, W].
struct TaskSpec {
  std::string name = "synth_cifar";
  int64_t in_c = 3;
  int64_t in_h = 16;
  int64_t in_w = 16;
  int num_classes = 10;
  bool segmentation = false;
};

/// A complete model: the module graph plus the metadata needed to train,
/// prune, serialize, and clone it. The clone path goes through the
/// architecture registry (`build_network`), so a Network is always
/// reconstructible from (arch, task, state).
class Network {
 public:
  Network(std::string arch, TaskSpec task, ModulePtr root);

  const std::string& arch() const { return arch_; }
  const TaskSpec& task() const { return task_; }

  /// Forward pass; `train` toggles batch-norm batch statistics.
  Tensor forward(const Tensor& x, bool train = false) { return root_->forward(x, train); }
  Tensor backward(const Tensor& dy) { return root_->backward(dy); }

  /// Stable parameter list (collected once at construction).
  const std::vector<Parameter*>& params() { return params_; }
  /// Prunable-layer descriptions, in forward order.
  const std::vector<PrunableSpec>& prunable() { return prunable_; }

  void set_profiling(bool on) { root_->set_profiling(on); }
  /// Compiles and freezes (on) / unfreezes (off) the compiled form of every
  /// prunable weight for the eval path; see Module::set_sparse and
  /// tensor/sparse.hpp.
  void set_sparse(bool on) { root_->set_sparse(on); }
  void zero_grad();
  /// Re-applies all masks so pruned weights are exactly zero.
  void enforce_masks();

  /// Total / active counts over *prunable* weights — the denominators of the
  /// paper's prune ratio (biases and BN affine params are excluded, as in
  /// the reference implementation).
  int64_t prunable_total() const;
  int64_t prunable_active() const;
  /// Fraction of prunable weights removed, in [0, 1].
  double prune_ratio() const;
  /// Mask-aware MACs of one sample's forward pass.
  int64_t flops() const { return root_->flops(); }
  /// Count of all learnable scalars (pruned or not).
  int64_t param_count() const;

  /// Full state: parameter values, masks, and batch-norm running stats.
  std::vector<std::pair<std::string, Tensor>> state() const;
  /// Restores state produced by `state()`; unknown names are an error,
  /// missing names keep their current value.
  void load_state(const std::vector<std::pair<std::string, Tensor>>& state);

  /// Deep copy via the architecture registry.
  std::unique_ptr<Network> clone() const;

 private:
  std::string arch_;
  TaskSpec task_;
  ModulePtr root_;
  std::vector<Parameter*> params_;
  std::vector<PrunableSpec> prunable_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
};

using NetworkPtr = std::unique_ptr<Network>;

/// Architecture registry. Known arch names:
///   resnet8 | resnet14 | resnet20  — 3-stage residual nets (n = 1/2/3 blocks)
///   vgg11                          — plain conv stacks + FC head
///   densenet                       — 3 dense blocks with transitions
///   wrn                            — wide & shallow residual net
///   resnet_im | resnet_im_l        — wider nets for the ImageNet-analog task
///   segnet                         — encoder/decoder for dense prediction
/// `seed` drives weight initialization (deterministic builds).
NetworkPtr build_network(const std::string& arch, const TaskSpec& task, uint64_t seed);

/// All classification arch names (the CIFAR-analog family).
std::vector<std::string> classification_archs();

}  // namespace rp::nn
