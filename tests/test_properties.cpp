// Parameterized property suites: algebraic identities and invariants swept
// over a grid of inputs, complementing the example-based unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/pruner.hpp"
#include "data/synth.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse.hpp"

namespace rp {
namespace {

// ----- tensor algebra -----------------------------------------------------------

class TensorAlgebraTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TensorAlgebraTest, AdditionIsCommutativeAndAssociative) {
  Rng rng(GetParam());
  const Shape shape{GetParam(), 3};
  Tensor a = Tensor::randn(shape, rng), b = Tensor::randn(shape, rng),
         c = Tensor::randn(shape, rng);
  EXPECT_LT(l2_distance(a + b, b + a), 1e-6f);
  EXPECT_LT(l2_distance((a + b) + c, a + (b + c)), 1e-4f);
}

TEST_P(TensorAlgebraTest, MultiplicativeIdentityAndAnnihilator) {
  Rng rng(GetParam() + 100);
  const Shape shape{GetParam(), 2};
  Tensor a = Tensor::randn(shape, rng);
  EXPECT_LT(l2_distance(a * Tensor::ones(shape), a), 1e-7f);
  EXPECT_EQ(l2_norm(a * Tensor::zeros(shape)), 0.0f);
}

TEST_P(TensorAlgebraTest, ScalarDistributivity) {
  Rng rng(GetParam() + 200);
  const Shape shape{GetParam()};
  Tensor a = Tensor::randn(shape, rng), b = Tensor::randn(shape, rng);
  EXPECT_LT(l2_distance(2.0f * (a + b), 2.0f * a + 2.0f * b), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TensorAlgebraTest, ::testing::Values(1, 2, 7, 64, 257));

// ----- GEMM linearity --------------------------------------------------------------

/// x @ wᵀ through the Linear forward entry on w's dense layout: the dense
/// conv kernel as a 1×1 conv over the batch.
Tensor linear_product(const Tensor& x, const Tensor& w) {
  Tensor y(Shape{x.size(0), w.size(0)});
  sparse::rhs_matmul_into(w, sparse::compile(w, sparse::Mode::kOff), x, y);
  return y;
}

class GemmLinearityTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmLinearityTest, RightDistributive) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int64_t n = GetParam();
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b1 = Tensor::randn(Shape{n, n}, rng);
  Tensor b2 = Tensor::randn(Shape{n, n}, rng);
  Tensor lhs = linear_product(a, b1 + b2);
  Tensor rhs = linear_product(a, b1) + linear_product(a, b2);
  EXPECT_LT(l2_distance(lhs, rhs) / std::max(1.0f, l2_norm(lhs)), 1e-4f);
}

TEST_P(GemmLinearityTest, TransposeConsistency) {
  // (A @ Bᵀ)ᵀ == B @ Aᵀ: the product with its operands swapped.
  Rng rng(static_cast<uint64_t>(GetParam()) + 17);
  const int64_t n = GetParam();
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor ab = linear_product(a, b);
  Tensor btat = linear_product(b, a);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(ab.at(i, j), btat.at(j, i), 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmLinearityTest, ::testing::Values(2, 5, 16, 33));

// ----- softmax/loss properties ------------------------------------------------------

class LossPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LossPropertyTest, LossIsNonNegativeAndBoundedByLogC) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int64_t c = 2 + GetParam() % 8;
  Tensor logits = Tensor::randn(Shape{4, c}, rng, 0.1f);  // near-uniform
  std::vector<int64_t> labels(4);
  for (auto& l : labels) l = rng.randint(c);
  const auto r = nn::softmax_cross_entropy(logits, labels);
  EXPECT_GE(r.loss, 0.0f);
  EXPECT_LE(r.loss, std::log(static_cast<float>(c)) + 0.5f);
}

TEST_P(LossPropertyTest, LossDecreasesAlongNegativeGradient) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 31);
  Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  std::vector<int64_t> labels{0, 2, 4};
  const auto r0 = nn::softmax_cross_entropy(logits, labels);
  Tensor stepped = logits;
  for (int64_t i = 0; i < logits.numel(); ++i) stepped[i] -= 1.0f * r0.dlogits[i];
  const auto r1 = nn::softmax_cross_entropy(stepped, labels);
  EXPECT_LT(r1.loss, r0.loss);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossPropertyTest, ::testing::Range(0, 6));

// ----- pruning ratio grid -----------------------------------------------------------

class PruneRatioGridTest : public ::testing::TestWithParam<double> {};

TEST_P(PruneRatioGridTest, WtHitsExactRatioAcrossGrid) {
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  core::prune_to_ratio(*net, core::PruneMethod::WT, GetParam());
  EXPECT_NEAR(net->prune_ratio(), GetParam(), 1e-4);
  // FLOP count is consistent with sparsity: active MACs <= dense MACs.
  auto dense = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  EXPECT_LE(net->flops(), dense->flops());
}

INSTANTIATE_TEST_SUITE_P(Grid, PruneRatioGridTest,
                         ::testing::Values(0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85,
                                           0.95));

// ----- LR schedule invariants --------------------------------------------------------

class ScheduleInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleInvariantTest, NeverExceedsBaseAndIsPositiveEarly) {
  nn::LrSchedule s;
  s.base_lr = 0.1f;
  s.warmup_epochs = GetParam() % 4;
  s.milestones = {5, 8};
  s.total_epochs = 12;
  for (int e = 0; e < 12; ++e) {
    EXPECT_LE(s.lr_at(e), s.base_lr + 1e-9f) << "epoch " << e;
    EXPECT_GT(s.lr_at(e), 0.0f) << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Warmups, ScheduleInvariantTest, ::testing::Range(0, 4));

// ----- every architecture trains -----------------------------------------------------

class TrainStepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TrainStepTest, FewSgdStepsReduceLoss) {
  const std::string arch = GetParam();
  const nn::TaskSpec task =
      arch == "segnet" ? nn::synth_seg_task()
                       : (arch.starts_with("resnet_im") ? nn::synth_imagenet_task()
                                                        : nn::synth_cifar_task());
  auto net = nn::build_network(arch, task, 3);

  data::Batch batch;
  if (task.segmentation) {
    auto ds = data::make_synth_segmentation(8, 5, data::nominal_params());
    std::vector<int64_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
    batch = data::make_batch(*ds, idx);
  } else {
    data::SynthConfig cfg;
    cfg.n = 8;
    cfg.h = task.in_h;
    cfg.w = task.in_w;
    cfg.num_classes = task.num_classes;
    cfg.seed = 5;
    batch = data::make_batch(*data::make_synth_classification(cfg),
                             std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7});
  }

  nn::Sgd opt(net->params(), {.momentum = 0.9f, .nesterov = false, .weight_decay = 0.0f});
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 6; ++step) {
    Tensor logits = net->forward(batch.images, true);
    const auto lr = task.segmentation ? nn::pixel_cross_entropy(logits, batch.labels)
                                      : nn::softmax_cross_entropy(logits, batch.labels);
    if (step == 0) first = lr.loss;
    last = lr.loss;
    opt.zero_grad();
    net->backward(lr.dlogits);
    opt.step(0.05f);
  }
  EXPECT_LT(last, first) << arch << " failed to overfit a single batch";
}

INSTANTIATE_TEST_SUITE_P(AllArchs, TrainStepTest,
                         ::testing::Values("resnet8", "resnet14", "resnet20", "vgg11", "densenet",
                                           "wrn", "resnet_im", "resnet_im_l", "segnet"));

}  // namespace
}  // namespace rp
