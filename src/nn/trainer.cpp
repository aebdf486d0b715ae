#include "nn/trainer.hpp"

#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace rp::nn {

namespace {

/// Per-shard forward-pass workers. Forward mutates per-layer caches, so each
/// shard beyond the caller's needs its own deep copy; clones rebuild from
/// state() through the architecture registry and produce bit-identical
/// logits. With one shard (RP_THREADS=1 or nested) no clone is made and the
/// original network runs exactly the serial path.
class ShardNets {
 public:
  ShardNets(Network& net, int shards) : net_(net) {
    for (int s = 1; s < shards; ++s) clones_.push_back(net.clone());
  }
  Network& operator[](int shard) { return shard == 0 ? net_ : *clones_[shard - 1]; }
  std::vector<NetworkPtr>& clones() { return clones_; }

 private:
  Network& net_;
  std::vector<NetworkPtr> clones_;
};

/// Compiles and freezes the weights of the primary net and every shard
/// clone at entry, unfreezes them at exit. Scoped to one eval/predict/profile
/// call so the compiled forms can never go stale: training and pruning
/// between calls always mutate the weights.
class SparseScope {
 public:
  SparseScope(Network& net, ShardNets& nets) : net_(net), nets_(nets) {
    const obs::Span span("sparse.compile");
    net_.set_sparse(true);
    for (auto& c : nets_.clones()) c->set_sparse(true);
  }
  ~SparseScope() {
    net_.set_sparse(false);
    for (auto& c : nets_.clones()) c->set_sparse(false);
  }
  SparseScope(const SparseScope&) = delete;
  SparseScope& operator=(const SparseScope&) = delete;

 private:
  Network& net_;
  ShardNets& nets_;
};

}  // namespace

void train(Network& net, const data::Dataset& ds, const TrainConfig& cfg) {
  const obs::Span span("nn.train");
  Rng rng(cfg.seed);
  Sgd opt(net.params(), cfg.sgd);
  const int64_t n = ds.size();
  const bool seg = ds.segmentation();
  obs::count(obs::Counter::kTrainSamples, n * cfg.epochs);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const float lr = cfg.schedule.lr_at(epoch);
    auto order = rng.permutation(n);
    double epoch_loss = 0.0;
    int64_t batches = 0;

    for (int64_t start = 0; start < n; start += cfg.batch_size) {
      // Batch staging, activations and gradients below are scratch: each
      // dies inside this step and returns to the lane pool, so steady-state
      // iterations never touch the heap.
      const int64_t end = std::min<int64_t>(start + cfg.batch_size, n);
      std::span<const int64_t> idx(order.data() + start, static_cast<size_t>(end - start));
      data::Batch batch =
          data::make_batch(ds, idx, cfg.augment ? &cfg.augment : nullptr, &rng);

      auto logits = net.forward(batch.images, /*train=*/true);
      const LossResult lr_res = seg ? pixel_cross_entropy(logits, batch.labels)
                                    : softmax_cross_entropy(logits, batch.labels);
      opt.zero_grad();
      net.backward(lr_res.dlogits);
      opt.step(lr);

      epoch_loss += lr_res.loss;
      ++batches;
    }
    if (cfg.verbose) {
      std::printf("  epoch %2d  lr %.4f  train loss %.4f\n", epoch + 1, lr,
                  epoch_loss / std::max<int64_t>(1, batches));
    }
  }
}

// rp-lint: hot
EvalResult evaluate(Network& net, const data::Dataset& ds, int batch_size) {
  if (batch_size <= 0) {
    throw std::invalid_argument("nn::evaluate: batch_size must be positive, got " +
                                std::to_string(batch_size));
  }
  const obs::Span span("nn.evaluate");
  const int64_t n = ds.size();
  obs::count(obs::Counter::kEvalSamples, n);
  const bool seg = ds.segmentation();
  const int64_t nbatches = (n + batch_size - 1) / batch_size;

  // Per-batch partial results, indexed by batch so the final reduction runs
  // in batch order regardless of how batches were sharded across lanes —
  // the double-precision loss sum is bit-identical for any RP_THREADS.
  struct BatchOut {
    double loss = 0.0;
    int64_t hits = 0, total = 0;
    std::vector<int64_t> pred, truth;
  };
  // Pool-routed so repeated evaluate() calls recycle the same lane-pool
  // block instead of re-allocating the partial array every call.
  std::vector<BatchOut, mem::ScratchAllocator<BatchOut>> partial(
      static_cast<size_t>(nbatches), mem::ScratchAllocator<BatchOut>(true));

  const int shards = parallel::shard_count(nbatches);
  ShardNets nets(net, shards);
  const SparseScope sparse_scope(net, nets);
  parallel::run_shards(shards, nbatches, [&](int s, int64_t b0, int64_t b1) {
    Network& worker = nets[s];
    std::vector<int64_t, mem::ScratchAllocator<int64_t>> idx{
        mem::ScratchAllocator<int64_t>(true)};
    std::vector<int64_t, mem::ScratchAllocator<int64_t>> pred_buf{
        mem::ScratchAllocator<int64_t>(true)};
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t start = b * batch_size;
      const int64_t end = std::min<int64_t>(start + batch_size, n);
      idx.resize(static_cast<size_t>(end - start));  // rp-lint: allow(R12) index scratch reused across batches; grows to batch size once, through the lane pool
      pred_buf.resize(static_cast<size_t>(end - start));  // rp-lint: allow(R12) prediction scratch reused across batches; grows to batch size once, through the lane pool
      std::iota(idx.begin(), idx.end(), start);
      data::Batch batch = data::make_batch(ds, idx);

      auto logits = worker.forward(batch.images, /*train=*/false);
      BatchOut& o = partial[static_cast<size_t>(b)];
      if (seg) {
        const LossResult lr = pixel_cross_entropy(logits, batch.labels);
        o.loss = lr.loss;
        o.pred = pixel_argmax(logits);
        for (size_t i = 0; i < o.pred.size(); ++i) o.hits += (o.pred[i] == batch.labels[i]);
        o.total = static_cast<int64_t>(o.pred.size());
        o.truth.assign(batch.labels.begin(), batch.labels.end());
      } else {
        const LossResult lr = softmax_cross_entropy(logits, batch.labels);
        o.loss = lr.loss;
        argmax_rows_into(logits, pred_buf);
        for (size_t i = 0; i < pred_buf.size(); ++i) {
          o.hits += (pred_buf[i] == batch.labels[i]);
        }
        o.total = static_cast<int64_t>(pred_buf.size());
      }
    }
  });

  double loss_sum = 0.0;
  int64_t hits = 0, total = 0;
  std::vector<int64_t> all_pred, all_truth;
  for (const BatchOut& o : partial) {
    loss_sum += o.loss;
    hits += o.hits;
    total += o.total;
    all_pred.insert(all_pred.end(), o.pred.begin(), o.pred.end());  // rp-lint: allow(R12) results gather after the join, once per eval call
    all_truth.insert(all_truth.end(), o.truth.begin(), o.truth.end());  // rp-lint: allow(R12) results gather after the join, once per eval call
  }

  EvalResult r;
  r.loss = loss_sum / std::max<int64_t>(1, nbatches);
  r.accuracy = total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  if (seg) {
    r.iou = mean_iou(all_pred, all_truth, net.task().num_classes);
    r.iou_valid = true;
  }
  return r;
}

// rp-lint: hot
Tensor predict(Network& net, const Tensor& images, int batch_size) {
  if (batch_size <= 0) {
    throw std::invalid_argument("nn::predict: batch_size must be positive, got " +
                                std::to_string(batch_size));
  }
  const obs::Span span("nn.predict");
  const int64_t n = images.size(0);
  obs::count(obs::Counter::kEvalSamples, n);
  const int64_t nbatches = (n + batch_size - 1) / batch_size;
  if (nbatches == 0) return Tensor();  // rp-lint: allow(R12) empty-input early return, never on the batch loop path

  const int shards = parallel::shard_count(nbatches - 1);
  ShardNets nets(net, shards);
  const SparseScope sparse_scope(net, nets);

  const int64_t rowsz = images.numel() / n;
  const float* src = images.data().data();

  // Batch 0 runs on the caller first to learn the per-sample logit extent.
  // The stitched result is heap-allocated once — callers keep it — and
  // every batch memcpys its rows straight into it, so no per-batch logits
  // outlive their batch.
  Tensor out;  // rp-lint: allow(R12) empty declaration, zero elements; storage lands in the once-per-call assignment below
  int64_t lrow = 0;
  {
    const int64_t end = std::min<int64_t>(batch_size, n);
    Tensor chunk = Tensor::scratch_copy(
        Shape{end, images.size(1), images.size(2), images.size(3)}, src);
    auto logits = net.forward(chunk, /*train=*/false);
    lrow = logits.numel() / logits.size(0);
    std::vector<int64_t> dims(logits.shape().dims().begin(), logits.shape().dims().end());
    dims[0] = n;
    out = Tensor(Shape(dims));  // rp-lint: allow(R12) stitched output allocated once per predict call
    std::memcpy(out.data().data(), logits.data().data(),
                static_cast<size_t>(logits.numel()) * sizeof(float));
  }
  float* od = out.data().data();

  parallel::run_shards(shards, nbatches - 1, [&](int s, int64_t b0, int64_t b1) {
    Network& worker = nets[s];
    for (int64_t bb = b0; bb < b1; ++bb) {
      const int64_t b = bb + 1;
      // Batch `b` owns rows [b*batch_size, end) of `out`, disjoint across
      // shards.
      const int64_t start = b * batch_size;
      const int64_t end = std::min<int64_t>(start + batch_size, n);
      Tensor chunk = Tensor::scratch_copy(
          Shape{end - start, images.size(1), images.size(2), images.size(3)},
          src + start * rowsz);
      auto logits = worker.forward(chunk, /*train=*/false);
      std::memcpy(od + start * lrow, logits.data().data(),
                  static_cast<size_t>(logits.numel()) * sizeof(float));
    }
  });
  return out;
}

// rp-lint: hot
void profile_activations(Network& net, const data::Dataset& ds, int64_t max_samples) {
  const obs::Span span("nn.profile_activations");
  const int64_t n = std::min<int64_t>(ds.size(), max_samples);
  constexpr int64_t kChunk = 64;
  const int64_t nchunks = (n + kChunk - 1) / kChunk;

  const int shards = parallel::shard_count(nchunks);
  ShardNets nets(net, shards);
  const SparseScope sparse_scope(net, nets);
  net.set_profiling(true);
  for (auto& c : nets.clones()) c->set_profiling(true);

  parallel::run_shards(shards, nchunks, [&](int s, int64_t c0, int64_t c1) {
    Network& worker = nets[s];
    std::vector<int64_t, mem::ScratchAllocator<int64_t>> idx{
        mem::ScratchAllocator<int64_t>(true)};
    for (int64_t chunk = c0; chunk < c1; ++chunk) {
      const int64_t start = chunk * kChunk;
      const int64_t end = std::min(start + kChunk, n);
      idx.resize(static_cast<size_t>(end - start));  // rp-lint: allow(R12) index scratch reused across chunks; grows to chunk size once, through the lane pool
      std::iota(idx.begin(), idx.end(), start);
      data::Batch batch = data::make_batch(ds, idx);
      worker.forward(batch.images, /*train=*/false);
    }
  });

  // Fold clone statistics back into `net`. The stats are per-channel maxima,
  // and max is exact and order-independent, so the merged result equals a
  // serial profiling pass bit-for-bit.
  const auto& dst_specs = net.prunable();
  for (auto& c : nets.clones()) {
    const auto& src_specs = c->prunable();
    for (size_t i = 0; i < dst_specs.size(); ++i) {
      auto merge = [](std::vector<float>& dst, const std::vector<float>& src) {
        for (size_t j = 0; j < dst.size(); ++j) dst[j] = std::max(dst[j], src[j]);
      };
      merge(*dst_specs[i].in_act_stat, *src_specs[i].in_act_stat);
      merge(*dst_specs[i].out_act_stat, *src_specs[i].out_act_stat);
    }
  }
  net.set_profiling(false);
}

}  // namespace rp::nn
