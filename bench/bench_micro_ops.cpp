// Micro-benchmarks (google-benchmark) for the substrate operations that
// dominate experiment wall-clock, plus the DESIGN.md ablations:
//   - convolution and Linear forward+backward throughput
//   - masked-vs-dense cost (the masks-not-surgery design decision)
//   - pruning-score computation per method (sensitivity ablation)
//   - corruption throughput per family
//   - one BackSelect greedy step

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/backselect.hpp"
#include "core/pruner.hpp"
#include "corrupt/corruption.hpp"
#include "data/synth.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "tensor/conv.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation census for the BM_*Allocs benches: every operator new in
// this binary bumps a counter. The replacement exists in the bench binary
// only — the library is untouched — and delegates to malloc/free. The lane
// pool's block allocations go through operator new too, so a bucket miss
// after warmup shows up here: the benches measure per-step operator-new
// traffic, the thing the memory-discipline engine promises to eliminate.

// noinline: keeps the census bodies out of callers, which would otherwise
// trip GCC's -Wmismatched-new-delete (it sees the inlined free() paired with
// an operator-new result and cannot prove both sides route through malloc).
#define RP_ALLOC_HOOK __attribute__((noinline))

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

RP_ALLOC_HOOK void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
RP_ALLOC_HOOK void* operator new[](std::size_t size) { return ::operator new(size); }
RP_ALLOC_HOOK void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
RP_ALLOC_HOOK void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
RP_ALLOC_HOOK void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
RP_ALLOC_HOOK void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
RP_ALLOC_HOOK void operator delete(void* p) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::size_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
RP_ALLOC_HOOK void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace rp;

namespace {

/// Reports achieved arithmetic throughput; with kIs1000 the console shows
/// G/s and the JSON carries the raw FLOP/s number for cross-PR tracking.
void report_flops(benchmark::State& state, double flops_per_iter) {
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_iter, benchmark::Counter::kIsRate,
      benchmark::Counter::kIs1000);
}

/// Conv forward at one thread, forced-scalar vs dispatched ISA. FLOPs count
/// the im2col GEMM only (2 * out_c * patch * out_hw per sample).
void BM_ConvForwardSimd(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  parallel::set_num_threads(1);
  if (dispatched) {
    simd::reset();
  } else {
    simd::force(simd::Isa::kScalar);
  }
  Rng rng(3);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel(std::string("n8 c8->16 k3 16x16 @ 1 thread, ") +
                 simd::isa_name(simd::active()));
  simd::reset();
  parallel::set_num_threads(0);
  const double flops = 2.0 * 8 * 16 * (8 * 9) * (16 * 16);
  report_flops(state, flops);
}
BENCHMARK(BM_ConvForwardSimd)->Arg(0)->Arg(1)->UseRealTime();

/// The pool's wake-up cost, behind parallel_for's kMinChunkFlops (DESIGN.md
/// §6): one region of two chunks, each a dependent chain of `range(0)`·1024
/// fmas, at two lanes (range(1) = 1) against the same region at one lane,
/// which runs inline (0). The inline row times the two chunks; a parked
/// worker that wakes within a chunk takes the second one, so the region
/// takes one chunk plus the wake-up, and otherwise both chunks run on the
/// caller.
void BM_PoolWake(benchmark::State& state) {
  const int64_t iters = state.range(0) * 1024;
  parallel::set_num_threads(state.range(1) != 0 ? 2 : 1);
  double out[2] = {};
  const auto chunk = [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      double x = 1.0 + static_cast<double>(i);
      for (int64_t k = 0; k < iters; ++k) x = std::fma(x, 0.999999, 1e-7);
      out[i] = x;
    }
  };
  for (auto _ : state) {
    parallel::parallel_for(0, 2, parallel::kMinChunkFlops, chunk);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(state.range(1) != 0 ? "2 chunks @ 2 lanes" : "2 chunks inline");
  parallel::set_num_threads(0);
}
BENCHMARK(BM_PoolWake)
    ->ArgsProduct({{4, 8, 16, 32, 64}, {0, 1}})
    ->UseRealTime();

/// Conv backward at one thread, forced-scalar vs dispatched ISA. FLOPs count
/// the dW and dx GEMMs (2x the forward GEMM work).
void BM_ConvBackwardSimd(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  parallel::set_num_threads(1);
  if (dispatched) {
    simd::reset();
  } else {
    simd::force(simd::Isa::kScalar);
  }
  Rng rng(4);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  Tensor y = conv.forward(x, true);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetLabel(std::string("n8 c8->16 k3 16x16 @ 1 thread, ") +
                 simd::isa_name(simd::active()));
  simd::reset();
  parallel::set_num_threads(0);
  const double flops = 2.0 * 2.0 * 8 * 16 * (8 * 9) * (16 * 16);
  report_flops(state, flops);
}
BENCHMARK(BM_ConvBackwardSimd)->Arg(0)->Arg(1)->UseRealTime();

/// Conv backward over resnet8's nine conv geometries (16×16 synthetic
/// input, base width 8), one per arg in network order: a training batch of
/// 64 at one thread, dispatched ISA. FLOPs count both gradients, dW and dx
/// (2 × 2 · out_c · patch · out_hw per sample).
struct Resnet8Conv {
  int64_t in_c, out_c, k, stride, pad, hw;
  const char* name;
};
constexpr Resnet8Conv kResnet8Convs[] = {
    {3, 8, 3, 1, 1, 16, "stem 3->8 k3 16x16"},     {8, 8, 3, 1, 1, 16, "s1.b1.1 8->8 k3 16x16"},
    {8, 8, 3, 1, 1, 16, "s1.b1.2 8->8 k3 16x16"},  {8, 16, 3, 2, 1, 16, "s2.b1.1 8->16 k3 s2 16x16"},
    {16, 16, 3, 1, 1, 8, "s2.b1.2 16->16 k3 8x8"}, {8, 16, 1, 2, 0, 16, "s2.b1.proj 8->16 k1 s2 16x16"},
    {16, 32, 3, 2, 1, 8, "s3.b1.1 16->32 k3 s2 8x8"}, {32, 32, 3, 1, 1, 4, "s3.b1.2 32->32 k3 4x4"},
    {16, 32, 1, 2, 0, 8, "s3.b1.proj 16->32 k1 s2 8x8"},
};

void BM_ConvBackwardResnet8(benchmark::State& state) {
  const Resnet8Conv& g = kResnet8Convs[state.range(0)];
  constexpr int64_t kBatch = 64;
  parallel::set_num_threads(1);
  Rng rng(12);
  nn::Conv2d conv("c", g.in_c, g.out_c, g.k, g.stride, g.pad, g.hw, g.hw, false, rng);
  Tensor x = Tensor::randn(Shape{kBatch, g.in_c, g.hw, g.hw}, rng);
  Tensor y = conv.forward(x, true);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  parallel::set_num_threads(0);
  state.SetLabel(std::string(g.name) + ", n64 @ 1 thread, " + simd::isa_name(simd::active()));
  const double patch = static_cast<double>(g.in_c * g.k * g.k);
  report_flops(state, 2.0 * 2.0 * kBatch * static_cast<double>(g.out_c) * patch *
                          static_cast<double>(y.size(2) * y.size(3)));
}
BENCHMARK(BM_ConvBackwardResnet8)->DenseRange(0, 8)->UseRealTime();

/// The acceptance benchmark for the compile-to-sparse engine: an n³ Linear
/// product y = x·wᵀ (rp::sparse::rhs_matmul_into, the engine's matrix
/// entry) at one thread with the weight unstructured-pruned to a target
/// density (per-mille in arg 1), compiled dense (arg 2 = 0) or CSR (1): the
/// dense or CSR conv kernel as a 1×1 conv over Yᵀ = W·Xᵀ, zero weights
/// skipped either way. Both variants
/// are bit-identical in output (tests/test_sparse.cpp); the dense rows at
/// each density are the baseline of the committed speedup-vs-density
/// curves. Acceptance: ≥3× over dense at ≤10% density.
void BM_SparseGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  const int64_t layout = state.range(2);
  parallel::set_num_threads(1);
  Rng rng(11);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  if (density < 1.0) {
    for (float& v : a.data()) {
      if (rng.uniform() >= static_cast<float>(density)) v = 0.0f;
    }
  }
  Tensor x = Tensor::randn(Shape{n, n}, rng);
  Tensor y(Shape{n, n});
  const auto w = sparse::compile(a, layout == 0 ? sparse::Mode::kOff : sparse::Mode::kCsr);
  for (auto _ : state) {
    sparse::rhs_matmul_into(a, w, x, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  parallel::set_num_threads(0);
  // Dense-equivalent FLOPs on purpose: the curves compare layouts at equal
  // problem size, so speedup reads directly off the FLOPS ratio.
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  report_flops(state, 2.0 * static_cast<double>(n * n * n));
  const char* kLayoutNames[] = {"dense", "csr"};
  state.SetLabel(std::to_string(n) + "^3 @ 1 thread, density " + std::to_string(density) +
                 ", " + kLayoutNames[layout]);
}
BENCHMARK(BM_SparseGemm)
    ->ArgsProduct({{128, 256, 512}, {1000, 500, 200, 100, 50}, {0, 1}})
    ->UseRealTime();

/// The acceptance benchmark for the observability layer: counter increments
/// and span construction with obs disabled must collapse to one predicted
/// branch each — this pins that cost in the committed record. Arg(1)
/// measures the enabled path for contrast (metrics only, no trace buffer).
void BM_ObsDisabled(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  obs::Config cfg;
  cfg.metrics = on;
  obs::configure(cfg);
  for (auto _ : state) {
    obs::count(obs::Counter::kGemmCalls);
    benchmark::DoNotOptimize(obs::enabled());
  }
  state.SetLabel(on ? "counters enabled" : "counters disabled");
  obs::init_from_env();
}
BENCHMARK(BM_ObsDisabled)->Arg(0)->Arg(1);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::configure(obs::Config{});
  for (auto _ : state) {
    const obs::Span span("bench.noop");
    benchmark::DoNotOptimize(obs::enabled());
  }
  obs::init_from_env();
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_ConvForward);

/// Conv forward through the CSR conv kernel: the resnet8 s1 geometry (c8->8
/// k3 s1, 16x16) at batch 8, one thread, unstructured-pruned to density
/// 0.17 and compiled with RP_SPARSE=csr. FLOPs count the dense-equivalent
/// GEMM, so the row reads directly against a dense forward of the same size.
void BM_ConvForwardCsr(benchmark::State& state) {
  parallel::set_num_threads(1);
  sparse::force(sparse::Mode::kCsr);
  Rng rng(5);
  nn::Conv2d conv("c", 8, 8, 3, 1, 1, 16, 16, false, rng);
  nn::Parameter& w = conv.weight();
  for (int64_t j = 0; j < w.mask.numel(); ++j) {
    if (rng.uniform() >= 0.17f) w.mask[j] = 0.0f;
  }
  w.enforce_mask();
  conv.set_sparse(true);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  conv.set_sparse(false);
  sparse::reset();
  parallel::set_num_threads(0);
  state.SetLabel("n8 c8->8 k3 16x16 @ 1 thread, density 0.17, csr");
  report_flops(state, 2.0 * 8 * 8 * (8 * 9) * (16 * 16));
}
BENCHMARK(BM_ConvForwardCsr)->UseRealTime();

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  Tensor y = conv.forward(x, false);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
}
BENCHMARK(BM_ConvBackward);

/// Ablation (DESIGN.md "masks, not surgery"): a forward pass at 90% sparsity
/// costs the same as dense under the mask representation — the FLOP model,
/// not the wall-clock, accounts for sparsity. Rows of zeros *are* skipped by
/// the GEMM kernel's zero check, so structured sparsity shows real savings.
void BM_MaskedForward(benchmark::State& state) {
  const bool structured = state.range(0) != 0;
  Rng rng(5);
  nn::Conv2d conv("c", 8, 16, 3, 1, 1, 16, 16, false, rng);
  auto& w = conv.weight();
  if (structured) {
    for (int64_t r = 0; r < 14; ++r) {  // kill 14 of 16 filters (rows)
      for (int64_t j = 0; j < w.value.size(1); ++j) {
        w.mask.at(r, j) = 0.0f;
      }
    }
  } else {
    for (int64_t i = 0; i < w.value.numel() * 9 / 10; ++i) w.mask[i] = 0.0f;
  }
  w.enforce_mask();
  Tensor x = Tensor::randn(Shape{8, 8, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel(structured ? "structured 87% (rows zero)" : "unstructured 90%");
}
BENCHMARK(BM_MaskedForward)->Arg(0)->Arg(1);

/// Ablation: score computation cost per pruning method (the data-informed
/// methods pay for profiling separately; this isolates the ranking).
void BM_PruneToRatio(benchmark::State& state) {
  const auto method = static_cast<core::PruneMethod>(state.range(0));
  data::SynthConfig cfg;
  cfg.n = 32;
  cfg.seed = 6;
  auto ds = data::make_synth_classification(cfg);
  for (auto _ : state) {
    state.PauseTiming();
    auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
    nn::profile_activations(*net, *ds, 32);
    state.ResumeTiming();
    core::prune_to_ratio(*net, method, 0.5);
    benchmark::DoNotOptimize(net->prune_ratio());
  }
  state.SetLabel(core::to_string(method));
}
BENCHMARK(BM_PruneToRatio)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Iterations(10);

void BM_Corruption(benchmark::State& state) {
  const auto& c = *corrupt::registry()[static_cast<size_t>(state.range(0))];
  data::SynthConfig cfg;
  cfg.n = 1;
  cfg.seed = 7;
  Tensor img = data::make_synth_classification(cfg)->image(0);
  Rng rng(8);
  for (auto _ : state) {
    Tensor out = c.apply(img, 3, rng);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetLabel(c.name());
}
BENCHMARK(BM_Corruption)->DenseRange(0, 15);

void BM_SynthGeneration(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    data::SynthConfig cfg;
    cfg.n = 64;
    cfg.seed = ++seed;
    auto ds = data::make_synth_classification(cfg);
    benchmark::DoNotOptimize(ds->size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SynthGeneration);

void BM_TrainingStep(benchmark::State& state) {
  data::SynthConfig cfg;
  cfg.n = 64;
  cfg.seed = 9;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  std::vector<int64_t> idx(64);
  for (int64_t i = 0; i < 64; ++i) idx[static_cast<size_t>(i)] = i;
  data::Batch batch = data::make_batch(*ds, idx);
  for (auto _ : state) {
    Tensor logits = net->forward(batch.images, true);
    const auto lr = nn::softmax_cross_entropy(logits, batch.labels);
    net->zero_grad();
    net->backward(lr.dlogits);
    benchmark::DoNotOptimize(lr.loss);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrainingStep);

/// Per-step operator-new count of a warmed-up training step — the
/// memory-discipline acceptance number: the steady state makes zero trips
/// through operator new per step (scratch tensors recycle warm lane-pool
/// blocks). Iterations are pinned so the count is exact. range(0) is the lane
/// count: at 1 the census is single-lane, at 2 it also counts what the
/// regions that go across lanes allocate.
void BM_TrainStepAllocs(benchmark::State& state) {
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  data::SynthConfig cfg;
  cfg.n = 64;
  cfg.seed = 9;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  std::vector<int64_t> idx(64);
  for (int64_t i = 0; i < 64; ++i) idx[static_cast<size_t>(i)] = i;
  data::Batch batch = data::make_batch(*ds, idx);
  const auto step = [&] {
    Tensor logits = net->forward(batch.images, true);
    const auto lr = nn::softmax_cross_entropy(logits, batch.labels);
    net->zero_grad();
    net->backward(lr.dlogits);
    benchmark::DoNotOptimize(lr.loss);
  };
  for (int i = 0; i < 3; ++i) step();  // warm the lane pool
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) step();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  state.counters["heap_allocs_per_step"] = benchmark::Counter(
      static_cast<double>(after - before) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * 64);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_TrainStepAllocs)->Arg(1)->Arg(2)->Iterations(20);

/// Same census for a full evaluate() pass (batched forward + argmax + loss).
void BM_EvalAllocs(benchmark::State& state) {
  parallel::set_num_threads(1);
  data::SynthConfig cfg;
  cfg.n = 128;
  cfg.seed = 13;
  auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  for (int i = 0; i < 2; ++i) nn::evaluate(*net, *ds);  // warm the lane pool
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const auto metrics = nn::evaluate(*net, *ds);
    benchmark::DoNotOptimize(metrics.loss);
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  state.counters["heap_allocs_per_step"] = benchmark::Counter(
      static_cast<double>(after - before) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * 128);
  parallel::set_num_threads(0);
}
BENCHMARK(BM_EvalAllocs)->Iterations(10);

void BM_BackselectStep(benchmark::State& state) {
  auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 1);
  data::SynthConfig cfg;
  cfg.n = 1;
  cfg.seed = 10;
  Tensor img = data::make_synth_classification(cfg)->image(0);
  core::BackSelectConfig bs;
  bs.chunk = 128;  // two steps over 256 pixels
  for (auto _ : state) {
    auto order = core::backselect_order(*net, img, 0, bs);
    benchmark::DoNotOptimize(order.size());
  }
}
BENCHMARK(BM_BackselectStep)->Iterations(3);

}  // namespace

/// Shared micro-bench main (bench/common.hpp): median-of-5 repetitions,
/// aggregates-only reporting, JSON record in BENCH_micro_ops.json for
/// cross-PR trajectory tracking. Explicit command-line flags win.
int main(int argc, char** argv) {
  return rp::bench::run_micro_bench_main(argc, argv, "BENCH_micro_ops.json");
}
