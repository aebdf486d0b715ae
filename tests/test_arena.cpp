// Memory-discipline engine suite (DESIGN.md "Memory discipline"). The
// contract under test: the lane pool only moves scratch bytes, so results
// are memcmp-identical to a serial, dense run on a cold lane — across
// threads, the sparse engine, and a lane whose free blocks hold NaN garbage;
// released blocks are ASan-poisoned while they wait on a free list; and after
// warmup the obs counters prove steady-state train/eval loops never fall
// through to the heap on any lane count.

#include "tensor/arena.hpp"

#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "data/synth.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "tensor/parallel.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace rp {
namespace {

/// Restores RP_SPARSE env resolution on test exit.
struct SparseGuard {
  ~SparseGuard() { sparse::reset(); }
};

/// Restores the default lane count on test exit.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

data::DatasetPtr tiny_ds() {
  data::SynthConfig cfg;
  cfg.n = 96;
  cfg.seed = 17;
  cfg.params.noise_sigma = 0.02f;
  cfg.params.clutter_prob = 0.0f;
  return data::make_synth_classification(cfg);
}

nn::TrainConfig tiny_config() {
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 32;
  tc.schedule.base_lr = 0.05f;
  tc.schedule.warmup_epochs = 0;
  tc.schedule.milestones = {};
  tc.seed = 5;
  return tc;
}

/// Flat bit-image of every parameter and buffer of a network state.
std::vector<float> state_bits(const nn::Network& net) {
  std::vector<float> out;
  for (const auto& [name, t] : net.state()) {
    out.insert(out.end(), t.data().begin(), t.data().end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Routing: every scratch block recycles through the lane pool

TEST(ArenaRouting, OutsideScopeBlocksRecycleThroughTheLanePool) {
  mem::release_lane();
  const float* first = nullptr;
  const float* second = nullptr;
  {
    Tensor a = Tensor::scratch(Shape{256});
    Tensor b = Tensor::scratch(Shape{256});
    a.fill(1.0f);
    first = a.data().data();
    second = b.data().data();
  }  // b is released first, then a
  // Released blocks sit on the lane free list...
  EXPECT_EQ(mem::lane_free_blocks(), 2u);
  {
    // ...and same-size requests reuse them last-released first, zeroed.
    Tensor t = Tensor::scratch(Shape{256});
    EXPECT_EQ(t.data().data(), first);
    for (float v : t.data()) EXPECT_EQ(v, 0.0f);
    Tensor u = Tensor::scratch(Shape{256});
    EXPECT_EQ(u.data().data(), second);
  }
  mem::release_lane();
}

// ---------------------------------------------------------------------------
// Copy/move kind semantics (the safety contract for scratch tensors)

TEST(ArenaKinds, CopiesAlwaysLandOnHeapMovesPreserveKind) {
  Tensor s = Tensor::scratch(Shape{32});
  s.fill(2.0f);
  EXPECT_TRUE(s.is_scratch());

  Tensor copy = s;  // copy-construction: heap, the value callers keep
  EXPECT_FALSE(copy.is_scratch());
  EXPECT_TRUE(bits_equal(copy, s));

  Tensor assigned;
  assigned = s;  // copy-assignment: heap as well
  EXPECT_FALSE(assigned.is_scratch());
  EXPECT_TRUE(bits_equal(assigned, s));

  Tensor heap(Shape{32});
  heap = Tensor::scratch(Shape{32});  // cross-kind move-assign: element copy
  EXPECT_FALSE(heap.is_scratch());

  Tensor moved = std::move(s);  // move-construction: keeps scratch storage
  EXPECT_TRUE(moved.is_scratch());
  for (float v : moved.data()) EXPECT_EQ(v, 2.0f);
}

// ---------------------------------------------------------------------------
// Poisoning: a read through a released scratch block is an ASan report

TEST(ArenaPoison, ReleasedBlockIsAsanPoisonedUntilReacquired) {
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
  mem::release_lane();
  void* p = mem::scratch_acquire(256);
  std::memset(p, 0x11, 256);
  EXPECT_EQ(__asan_address_is_poisoned(p), 0);
  mem::scratch_release(p, 256);
  EXPECT_EQ(mem::lane_free_blocks(), 1u);
  EXPECT_NE(__asan_address_is_poisoned(p), 0);
  EXPECT_NE(__asan_address_is_poisoned(static_cast<char*>(p) + 255), 0);
  // The same-bucket request pops the block and unpoisons it for use.
  void* q = mem::scratch_acquire(256);
  EXPECT_EQ(q, p);
  EXPECT_EQ(__asan_address_is_poisoned(q), 0);
  mem::scratch_release(q, 256);
  mem::release_lane();
#else
  GTEST_SKIP() << "pool poisoning is only live under AddressSanitizer";
#endif
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: the pool relocates bytes, never changes them

/// Pops every free block off the caller lane's pool, fills it with NaN and
/// pushes it back, so the next run recycles exactly the blocks the earlier
/// runs left behind. A scratch tensor that skipped its zero-fill then reads
/// NaN deterministically, instead of whatever a fresh heap page holds.
void dirty_lane() {
  std::size_t left = mem::lane_free_blocks();
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t b = 6; left > 0 && b < 32; ++b) {
    // With the pool's 64-byte block header this payload fills bucket b.
    const std::size_t bytes = (std::size_t{1} << b) - 64;
    for (;;) {
      blocks.emplace_back(mem::scratch_acquire(bytes), bytes);
      const std::size_t now = mem::lane_free_blocks();
      if (now == left) break;  // bucket b ran dry: that one was a fresh allocation
      left = now;
    }
  }
  ASSERT_EQ(left, 0u);
  for (const auto& [p, bytes] : blocks) {
    auto* f = static_cast<float*>(p);
    std::fill(f, f + bytes / sizeof(float), std::numeric_limits<float>::quiet_NaN());
  }
  for (const auto& [p, bytes] : blocks) mem::scratch_release(p, bytes);
}

TEST(ArenaBitIdentity, TrainEvaluatePredictMatchAcrossArenaThreadSparseMatrix) {
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  const auto ds = tiny_ds();
  const auto task = nn::synth_cifar_task();
  Rng rng(23);
  const Tensor images = Tensor::rand(Shape{6, task.in_c, task.in_h, task.in_w}, rng);

  // Reference run: serial, dense, on a cold lane — every scratch block is a
  // fresh heap allocation.
  sparse::force(sparse::Mode::kOff);
  parallel::set_num_threads(1);
  mem::release_lane();
  auto ref_net = nn::build_network("resnet8", task, 3);
  nn::train(*ref_net, *ds, tiny_config());
  const auto ref_state = state_bits(*ref_net);
  const nn::EvalResult ref_eval = nn::evaluate(*ref_net, *ds);
  const Tensor ref_pred = nn::predict(*ref_net, images, 4);

  const auto expect_matches_reference = [&] {
    auto net = nn::build_network("resnet8", task, 3);
    nn::train(*net, *ds, tiny_config());
    EXPECT_EQ(state_bits(*net), ref_state);

    const nn::EvalResult ev = nn::evaluate(*net, *ds);
    EXPECT_EQ(ev.loss, ref_eval.loss);
    EXPECT_EQ(ev.accuracy, ref_eval.accuracy);

    EXPECT_TRUE(bits_equal(nn::predict(*net, images, 4), ref_pred));
  };

  for (const int threads : {1, 4}) {
    for (const bool sparse_on : {false, true}) {
      SCOPED_TRACE(std::string("RP_THREADS=") + std::to_string(threads) +
                   " RP_SPARSE=" + (sparse_on ? "auto" : "off"));
      parallel::set_num_threads(threads);
      sparse::force(sparse_on ? sparse::Mode::kAuto : sparse::Mode::kOff);
      expect_matches_reference();
    }
  }

  // Serial and dense again, but every block the run recycles starts as NaN.
  SCOPED_TRACE("NaN-dirtied caller lane");
  parallel::set_num_threads(1);
  sparse::force(sparse::Mode::kOff);
  dirty_lane();
  obs::Config cfg;
  cfg.metrics = true;
  obs::configure(cfg);
  expect_matches_reference();
  const int64_t pool_hits = obs::counter_value(obs::Counter::kMemPoolHits);
  obs::configure({});
  EXPECT_GT(pool_hits, 0);  // the run really drew from the dirtied lists
  mem::release_lane();
}

// ---------------------------------------------------------------------------
// Steady state: after warmup, hot loops never fall through to the heap

TEST(ArenaSteadyState, WarmedUpTrainAndEvalAreHeapAllocationFree) {
  SparseGuard sparse_guard;
  ThreadGuard thread_guard;
  sparse::force(sparse::Mode::kOff);
  const auto ds = tiny_ds();

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("RP_THREADS=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    auto net = nn::build_network("resnet8", nn::synth_cifar_task(), 3);

    // Warmup: populates every lane's pool buckets (uncounted — metrics are
    // off). Lanes claim parallel chunks dynamically, so on a busy host a
    // worker can first meet some layer's chunk shape in a later round. Under
    // 4-6x CPU oversubscription one round left a miss in ~1 of 50 runs;
    // three rounds left none in 240.
    for (int round = 0; round < 3; ++round) {
      nn::train(*net, *ds, tiny_config());
      (void)nn::evaluate(*net, *ds);
    }

    obs::Config cfg;
    cfg.metrics = true;
    obs::configure(cfg);
    nn::train(*net, *ds, tiny_config());
    (void)nn::evaluate(*net, *ds);
    const int64_t heap_allocs = obs::counter_value(obs::Counter::kMemHeapAllocsHot);
    const int64_t pool_hits = obs::counter_value(obs::Counter::kMemPoolHits);
    obs::configure({});

    // The whole point of the engine: zero scratch requests hit the heap in
    // steady state, while the pool visibly carries the load.
    EXPECT_EQ(heap_allocs, 0);
    EXPECT_GT(pool_hits, 0);
  }
}

}  // namespace
}  // namespace rp
