#include "tensor/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace rp::parallel {
namespace {

constexpr int64_t kMin = kMinChunkFlops;

/// Counters on, lane count restored and counters off afterwards.
class ParallelFor : public ::testing::Test {
 protected:
  void SetUp() override { obs::configure(obs::Config{true, ""}); }
  void TearDown() override {
    set_num_threads(0);
    obs::configure(obs::Config{});
  }
};

/// What one parallel_for call did: the chunk each index ran in, and how
/// often each index ran.
struct Calls {
  std::vector<int64_t> lo, hi;
  std::vector<int> runs;
};

Calls record(int64_t begin, int64_t end, int64_t cost) {
  const auto n = static_cast<size_t>(end - begin);
  Calls c{std::vector<int64_t>(n, -1), std::vector<int64_t>(n, -1), std::vector<int>(n, 0)};
  parallel_for(begin, end, cost, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      c.lo[static_cast<size_t>(i - begin)] = i0;
      c.hi[static_cast<size_t>(i - begin)] = i1;
      c.runs[static_cast<size_t>(i - begin)] += 1;
    }
  });
  return c;
}

/// The chunk boundaries the cost rule promises for (begin, end, cost, lanes).
std::vector<std::pair<int64_t, int64_t>> expected_chunks(int64_t begin, int64_t end,
                                                         int64_t cost, int lanes) {
  const int64_t n = end - begin;
  const int64_t total = std::min(cost, std::numeric_limits<int64_t>::max() / n) * n;
  const int64_t chunks = std::min({n, 4 * int64_t{lanes}, total / kMin});
  if (lanes == 1 || chunks < 2) return {{begin, end}};
  const int64_t grain = (n + chunks - 1) / chunks;
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t lo = begin; lo < end; lo += grain) out.emplace_back(lo, std::min(end, lo + grain));
  return out;
}

TEST_F(ParallelFor, EveryIndexRunsOnceInTheChunksOfTheCostRule) {
  const std::vector<int64_t> sizes = {1, 2, 3, 7, 16, 64, 1000};
  const std::vector<int64_t> costs = {0,        1,       kMin / 3, kMin / 2, kMin,
                                      3 * kMin, kMin * 1000, std::numeric_limits<int64_t>::max()};
  for (int lanes : {1, 2, 4}) {
    set_num_threads(lanes);
    for (int64_t n : sizes) {
      for (int64_t cost : costs) {
        SCOPED_TRACE(::testing::Message() << "lanes " << lanes << " n " << n << " cost " << cost);
        const int64_t begin = 5, end = begin + n;
        const Calls c = record(begin, end, cost);
        std::vector<std::pair<int64_t, int64_t>> seen;
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(c.runs[static_cast<size_t>(i)], 1) << "index " << begin + i;
          seen.emplace_back(c.lo[static_cast<size_t>(i)], c.hi[static_cast<size_t>(i)]);
        }
        seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
        EXPECT_EQ(seen, expected_chunks(begin, end, cost, lanes));
        // The chunk count never exceeds total / kMinChunkFlops nor 4·lanes.
        if (seen.size() > 1) {
          const int64_t total = std::min(cost, std::numeric_limits<int64_t>::max() / n) * n;
          EXPECT_LE(static_cast<int64_t>(seen.size()), total / kMin);
          EXPECT_LE(static_cast<int64_t>(seen.size()), 4 * int64_t{lanes});
        }
      }
    }
  }
}

TEST_F(ParallelFor, RegionBelowTheThresholdRunsAsOneInlineCall) {
  set_num_threads(4);
  // 64 indices whose total work is below two chunks' worth: one call over
  // the whole range, and no task reaches the pool.
  for (int64_t cost : {int64_t{0}, kMin / 64, (2 * kMin - 1) / 64}) {
    SCOPED_TRACE(cost);
    const int64_t tasks = obs::counter_value(obs::Counter::kPoolTasks);
    const int64_t chunks = obs::counter_value(obs::Counter::kPoolChunks);
    const Calls c = record(0, 64, cost);
    for (size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(c.lo[i], 0);
      EXPECT_EQ(c.hi[i], 64);
    }
    EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasks), tasks);
    EXPECT_EQ(obs::counter_value(obs::Counter::kPoolChunks), chunks);
  }
  // At two chunks' worth the region goes across lanes: two chunks, one task.
  const int64_t tasks = obs::counter_value(obs::Counter::kPoolTasks);
  const int64_t chunks = obs::counter_value(obs::Counter::kPoolChunks);
  record(0, 64, 2 * kMin / 64);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasks), tasks + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolChunks), chunks + 2);
}

TEST_F(ParallelFor, NestedCallRunsInline) {
  set_num_threads(4);
  EXPECT_FALSE(in_parallel_region());
  constexpr int64_t kOuter = 8, kInner = 32;
  std::vector<int> whole(kOuter, 0);
  std::vector<int> nested(kOuter, 0);
  parallel_for(0, kOuter, kMin, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      nested[static_cast<size_t>(i)] = in_parallel_region() ? 1 : 0;
      // Enough work for every lane, yet one call over the whole range: the
      // only chunk that begins is the one at 0, and it ends at kInner.
      std::vector<int64_t> ends(kInner, -1);
      parallel_for(0, kInner, kMin,
                   [&](int64_t j0, int64_t j1) { ends[static_cast<size_t>(j0)] = j1; });
      const auto begun = std::count_if(ends.begin(), ends.end(), [](int64_t e) { return e >= 0; });
      whole[static_cast<size_t>(i)] = begun == 1 && ends[0] == kInner ? 1 : 0;
    }
  });
  for (int64_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(nested[static_cast<size_t>(i)], 1);
    EXPECT_EQ(whole[static_cast<size_t>(i)], 1) << "outer index " << i;
  }
  EXPECT_FALSE(in_parallel_region());
}

TEST_F(ParallelFor, ExceptionIsRethrownAfterEveryChunkFinished) {
  for (int lanes : {1, 2, 4}) {
    SCOPED_TRACE(lanes);
    set_num_threads(lanes);
    // kMin per index: eight chunks of one index each across lanes.
    constexpr int64_t kN = 8;
    std::vector<int> finished(kN, 0);
    try {
      parallel_for(0, kN, kMin, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          if (i == 0) throw std::runtime_error("chunk 0");
          // A few ms of dependent work, so the throw comes first.
          double x = 1.0;
          for (int k = 0; k < 1 << 20; ++k) x = std::fma(x, 0.999999, 1e-7);
          finished[static_cast<size_t>(i)] = x > 0.0 ? 1 : 2;
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 0");
    }
    // Inline, the throw ends the one call; across lanes every other chunk
    // still ran to its end before the rethrow.
    for (int64_t i = 1; i < kN; ++i) {
      EXPECT_EQ(finished[static_cast<size_t>(i)], lanes == 1 ? 0 : 1) << "index " << i;
    }
  }
}

TEST_F(ParallelFor, RunShardsPartitionsByTheFixedFormula) {
  for (int lanes : {1, 2, 4}) {
    set_num_threads(lanes);
    for (int shards = 1; shards <= 5; ++shards) {
      for (int64_t items : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{100}}) {
        SCOPED_TRACE(::testing::Message()
                     << "lanes " << lanes << " shards " << shards << " items " << items);
        std::vector<int64_t> lo(static_cast<size_t>(shards), -1), hi(static_cast<size_t>(shards), -1);
        run_shards(shards, items, [&](int s, int64_t b0, int64_t b1) {
          lo[static_cast<size_t>(s)] = b0;
          hi[static_cast<size_t>(s)] = b1;
        });
        for (int s = 0; s < shards; ++s) {
          const int64_t want_lo = s * items / shards, want_hi = (s + 1) * items / shards;
          if (want_lo == want_hi) {
            // An empty shard is never called.
            EXPECT_EQ(lo[static_cast<size_t>(s)], -1) << "shard " << s;
          } else {
            EXPECT_EQ(lo[static_cast<size_t>(s)], want_lo) << "shard " << s;
            EXPECT_EQ(hi[static_cast<size_t>(s)], want_hi) << "shard " << s;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rp::parallel
