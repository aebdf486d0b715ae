#include "tensor/arena.hpp"

#include <sanitizer/asan_interface.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"

namespace rp::mem {

namespace {

// -- block header -----------------------------------------------------------
// Every scratch block is preceded by one 64-byte header recording its
// bucket, so scratch_release routes correctly from any thread with no
// registry or lock. A header that fails the magic check is corruption: the
// release leaks the block rather than pushing garbage onto a free list.

constexpr std::size_t kHeaderBytes = 64;

constexpr std::uint64_t kMagicPool = 0x5250'504F'4F4C'5F31ull;  // "RPPOOL_1"

struct BlockHeader {
  std::uint64_t magic = 0;
  std::uint64_t bucket = 0;  ///< log2 of the block's byte size
};
static_assert(sizeof(BlockHeader) <= kHeaderBytes);

// -- per-lane state ---------------------------------------------------------

/// Pool buckets are pow2 byte sizes; index = log2(size). 2^6 .. 2^47 covers
/// one cache line through ~128 TB — far past any tensor here.
constexpr std::size_t kBucketCount = 48;
/// Free lists are bounded so a lane that only ever receives releases (a
/// worker that destroys tensors other lanes made) cannot hoard unboundedly.
constexpr std::size_t kMaxFreePerBucket = 64;

std::size_t bucket_bytes(std::size_t b) { return std::size_t{1} << b; }

/// Frees a free-listed block, which is ASan-poisoned while it waits.
void free_block(void* raw, std::size_t b) {
  ASAN_UNPOISON_MEMORY_REGION(raw, bucket_bytes(b));
  ::operator delete(raw);
}

struct Lane {
  std::array<std::vector<void*>, kBucketCount> pool;

  void clear() {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      for (void* p : pool[b]) free_block(p, b);
      pool[b].clear();
    }
  }
  ~Lane() { clear(); }
};

Lane& lane() {
  // rp-lint: allow(R3) per-lane pool state; each lane only pops its own lists
  thread_local Lane tl_lane;
  return tl_lane;
}

}  // namespace

// ---------------------------------------------------------------------------
// Raw routing

void* scratch_acquire(std::size_t bytes) {
  // The header alone fills bucket 6, so every block is at least a cache line.
  const auto b = static_cast<std::size_t>(std::bit_width(bytes + kHeaderBytes - 1));
  auto& list = lane().pool[b];
  void* raw = nullptr;
  if (!list.empty()) {
    raw = list.back();
    list.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(raw, bucket_bytes(b));
    obs::count(obs::Counter::kMemPoolHits);
  } else {
    raw = ::operator new(bucket_bytes(b));
    obs::count(obs::Counter::kMemHeapAllocsHot);
  }
  auto* hdr = static_cast<BlockHeader*>(raw);
  hdr->magic = kMagicPool;
  hdr->bucket = b;
  return static_cast<char*>(raw) + kHeaderBytes;
}

void scratch_release(void* p, std::size_t /*bytes*/) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeaderBytes;
  const auto* hdr = static_cast<const BlockHeader*>(raw);
  const std::size_t b = hdr->bucket;
  if (hdr->magic != kMagicPool || b >= kBucketCount) return;  // corrupted: leak, don't crash
  auto& list = lane().pool[b];
  if (list.size() < kMaxFreePerBucket) {
    list.push_back(raw);
    ASAN_POISON_MEMORY_REGION(raw, bucket_bytes(b));
  } else {
    ::operator delete(raw);
  }
}

// ---------------------------------------------------------------------------
// Diagnostics

std::size_t lane_free_blocks() {
  std::size_t n = 0;
  for (const auto& list : lane().pool) n += list.size();
  return n;
}

void release_lane() { lane().clear(); }

// ---------------------------------------------------------------------------
// Benchmark shim (see arena.hpp)

Scope::Scope(std::size_t /*model_bytes_hint*/) {}
Scope::~Scope() = default;

Mode mode() { return Mode::kPool; }

const char* mode_name(Mode /*m*/) { return "pool"; }

}  // namespace rp::mem
