#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

// rp::mem — the memory-discipline engine: one size-bucketed scratch pool per
// lane. It backs Tensor::scratch(), the sanctioned construction path for
// hot-loop temporaries (DESIGN.md "Memory discipline"; rp-lint R12 treats it
// as allocation-free).
//
// Contract: the pool only changes *where* scratch bytes live, never a single
// arithmetic operation. Every scratch tensor is zero-filled on acquisition
// exactly like Tensor(Shape), so results are bit-identical to plain heap
// tensors. The memcmp tests in tests/test_arena.cpp enforce this across
// RP_THREADS × RP_SPARSE and on a lane whose free blocks were dirtied first.
//
// Ownership: each pool lane (caller thread + worker lanes) owns one set of
// pow2-bucketed LIFO free lists — no locks on the hot path. A released block
// goes back to the releasing lane's list and is handed out again, cache-hot,
// by the next same-bucket request, so a loop reaches steady state after its
// first iteration and then recycles forever. Under ASan, free-listed blocks
// are poisoned, so a read through a dangling scratch tensor is reported.
namespace rp::mem {

// ---------------------------------------------------------------------------
// Raw scratch routing (used by ScratchAllocator below).

/// Acquires storage for `bytes` bytes of scratch from the calling lane's
/// pool (heap on a bucket miss). The returned block is NOT zeroed —
/// Tensor::scratch zero-fills through its vector constructor. Never returns
/// nullptr (throws std::bad_alloc).
void* scratch_acquire(std::size_t bytes);

/// Returns a scratch_acquire block to the releasing lane's free list (or the
/// heap when that bucket is full). Safe from any thread — the bucket rides
/// in a header ahead of the block, not in a registry.
void scratch_release(void* p, std::size_t bytes) noexcept;

// ---------------------------------------------------------------------------
// Diagnostics & tests.

/// Free-listed blocks in the calling lane's pool (counters are in rp::obs).
std::size_t lane_free_blocks();

/// Frees the calling lane's pool free lists (tests use this to start from a
/// cold lane; never needed in production code).
void release_lane();

// ---------------------------------------------------------------------------
// ScratchAllocator — routes std::vector storage through the pool.
//
// Tensor's element vector uses this allocator. The `scratch` flag is the
// whole policy:
//   - scratch=false (the default) behaves exactly like std::allocator.
//   - scratch=true routes through scratch_acquire/scratch_release.
// Copy construction always lands on heap (select_on_container_copy_
// construction drops the flag): a copy of a scratch temporary is meant to
// be kept. Cross-kind assignment compares unequal, so vector falls back to
// element-wise copy into the destination's own storage — a heap tensor can
// never silently take over a pool block.

template <typename T>
struct ScratchAllocator {
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  bool scratch = false;

  ScratchAllocator() = default;
  explicit ScratchAllocator(bool s) : scratch(s) {}
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>& o) : scratch(o.scratch) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (scratch) return static_cast<T*>(scratch_acquire(n * sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (scratch) {
      scratch_release(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  /// Copies are always heap-backed — they are the values callers keep.
  ScratchAllocator select_on_container_copy_construction() const { return ScratchAllocator(); }

  friend bool operator==(const ScratchAllocator& a, const ScratchAllocator& b) {
    return a.scratch == b.scratch;
  }
  friend bool operator!=(const ScratchAllocator& a, const ScratchAllocator& b) {
    return !(a == b);
  }
};

// ---------------------------------------------------------------------------
// Benchmark shim: bench/e2e/bench_e2e.cpp still compiles against the old
// arena API. Nothing else may use these; they have no effect.

/// Shim: goes with the next benchmark change. Stateless; opens nothing.
class Scope {
 public:
  explicit Scope(std::size_t model_bytes_hint);
  ~Scope();  // user-provided, so bench_e2e's unused `const Scope` locals stay warning-free
};

/// Shim: goes with the next benchmark change. The pool is the only mode.
enum class Mode { kPool };

/// Shim: goes with the next benchmark change. Always Mode::kPool.
Mode mode();

/// Shim: goes with the next benchmark change. Always "pool".
const char* mode_name(Mode m);

}  // namespace rp::mem
