#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rp::obs {

/// rp::obs — lightweight observability for the experiment stack: scoped
/// trace spans (chrome://tracing JSON), named counters, and a per-phase
/// wall/CPU summary printed at bench exit.
///
/// Activation is environment-driven and off by default:
///   RP_TRACE=path.json   record spans and write a chrome://tracing-loadable
///                        trace to path.json at exit (implies RP_OBS)
///   RP_OBS=1             keep counters and span aggregates, print the
///                        summary at exit (no trace file)
///
/// Contract (DESIGN.md §8): observability must never affect results. Spans
/// and counters only *read* the computation; wall-clock values never feed a
/// result, counters are atomics that no result path consults, and with both
/// variables unset every call site collapses to one predicted branch on a
/// relaxed atomic load (measured by BM_ObsDisabled in bench_micro_ops).

// ---------------------------------------------------------------------------
// Counters — a fixed enum-indexed set so the summary prints in a stable
// order and increments are branch+fetch_add, never a map lookup.

enum class Counter : int {
  kCacheHits = 0,       ///< artifact-cache reads served from disk
  kCacheMisses,         ///< artifact-cache reads that missed
  kCacheBytesRead,      ///< bytes loaded from cache artifacts
  kCacheBytesWritten,   ///< bytes written to cache artifacts
  kCacheCorrupt,        ///< corrupt artifacts quarantined (-> recompute)
  kCacheReadErrors,     ///< artifact loads that failed on plain I/O errors
  kIoRetries,           ///< durable-layer retries of transient I/O faults
  kFaultsInjected,      ///< fault-injection points that fired (RP_FAULTS)
  kGemmCalls,           ///< dense conv-kernel calls (conv and Linear products)
  kPoolTasks,           ///< tasks submitted to the worker pool
  kPoolChunks,          ///< parallel_for chunks executed (all lanes)
  kTrainSamples,        ///< samples seen by nn::train (per epoch pass)
  kEvalSamples,         ///< samples scored by nn::evaluate
  kGemmSparseCalls,     ///< CSR conv-kernel calls (conv and Linear forwards)
  kSparseNnz,           ///< nonzeros in weights compiled to a sparse layout
  kSparseBytesSaved,    ///< dense bytes minus compiled bytes, summed over compiles
  kMemArenaBytes,       ///< always 0; shim for bench_e2e, goes with the next benchmark change
  kMemArenaResets,      ///< always 0; shim for bench_e2e, goes with the next benchmark change
  kMemPoolHits,         ///< scratch requests served from a pool free list
  kMemHeapAllocsHot,    ///< scratch requests that fell through to the heap
  kServeRequests,       ///< requests admitted by the serving engine
  kServeBatches,        ///< coalesced batches the serving engine executed
  kServeRejects,        ///< requests rejected by admission control (queue full)
  kSchedCellsClaimed,   ///< grid cells this process claimed and ran (sched)
  kSchedCellsReclaimed, ///< stale/dead-owner leases reclaimed before a claim
  kSchedRetries,        ///< failed cell executions retried with backoff
  kSchedPoisoned,       ///< cells poisoned after the retry budget (grid holes)
  kSpans,               ///< trace spans recorded
  kSpansDropped,        ///< spans dropped after the trace buffer cap
  kCount
};

/// Stable display name ("cache.hits", ...) for the summary table.
const char* counter_name(Counter c);

namespace detail {
// Single source of truth for "is obs on at all" — read on every
// instrumentation call, so it must stay a relaxed atomic load.
// rp-lint: allow(R3) observability master switch; flipped only by configure()
extern std::atomic<bool> g_enabled;
// rp-lint: allow(R3) counter slots; atomics outside every result path
extern std::atomic<int64_t> g_counters[static_cast<int>(Counter::kCount)];
void span_end(const std::string& name, int64_t wall_start_ns, int64_t cpu_start_ns);
int64_t wall_now_ns();
int64_t cpu_now_ns();
}  // namespace detail

/// True when counters (and possibly tracing) are active.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Adds `delta` to a counter; one predicted branch when disabled.
inline void count(Counter c, int64_t delta = 1) {
  if (!enabled()) return;
  detail::g_counters[static_cast<int>(c)].fetch_add(delta, std::memory_order_relaxed);
}

/// Current value of a counter (0 while disabled or after reset).
int64_t counter_value(Counter c);

// ---------------------------------------------------------------------------
// Spans

/// RAII trace span covering a phase of work ("nn.train", "prune.cycle", ...).
/// Spans nest freely (per thread) and may carry dynamic names; they are meant
/// for phase-granularity scopes, not per-element loops.
class Span {
 public:
  explicit Span(std::string name)
      : active_(enabled()),
        wall_start_ns_(active_ ? detail::wall_now_ns() : 0),
        cpu_start_ns_(active_ ? detail::cpu_now_ns() : 0),
        name_(active_ ? std::move(name) : std::string()) {}
  /// Literal-name overload: no std::string is built while obs is disabled.
  explicit Span(const char* name)
      : active_(enabled()),
        wall_start_ns_(active_ ? detail::wall_now_ns() : 0),
        cpu_start_ns_(active_ ? detail::cpu_now_ns() : 0),
        name_(active_ ? name : "") {}
  ~Span() {
    if (active_) detail::span_end(name_, wall_start_ns_, cpu_start_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  int64_t wall_start_ns_;
  int64_t cpu_start_ns_;
  std::string name_;
};

/// Aggregated per-span-name stats (sorted by name — deterministic order).
struct SpanStat {
  std::string name;
  int64_t calls = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};
std::vector<SpanStat> span_stats();

// ---------------------------------------------------------------------------
// Configuration & lifecycle

struct Config {
  bool metrics = false;     ///< counters + summary at finish()
  std::string trace_path;   ///< chrome://tracing JSON path; empty = no trace
};

/// Replaces the active configuration and resets all counters, span
/// aggregates, and buffered trace events. Tests use this to enable obs
/// without touching the environment; Config{} turns everything off.
void configure(const Config& cfg);

/// Reads RP_TRACE / RP_OBS into configure(). Runs automatically at static
/// initialization of the obs translation unit; calling it again re-reads the
/// environment.
void init_from_env();

/// Current activation state (for tests / instrumented call sites that want
/// to skip expensive label formatting).
bool tracing_enabled();
bool metrics_enabled();

/// Writes the trace file (write-then-rename, so concurrent processes sharing
/// one RP_TRACE path never interleave) and prints the counter + per-span
/// wall/CPU summary to stderr. Idempotent until the next configure(); also
/// invoked via atexit so every instrumented binary flushes without
/// cooperation.
void finish();

// ---------------------------------------------------------------------------
// Pool integration — the thread pool names its workers so trace rows line up
// with pool lanes; any unregistered thread gets the next free id on first
// use. The main thread claims id 0 during static initialization.

/// Small integer id of the calling thread in trace output.
int thread_id();
/// Pins the calling thread's trace id (worker lanes use their lane index).
void set_thread_id(int id);

}  // namespace rp::obs
