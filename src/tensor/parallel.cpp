#include "tensor/parallel.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "tensor/envspec.hpp"
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rp::parallel {

namespace {

/// > 0 while the current thread is executing chunks of some parallel loop.
thread_local int tl_depth = 0;  // rp-lint: allow(R3) per-lane nesting depth, pool-internal

int env_default_threads() {
  // Strict parse-or-exit(2): "RP_THREADS=4junk" used to run with 4 threads
  // via atoi; now any value that is not a positive integer (or the literal
  // "auto", matching the sibling RP_SIMD/RP_SPARSE grammar) kills
  // the process loudly instead of silently shaping every measurement.
  if (const char* env = std::getenv("RP_THREADS")) {
    const std::string text(env);
    if (text != "auto") {
      return env::die_on_bad_spec([&] {
        return static_cast<int>(env::parse_int_spec("RP_THREADS", text, 1, 1 << 20));
      });
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Lazily-initialized persistent pool. Workers park on a condition variable
/// between parallel regions; the pool lives (and its threads with it) until
/// static destruction, where they are stopped and joined.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;  // rp-lint: allow(R3) the one allowlisted pool singleton (DESIGN §6)
    return pool;
  }

  int threads() {
    std::lock_guard<std::mutex> lock(m_);
    return threads_;
  }

  void set_threads(int k) {
    std::lock_guard<std::mutex> lock(m_);
    threads_ = k >= 1 ? k : env_default_threads();
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(m_);
      ensure_workers_locked(threads_ - 1);
      tasks_.push_back(std::move(task));  // rp-lint: allow(R12) pool task queue; one entry per shard dispatch, not per element
    }
    cv_.notify_one();
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

 private:
  Pool() : threads_(env_default_threads()) {}

  void ensure_workers_locked(int want) {
    while (static_cast<int>(workers_.size()) < want) {
      // Lane ids double as trace thread ids (caller = 0, workers = 1..N), so
      // chrome://tracing rows line up with the pool's lane numbering.
      const int lane = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, lane] {  // rp-lint: allow(R12) one-time pool bring-up, not per-task work
        obs::set_thread_id(lane);
        worker_loop();
      });
    }
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  int threads_;
  bool stop_ = false;
};

/// Shared state of one parallel_for call. Chunks are claimed through an
/// atomic counter (idle lanes steal work), but chunk *boundaries* are fixed
/// by (begin, end, grain) alone — scheduling never changes which indices run
/// together, only who runs them.
struct ForJob {
  explicit ForJob(FunctionRef<void(int64_t, int64_t)> f) : fn(f) {}
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t nchunks = 0;
  FunctionRef<void(int64_t, int64_t)> fn;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by m

  void run_chunks() {
    ++tl_depth;
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      obs::count(obs::Counter::kPoolChunks);
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
      }
    }
    --tl_depth;
  }
};

}  // namespace

int num_threads() { return Pool::instance().threads(); }

void set_num_threads(int k) { Pool::instance().set_threads(k); }

bool in_parallel_region() { return tl_depth > 0; }

int shard_count(int64_t items) {
  if (items <= 0) return 1;
  if (tl_depth > 0) return 1;
  return static_cast<int>(std::min<int64_t>(Pool::instance().threads(), items));
}

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  FunctionRef<void(int64_t, int64_t)> fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t nchunks = (end - begin + grain - 1) / grain;
  const int lanes =
      tl_depth > 0 ? 1 : static_cast<int>(std::min<int64_t>(Pool::instance().threads(), nchunks));
  if (lanes == 1) {
    // Single-lane (and nested) dispatch is completely allocation-free: the
    // FunctionRef is two pointers on the stack and the job bookkeeping below
    // is skipped.
    fn(begin, end);
    return;
  }

  auto job = std::make_shared<ForJob>(fn);
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->nchunks = nchunks;
  obs::count(obs::Counter::kPoolTasks, lanes - 1);
  for (int h = 0; h < lanes - 1; ++h) {
    Pool::instance().submit([job] { job->run_chunks(); });
  }
  job->run_chunks();
  std::unique_lock<std::mutex> lock(job->m);
  job->cv.wait(lock,
               [&] { return job->done.load(std::memory_order_acquire) == job->nchunks; });
  if (job->error) std::rethrow_exception(job->error);
}

void run_shards(int shards, int64_t items,
                FunctionRef<void(int, int64_t, int64_t)> fn) {
  if (items <= 0 || shards < 1) return;
  const int64_t s_total = shards;
  // rp-lint: allow(R7) per-shard dispatch: one chunk per shard is the point
  parallel_for(0, s_total, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t lo = s * items / s_total;
      const int64_t hi = (s + 1) * items / s_total;
      if (lo < hi) fn(static_cast<int>(s), lo, hi);
    }
  });
}

}  // namespace rp::parallel
