#include "tensor/parallel.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "tensor/envspec.hpp"
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
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

/// Shared state of one parallel region. Chunks are claimed through an
/// atomic counter (idle lanes steal work), but chunk *boundaries* are fixed
/// by (begin, end, grain) alone — scheduling never changes which indices run
/// together, only who runs them. Every pool task is run_chunks() of a job.
struct ForJob {
  ForJob(int64_t b, int64_t e, int64_t g, FunctionRef<void(int64_t, int64_t)> f)
      : begin(b), end(e), grain(g), nchunks((e - b + g - 1) / g), fn(f) {}
  const int64_t begin;
  const int64_t end;
  const int64_t grain;
  const int64_t nchunks;
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

  /// Queues `helpers` tasks that each run the job's chunks.
  void submit(const std::shared_ptr<ForJob>& job, int helpers) {
    {
      std::lock_guard<std::mutex> lock(m_);
      ensure_workers_locked(threads_ - 1);
      for (int h = 0; h < helpers; ++h) {
        jobs_.push_back(job);  // rp-lint: allow(R12) pool task queue; one entry per helper lane, not per element
      }
    }
    for (int h = 0; h < helpers; ++h) cv_.notify_one();
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
      std::shared_ptr<ForJob> job;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (stop_ && jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job->run_chunks();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<ForJob>> jobs_;
  std::vector<std::thread> workers_;
  int threads_;
  bool stop_ = false;
};

/// Runs fn over [begin, end) in chunks of `grain` on up to `lanes` lanes, the
/// caller's included, and blocks until every chunk finished.
void run_job(int64_t begin, int64_t end, int64_t grain, int lanes,
             FunctionRef<void(int64_t, int64_t)> fn) {
  auto job = std::make_shared<ForJob>(begin, end, grain, fn);
  const int helpers = static_cast<int>(std::min<int64_t>(lanes, job->nchunks)) - 1;
  obs::count(obs::Counter::kPoolTasks, helpers);
  Pool::instance().submit(job, helpers);
  job->run_chunks();
  std::unique_lock<std::mutex> lock(job->m);
  job->cv.wait(lock,
               [&] { return job->done.load(std::memory_order_acquire) == job->nchunks; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace

int num_threads() { return Pool::instance().threads(); }

void set_num_threads(int k) { Pool::instance().set_threads(k); }

bool in_parallel_region() { return tl_depth > 0; }

int shard_count(int64_t items) {
  if (items <= 0) return 1;
  if (tl_depth > 0) return 1;
  return static_cast<int>(std::min<int64_t>(Pool::instance().threads(), items));
}

void parallel_for(int64_t begin, int64_t end, int64_t cost,
                  FunctionRef<void(int64_t, int64_t)> fn) {
  if (end <= begin) return;
  const int64_t n = end - begin;
  const int lanes = tl_depth > 0 ? 1 : Pool::instance().threads();
  const int64_t max_cost = std::numeric_limits<int64_t>::max() / n;
  const int64_t total = std::clamp<int64_t>(cost, 0, max_cost) * n;
  const int64_t chunks = std::min({n, 4 * int64_t{lanes}, total / kMinChunkFlops});
  if (lanes == 1 || chunks < 2) {
    // Inline dispatch is allocation-free: the FunctionRef is two pointers on
    // the stack and no job is built.
    fn(begin, end);
    return;
  }
  run_job(begin, end, (n + chunks - 1) / chunks, lanes, fn);
}

void run_shards(int shards, int64_t items,
                FunctionRef<void(int, int64_t, int64_t)> fn) {
  if (items <= 0 || shards < 1) return;
  const int64_t s_total = shards;
  auto body = [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t lo = s * items / s_total;
      const int64_t hi = (s + 1) * items / s_total;
      if (lo < hi) fn(static_cast<int>(s), lo, hi);
    }
  };
  const int lanes = tl_depth > 0 ? 1 : Pool::instance().threads();
  if (lanes == 1 || shards == 1) {
    body(0, s_total);
    return;
  }
  run_job(0, s_total, 1, lanes, body);
}

}  // namespace rp::parallel
