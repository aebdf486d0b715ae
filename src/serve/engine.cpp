#include "serve/engine.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/obs.hpp"
#include "tensor/envspec.hpp"

namespace rp::serve {

// ---------------------------------------------------------------------------
// Config

EngineConfig EngineConfig::from_env() { return from_env(EngineConfig{}); }

EngineConfig EngineConfig::from_env(EngineConfig base) {
  return env::die_on_bad_spec([&] {
    EngineConfig cfg = base;
    if (const char* v = std::getenv("RP_SERVE_BATCH")) {
      cfg.max_batch = static_cast<int>(env::parse_int_spec("RP_SERVE_BATCH", v, 1, 1 << 20));
    }
    if (const char* v = std::getenv("RP_SERVE_QUEUE")) {
      cfg.queue_depth = static_cast<int>(env::parse_int_spec("RP_SERVE_QUEUE", v, 1, 1 << 20));
    }
    if (const char* v = std::getenv("RP_SERVE_WAIT_US")) {
      cfg.max_wait_us = env::parse_int_spec("RP_SERVE_WAIT_US", v, 0, int64_t{1} << 40);
    }
    return cfg;
  });
}

namespace {

EngineConfig validated(EngineConfig cfg) {
  if (cfg.max_batch < 1) {
    throw std::invalid_argument("serve: max_batch must be >= 1, got " +
                                std::to_string(cfg.max_batch));
  }
  if (cfg.queue_depth < 1) {
    throw std::invalid_argument("serve: queue_depth must be >= 1, got " +
                                std::to_string(cfg.queue_depth));
  }
  if (cfg.max_wait_us < 0) {
    throw std::invalid_argument("serve: max_wait_us must be >= 0, got " +
                                std::to_string(cfg.max_wait_us));
  }
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

Engine::Engine(const ModelRegistry& registry, const Router& router, EngineConfig cfg)
    : registry_(registry),
      router_(router),
      cfg_(validated(cfg)),
      max_wait_(cfg_.max_wait_us),
      slots_(static_cast<size_t>(cfg_.queue_depth)),
      pending_(static_cast<size_t>(cfg_.queue_depth), -1) {
  free_.reserve(slots_.size());
  // LIFO free list handed out back-to-front so slot 0 goes first (cosmetic,
  // but keeps tests readable).
  for (int i = static_cast<int>(slots_.size()) - 1; i >= 0; --i) free_.push_back(i);
  batch_idx_.reserve(slots_.size());
  group_idx_.reserve(slots_.size());
}

Engine::~Engine() { stop(); }

void Engine::start() {
  std::unique_lock<std::mutex> lock(m_);
  accepting_ = true;
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  lock.unlock();
  dispatcher_ = std::thread([this] { dispatch_loop(); });  // rp-lint: allow(R2) one long-lived dispatcher thread; all compute parallelism stays in rp::parallel
}

void Engine::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    accepting_ = false;
    if (!running_) return;
    stop_requested_ = true;
  }
  worker_cv_.notify_all();
  dispatcher_.join();
  std::lock_guard<std::mutex> lock(m_);
  running_ = false;
}

bool Engine::running() const {
  std::lock_guard<std::mutex> lock(m_);
  return running_;
}

Engine::Stats Engine::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Client side

std::optional<Engine::Ticket> Engine::submit(const Tensor& image, const std::string& tag) {
  const nn::TaskSpec& t = registry_.task();
  const bool chw = image.ndim() == 3 && image.size(0) == t.in_c && image.size(1) == t.in_h &&
                   image.size(2) == t.in_w;
  const bool nchw = image.ndim() == 4 && image.size(0) == 1 && image.size(1) == t.in_c &&
                    image.size(2) == t.in_h && image.size(3) == t.in_w;
  if (!chw && !nchw) {
    throw std::invalid_argument(
        "serve: request image shape " + image.shape().to_string() + " does not match task [" +
        std::to_string(t.in_c) + ", " + std::to_string(t.in_h) + ", " + std::to_string(t.in_w) +
        "] (pass one sample as [C,H,W] or [1,C,H,W])");
  }

  std::unique_lock<std::mutex> lock(m_);
  if (!accepting_ || free_.empty()) {
    // Admission control: a full slot table (or a stopping engine) rejects
    // *now* — back-pressure the client instead of queueing unboundedly.
    ++stats_.rejects;
    obs::count(obs::Counter::kServeRejects);
    return std::nullopt;
  }
  const int idx = free_.back();
  free_.pop_back();
  Slot& s = slots_[static_cast<size_t>(idx)];
  s.state = SlotState::kQueued;
  s.seq = ++next_seq_;
  s.tag = tag;
  s.input.resize(image.data().size());  // rp-lint: allow(R12) request staging buffer; grows to the task's sample size once per slot, then recycles
  std::memcpy(s.input.data(), image.data().data(), image.data().size() * sizeof(float));
  // Wall clock only shapes *batch boundaries* (which requests are coalesced
  // together); per-sample logits are batch-composition-invariant, so no
  // result ever depends on this read.
  s.enqueue_time = std::chrono::steady_clock::now();  // rp-lint: allow(R1) deadline bookkeeping; batching never changes results
  s.error.clear();
  pending_[(pending_head_ + pending_size_) % pending_.size()] = idx;
  ++pending_size_;
  ++stats_.requests;
  obs::count(obs::Counter::kServeRequests);
  lock.unlock();
  worker_cv_.notify_one();
  return Ticket{idx, s.seq};
}

void Engine::wait_into(const Ticket& ticket, Tensor* logits, RouteInfo* info) {
  if (ticket.slot < 0 || ticket.slot >= static_cast<int>(slots_.size())) {
    throw std::logic_error("serve: wait_into on an invalid ticket");
  }
  std::unique_lock<std::mutex> lock(m_);
  Slot& s = slots_[static_cast<size_t>(ticket.slot)];
  if (s.seq != ticket.seq) {
    throw std::logic_error("serve: stale ticket (already waited, or never issued)");
  }
  client_cv_.wait(lock, [&] {
    return s.seq == ticket.seq &&
           (s.state == SlotState::kDone || s.state == SlotState::kFailed);
  });

  if (s.state == SlotState::kFailed) {
    const std::string what = s.error;
    s.state = SlotState::kFree;
    s.seq = 0;  // seqs start at 1: a waited ticket can never match again
    free_.push_back(ticket.slot);
    throw std::runtime_error("serve: request failed: " + what);
  }

  if (info != nullptr) {
    info->variant_key = s.variant->key;
    info->ratio = s.variant->ratio;
    info->guideline = s.guideline;
    info->evidence_found = s.evidence_found;
  }
  const Shape out_shape{std::vector<int64_t>(s.out_dims.begin(), s.out_dims.end())};
  if (logits->shape() != out_shape) *logits = Tensor(out_shape);
  std::memcpy(logits->data().data(), s.output.data(), s.output.size() * sizeof(float));

  s.state = SlotState::kFree;
  s.seq = 0;  // see above: a waited ticket is stale from here on
  free_.push_back(ticket.slot);
}

bool Engine::infer(const Tensor& image, const std::string& tag, Tensor* logits,
                   RouteInfo* info) {
  const auto ticket = submit(image, tag);
  if (!ticket) return false;
  wait_into(*ticket, logits, info);
  return true;
}

// ---------------------------------------------------------------------------
// Dispatcher side

void Engine::dispatch_loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    worker_cv_.wait(lock, [&] { return stop_requested_ || pending_size_ > 0; });
    if (pending_size_ == 0) {
      if (stop_requested_) return;  // drained: every queued request answered
      continue;
    }
    // Deadline-aware coalescing: sleep until the oldest pending request's
    // age reaches max_wait, unless the batch fills (or stop drains) first.
    if (!stop_requested_ && pending_size_ < static_cast<size_t>(cfg_.max_batch)) {
      const auto deadline = slots_[static_cast<size_t>(pending_[pending_head_])].enqueue_time +
                            max_wait_;
      worker_cv_.wait_until(lock, deadline, [&] {
        return stop_requested_ || pending_size_ >= static_cast<size_t>(cfg_.max_batch);
      });
    }
    batch_idx_.clear();
    while (pending_size_ > 0 && batch_idx_.size() < static_cast<size_t>(cfg_.max_batch)) {
      batch_idx_.push_back(pending_[pending_head_]);
      pending_head_ = (pending_head_ + 1) % pending_.size();
      --pending_size_;
    }
    lock.unlock();
    execute(batch_idx_);
    lock.lock();
    client_cv_.notify_all();
  }
}

void Engine::execute(const std::vector<int>& batch) {
  try {
    // Route every request first (read-only over the router's evidence map),
    // then run one coalesced forward pass per distinct variant, walking the
    // registry ladder in its fixed order so execution order is
    // deterministic for a given batch composition.
    for (const int idx : batch) {
      Slot& s = slots_[static_cast<size_t>(idx)];
      const Router::Decision d = router_.route(s.tag);
      s.variant = d.variant;
      s.guideline = d.guideline;
      s.evidence_found = d.evidence_found;
    }
    for (const Variant& v : registry_.variants()) {
      group_idx_.clear();
      for (const int idx : batch) {
        if (slots_[static_cast<size_t>(idx)].variant == &v) group_idx_.push_back(idx);
      }
      if (!group_idx_.empty()) run_batch(v, group_idx_);
    }
  } catch (const std::exception& e) {
    fail_group(batch, e.what());
  }
}

// rp-lint: hot
void Engine::run_batch(const Variant& variant, const std::vector<int>& group) {
  const obs::Span span("serve.batch");
  obs::count(obs::Counter::kServeBatches);
  const nn::TaskSpec& t = registry_.task();
  const int64_t k = static_cast<int64_t>(group.size());
  const int64_t row = t.in_c * t.in_h * t.in_w;

  // The staged input tensor and every forward-pass temporary are lane-pool
  // scratch — steady-state serving never touches the heap (the response
  // rows live in per-slot buffers that grew once).
  Tensor batch = Tensor::scratch(Shape{k, t.in_c, t.in_h, t.in_w});
  float* bd = batch.data().data();
  for (int64_t i = 0; i < k; ++i) {
    std::memcpy(bd + i * row, slots_[static_cast<size_t>(group[static_cast<size_t>(i)])].input.data(),
                static_cast<size_t>(row) * sizeof(float));
  }

  // rp-lint: allow(R12) forward's result is lane-pool scratch, recycled when this batch returns
  Tensor logits = variant.net->forward(batch, /*train=*/false);
  const int64_t lrow = logits.numel() / k;
  const float* ld = logits.data().data();
  for (int64_t i = 0; i < k; ++i) {
    Slot& s = slots_[static_cast<size_t>(group[static_cast<size_t>(i)])];
    s.output.resize(static_cast<size_t>(lrow));  // rp-lint: allow(R12) response row buffer; grows to the logits extent once per slot, then recycles
    std::memcpy(s.output.data(), ld + i * lrow, static_cast<size_t>(lrow) * sizeof(float));
    s.out_dims.assign(logits.shape().dims().begin() + 1, logits.shape().dims().end());
  }

  std::lock_guard<std::mutex> lock(m_);
  ++stats_.batches;
  for (const int idx : group) slots_[static_cast<size_t>(idx)].state = SlotState::kDone;
}

void Engine::fail_group(const std::vector<int>& group, const std::string& what) {
  std::lock_guard<std::mutex> lock(m_);
  for (const int idx : group) {
    Slot& s = slots_[static_cast<size_t>(idx)];
    if (s.state != SlotState::kQueued) continue;  // already answered this flush
    s.state = SlotState::kFailed;
    s.error = what;
    ++stats_.failures;
  }
}

}  // namespace rp::serve
