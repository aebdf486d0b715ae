// bench_e2e — one end-to-end benchmark workload per process.
//
//   bench_e2e --workload NAME --seed N --seconds T --work DIR [--trace PATH] [--smoke]
//
//   family_cold  one cold prune-retrain family (train, 5 WT cycles, nominal
//                curve) into an empty cache; training dominates
//   shift_grid   eval-only pass: bake 16 corruptions, then a WT+FT grid over
//                17 distributions from cached checkpoints, reduced to Def. 1
//                potentials; sparse eval, checkpoint reads and scheduling
//   serve_mixed  rp::serve under open-loop Poisson load at 1000 and 2000 rps,
//                then a closed loop of 32 outstanding requests; queueing,
//                batching and routing
//
// Every library call made here is public. The traced run (--trace) wraps its
// one op in an "e2e.op" span and the benchmark's own top-level calls and
// waits in "e2e.*" spans; with the spans src/ emits, the trace file lets
// bench/e2e/run.py attribute the op's time to layers from outside src/.
// The last stdout line is one JSON object of raw results; run.py gates it
// against the golden record and prints the metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>  // rp-lint: allow(R2) the open-loop request generator is part of the workload
#include <vector>

#include "core/prune_potential.hpp"
#include "core/prune_retrain.hpp"
#include "core/pruner.hpp"
#include "corrupt/corruption.hpp"
#include "data/synth.hpp"
#include "exp/runner.hpp"
#include "nn/blocks.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "sched/executor.hpp"
#include "serve/engine.hpp"
#include "tensor/arena.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"

namespace {

using namespace rp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kArch = "resnet8";
constexpr double kDelta = 0.005;       // Def. 1 margin used throughout the paper
constexpr double kKeepPerCycle = 0.55;  // fast_scale's α
// setup_s is the median of this many set-ups in one run; a shift_grid
// set-up trains three families, so it repeats fewer times, and family_cold's
// happens once (see run_family_cold).
constexpr int kServeSetupReps = 21;
constexpr int kGridSetupReps = 3;

Clock::time_point now() {
  return Clock::now();  // rp-lint: allow(R1) the benchmark's stopwatch; never feeds a result
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Distinct, seed-dependent stream for one named input of the workload.
uint64_t stream_seed(uint64_t seed, const char* what) {
  return seed_from_string(what) ^ (seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string work;   ///< scratch directory for caches; the caller removes it
  std::string trace;  ///< non-empty: traced run writing this chrome://tracing file
  bool smoke = false; ///< tiny scale: exercises every path in a few seconds
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      size_t used = 0;
      a.seed = std::stoull(v, &used);
      if (used != v.size() || v[0] == '-') throw std::invalid_argument("bad --seed " + v);
    } else if (flag == "--seconds") {
      const std::string v = value();
      size_t used = 0;
      a.seconds = std::stod(v, &used);
      if (used != v.size() || !(a.seconds > 0.0)) throw std::invalid_argument("bad --seconds " + v);
    } else if (flag == "--work") {
      a.work = value();
    } else if (flag == "--trace") {
      a.trace = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (a.workload.empty() || a.work.empty()) {
    throw std::invalid_argument("--workload and --work are required");
  }
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports; serialized as the last stdout line.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< untraced unit-op latencies (serve: r2000 p50 per op)
  std::vector<double> images_per_s;  ///< per untraced op (serve: closed-loop rate)
  std::vector<std::pair<std::string, double>> outputs;  ///< first op's outputs, for the golden gate
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  ///< diagnostics printed, not gated

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }

  /// Gates one op's outputs: each must be finite and in [0, 1], and every op
  /// after the first must reproduce the first bit for bit.
  void check_outputs(const std::vector<std::pair<std::string, double>>& out) {
    for (const auto& [key, v] : out) check(std::isfinite(v) && v >= 0.0 && v <= 1.0, key + " out of [0,1]");
    if (outputs.empty()) {
      outputs = out;
      return;
    }
    check(out.size() == outputs.size(), "output count changed between ops");
    for (size_t i = 0; i < std::min(out.size(), outputs.size()); ++i) {
      check(std::memcmp(&out[i].second, &outputs[i].second, sizeof(double)) == 0,
            out[i].first + " differs between ops of one run");
    }
  }
};

double peak_rss_mb() {
  ::rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------------------------
// Traced pass: per-layer numbers from the obs spans and counters src/ emits.

/// Runs `op` (returning the same latency it records untraced) with obs
/// tracing on, inside one "e2e.op" span, and records the op's counters.
/// Exactly one traced op per run, so counts are per op and repeat across
/// runs. The time shares per layer need every span's interval and thread,
/// which only the trace file has; run.py derives them from the events inside
/// "e2e.op".
template <typename Op>
void traced_op(const Args& a, Report& r, Op&& op) {
  obs::configure({/*metrics=*/true, a.trace});
  double latency = 0.0;
  {
    const obs::Span root("e2e.op");
    latency = op();
  }
  std::map<std::string, double> span_ms;
  for (const obs::SpanStat& s : obs::span_stats()) {
    span_ms[s.name] = static_cast<double>(s.wall_ns) / 1e6;
  }
  const auto count = [](obs::Counter c) { return static_cast<double>(obs::counter_value(c)); };
  r.check(count(obs::Counter::kSpansDropped) == 0, "trace buffer full: the layer breakdown would be incomplete");

  r.layer("nn.train_samples", count(obs::Counter::kTrainSamples), "count");
  r.layer("nn.eval_images", count(obs::Counter::kEvalSamples), "count");
  r.layer("tensor.gemm_calls", count(obs::Counter::kGemmCalls), "count");
  r.layer("tensor.sparse_gemm_calls", count(obs::Counter::kGemmSparseCalls), "count");
  r.layer("tensor.pool_tasks", count(obs::Counter::kPoolTasks), "count");
  r.layer("tensor.pool_chunks", count(obs::Counter::kPoolChunks), "count");
  r.layer("sparse.nnz", count(obs::Counter::kSparseNnz), "count");
  r.layer("sparse.bytes_saved", count(obs::Counter::kSparseBytesSaved), "B");
  r.layer("mem.arena_bytes", count(obs::Counter::kMemArenaBytes), "B");
  r.layer("mem.arena_resets", count(obs::Counter::kMemArenaResets), "count");
  r.layer("mem.pool_hits", count(obs::Counter::kMemPoolHits), "count");
  r.layer("mem.heap_allocs_hot", count(obs::Counter::kMemHeapAllocsHot), "count");
  const double hits = count(obs::Counter::kCacheHits);
  const double misses = count(obs::Counter::kCacheMisses);
  r.layer("cache.hits", hits, "count");
  r.layer("cache.misses", misses, "count");
  r.layer("cache.hit_ratio_pct", hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, "%");
  r.layer("cache.bytes_read", count(obs::Counter::kCacheBytesRead), "B");
  r.layer("cache.bytes_written", count(obs::Counter::kCacheBytesWritten), "B");
  r.layer("sched.cells_claimed", count(obs::Counter::kSchedCellsClaimed), "count");
  r.layer("sched.retries", count(obs::Counter::kSchedRetries), "count");
  r.layer("sched.poisoned", count(obs::Counter::kSchedPoisoned), "count");
  const double run_ms = span_ms["sched.run"];
  const int workers = sched::Config::from_env().workers;
  r.layer("sched.busy_share_pct", run_ms > 0 ? 100.0 * span_ms["sched.cell"] / (workers * run_ms) : 0.0, "%");
  r.layer("fault.io_retries", count(obs::Counter::kIoRetries), "count");
  const double batches = count(obs::Counter::kServeBatches);
  r.layer("serve.requests", count(obs::Counter::kServeRequests), "count");
  r.layer("serve.batches", batches, "count");
  r.layer("serve.rejects", count(obs::Counter::kServeRejects), "count");
  r.layer("serve.mean_batch", batches > 0 ? count(obs::Counter::kServeRequests) / batches : 0.0,
          "req/batch");
  const double untraced = median(r.op_ms);
  r.layer("bench.trace_overhead_pct", 100.0 * (latency - untraced) / untraced, "%");
}

// ---------------------------------------------------------------------------
// Probes (traced runs only): direct timings of single layers and kernels.
// They run in every workload's traced run so each per-layer time is measured
// on every workload.

const nn::TaskSpec& task() {
  static const nn::TaskSpec t = nn::synth_cifar_task();
  return t;
}

nn::NetworkPtr pruned_net(uint64_t seed, core::PruneMethod method, double ratio) {
  auto net = nn::build_network(kArch, task(), seed);
  core::prune_to_ratio(*net, method, ratio);
  return net;
}

/// Median wall ms of `reps` calls of fn().
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

/// resnet8's layers, built from their public constructors, timed one by one
/// through a train step at batch 64; nn.train_step_ms is the trainer's own
/// step on the same shapes, so the probe sum must land near it.
void layer_probe(const Args& a, Report& r) {
  const obs::Span span("e2e.probe.layers");
  constexpr int64_t kBatch = 64;
  const int reps = a.smoke ? 3 : 12;
  Rng rng(stream_seed(a.seed, "e2e/probe/layers"));
  std::vector<std::pair<std::string, nn::ModulePtr>> layers;
  layers.emplace_back("stem", nn::make_conv_bn_relu("stem", 3, 8, 1, 16, 16, rng));
  layers.emplace_back("s1b1", std::make_unique<nn::ResidualBlock>("s1.b1", 8, 8, 1, 16, 16, rng));
  layers.emplace_back("s2b1", std::make_unique<nn::ResidualBlock>("s2.b1", 8, 16, 2, 16, 16, rng));
  layers.emplace_back("s3b1", std::make_unique<nn::ResidualBlock>("s3.b1", 16, 32, 2, 8, 8, rng));
  auto head = std::make_unique<nn::Sequential>("head");
  head->add(std::make_unique<nn::GlobalAvgPool>());
  head->add(std::make_unique<nn::Linear>("fc", 32, 10, /*use_bias=*/true, rng));
  layers.emplace_back("head", std::move(head));

  std::vector<nn::Parameter*> params;
  for (auto& l : layers) l.second->collect_params(params);
  nn::Sgd sgd(params, nn::Sgd::Config{});
  size_t param_bytes = 0;
  for (const nn::Parameter* p : params) param_bytes += static_cast<size_t>(p->numel()) * sizeof(float);

  const Tensor x = Tensor::rand(Shape{kBatch, 3, 16, 16}, rng);
  std::vector<int64_t> labels(kBatch);
  for (auto& l : labels) l = rng.randint(10);
  std::vector<std::vector<double>> fwd(layers.size()), bwd(layers.size());
  std::vector<double> sgd_ms;
  for (int rep = 0; rep < reps + 2; ++rep) {  // two warm-up reps fill the lane pools
    const mem::Scope scope(param_bytes);
    std::vector<double> f(layers.size()), b(layers.size());
    Tensor h = x;
    for (size_t i = 0; i < layers.size(); ++i) {
      const auto t0 = now();
      h = layers[i].second->forward(h, /*train=*/true);
      f[i] = ms_since(t0);
    }
    Tensor g = nn::softmax_cross_entropy(h, labels).dlogits;
    sgd.zero_grad();
    for (size_t i = layers.size(); i-- > 0;) {
      const auto t0 = now();
      g = layers[i].second->backward(g);
      b[i] = ms_since(t0);
    }
    const auto t0 = now();
    sgd.step(0.01f);
    const double s = ms_since(t0);
    if (rep < 2) continue;
    for (size_t i = 0; i < layers.size(); ++i) {
      fwd[i].push_back(f[i]);
      bwd[i].push_back(b[i]);
    }
    sgd_ms.push_back(s);
  }
  double sum = median(sgd_ms);
  for (size_t i = 0; i < layers.size(); ++i) {
    r.layer("nn." + layers[i].first + ".fwd_ms", median(fwd[i]), "ms");
    r.layer("nn." + layers[i].first + ".bwd_ms", median(bwd[i]), "ms");
    sum += median(fwd[i]) + median(bwd[i]);
  }
  r.layer("nn.sgd_step_ms", median(sgd_ms), "ms");

  // The trainer's step on the same shapes: one epoch, no augmentation.
  data::SynthConfig cfg;
  cfg.n = kBatch * (reps + 2);
  cfg.seed = stream_seed(a.seed, "e2e/probe/train");
  const auto ds = data::make_synth_classification(cfg);
  auto net = nn::build_network(kArch, task(), stream_seed(a.seed, "e2e/probe/net"));
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = kBatch;
  nn::train(*net, *ds, tc);  // warm-up
  const auto t0 = now();
  nn::train(*net, *ds, tc);
  const double step = ms_since(t0) / static_cast<double>(reps + 2);
  r.layer("nn.train_step_ms", step, "ms");
  const double pct = 100.0 * sum / step;
  r.notes.push_back("layer probe: layers sum to " + json_num(pct) + "% of the train step" +
                    (std::fabs(pct - 100.0) > 10.0 ? " (outside 90-110%: attribution unreliable)" : ""));
}

/// Dense vs sparse evaluation of cycle-5-ratio WT and FT nets, the compile
/// cost, and the serving forward at batch 1/4/16 on the sparse WT net.
void kernel_probe(const Args& a, Report& r) {
  const obs::Span span("e2e.probe.kernels");
  const int reps = a.smoke ? 1 : 3;
  const double ratio = core::cycle_target_ratio(kKeepPerCycle, 5);
  data::SynthConfig cfg;
  cfg.n = a.smoke ? 64 : 512;
  cfg.seed = stream_seed(a.seed, "e2e/probe/eval");
  const auto ds = data::make_synth_classification(cfg);
  for (const auto& [tag, method] : {std::pair{"wt5", core::PruneMethod::WT},
                                    std::pair{"ft5", core::PruneMethod::FT}}) {
    auto net = pruned_net(stream_seed(a.seed, "e2e/probe/net"), method, ratio);
    sparse::force(sparse::Mode::kOff);
    r.layer(std::string("nn.eval_dense_ms.") + tag, median_ms(reps, [&] { nn::evaluate(*net, *ds); }), "ms");
    sparse::reset();
    r.layer(std::string("nn.eval_sparse_ms.") + tag, median_ms(reps, [&] { nn::evaluate(*net, *ds); }), "ms");
  }
  auto net = pruned_net(stream_seed(a.seed, "e2e/probe/net"), core::PruneMethod::WT, ratio);
  r.layer("sparse.compile_ms", median_ms(5, [&] {
            net->set_sparse(true);
            net->set_sparse(false);
          }),
          "ms");
  net->set_sparse(sparse::mode() != sparse::Mode::kOff);  // as the serving registry loads it
  Rng rng(stream_seed(a.seed, "e2e/probe/forward"));
  const size_t hint = static_cast<size_t>(net->param_count()) * sizeof(float);
  for (const int64_t b : {1, 4, 16}) {
    const Tensor x = Tensor::rand(Shape{b, 3, 16, 16}, rng);
    const double ms = median_ms(a.smoke ? 3 : 41, [&] {
      const mem::Scope scope(hint);
      net->forward(x, /*train=*/false);
    });
    r.layer("serve.forward_ms.b" + std::to_string(b), ms, "ms");
  }
}

/// What the sparse compiler's auto mode picks for every prunable weight of
/// the workload's checkpoints.
void sparse_census(Report& r, const std::vector<std::vector<std::pair<std::string, Tensor>>>& states) {
  const obs::Span span("e2e.probe.census");
  int64_t by_layout[3] = {0, 0, 0};
  for (const auto& state : states) {
    auto net = nn::build_network(kArch, task(), 0);
    net->load_state(state);
    for (const nn::PrunableSpec& spec : net->prunable()) {
      ++by_layout[static_cast<int>(sparse::analyze(spec.weight->value, sparse::Mode::kAuto).layout)];
    }
  }
  r.layer("sparse.layers_dense", static_cast<double>(by_layout[0]), "count");
  r.layer("sparse.layers_csr", static_cast<double>(by_layout[1]), "count");
  r.layer("sparse.layers_block", static_cast<double>(by_layout[2]), "count");
}

void probes(const Args& a, Report& r, const std::vector<std::vector<std::pair<std::string, Tensor>>>& states) {
  sparse_census(r, states);
  layer_probe(a, r);
  kernel_probe(a, r);
}

/// Untraced ops fill the run: another op starts only while it is expected to
/// end within the budget, so a run lasts about --seconds; there is always at
/// least one. A traced run spends half the budget untraced, for the overhead
/// baseline, then runs exactly one traced op.
template <typename Op>
void measure(const Args& a, Op&& op) {
  const double budget_ms = 1000.0 * (a.trace.empty() ? a.seconds : a.seconds / 2.0);
  const auto t0 = now();
  std::vector<double> took;
  do {
    const auto t = now();
    op();
    took.push_back(ms_since(t));
  } while (ms_since(t0) + median(took) <= budget_ms);
}

std::string tag_of(const Args& a) { return "s" + std::to_string(a.seed); }

exp::ExperimentScale smoke_scale(exp::ExperimentScale s) {
  s.train_n = 128;
  s.test_n = 64;
  s.epochs = 1;
  s.retrain_epochs = 1;
  return s;
}

// ---------------------------------------------------------------------------
// family_cold

void run_family_cold(const Args& a, Report& r) {
  exp::ExperimentScale scale = exp::fast_scale();
  scale.reps = 1;
  if (a.smoke) scale = smoke_scale(scale);
  const nn::TaskSpec& t = task();

  // Set-up: a fresh cache and runner, and the runner's first train/test
  // synthesis. The runner memoizes datasets per process, so this set-up
  // happens once per run; the run-to-run median is its median.
  const auto setup_start = now();
  const auto test = [&] {
    const std::string dir = a.work + "/family_setup";
    exp::ArtifactCache cache(dir);
    exp::Runner warm(scale, cache);
    warm.train_set(t);
    auto ds = warm.test_set(t);
    fs::remove_all(dir);
    return ds;
  }();
  r.setup_s.push_back(ms_since(setup_start) / 1000.0);

  const int64_t images = (scale.epochs + scale.cycles * scale.retrain_epochs) * scale.train_n +
                         scale.cycles * scale.test_n;
  std::vector<std::vector<std::pair<std::string, Tensor>>> family_states;
  int op_index = 0;
  const auto family = [&] {
    const std::string dir = a.work + "/family_" + std::to_string(op_index++);
    exp::ArtifactCache cache(dir);
    exp::Runner runner(scale, cache);
    const auto t0 = now();
    std::vector<exp::Checkpoint> ckpts;
    {
      const obs::Span span("e2e.sweep");
      ckpts = runner.sweep(kArch, t, core::PruneMethod::WT, 0, {}, tag_of(a));
    }
    std::vector<core::CurvePoint> curve;
    {
      const obs::Span span("e2e.curve");
      curve = runner.curve(kArch, t, ckpts, *test);
    }
    const double ms = ms_since(t0);
    std::vector<std::pair<std::string, double>> out;
    for (size_t c = 0; c < curve.size(); ++c) out.emplace_back("ratio.c" + std::to_string(c + 1), curve[c].ratio);
    for (size_t c = 0; c < curve.size(); ++c) out.emplace_back("error.c" + std::to_string(c + 1), curve[c].error);
    r.check(static_cast<int>(curve.size()) == scale.cycles, "family has a missing cycle");
    r.check_outputs(out);
    family_states.clear();
    for (auto& c : ckpts) family_states.push_back(std::move(c.state));
    fs::remove_all(dir);
    return ms;
  };
  measure(a, [&] {
    const double ms = family();
    r.op_ms.push_back(ms);
    r.images_per_s.push_back(static_cast<double>(images) / (ms / 1000.0));
  });
  if (!a.trace.empty()) {
    traced_op(a, r, family);
    probes(a, r, family_states);
  }
}

// ---------------------------------------------------------------------------
// shift_grid

void copy_without_evals(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& e : fs::directory_iterator(from)) {
    const std::string name = e.path().filename().string();
    // Cache keys are percent-escaped into flat file names: ".../eval/..."
    // becomes "...%2Feval%2F...".
    if (!e.is_regular_file() || name.find("%2Feval%2F") != std::string::npos) continue;
    fs::copy_file(e.path(), fs::path(to) / name);
  }
}

void run_shift_grid(const Args& a, Report& r) {
  // Training only provides the checkpoints; eval cost depends on the test
  // set, the architecture and the masks, so the families train at a reduced
  // scale that keeps set-up short while the pass evaluates fast_scale's
  // 512-image test sets.
  exp::ExperimentScale scale = exp::fast_scale();
  scale.reps = 1;
  scale.train_n = 512;
  scale.epochs = 4;
  scale.retrain_epochs = 1;
  if (a.smoke) scale = smoke_scale(scale);
  const nn::TaskSpec& t = task();
  const std::vector<core::PruneMethod> methods = {core::PruneMethod::WT, core::PruneMethod::FT};

  std::string base;
  for (int rep = 0; rep < kGridSetupReps; ++rep) {
    const std::string dir = a.work + "/grid_base" + std::to_string(rep);
    const auto t0 = now();
    exp::ArtifactCache cache(dir);
    exp::Runner runner(scale, cache);
    for (const core::PruneMethod m : methods) runner.sweep(kArch, t, m, 0, {}, tag_of(a));
    r.setup_s.push_back(ms_since(t0) / 1000.0);
    if (!base.empty()) fs::remove_all(base);
    base = dir;
  }

  const std::vector<std::string> corruptions = corrupt::all_names();
  const int64_t evals = static_cast<int64_t>(methods.size() * (corruptions.size() + 1)) * scale.cycles +
                        static_cast<int64_t>(corruptions.size() + 1);
  int op_index = 0;
  const auto pass = [&] {
    const std::string dir = a.work + "/grid_pass" + std::to_string(op_index++);
    copy_without_evals(base, dir);
    exp::ArtifactCache cache(dir);
    exp::Runner runner(scale, cache);
    const data::DatasetPtr nominal = runner.test_set(t);
    const auto t0 = now();
    std::vector<data::DatasetPtr> owned = {nominal};
    for (const std::string& name : corruptions) {
      const obs::Span span("e2e.make_corrupted");
      owned.push_back(corrupt::make_corrupted(*nominal, name, scale.severity,
                                              stream_seed(a.seed, ("e2e/corrupt/" + name).c_str())));
    }
    std::vector<const data::Dataset*> datasets;
    for (const auto& d : owned) datasets.push_back(d.get());
    exp::Runner::GridResult grid;
    {
      const obs::Span span("e2e.grid");
      grid = runner.grid(t, {kArch}, methods, datasets, tag_of(a));
    }
    std::vector<double> dense(datasets.size());
    for (size_t d = 0; d < datasets.size(); ++d) {
      const obs::Span span("e2e.dense_error");
      dense[d] = runner.dense_error(kArch, t, 0, *datasets[d], tag_of(a));
    }
    // grid() orders cells method-major, dataset-minor.
    std::vector<double> potential(grid.cells.size());
    {
      const obs::Span span("e2e.prune_potential");
      for (size_t i = 0; i < grid.cells.size(); ++i) {
        potential[i] = core::prune_potential(grid.cells[i].curve, dense[i % datasets.size()], kDelta);
      }
    }
    const double ms = ms_since(t0);

    r.check(grid.cells.size() == methods.size() * datasets.size(), "grid cell count");
    for (const auto& cell : grid.cells) r.check(cell.complete, "grid hole: " + cell.dataset + " " + cell.note);
    const auto ds_name = [&](size_t d) { return d == 0 ? std::string("nominal") : corruptions[d - 1]; };
    std::vector<std::pair<std::string, double>> out;
    for (size_t i = 0; i < grid.cells.size(); ++i) {
      out.emplace_back("potential." + core::to_string(grid.cells[i].method) + "." + ds_name(i % datasets.size()),
                       potential[i]);
    }
    for (size_t d = 0; d < datasets.size(); ++d) out.emplace_back("dense_error." + ds_name(d), dense[d]);
    r.check_outputs(out);
    fs::remove_all(dir);
    return ms;
  };
  measure(a, [&] {
    const double ms = pass();
    r.op_ms.push_back(ms);
    r.images_per_s.push_back(static_cast<double>(evals * scale.test_n) / (ms / 1000.0));
  });
  if (!a.trace.empty()) {
    traced_op(a, r, pass);
    std::vector<std::vector<std::pair<std::string, Tensor>>> states;
    exp::ArtifactCache cache(base);
    exp::Runner runner(scale, cache);
    for (const core::PruneMethod m : methods) {
      for (auto& c : runner.sweep(kArch, t, m, 0, {}, tag_of(a))) states.push_back(std::move(c.state));
    }
    probes(a, r, states);
  }
}

// ---------------------------------------------------------------------------
// serve_mixed

/// The served family: an untrained parent plus WT variants at the cycle-1/3/5
/// ratios (serving cost depends on the masks, not on the weight values).
struct ServeStack {
  std::unique_ptr<exp::ArtifactCache> cache;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::Engine> engine;
};

std::unique_ptr<ServeStack> build_serve_stack(const Args& a, const std::string& dir) {
  auto s = std::make_unique<ServeStack>();
  s->cache = std::make_unique<exp::ArtifactCache>(dir);
  serve::FamilySpec spec;
  spec.arch = kArch;
  spec.task = task();
  spec.parent_key = "serve/parent";
  const auto parent = nn::build_network(kArch, task(), stream_seed(a.seed, "e2e/serve/init"));
  for (const int cycle : {1, 3, 5}) {
    auto net = parent->clone();
    core::prune_to_ratio(*net, core::PruneMethod::WT, core::cycle_target_ratio(kKeepPerCycle, cycle));
    spec.variant_keys.push_back("serve/cycle" + std::to_string(cycle));
    s->cache->put_state(spec.variant_keys.back(), net->state());
  }
  s->cache->put_state(spec.parent_key, parent->state());
  {
    const obs::Span span("e2e.registry_load");
    s->registry = std::make_unique<serve::ModelRegistry>(spec, *s->cache);
  }
  s->router = std::make_unique<serve::Router>(*s->registry);
  // nominal covers every variant (served by the most pruned), shifted covers
  // cycle 3 but not cycle 5, and "unknown" has no evidence (dense parent).
  core::PotentialEvidence nominal{0.97, 0.97, 0.97, false};
  core::PotentialEvidence shifted{0.97, 0.9, 0.9, false};
  s->router->set_evidence("nominal", nominal);
  s->router->set_evidence("shifted", shifted);
  // A slot stays taken until the collector takes its response, so a host
  // stall of the collector or the dispatcher fills 256 slots in 64 ms at
  // 4000 rps (on a shared 4-vCPU host, one run refused 38 requests that way).
  // 4096 slots ride out a two-second stall at 2000 rps; the free list is
  // LIFO, so unused slots stay untouched.
  s->engine = std::make_unique<serve::Engine>(*s->registry, *s->router,
                                              serve::EngineConfig{16, 4096, 500});
  s->engine->start();
  return s;
}

/// Request inputs drawn from the seed: a pool of images, and per phase its
/// own stream of image picks, tags (50% nominal, 30% shifted, 20% unknown)
/// and arrival times, so a phase's inputs never depend on how many requests
/// an earlier phase completed.
struct Traffic {
  std::vector<Tensor> images;
  std::vector<std::string> tags = {"nominal", "shifted", "unknown"};
  Rng rng;

  explicit Traffic(uint64_t seed) : rng(stream_seed(seed, "e2e/serve/images")) {
    for (int i = 0; i < 256; ++i) images.push_back(Tensor::rand(Shape{3, 16, 16}, rng));
  }
  void start_phase(uint64_t seed, const char* phase) { rng = Rng(stream_seed(seed, phase)); }
  int next_image() { return static_cast<int>(rng.randint(static_cast<int64_t>(images.size()))); }
  int next_tag() {
    const float u = rng.uniform();
    return u < 0.5f ? 0 : (u < 0.8f ? 1 : 2);
  }
};

/// Every 97th response, kept for the memcmp check against nn::predict.
struct Sample {
  int image = 0;
  int tag = 0;
  std::string variant;
  Tensor logits;
};

struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< generator lateness (open loop)
  double rate = 0.0;            ///< completed requests per second
};

struct Pending {
  std::optional<serve::Engine::Ticket> ticket;
  int image = 0;
  int tag = 0;
  Clock::time_point due;
};

void collect(serve::Engine& engine, const Pending& p, int64_t index, Report& r,
             std::vector<Sample>& samples, PhaseResult& out, Tensor& logits) {
  ++r.attempted;
  if (!p.ticket) {
    r.fail("request refused by admission control");
    return;
  }
  serve::RouteInfo info;
  try {
    engine.wait_into(*p.ticket, &logits, &info);
  } catch (const std::exception& e) {
    r.fail(e.what());
    return;
  }
  out.latency_ms.push_back(std::chrono::duration<double, std::milli>(now() - p.due).count());
  if (index % 97 == 0) samples.push_back({p.image, p.tag, info.variant_key, logits});
}

/// Open loop: Poisson arrivals at `rate` for `seconds`; one thread submits on
/// schedule, the caller collects in submit order. Latency counts from the due
/// time, so generator stalls show up as latency (and as lateness).
PhaseResult open_phase(ServeStack& s, Traffic& traffic, double rate, double seconds, Report& r,
                       std::vector<Sample>& samples, int64_t& index) {
  std::vector<Pending> sent;
  std::vector<double> offsets;
  for (double at = 0.0;;) {
    at += -std::log(1.0 - static_cast<double>(traffic.rng.uniform())) / rate;
    if (at >= seconds) break;
    offsets.push_back(at);
  }
  sent.resize(offsets.size());
  for (auto& p : sent) {
    p.image = traffic.next_image();
    p.tag = traffic.next_tag();
  }
  PhaseResult out;
  out.late_ms.resize(sent.size());
  // Requests 0..published-1 are submitted; sent.size()+1 is the end marker,
  // stored after `submitted` (how many were) so the collector reads it.
  std::atomic<size_t> published{0};
  size_t submitted = 0;
  const auto start = now() + std::chrono::milliseconds(5);
  std::string submit_error;
  std::thread submitter([&] {  // rp-lint: allow(R2) open-loop generator thread
    size_t i = 0;
    try {
      for (; i < sent.size(); ++i) {
        Pending& p = sent[i];
        p.due = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offsets[i]));
        std::this_thread::sleep_until(p.due);  // rp-lint: allow(R2) arrival schedule
        out.late_ms[i] = std::chrono::duration<double, std::milli>(now() - p.due).count();
        p.ticket = s.engine->submit(traffic.images[static_cast<size_t>(p.image)],
                                    traffic.tags[static_cast<size_t>(p.tag)]);
        published.store(i + 1, std::memory_order_release);
        published.notify_one();
      }
    } catch (const std::exception& e) {
      submit_error = e.what();
    }
    submitted = i;
    published.store(sent.size() + 1, std::memory_order_release);
    published.notify_one();
  });
  Tensor logits;
  for (size_t i = 0; i < sent.size(); ++i) {
    size_t seen = published.load(std::memory_order_acquire);
    if (seen <= i) {
      // Every submitted request is collected and the next is not due yet:
      // the engine has nothing to do. The traced breakdown counts this as
      // idle rather than unaccounted.
      const obs::Span idle("e2e.idle");
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
    }
    if (seen > sent.size() && i >= submitted) break;
    collect(*s.engine, sent[i], index++, r, samples, out, logits);
  }
  submitter.join();
  if (!submit_error.empty()) {
    ++r.attempted;  // the request whose submit threw
    r.fail("submitter: " + submit_error);
  }
  out.rate = static_cast<double>(out.latency_ms.size()) / seconds;
  return out;
}

/// Closed loop: 32 requests outstanding; each completion sends the next.
PhaseResult closed_phase(ServeStack& s, Traffic& traffic, double seconds, Report& r,
                         std::vector<Sample>& samples, int64_t& index) {
  constexpr size_t kOutstanding = 32;
  std::vector<Pending> ring(kOutstanding);
  const auto send = [&](Pending& p) {
    p.image = traffic.next_image();
    p.tag = traffic.next_tag();
    p.due = now();
    p.ticket = s.engine->submit(traffic.images[static_cast<size_t>(p.image)],
                                traffic.tags[static_cast<size_t>(p.tag)]);
  };
  PhaseResult out;
  Tensor logits;
  const auto start = now();
  for (auto& p : ring) send(p);
  // After the deadline the ring drains in order; those completions count.
  bool sending = true;
  for (size_t head = 0, live = kOutstanding; live > 0; head = (head + 1) % kOutstanding) {
    collect(*s.engine, ring[head], index++, r, samples, out, logits);
    sending = sending && ms_since(start) < 1000.0 * seconds;
    if (sending) {
      send(ring[head]);
    } else {
      --live;
    }
  }
  const double elapsed_s = ms_since(start) / 1000.0;
  out.rate = static_cast<double>(out.latency_ms.size()) / elapsed_s;
  return out;
}

void run_serve_mixed(const Args& a, Report& r) {
  std::unique_ptr<ServeStack> stack;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    const auto t0 = now();
    auto candidate = build_serve_stack(a, a.work + "/serve" + std::to_string(rep));
    r.setup_s.push_back(ms_since(t0) / 1000.0);
    stack = std::move(candidate);
  }
  Traffic traffic(a.seed);
  std::vector<Sample> samples;
  int64_t index = 0;
  const auto print_phase = [&](const char* name, const PhaseResult& p) {
    r.notes.push_back(std::string(name) + ": n=" + std::to_string(p.latency_ms.size()) +
                      " p50_ms=" + json_num(quantile(p.latency_ms, 0.5)) +
                      " p99_ms=" + json_num(quantile(p.latency_ms, 0.99)) +
                      " gen_late_p99_ms=" + json_num(quantile(p.late_ms, 0.99)) +
                      " rate=" + json_num(p.rate));
  };
  // One op is a round of the three phases, each a tenth of the run, so an
  // untraced run holds three rounds and its medians are over rounds spread
  // across it rather than over one stretch a host stall can cover. Every
  // round replays the same inputs. The op's latency is the 2000 rps median.
  // At 4000 rps the dispatcher is ~80 % busy, and on a shared host that
  // slowed by 40 % the p50 there rose to 8 ms: a rate that close to capacity
  // gives no steady median.
  const double phase_s = a.smoke ? 0.1 : a.seconds / 10.0;
  const auto phases = [&](bool record) {
    PhaseResult r1, r2, sat;
    {
      const obs::Span span("e2e.phase.r1000");
      traffic.start_phase(a.seed, "e2e/serve/r1000");
      r1 = open_phase(*stack, traffic, 1000.0, phase_s, r, samples, index);
    }
    {
      const obs::Span span("e2e.phase.r2000");
      traffic.start_phase(a.seed, "e2e/serve/r2000");
      r2 = open_phase(*stack, traffic, 2000.0, phase_s, r, samples, index);
    }
    {
      const obs::Span span("e2e.phase.closed32");
      traffic.start_phase(a.seed, "e2e/serve/closed32");
      sat = closed_phase(*stack, traffic, phase_s, r, samples, index);
    }
    print_phase(record ? "r1000" : "traced r1000", r1);
    print_phase(record ? "r2000" : "traced r2000", r2);
    print_phase(record ? "closed32" : "traced closed32", sat);
    if (record) {
      r.op_ms.push_back(quantile(r2.latency_ms, 0.5));
      r.images_per_s.push_back(sat.rate);
    }
    return quantile(r2.latency_ms, 0.5);
  };
  measure(a, [&] { phases(true); });
  if (!a.trace.empty()) {
    traced_op(a, r, [&] { return phases(false); });
  }
  stack->engine->stop();

  // Every sampled response must equal nn::predict on the variant it was
  // routed to, bit for bit, and the route must follow the evidence: the
  // variants are parent, cycle 1, cycle 3, cycle 5.
  const auto& variants = stack->registry->variants();
  const std::map<std::string, std::string> route_of_tag = {
      {"nominal", variants.back().key}, {"shifted", variants[2].key}, {"unknown", variants[0].key}};
  std::map<std::string, nn::NetworkPtr> reference;
  std::vector<std::vector<std::pair<std::string, Tensor>>> states;
  for (const auto& v : variants) {
    reference[v.key] = v.net->clone();
    states.push_back(v.net->state());
  }
  for (const Sample& smp : samples) {
    const std::string& tag = traffic.tags[static_cast<size_t>(smp.tag)];
    r.check(smp.variant == route_of_tag.at(tag), "request tagged " + tag + " routed to " + smp.variant);
    const auto it = reference.find(smp.variant);
    if (it == reference.end()) continue;
    const Tensor& img = traffic.images[static_cast<size_t>(smp.image)];
    const Tensor expect = nn::predict(*it->second, img.reshape(Shape{1, 3, 16, 16}), 1);
    r.check(expect.numel() == smp.logits.numel() &&
                std::memcmp(expect.data().data(), smp.logits.data().data(),
                            static_cast<size_t>(expect.numel()) * sizeof(float)) == 0,
            "served logits differ from nn::predict on " + smp.variant);
  }
  if (!a.trace.empty()) probes(a, r, states);
}

// ---------------------------------------------------------------------------

std::string provenance() {
  double load[1] = {0.0};
  if (::getloadavg(load, 1) != 1) load[0] = -1.0;
  return std::string("{\"threads\": ") + std::to_string(parallel::num_threads()) +
         ", \"workers\": " + std::to_string(sched::Config::from_env().workers) +
         ", \"simd\": " + json_str(simd::isa_name(simd::active())) +
         ", \"sparse\": " + json_str(sparse::mode_name(sparse::mode())) +
         ", \"arena\": " + json_str(mem::mode_name(mem::mode())) +
         ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"loadavg\": " + json_num(load[0]) + "}";
}

void emit(const Args& a, const Report& r) {
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_num(v[i]);
    return s + "]";
  };
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string out = "{\"workload\": " + json_str(a.workload) + ", \"seed\": " + std::to_string(a.seed) +
                    ", \"e2e\": {\"setup_s\": " + json_num(median(r.setup_s)) +
                    ", \"op_p50_ms\": " + json_num(median(r.op_ms)) +
                    ", \"images_per_s\": " + json_num(median(r.images_per_s)) +
                    ", \"peak_rss_mb\": " + json_num(peak_rss_mb()) + "}" +
                    ", \"samples\": {\"setup_s\": " + list(r.setup_s) + ", \"op_ms\": " + list(r.op_ms) +
                    ", \"images_per_s\": " + list(r.images_per_s) + "}, \"layers\": {";
  for (size_t i = 0; i < r.layers.size(); ++i) {
    out += (i ? ", " : "") + json_str(r.layers[i].name) + ": {\"value\": " + json_num(r.layers[i].value) +
           ", \"unit\": " + json_str(r.layers[i].unit) + "}";
  }
  out += "}, \"outputs\": {";
  for (size_t i = 0; i < r.outputs.size(); ++i) {
    out += (i ? ", " : "") + json_str(r.outputs[i].first) + ": " + json_num(r.outputs[i].second);
  }
  out += "}, \"attempted\": " + std::to_string(r.attempted) + ", \"failed\": " + std::to_string(r.failed) +
         ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) out += (i ? ", " : "") + json_str(r.errors[i]);
  out += "], \"provenance\": " + provenance() + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "bench_e2e: built without NDEBUG; timings of an assert-enabled build are not "
                       "a benchmark record (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  try {
    const Args a = parse_args(argc, argv);
    // Every cache directory the run creates must start empty.
    if (fs::exists(a.work)) throw std::invalid_argument("--work " + a.work + " already exists");
    fs::create_directories(a.work);
    Report r;
    if (a.workload == "family_cold") {
      run_family_cold(a, r);
    } else if (a.workload == "shift_grid") {
      run_shift_grid(a, r);
    } else if (a.workload == "serve_mixed") {
      run_serve_mixed(a, r);
    } else {
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    if (!a.trace.empty()) obs::finish();
    emit(a, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
