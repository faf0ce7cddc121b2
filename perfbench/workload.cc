#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>

#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "tensor/random.h"
#include "tt/tt_shapes.h"

namespace perfbench {

using namespace ttrec;
using Clock = std::chrono::steady_clock;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SyntheticCriteoConfig DataConfig() {
  SyntheticCriteoConfig cfg;
  cfg.spec = KaggleSpec().Scaled(kScaleDiv);
  cfg.zipf_exponent = 1.15;
  cfg.pooling_factor = 1;
  cfg.teacher_scale = 3.0;
  cfg.seed = kDataSeed;
  return cfg;
}

std::unique_ptr<DlrmModel> BuildModel(Tables kind, uint64_t seed) {
  const DatasetSpec spec = KaggleSpec().Scaled(kScaleDiv);
  std::vector<bool> is_tt(static_cast<size_t>(spec.num_tables()), false);
  for (int t : spec.LargestTables(kNumTtTables)) {
    is_tt[static_cast<size_t>(t)] = true;
  }
  Rng rng(SubSeed(seed, 2));
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  for (int t = 0; t < spec.num_tables(); ++t) {
    const int64_t rows = spec.table_rows[static_cast<size_t>(t)];
    if (!is_tt[static_cast<size_t>(t)]) {
      tables.push_back(std::make_unique<DenseEmbeddingBag>(
          rows, kEmbDim, PoolingMode::kSum,
          DenseEmbeddingInit::UniformScaled(), rng));
      continue;
    }
    TtEmbeddingConfig tcfg;
    tcfg.shape = MakeTtShape(rows, kEmbDim, 3, kTtRank);
    if (kind == Tables::kTt) {
      tables.push_back(std::make_unique<TtEmbeddingAdapter>(
          tcfg, TtInit::kSampledGaussian, rng));
      continue;
    }
    CachedTtConfig ccfg;
    ccfg.tt = tcfg;
    ccfg.cache_capacity = std::min<int64_t>(1024, rows / 4);
    ccfg.warmup_iterations = kCacheWarmup;
    ccfg.refresh_interval = kCacheRefresh;
    tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
        ccfg, TtInit::kSampledGaussian, rng));
  }
  DlrmConfig dc;
  dc.emb_dim = kEmbDim;
  return std::make_unique<DlrmModel>(dc, std::move(tables), rng);
}

const TtEmbeddingBag* TtOf(const DlrmModel& model, int t) {
  const EmbeddingOp* op = &model.table(t);
  if (const auto* a = dynamic_cast<const TtEmbeddingAdapter*>(op)) {
    return &a->tt();
  }
  if (const auto* a = dynamic_cast<const CachedTtEmbeddingAdapter*>(op)) {
    return &a->op().tt();
  }
  return nullptr;
}

TrainConfig TrainSettings(Tables kind, int64_t iterations) {
  TrainConfig tc;
  tc.iterations = iterations;
  tc.batch_size = kBatch;
  tc.lr = kLr;
  tc.eval_batches = 0;
  tc.log_every = 0;
  tc.num_threads = kPoolThreads;
  if (kind == Tables::kCachedTt) {
    tc.lookahead_depth = kLookahead;
    tc.lookahead_threaded = true;
    tc.prefetch_cache = true;
  }
  return tc;
}

std::vector<MiniBatch> MakeEvalSet(const BatchSource& data, uint64_t seed) {
  std::vector<MiniBatch> eval;
  for (int64_t i = 0; i < kEvalBatches; ++i) {
    eval.push_back(data.EvalBatch(kEvalBatchSize,
                                  SubSeed(seed, 100 + static_cast<uint64_t>(i))));
  }
  return eval;
}

std::vector<serve::InferenceRequest> MakeRequestPool(const BatchSource& data,
                                                     uint64_t seed) {
  const MiniBatch b = data.EvalBatch(kRequestPool, SubSeed(seed, 5));
  const int64_t nd = b.dense.dim(1);
  std::vector<serve::InferenceRequest> pool(static_cast<size_t>(kRequestPool));
  for (int64_t i = 0; i < kRequestPool; ++i) {
    serve::InferenceRequest& r = pool[static_cast<size_t>(i)];
    r.dense = Tensor({1, nd});
    std::copy(b.dense.data() + i * nd, b.dense.data() + (i + 1) * nd,
              r.dense.data());
    for (const CsrBatch& cb : b.sparse) {
      const int64_t lo = cb.offsets[static_cast<size_t>(i)];
      const int64_t hi = cb.offsets[static_cast<size_t>(i + 1)];
      CsrBatch one;
      one.indices.assign(cb.indices.begin() + lo, cb.indices.begin() + hi);
      one.offsets = {0, hi - lo};
      if (!cb.weights.empty()) {
        one.weights.assign(cb.weights.begin() + lo, cb.weights.begin() + hi);
      }
      r.sparse.push_back(std::move(one));
    }
  }
  return pool;
}

MiniBatch AsBatch(const serve::InferenceRequest& request) {
  MiniBatch b;
  b.dense = request.dense;
  b.sparse = request.sparse;
  b.labels.assign(static_cast<size_t>(request.num_samples()), 0.0f);
  return b;
}

serve::InferenceServerConfig ServerConfig() {
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 32;
  cfg.max_wait = std::chrono::microseconds(200);
  cfg.queue_capacity = kQueueCapacity;
  cfg.num_consumers = 1;
  return cfg;
}

namespace {

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Waits for one result; a failed request yields NaN and counts as failed.
float Collect(std::future<serve::InferenceResult>& f, int64_t* failed) {
  try {
    serve::InferenceResult r = f.get();
    if (r.logits.size() == 1) return r.logits[0];
  } catch (const std::exception&) {
  }
  ++*failed;
  return std::numeric_limits<float>::quiet_NaN();
}

}  // namespace

ServeOutcome RunBacklog(serve::InferenceServer& server,
                        const std::vector<serve::InferenceRequest>& pool,
                        int64_t count) {
  ServeOutcome out;
  out.logits.resize(static_cast<size_t>(count));
  std::deque<std::future<serve::InferenceResult>> inflight;
  const size_t n = pool.size();
  const auto t0 = Clock::now();
  int64_t next = 0;
  for (int64_t done = 0; done < count; ++done) {
    while (next < count &&
           static_cast<int64_t>(inflight.size()) < kBacklogWindow) {
      inflight.push_back(server.Submit(pool[static_cast<size_t>(next) % n]));
      ++next;
    }
    out.logits[static_cast<size_t>(done)] =
        Collect(inflight.front(), &out.failed);
    inflight.pop_front();
  }
  out.seconds = SecondsSince(t0);
  return out;
}

ServeOutcome RunOpenLoop(const DlrmModel& model,
                         const std::vector<serve::InferenceRequest>& pool,
                         int64_t count, uint64_t seed) {
  ServeOutcome out;
  const size_t n = pool.size();
  const auto N = static_cast<size_t>(count);
  out.logits.resize(N);
  out.latency_us.resize(N);
  out.lag_us.resize(N);
  out.submit_us.resize(N);

  // Seeded Poisson schedule: exponential gaps at kOpenLoopRate.
  std::vector<double> due_s(N);
  Rng rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < N; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / kOpenLoopRate;
    due_s[i] = t;
  }

  serve::InferenceServer server(model, ServerConfig());
  std::vector<std::future<serve::InferenceResult>> futures(N);
  std::vector<Clock::time_point> due(N);
  std::atomic<int64_t> published{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < N; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s[i]));
  }

  std::thread generator([&] {
    for (size_t i = 0; i < N; ++i) {
      serve::InferenceRequest req = pool[i % n];
      // Sleep to just short of the due time, then spin: a plain sleep
      // overshoots by tens of µs, which would count as request latency.
      if (due[i] - Clock::now() > std::chrono::microseconds(300)) {
        std::this_thread::sleep_until(due[i] - std::chrono::microseconds(200));
      }
      while (Clock::now() < due[i]) {
      }
      const auto sent = Clock::now();
      futures[i] = server.Submit(std::move(req));
      out.submit_us[i] = Micros(sent, Clock::now());
      out.lag_us[i] = Micros(due[i], sent);
      published.store(static_cast<int64_t>(i + 1), std::memory_order_release);
    }
  });
  // The collector polls instead of blocking, so a completion is seen when
  // it happens rather than after this thread is woken.
  for (size_t i = 0; i < N; ++i) {
    while (published.load(std::memory_order_acquire) <=
           static_cast<int64_t>(i)) {
    }
    while (futures[i].wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
    }
    out.latency_us[i] = Micros(due[i], Clock::now());
    out.logits[i] = Collect(futures[i], &out.failed);
  }
  generator.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  server.Shutdown();
  out.server = server.metrics().Snapshot();
  return out;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace perfbench
