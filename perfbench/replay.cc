#include "replay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "checks.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/interaction.h"
#include "dlrm/loss.h"
#include "dlrm/mlp.h"
#include "report.h"
#include "tensor/parallel.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace ttrec;
using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Steps before each replay's measured window; covers the cached tables'
/// warm-up window.
constexpr int64_t kReplayWarmup = 120;

/// Time sums of one replay, in µs, over its measured steps.
struct Layers {
  double data = 0, mlp_fwd = 0, mlp_bwd = 0, mlp_update = 0;
  double inter_fwd = 0, inter_bwd = 0;
  // Indexed by TableKind.
  double fwd[3] = {0, 0, 0}, bwd[3] = {0, 0, 0}, update[3] = {0, 0, 0};
  double prefetch = 0, prefetch_rows = 0;
  double step = 0;  // the twin's DlrmModel::TrainStep

  double ComputeSum() const {
    double s = mlp_fwd + mlp_bwd + mlp_update + inter_fwd + inter_bwd;
    for (int k = 0; k < 3; ++k) s += fwd[k] + bwd[k] + update[k];
    return s;
  }
};

enum TableKind { kDense = 0, kTtTable = 1, kCachedTable = 2 };

TableKind KindOf(EmbeddingOp& op) {
  if (dynamic_cast<TtEmbeddingAdapter*>(&op) != nullptr) return kTtTable;
  if (op.cached_bag() != nullptr) return kCachedTable;
  return kDense;
}

/// A DLRM driven layer by layer: the tables of `model` plus standalone
/// towers and interaction of the same dimensions.
class LayerReplay {
 public:
  explicit LayerReplay(DlrmModel& model)
      : model_(model),
        inter_(model.num_tables() + 1, kEmbDim),
        bottom_(Dims(model.config().num_dense, model.config().bottom_hidden,
                     kEmbDim),
                /*final_relu=*/true, rng_),
        top_(Dims(inter_.out_dim(), model.config().top_hidden, 1),
             /*final_relu=*/false, rng_) {
    for (int t = 0; t < model.num_tables(); ++t) {
      kinds_.push_back(KindOf(model.table(t)));
    }
  }

  void Step(const MiniBatch& b, Layers& L) {
    const int64_t B = b.batch_size();
    const size_t T = kinds_.size();
    bottom_out_.assign(static_cast<size_t>(B * kEmbDim), 0.0f);
    emb_.resize(T);
    auto t0 = Clock::now();
    bottom_.Forward(b.dense.data(), B, bottom_out_.data());
    auto t1 = Clock::now();
    L.mlp_fwd += Micros(t0, t1);

    std::vector<const float*> features = {bottom_out_.data()};
    for (size_t t = 0; t < T; ++t) {
      emb_[t].assign(static_cast<size_t>(B * kEmbDim), 0.0f);
      t0 = Clock::now();
      model_.table(static_cast<int>(t)).Forward(b.sparse[t], emb_[t].data());
      t1 = Clock::now();
      L.fwd[kinds_[t]] += Micros(t0, t1);
      features.push_back(emb_[t].data());
    }

    inter_out_.assign(static_cast<size_t>(B * inter_.out_dim()), 0.0f);
    logits_.assign(static_cast<size_t>(B), 0.0f);
    t0 = Clock::now();
    inter_.Forward(features, B, inter_out_.data());
    t1 = Clock::now();
    top_.Forward(inter_out_.data(), B, logits_.data());
    auto t2 = Clock::now();
    L.inter_fwd += Micros(t0, t1);
    L.mlp_fwd += Micros(t1, t2);

    dlogits_.assign(static_cast<size_t>(B), 0.0f);
    BceWithLogits(logits_, b.labels, dlogits_.data());

    dinter_.assign(static_cast<size_t>(B * inter_.out_dim()), 0.0f);
    dbottom_.assign(static_cast<size_t>(B * kEmbDim), 0.0f);
    demb_.resize(T);
    std::vector<float*> grads = {dbottom_.data()};
    for (size_t t = 0; t < T; ++t) {
      demb_[t].assign(static_cast<size_t>(B * kEmbDim), 0.0f);
      grads.push_back(demb_[t].data());
    }
    t0 = Clock::now();
    top_.Backward(dlogits_.data(), B, dinter_.data());
    t1 = Clock::now();
    inter_.Backward(dinter_.data(), B, grads);
    t2 = Clock::now();
    L.mlp_bwd += Micros(t0, t1);
    L.inter_bwd += Micros(t1, t2);
    for (size_t t = 0; t < T; ++t) {
      t0 = Clock::now();
      model_.table(static_cast<int>(t)).Backward(b.sparse[t], demb_[t].data());
      t1 = Clock::now();
      L.bwd[kinds_[t]] += Micros(t0, t1);
    }
    t0 = Clock::now();
    bottom_.Backward(dbottom_.data(), B, nullptr);
    t1 = Clock::now();
    bottom_.ApplySgd(kLr);
    top_.ApplySgd(kLr);
    t2 = Clock::now();
    L.mlp_bwd += Micros(t0, t1);
    L.mlp_update += Micros(t1, t2);
    const OptimizerConfig opt = OptimizerConfig::Sgd(kLr);
    for (size_t t = 0; t < T; ++t) {
      t0 = Clock::now();
      model_.table(static_cast<int>(t)).ApplyUpdate(opt);
      t1 = Clock::now();
      L.update[kinds_[t]] += Micros(t0, t1);
    }
  }

 private:
  static std::vector<int64_t> Dims(int64_t in, const std::vector<int64_t>& hidden,
                                   int64_t out) {
    std::vector<int64_t> d = {in};
    d.insert(d.end(), hidden.begin(), hidden.end());
    d.push_back(out);
    return d;
  }

  DlrmModel& model_;
  std::vector<TableKind> kinds_;
  Rng rng_{7};
  DotInteraction inter_;
  Mlp bottom_;
  Mlp top_;
  std::vector<float> bottom_out_, inter_out_, logits_, dlogits_, dinter_,
      dbottom_;
  std::vector<std::vector<float>> emb_, demb_;
};

std::vector<CachedTtEmbeddingBag*> CachedBags(DlrmModel& m) {
  std::vector<CachedTtEmbeddingBag*> bags;
  for (int t = 0; t < m.num_tables(); ++t) {
    bags.push_back(m.table(t).cached_bag());
  }
  return bags;
}

/// Sorted unique rows of each cached table in `b` — the pipelined
/// trainer's prefetch plan.
std::vector<std::vector<int64_t>> Plan(const MiniBatch& b,
                                       const std::vector<CachedTtEmbeddingBag*>& bags) {
  std::vector<std::vector<int64_t>> plan(bags.size());
  for (size_t t = 0; t < bags.size(); ++t) {
    if (bags[t] == nullptr) continue;
    plan[t] = b.sparse[t].indices;
    std::sort(plan[t].begin(), plan[t].end());
    plan[t].erase(std::unique(plan[t].begin(), plan[t].end()), plan[t].end());
  }
  return plan;
}

struct ReplayResult {
  Layers layers;
  int64_t steps = 0;
  TtEmbeddingStats tt;  // deltas over the measured steps, summed over tables
  double hit_rate = 0.0;
  double refresh_us = 0.0;  // mean RefreshCache call, cached replay only
  std::unique_ptr<DlrmModel> twin;
};

/// Replays `warmup + steps` training steps of `kind`; only the last `steps`
/// are measured.
ReplayResult Replay(Tables kind, uint64_t seed, int64_t steps) {
  ReplayResult r;
  r.steps = steps;
  std::unique_ptr<DlrmModel> model = BuildModel(kind, seed);
  r.twin = BuildModel(kind, seed);
  SyntheticCriteo data(DataConfig());
  LayerReplay replay(*model);
  const auto bags = CachedBags(*model);
  const auto twin_bags = CachedBags(*r.twin);
  const bool prefetch = kind == Tables::kCachedTt;

  Layers warm;
  Layers* L = &warm;
  std::deque<MiniBatch> window;
  const int64_t total = kReplayWarmup + steps;
  int64_t drawn = 0;
  TtEmbeddingStats tt_before;
  for (int64_t it = 0; it < total; ++it) {
    if (it == kReplayWarmup) {
      L = &r.layers;
      for (int t = 0; t < model->num_tables(); ++t) {
        if (bags[static_cast<size_t>(t)] != nullptr) {
          bags[static_cast<size_t>(t)]->ResetStats();
        }
        if (const TtEmbeddingBag* tt = TtOf(*model, t)) {
          tt_before.lookups += tt->stats().lookups;
          tt_before.forward_flops += tt->stats().forward_flops;
          tt_before.backward_flops += tt->stats().backward_flops;
        }
      }
    }
    // Keep the batches through it + depth drawn, applying each new batch's
    // plan on arrival, as TrainDlrm's lookahead window does.
    const int64_t depth = prefetch ? kLookahead : 0;
    while (drawn < total && drawn <= it + depth) {
      const auto t0 = Clock::now();
      window.push_back(data.NextBatch(kBatch));
      L->data += Micros(t0, Clock::now());
      ++drawn;
      if (!prefetch) continue;
      const auto plan = Plan(window.back(), bags);
      const auto p0 = Clock::now();
      for (size_t t = 0; t < bags.size(); ++t) {
        if (bags[t] != nullptr) {
          L->prefetch_rows += static_cast<double>(bags[t]->PrefetchRows(plan[t]));
        }
      }
      L->prefetch += Micros(p0, Clock::now());
      for (size_t t = 0; t < twin_bags.size(); ++t) {
        if (twin_bags[t] != nullptr) twin_bags[t]->PrefetchRows(plan[t]);
      }
    }
    const MiniBatch batch = std::move(window.front());
    window.pop_front();
    replay.Step(batch, *L);
    const auto s0 = Clock::now();
    r.twin->TrainStep(batch, kLr);
    L->step += Micros(s0, Clock::now());
  }

  int64_t hits = 0, lookups = 0;
  for (int t = 0; t < model->num_tables(); ++t) {
    if (CachedTtEmbeddingBag* bag = bags[static_cast<size_t>(t)]) {
      hits += bag->cache().hits();
      lookups += bag->cache().hits() + bag->cache().misses();
    }
    if (const TtEmbeddingBag* tt = TtOf(*model, t)) {
      r.tt.lookups += tt->stats().lookups;
      r.tt.forward_flops += tt->stats().forward_flops;
      r.tt.backward_flops += tt->stats().backward_flops;
    }
  }
  r.tt.lookups -= tt_before.lookups;
  r.tt.forward_flops -= tt_before.forward_flops;
  r.tt.backward_flops -= tt_before.backward_flops;
  r.hit_rate = lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  int refreshes = 0;
  const auto f0 = Clock::now();
  for (CachedTtEmbeddingBag* bag : bags) {
    if (bag == nullptr) continue;
    bag->RefreshCache();
    ++refreshes;
  }
  if (refreshes > 0) r.refresh_us = Micros(f0, Clock::now()) / refreshes;
  return r;
}

/// `count` requests (pool entries begin, begin+1, ...) merged into one
/// micro-batch, as the server's batcher would merge them.
MiniBatch MergeRequests(const std::vector<serve::InferenceRequest>& pool,
                        int64_t begin, int64_t count) {
  const size_t n = pool.size();
  const int64_t nd = pool.front().dense.dim(1);
  MiniBatch b;
  b.dense = Tensor({count, nd});
  b.sparse.resize(pool.front().sparse.size());
  for (CsrBatch& cb : b.sparse) cb.offsets = {0};
  for (int64_t j = 0; j < count; ++j) {
    const serve::InferenceRequest& r =
        pool[static_cast<size_t>(begin + j) % n];
    std::copy(r.dense.data(), r.dense.data() + nd, b.dense.data() + j * nd);
    for (size_t t = 0; t < b.sparse.size(); ++t) {
      CsrBatch& cb = b.sparse[t];
      cb.indices.insert(cb.indices.end(), r.sparse[t].indices.begin(),
                        r.sparse[t].indices.end());
      cb.offsets.push_back(static_cast<int64_t>(cb.indices.size()));
    }
  }
  b.labels.assign(static_cast<size_t>(count), 0.0f);
  return b;
}

struct StageTimes {
  double dense = 0, emb = 0, tail = 0, total = 0;
};

/// Median time of each const-forward stage at micro-batch size `b`.
StageTimes TimeStages(const DlrmModel& model,
                      const std::vector<serve::InferenceRequest>& pool,
                      int64_t b, int reps) {
  std::vector<MiniBatch> batches;
  for (int64_t i = 0; i < 64; ++i) batches.push_back(MergeRequests(pool, i * b, b));
  InferenceScratch s;
  std::vector<float> logits(static_cast<size_t>(b));
  std::vector<double> dense, emb, tail, total;
  for (int i = 0; i < reps; ++i) {
    const MiniBatch& mb = batches[static_cast<size_t>(i) % batches.size()];
    const auto t0 = Clock::now();
    model.ForwardDenseInference(mb, s);
    const auto t1 = Clock::now();
    model.ForwardEmbeddingsInference(mb, s);
    const auto t2 = Clock::now();
    model.ForwardTailInference(b, logits.data(), s);
    const auto t3 = Clock::now();
    model.PredictLogits(mb, logits.data(), s);
    const auto t4 = Clock::now();
    dense.push_back(Micros(t0, t1));
    emb.push_back(Micros(t1, t2));
    tail.push_back(Micros(t2, t3));
    total.push_back(Micros(t3, t4));
  }
  return {Median(dense), Median(emb), Median(tail), Median(total)};
}

}  // namespace

int RunTraced(uint64_t seed, int seconds) {
  const double budget = static_cast<double>(seconds);
  // Nominal per-step costs of replay + twin on the reference host turn the
  // budget into fixed step counts.
  const auto tt_steps =
      static_cast<int64_t>(std::llround(budget * 0.3 / 0.016));
  const auto cached_steps =
      static_cast<int64_t>(std::llround(budget * 0.2 / 0.011));
  const auto requests =
      static_cast<int64_t>(std::llround(budget * 0.15 * kOpenLoopRate));

  ThreadPool::SetGlobalThreads(kPoolThreads);
  SyntheticCriteo data(DataConfig());
  const std::vector<MiniBatch> eval = MakeEvalSet(data, seed);
  const std::vector<serve::InferenceRequest> pool = MakeRequestPool(data, seed);

  const double untrained_auc =
      ScoreLogits(PredictEval(*BuildModel(Tables::kTt, seed), eval), eval).auc;
  const ReplayResult tt = Replay(Tables::kTt, seed, tt_steps);
  const ReplayResult cached = Replay(Tables::kCachedTt, seed, cached_steps);

  DlrmModel& served = *tt.twin;
  const EvalScore score = ScoreLogits(PredictEval(served, eval), eval);
  const EvalMetrics evaluated = served.Evaluate(eval);

  const ServeOutcome open_loop =
      RunOpenLoop(served, pool, requests, SubSeed(seed, 3));
  const int64_t micro_batch = std::max<int64_t>(
      1, std::llround(open_loop.server.mean_batch_size));
  const StageTimes stages = TimeStages(served, pool, micro_batch, 2000);

  Report report;
  report.attempted = 2 * kReplayWarmup + tt_steps + cached_steps + requests;
  report.failed = open_loop.failed;
  report.checks = ModelChecks(served, score, evaluated, untrained_auc, seed);
  report.checks.push_back(
      CheckResponses(open_loop.logits, SingleRequestLogits(served, pool)));

  const double n = static_cast<double>(tt.steps);
  const double nc = static_cast<double>(cached.steps);
  const Layers& a = tt.layers;
  const Layers& c = cached.layers;
  report.Add("data.next_batch_us", a.data / n, "us");
  report.Add("tt.fwd_us", a.fwd[kTtTable] / n, "us");
  report.Add("tt.bwd_us", a.bwd[kTtTable] / n, "us");
  report.Add("tt.update_us", a.update[kTtTable] / n, "us");
  report.Add("tt.lookups", static_cast<double>(tt.tt.lookups) / n, "count");
  report.Add("tt.fwd_flops", static_cast<double>(tt.tt.forward_flops) / n, "count");
  report.Add("tt.bwd_flops", static_cast<double>(tt.tt.backward_flops) / n, "count");
  report.Add("dense_emb.fwd_us", a.fwd[kDense] / n, "us");
  report.Add("dense_emb.bwd_us", a.bwd[kDense] / n, "us");
  report.Add("dense_emb.update_us", a.update[kDense] / n, "us");
  report.Add("mlp.fwd_us", a.mlp_fwd / n, "us");
  report.Add("mlp.bwd_us", a.mlp_bwd / n, "us");
  report.Add("mlp.update_us", a.mlp_update / n, "us");
  report.Add("interaction.fwd_us", a.inter_fwd / n, "us");
  report.Add("interaction.bwd_us", a.inter_bwd / n, "us");
  report.Add("train.step_us", a.step / n, "us");
  report.Add("train.layers_us", a.ComputeSum() / n, "us");
  report.Add("train.unattributed_us", (a.step - a.ComputeSum()) / n, "us");
  report.Add("cache.fwd_us", c.fwd[kCachedTable] / nc, "us");
  report.Add("cache.bwd_us", c.bwd[kCachedTable] / nc, "us");
  report.Add("cache.update_us", c.update[kCachedTable] / nc, "us");
  report.Add("cache.hit_rate", cached.hit_rate, "ratio");
  report.Add("cache.prefetch_rows", c.prefetch_rows / nc, "count");
  report.Add("cache.prefetch_us", c.prefetch / nc, "us");
  report.Add("cache.refresh_us", cached.refresh_us, "us");
  report.Add("train_cached.step_us", c.step / nc, "us");
  report.Add("train_cached.layers_us", c.ComputeSum() / nc, "us");
  report.Add("train_cached.unattributed_us", (c.step - c.ComputeSum()) / nc, "us");
  report.Add("serve.submit_us", Median(open_loop.submit_us), "us");
  double lag = 0.0;
  for (double l : open_loop.lag_us) lag += l;
  report.Add("loadgen.lag_us", lag / static_cast<double>(requests), "us");
  report.Add("serve.p50_us", Median(open_loop.latency_us), "us");
  report.Add("serve.p99_us", Percentile(open_loop.latency_us, 99.0), "us");
  report.Add("serve.queue_wait_us", open_loop.server.queue_wait_mean_us, "us");
  report.Add("serve.micro_batch_size", open_loop.server.mean_batch_size, "count");
  report.Add("serve.fwd.dense_us", stages.dense, "us");
  report.Add("serve.fwd.emb_us", stages.emb, "us");
  report.Add("serve.fwd.tail_us", stages.tail, "us");
  report.Add("serve.fwd.total_us", stages.total, "us");
  return report.Print();
}

}  // namespace perfbench
