// The benchmark's model, inputs and serving phases, shared by the timed
// run, the traced run and the self-test.
//
// Every workload uses the same Kaggle-derived DLRM: 26 tables at the real
// cardinalities divided by 256, the 7 largest TT-compressed at rank 32 and
// the rest dense, trained at batch 128 on the Zipf-1.15 synthetic stream.
//
// The synthetic dataset (its planted teacher and its training stream) is the
// same in every run: the teacher decides how high an AUC is reachable, and
// across dataset seeds that ceiling moves by more than any bound could
// absorb. The --seed value picks everything else: the model's initial
// parameters, the held-out eval samples, the request pool and the arrival
// schedule. The program only receives the generated batches and requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/model.h"
#include "dlrm/trainer.h"
#include "serve/inference_server.h"
#include "serve/request_queue.h"
#include "tt/tt_embedding.h"

namespace perfbench {

inline constexpr uint64_t kDataSeed = 0xC0FFEE;
inline constexpr int64_t kScaleDiv = 256;
inline constexpr int kNumTtTables = 7;
inline constexpr int64_t kTtRank = 32;
inline constexpr int64_t kEmbDim = 16;
inline constexpr int64_t kBatch = 128;
inline constexpr float kLr = 0.1f;
/// Cached tables: the cache's warm-up window and refresh cadence, in
/// forward calls; both end inside the set-up warm-up.
inline constexpr int64_t kCacheWarmup = 100;
inline constexpr int64_t kCacheRefresh = 25;
/// Lookahead depth of the cached workload's pipelined trainer.
inline constexpr int64_t kLookahead = 2;
/// Pool threads, training and serving alike. At batch 128 one table's
/// block loop holds all of a step's lookups, so a second worker only adds
/// hand-off cost; in serving a second worker measured no gain in backlog
/// capacity and one more thread to wake per micro-batch.
inline constexpr int kPoolThreads = 1;
/// Held-out evaluation set: kEvalBatches batches of kEvalBatchSize.
inline constexpr int64_t kEvalBatches = 8;
inline constexpr int64_t kEvalBatchSize = 2048;
/// Distinct single-sample requests; request i of a phase is entry
/// i % kRequestPool.
inline constexpr int64_t kRequestPool = 4096;
/// Queue bound, far above any backlog the benchmark builds: a stall of the
/// whole VM must not fill the queue and make the load governor shed, or
/// the share of failed requests would depend on the host.
inline constexpr size_t kQueueCapacity = 1 << 16;
/// Requests kept outstanding by the single backlog client: a standing
/// queue 32 micro-batches (about 30 ms of work) deep. The client sleeps
/// until the oldest request completes; on a busy host that wake-up can take
/// milliseconds, and a shallow queue (128 requests) then ran dry and left
/// the server waiting on the client instead of computing.
inline constexpr int64_t kBacklogWindow = 1024;
/// Fixed open-loop arrival rate, about a fifteenth of the backlog capacity,
/// so a host that slows the server severalfold still leaves it above the
/// rate. At a third of capacity (10 000 requests/s) such a slowdown let the
/// queue grow for the rest of the phase, and the median latency read
/// milliseconds instead of ~0.3 ms.
inline constexpr double kOpenLoopRate = 2000.0;

enum class Tables { kTt, kCachedTt };

/// splitmix64 of (seed, stream): independent sub-seeds for data, model
/// initialisation and the arrival schedule.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

ttrec::SyntheticCriteoConfig DataConfig();

/// The benchmark's DLRM with its 7 largest tables TT (kTt) or cached TT
/// (kCachedTt); the same seed gives the same initial parameters.
std::unique_ptr<ttrec::DlrmModel> BuildModel(Tables kind, uint64_t seed);

/// The TT operator behind table `t`, or nullptr for a dense table.
const ttrec::TtEmbeddingBag* TtOf(const ttrec::DlrmModel& model, int t);

/// Trainer settings of a workload: the synchronous loop for kTt, the
/// threaded lookahead pipeline with cache prefetch for kCachedTt.
ttrec::TrainConfig TrainSettings(Tables kind, int64_t iterations);

/// kEvalBatches held-out batches of `data`, chosen by `seed`.
std::vector<ttrec::MiniBatch> MakeEvalSet(const ttrec::BatchSource& data,
                                          uint64_t seed);

/// kRequestPool single-sample requests drawn from a held-out stream of
/// `data` chosen by `seed` (disjoint from the eval set's).
std::vector<ttrec::serve::InferenceRequest> MakeRequestPool(
    const ttrec::BatchSource& data, uint64_t seed);

/// The request as a one-sample MiniBatch (label 0), for the const forward.
ttrec::MiniBatch AsBatch(const ttrec::serve::InferenceRequest& request);

ttrec::serve::InferenceServerConfig ServerConfig();

/// Per-request outcome of a serving phase: the returned logit (NaN when
/// the request failed) for request i, i.e. pool entry i % kRequestPool.
struct ServeOutcome {
  std::vector<float> logits;
  int64_t failed = 0;
  double seconds = 0.0;  // first submit to last completion
  /// Open loop only: completion minus intended send time, how late each
  /// send was, and how long each Submit call took (µs).
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::vector<double> submit_us;
  ttrec::serve::ServeMetricsSnapshot server;
};

/// One client thread keeps kBacklogWindow requests outstanding until
/// `count` have completed.
ServeOutcome RunBacklog(ttrec::serve::InferenceServer& server,
                        const std::vector<ttrec::serve::InferenceRequest>& pool,
                        int64_t count);

/// Open loop: a generator thread sends `count` requests on a seeded Poisson
/// schedule at kOpenLoopRate while this thread collects the results in
/// order. Uses a fresh server so its metrics cover this phase alone.
ServeOutcome RunOpenLoop(const ttrec::DlrmModel& model,
                         const std::vector<ttrec::serve::InferenceRequest>& pool,
                         int64_t count, uint64_t seed);

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
double SecondsSince(std::chrono::steady_clock::time_point t0);
int64_t PeakRssBytes();

}  // namespace perfbench
