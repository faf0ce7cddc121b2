// Train-and-serve benchmark of the TT-Rec DLRM.
//
//   ttrec_perfbench --workload train-tt|train-cached --seed N
//                   --seconds S --trace 0|1 [--pool-threads T]
//   ttrec_perfbench --self-test
//
// Every workload trains the model for a fixed number of steps and serves it,
// in rounds: a backlog phase (capacity) and an open-loop phase at a fixed
// Poisson rate follow each stretch of training; then it evaluates.
// The workload decides which table kind the model uses: uncached TT tables
// or LFU-cached ones with lookahead prefetch; the amount of work is a function of --seconds alone, never of measured
// speed, so two commits always do the same work. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 1 runs the per-layer replay instead (replay.h); the timed run
// itself is never traced.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "checks.h"
#include "replay.h"
#include "report.h"
#include "tensor/parallel.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace ttrec;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;
  int trace = 0;
  int pool_threads = 0;  // 0 = kPoolThreads; sets the pool for both phases
  bool self_test = false;
};

struct WorkloadShape {
  Tables kind;
  /// Nominal rates on the reference host, used only to turn --seconds into
  /// fixed amounts of work.
  double train_steps_per_s;
  double serve_rps;
};

bool ShapeOf(const std::string& name, WorkloadShape* out) {
  if (name == "train-tt") {
    *out = {Tables::kTt, 100.0, 30000.0};
  } else if (name == "train-cached") {
    *out = {Tables::kCachedTt, 165.0, 33000.0};
  } else {
    return false;
  }
  return true;
}

/// Shares of the run's time budget spent training and in the backlog phase;
/// the open loop gets the rest. The open loop feeds no end-to-end metric
/// (its latency moves with the host's wake-up times; see README.md): it is
/// there so that micro-batches of one to a few requests are checked too,
/// and its latency percentiles go to stderr.
constexpr double kTrainShare = 0.6;
constexpr double kBacklogShare = 0.25;

/// The timed phases run in this many rounds of training, backlog and open
/// loop, so each phase's time is spread over the whole run rather than one
/// stretch of it: the host's speed levels last seconds, and a phase that
/// sat in one stretch moved with the level it happened to meet.
constexpr int kRounds = 5;

/// Nominal length of the set-up warm-up on the reference host. A longer
/// set-up averages over more of the host's speed levels, and this one is
/// long enough for the cached tables' warm-up window and for the kernels'
/// buffers to settle.
constexpr double kWarmupSeconds = 6.0;
constexpr int64_t kServeWarmupRequests = 1024;

int RunTimed(const Args& args, const WorkloadShape& shape,
             Clock::time_point process_start) {
  const double round_s = static_cast<double>(args.seconds) / kRounds;
  const auto round_steps = static_cast<int64_t>(
      std::llround(round_s * kTrainShare * shape.train_steps_per_s));
  const auto round_backlog = static_cast<int64_t>(
      std::llround(round_s * kBacklogShare * shape.serve_rps));
  const auto round_open_loop = static_cast<int64_t>(std::llround(
      round_s * (1.0 - kTrainShare - kBacklogShare) * kOpenLoopRate));

  // --- Set-up: model, TT init, eval set, requests, warm-up -------------
  const int pool_threads =
      args.pool_threads > 0 ? args.pool_threads : kPoolThreads;
  ThreadPool::SetGlobalThreads(pool_threads);
  std::unique_ptr<DlrmModel> model = BuildModel(shape.kind, args.seed);
  SyntheticCriteo data(DataConfig());
  const std::vector<MiniBatch> eval = MakeEvalSet(data, args.seed);
  const std::vector<serve::InferenceRequest> pool = MakeRequestPool(data, args.seed);
  const double untrained_auc = ScoreLogits(PredictEval(*model, eval), eval).auc;
  TrainConfig tc = TrainSettings(
      shape.kind,
      std::llround(kWarmupSeconds * shape.train_steps_per_s));
  tc.num_threads = pool_threads;
  TrainDlrm(*model, data, tc);
  const double setup_s = SecondsSince(process_start);

  // --- Timed rounds: training, backlog capacity, fixed-rate open loop -----
  // Each round serves the model as training left it, so its responses are
  // checked against that round's single-request forward.
  std::vector<Check> checks;
  double train_s = 0.0;
  double backlog_s = 0.0;
  double batch_size_sum = 0.0;
  int64_t failed = 0;
  std::vector<double> latency_us;
  tc.iterations = round_steps;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    TrainDlrm(*model, data, tc);
    train_s += SecondsSince(t0);

    ServeOutcome backlog;
    {
      serve::InferenceServer server(*model, ServerConfig());
      RunBacklog(server, pool, kServeWarmupRequests);
      backlog = RunBacklog(server, pool, round_backlog);
    }
    const ServeOutcome open_loop =
        RunOpenLoop(*model, pool, round_open_loop,
                    SubSeed(SubSeed(args.seed, 3), static_cast<uint64_t>(r)));
    backlog_s += backlog.seconds;
    failed += backlog.failed + open_loop.failed;
    latency_us.insert(latency_us.end(), open_loop.latency_us.begin(),
                      open_loop.latency_us.end());
    batch_size_sum += open_loop.server.mean_batch_size;

    const std::vector<float> reference = SingleRequestLogits(*model, pool);
    checks.push_back(CheckResponses(backlog.logits, reference));
    checks.push_back(CheckResponses(open_loop.logits, reference));
  }

  const EvalScore score = ScoreLogits(PredictEval(*model, eval), eval);
  const EvalMetrics evaluated = model->Evaluate(eval);
  std::vector<Check> model_checks = ModelChecks(*model, score, evaluated,
                                                untrained_auc, args.seed);
  checks.insert(checks.begin(), model_checks.begin(), model_checks.end());

  const int64_t train_steps = kRounds * round_steps;
  const int64_t backlog_requests = kRounds * round_backlog;
  std::fprintf(stderr,
               "phases: setup %.2fs; %d rounds: train %lld steps in %.2fs, "
               "backlog %lld requests in %.2fs, open loop %lld requests "
               "(latency p50 %.0fus p99 %.0fus p99.9 %.0fus, mean "
               "micro-batch %.2f)\n",
               setup_s, kRounds, static_cast<long long>(train_steps), train_s,
               static_cast<long long>(backlog_requests), backlog_s,
               static_cast<long long>(kRounds * round_open_loop),
               Percentile(latency_us, 50.0), Percentile(latency_us, 99.0),
               Percentile(latency_us, 99.9), batch_size_sum / kRounds);

  Report report;
  report.attempted =
      train_steps + backlog_requests + kRounds * round_open_loop;
  report.failed = failed;
  report.checks = std::move(checks);
  report.Add("train_steps_per_s", static_cast<double>(train_steps) / train_s,
             "steps/s");
  report.Add("eval_auc", score.auc, "ratio");
  report.Add("serve_rps", static_cast<double>(backlog_requests) / backlog_s,
             "requests/s");
  report.Add("emb_bytes", static_cast<double>(model->EmbeddingMemoryBytes()),
             "bytes");
  report.Add("peak_rss_bytes", static_cast<double>(PeakRssBytes()), "bytes");
  report.Add("setup_s", setup_s, "s");
  return report.Print();
}

int Usage() {
  std::fprintf(stderr,
               "usage: ttrec_perfbench --workload train-tt|train-cached "
               "--seed N --seconds S --trace 0|1 [--pool-threads T]\n"
               "       ttrec_perfbench --self-test\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    const long long n = std::strtoll(v, &end, 10);
    const bool numeric = end != v && *end == '\0';
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed" && numeric && n >= 0) {
      a->seed = static_cast<uint64_t>(n);
    } else if (k == "--seconds" && numeric && n >= 1 && n <= 3600) {
      a->seconds = static_cast<int>(n);
    } else if (k == "--trace" && numeric && (n == 0 || n == 1)) {
      a->trace = static_cast<int>(n);
    } else if (k == "--pool-threads" && numeric && n >= 1 && n <= 64) {
      a->pool_threads = static_cast<int>(n);
    } else {
      return false;
    }
  }
  return a->self_test || (!a->workload.empty() && a->seconds > 0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  try {
    if (args.self_test) return perfbench::RunSelfTest();
    perfbench::WorkloadShape shape{};
    if (!perfbench::ShapeOf(args.workload, &shape)) return perfbench::Usage();
    if (args.trace == 1) {
      return perfbench::RunTraced(args.seed, args.seconds);
    }
    return perfbench::RunTimed(args, shape, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttrec_perfbench: %s\n", e.what());
    return 1;
  }
}
