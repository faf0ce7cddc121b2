// Correctness checks run at the end of every workload. Each one recomputes
// an output of the program by an independent route inside the benchmark,
// so none of them depends on what the program printed before.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/batch_source.h"
#include "dlrm/model.h"
#include "serve/request_queue.h"
#include "tt/tt_cores.h"
#include "tt/tt_embedding.h"

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Rows of a TT table: a naive chain product of the core slices of
/// `reference`, in double, must equal a one-lookup ForwardInference of `tt`
/// within a float tolerance.
Check CheckTtRows(const ttrec::TtEmbeddingBag& tt,
                  const ttrec::TtCores& reference,
                  std::span<const int64_t> rows);

/// The naive chain product of Eq. (3) for one row, in double.
std::vector<double> NaiveTtRow(const ttrec::TtCores& cores, int64_t row);

/// AUC (Mann-Whitney, ties averaged) and mean log-loss of one batch,
/// averaged over the eval batches the way DlrmModel::Evaluate averages.
struct EvalScore {
  double auc = 0.0;
  double logloss = 0.0;
};
EvalScore ScoreLogits(const std::vector<std::vector<float>>& logits,
                      const std::vector<ttrec::MiniBatch>& eval);

/// Logits of the const forward for every eval batch.
std::vector<std::vector<float>> PredictEval(
    const ttrec::DlrmModel& model, const std::vector<ttrec::MiniBatch>& eval);

/// The benchmark's own eval score must match DlrmModel::Evaluate.
Check CheckEvalAgrees(const EvalScore& mine, const ttrec::EvalMetrics& model);

/// Training must beat the untrained model's AUC by kMinAucGain.
inline constexpr double kMinAucGain = 0.05;
Check CheckLearned(double trained_auc, double untrained_auc);

/// Every served logit must be bitwise equal to the const PredictLogits of
/// its request alone; `reference[i % reference.size()]` belongs to
/// response i. NaN responses mark failed requests and are skipped.
Check CheckResponses(std::span<const float> responses,
                     std::span<const float> reference);

/// The const PredictLogits of each request alone.
std::vector<float> SingleRequestLogits(
    const ttrec::DlrmModel& model,
    const std::vector<ttrec::serve::InferenceRequest>& pool);

/// The model-side checks every workload ends with: TT rows of every TT
/// table (kRowsPerTable seeded rows each), eval agreement and the learning
/// margin.
inline constexpr int64_t kRowsPerTable = 16;
std::vector<Check> ModelChecks(const ttrec::DlrmModel& model,
                               const EvalScore& score,
                               const ttrec::EvalMetrics& evaluated,
                               double untrained_auc, uint64_t seed);

/// Shows that every check above can fail: each runs once on real outputs,
/// where it must pass, and once on deliberately corrupted ones, where it
/// must fire. Returns 0 when all of them behave.
int RunSelfTest();

}  // namespace perfbench
