#include <cstdio>
#include <cstring>

#include "checks.h"
#include "tensor/parallel.h"
#include "workload.h"

namespace perfbench {

using namespace ttrec;

int RunSelfTest() {
  const uint64_t seed = 1;
  ThreadPool::SetGlobalThreads(kPoolThreads);
  std::unique_ptr<DlrmModel> model = BuildModel(Tables::kTt, seed);
  SyntheticCriteo data(DataConfig());
  const std::vector<MiniBatch> eval = MakeEvalSet(data, seed);
  const std::vector<serve::InferenceRequest> pool = MakeRequestPool(data, seed);
  const auto untrained_logits = PredictEval(*model, eval);
  TrainDlrm(*model, data, TrainSettings(Tables::kTt, 400));
  const auto logits = PredictEval(*model, eval);
  const EvalScore score = ScoreLogits(logits, eval);
  const EvalMetrics evaluated = model->Evaluate(eval);
  const double untrained_auc = ScoreLogits(untrained_logits, eval).auc;

  std::vector<float> responses;
  {
    serve::InferenceServer server(*model, ServerConfig());
    responses = RunBacklog(server, pool, 512).logits;
  }
  const std::vector<float> reference = SingleRequestLogits(*model, pool);

  // Corruptions: one core entry of a copied TT table, swapped eval labels,
  // one flipped bit in one response logit.
  const TtEmbeddingBag* tt = nullptr;
  for (int t = 0; t < model->num_tables() && tt == nullptr; ++t) {
    tt = TtOf(*model, t);
  }
  const std::vector<int64_t> rows = {0, tt->num_rows() / 2, tt->num_rows() - 1};
  TtEmbeddingBag perturbed(tt->config(), tt->cores());
  perturbed.cores().Slice(0, tt->shape().RowDigits(rows[1])[0])[0] += 0.5f;

  std::vector<MiniBatch> swapped = eval;
  for (MiniBatch& b : swapped) {
    for (float& y : b.labels) y = 1.0f - y;
  }
  const EvalScore swapped_score = ScoreLogits(logits, swapped);
  const double swapped_untrained = ScoreLogits(untrained_logits, swapped).auc;

  std::vector<float> flipped = responses;
  uint32_t bits = 0;
  std::memcpy(&bits, &flipped[7], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&flipped[7], &bits, sizeof(bits));

  const std::pair<Check, Check> cases[] = {
      {CheckTtRows(*tt, tt->cores(), rows),
       CheckTtRows(perturbed, tt->cores(), rows)},
      {CheckEvalAgrees(score, evaluated),
       CheckEvalAgrees(swapped_score, evaluated)},
      {CheckLearned(score.auc, untrained_auc),
       CheckLearned(swapped_score.auc, swapped_untrained)},
      {CheckResponses(responses, reference),
       CheckResponses(flipped, reference)},
  };
  int bad = 0;
  for (const auto& [real, corrupted] : cases) {
    std::printf("%-14s real: %s  corrupted: %s\n  real:      %s\n  corrupted: %s\n",
                real.name.c_str(), real.ok ? "pass" : "FAIL",
                corrupted.ok ? "NOT FIRED" : "fired", real.detail.c_str(),
                corrupted.detail.c_str());
    if (!real.ok || corrupted.ok) ++bad;
  }
  std::printf("self-test: %s\n", bad == 0 ? "every check passes on real outputs "
                                             "and fires on corrupted ones"
                                           : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
