#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "data/csr_batch.h"
#include "tensor/random.h"
#include "workload.h"

namespace perfbench {

using namespace ttrec;

std::vector<double> NaiveTtRow(const TtCores& cores, int64_t row) {
  const TtShape& shape = cores.shape();
  const std::vector<int64_t> digits = shape.RowDigits(row);
  // acc is (prod of n_j for j < k) x R_k, row-major; each core-k slice is
  // R_k x (n_k * R_{k+1}), so the product extends the column index by n_k.
  std::vector<double> acc = {1.0};
  int64_t lead = 1;  // prod of n_j so far
  for (int k = 0; k < cores.num_cores(); ++k) {
    const int64_t r_in = cores.SliceRows(k);
    const int64_t cols = cores.SliceCols(k);
    const float* s = cores.Slice(k, digits[static_cast<size_t>(k)]);
    std::vector<double> next(static_cast<size_t>(lead * cols), 0.0);
    for (int64_t i = 0; i < lead; ++i) {
      for (int64_t r = 0; r < r_in; ++r) {
        const double a = acc[static_cast<size_t>(i * r_in + r)];
        for (int64_t c = 0; c < cols; ++c) {
          next[static_cast<size_t>(i * cols + c)] +=
              a * static_cast<double>(s[r * cols + c]);
        }
      }
    }
    acc = std::move(next);
    lead *= shape.col_factors[static_cast<size_t>(k)];
  }
  return acc;
}

Check CheckTtRows(const TtEmbeddingBag& tt, const TtCores& reference,
                  std::span<const int64_t> rows) {
  Check c{"tt_rows", true, ""};
  const int64_t d = tt.emb_dim();
  std::vector<float> got(static_cast<size_t>(d));
  double worst = 0.0;
  for (int64_t row : rows) {
    const CsrBatch one = CsrBatch::FromIndices({row});
    tt.ForwardInference(one, got.data());
    const std::vector<double> want = NaiveTtRow(reference, row);
    for (int64_t j = 0; j < d; ++j) {
      const double w = want[static_cast<size_t>(j)];
      const double err = std::abs(static_cast<double>(got[static_cast<size_t>(j)]) - w);
      worst = std::max(worst, err / (1e-4 + std::abs(w)));
      if (err > 1e-6 + 1e-4 * std::abs(w)) {
        std::ostringstream os;
        os << "row " << row << " col " << j << ": lookup " << got[static_cast<size_t>(j)]
           << " vs chain product " << w;
        return Check{"tt_rows", false, os.str()};
      }
    }
  }
  std::ostringstream os;
  os << rows.size() << " rows, worst relative error " << worst;
  c.detail = os.str();
  return c;
}

namespace {

double Auc(std::span<const float> scores, std::span<const float> labels) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Sum of (1-based, tie-averaged) ranks of the positives.
  double pos_rank_sum = 0.0;
  double pos = 0.0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0.5f) {
        pos_rank_sum += avg_rank;
        pos += 1.0;
      }
    }
    i = j;
  }
  const double neg = static_cast<double>(n) - pos;
  if (pos == 0.0 || neg == 0.0) return 0.5;
  return (pos_rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg);
}

double LogLoss(std::span<const float> logits, std::span<const float> labels) {
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    const double z = logits[i];
    // log(1 + e^z) - y z, written to stay finite for large |z|.
    sum += std::max(z, 0.0) + std::log1p(std::exp(-std::abs(z))) -
           static_cast<double>(labels[i]) * z;
  }
  return sum / static_cast<double>(logits.size());
}

}  // namespace

std::vector<std::vector<float>> PredictEval(const DlrmModel& model,
                                            const std::vector<MiniBatch>& eval) {
  std::vector<std::vector<float>> out;
  InferenceScratch scratch;
  for (const MiniBatch& b : eval) {
    out.emplace_back(static_cast<size_t>(b.batch_size()));
    model.PredictLogits(b, out.back().data(), scratch);
  }
  return out;
}

EvalScore ScoreLogits(const std::vector<std::vector<float>>& logits,
                      const std::vector<MiniBatch>& eval) {
  EvalScore s;
  for (size_t i = 0; i < eval.size(); ++i) {
    s.auc += Auc(logits[i], eval[i].labels);
    s.logloss += LogLoss(logits[i], eval[i].labels);
  }
  s.auc /= static_cast<double>(eval.size());
  s.logloss /= static_cast<double>(eval.size());
  return s;
}

Check CheckEvalAgrees(const EvalScore& mine, const EvalMetrics& model) {
  const double dauc = std::abs(mine.auc - model.auc);
  const double dloss = std::abs(mine.logloss - model.loss);
  std::ostringstream os;
  os << "auc " << mine.auc << " vs Evaluate " << model.auc << ", logloss "
     << mine.logloss << " vs Evaluate " << model.loss;
  return Check{"eval_agrees",
               dauc <= 1e-6 && dloss <= 1e-5 * std::max(1.0, mine.logloss),
               os.str()};
}

Check CheckLearned(double trained_auc, double untrained_auc) {
  std::ostringstream os;
  os << "trained auc " << trained_auc << ", untrained " << untrained_auc
     << ", required gain " << kMinAucGain;
  return Check{"learned", trained_auc >= untrained_auc + kMinAucGain,
               os.str()};
}

Check CheckResponses(std::span<const float> responses,
                     std::span<const float> reference) {
  int64_t mismatched = 0;
  int64_t first = -1;
  for (size_t i = 0; i < responses.size(); ++i) {
    const float want = reference[i % reference.size()];
    // A failed request (NaN) is counted as failed by the caller; the check
    // covers the requests that completed.
    if (std::isnan(responses[i]) && !std::isnan(want)) continue;
    if (std::memcmp(&responses[i], &want, sizeof(float)) != 0) {
      if (first < 0) first = static_cast<int64_t>(i);
      ++mismatched;
    }
  }
  std::ostringstream os;
  os << responses.size() << " responses, " << mismatched
     << " not bitwise equal to the single-request forward";
  if (first >= 0) os << " (first: response " << first << ")";
  return Check{"serve_bitwise", mismatched == 0, os.str()};
}

std::vector<float> SingleRequestLogits(
    const DlrmModel& model, const std::vector<serve::InferenceRequest>& pool) {
  std::vector<float> out(pool.size());
  InferenceScratch scratch;
  for (size_t i = 0; i < pool.size(); ++i) {
    model.PredictLogits(AsBatch(pool[i]), &out[i], scratch);
  }
  return out;
}

std::vector<Check> ModelChecks(const DlrmModel& model, const EvalScore& score,
                               const EvalMetrics& evaluated,
                               double untrained_auc, uint64_t seed) {
  Rng rng(SubSeed(seed, 4));
  Check rows{"tt_rows", false, "model has no TT table"};
  int tables = 0;
  for (int t = 0; t < model.num_tables(); ++t) {
    const TtEmbeddingBag* tt = TtOf(model, t);
    if (tt == nullptr) continue;
    std::vector<int64_t> sample(static_cast<size_t>(kRowsPerTable));
    for (int64_t& r : sample) r = rng.RandInt(tt->num_rows());
    rows = CheckTtRows(*tt, tt->cores(), sample);
    rows.detail = "table " + std::to_string(t) + ": " + rows.detail;
    if (!rows.ok) break;
    ++tables;
  }
  if (rows.ok) rows.detail = std::to_string(tables) + " TT tables; last " + rows.detail;
  return {rows, CheckEvalAgrees(score, evaluated),
          CheckLearned(score.auc, untrained_auc)};
}

}  // namespace perfbench
