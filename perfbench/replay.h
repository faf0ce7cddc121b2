// The traced run (--trace 1): per-layer times from calls into each module's
// public functions, made from the benchmark's own code. The timed run stays
// untraced; this run measures the layers instead.
//
// It is the same for every workload, so that every per-layer metric comes
// from every traced run:
//  - Training replay, once on the TT model and once on the cached-TT model.
//    Each step draws a batch (BatchSource::NextBatch), then drives the
//    model's tables (EmbeddingOp::Forward / Backward / ApplyUpdate) and an
//    Mlp / DotInteraction pair of the model's dimensions through a full SGD
//    step, timing every call. A twin model runs DlrmModel::TrainStep on the
//    same batches; its step time minus the layer sum is the unattributed
//    residual. The cached replay applies lookahead prefetch plans
//    (CachedTtEmbeddingBag::PrefetchRows) two batches ahead, like the
//    pipelined trainer.
//  - Serving: the open-loop phase on the trained TT twin, with client-side
//    submit time and generator lag and the server's queue wait and
//    micro-batch size, then the three stages of the const forward timed at
//    the observed micro-batch size.
#pragma once

#include <cstdint>

namespace perfbench {

int RunTraced(uint64_t seed, int seconds);

}  // namespace perfbench
