// Layer-by-layer replay of the D-CHAG forecast forward, timed from outside
// through each layer's public entry point.
//
// Inside a comm::World of `ranks` threads, every rank builds the same
// model the SpmdEngine serves (same factory arguments, same seed), freezes
// it, and then runs the forward one layer at a time at the workload's
// exact shapes, under the same mode the engine uses: frozen, no-grad,
// inside a rank-private ArenaScope, pinned to the engine's context.
//
//   tokenizer   parallel::DistributedTokenizer::forward_local (+ the
//               [B, C, S, D] -> [B, S, C, D] permute)
//   tree        the model's own partial tree, AggregationTree::forward
//   tree level  one CrossAttentionAggregator per unit of plan_tree, per
//               level (fresh units of identical shape)
//   gather      parallel::all_gather_cat of one representation per rank
//   final agg   the model's own final CrossAttentionAggregator
//   vit attn    LayerNorm + MultiHeadSelfAttention::forward_residual
//   vit mlp     LayerNorm + Linear::forward_gelu + Linear::forward_residual
//               (the last block's closing projection also applies the
//               encoder's final LayerNorm, as the frozen encoder does)
//   head        Linear::forward to C * p^2 outputs
//
// Ranks meet at a barrier before the rank-local stages and again before
// the gather, so the gather time holds no waiting for slower ranks; that
// waiting is reported as the rank skew instead.
#pragma once

#include <vector>

#include "core/dchag_frontend.hpp"
#include "common.hpp"

namespace perfbench {

struct LayerReplay {
  // Medians over repetitions. Rank-local stages report the slowest rank
  // (they sit on the critical path); replicated stages report rank 0.
  double tokenizer_ms = 0.0;
  double tree_ms = 0.0;
  std::vector<double> tree_level_ms;
  double gather_ms = 0.0;
  double final_agg_ms = 0.0;
  double vit_attn_ms = 0.0;
  double vit_mlp_ms = 0.0;
  double head_ms = 0.0;
  /// Slowest minus fastest rank on the rank-local stages.
  double rank_skew_ms = 0.0;
  /// Bytes of the gathered tensor each rank receives, from tensor sizes.
  double gather_bytes = 0.0;
  double tokenizer_flops = 0.0;
  double tree_flops = 0.0;
  double vit_flops = 0.0;
  /// Largest per-rank plan::thread_buffer_allocations delta across one
  /// warmed-up planned forward (the zero-allocation contract).
  std::uint64_t steady_allocs = 0;
};

/// `batch` is the full-channel input [B, C, H, W]; every rank slices its
/// own channels from it.
[[nodiscard]] LayerReplay replay_dchag_layers(
    const dchag::model::ModelConfig& cfg,
    const dchag::core::DchagOptions& opts, dchag::tensor::Index channels,
    int ranks, std::uint64_t model_seed, const dchag::runtime::Context& ctx,
    const dchag::tensor::Tensor& batch);

/// Appends the model.*, comm.gather_* and tensor.steady_allocs metrics.
void append_replay_metrics(const LayerReplay& rep, double coverage,
                           std::vector<Metric>* out);

}  // namespace perfbench
