#include "layer_replay.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "comm/communicator.hpp"
#include "hw/flop_model.hpp"
#include "model/attention.hpp"
#include "parallel/collective_ops.hpp"
#include "parallel/dist_tokenizer.hpp"
#include "tensor/plan.hpp"

namespace perfbench {

namespace {

using dchag::autograd::LayerNorm;
using dchag::autograd::Linear;
using dchag::autograd::Variable;
using dchag::tensor::Index;
using dchag::tensor::Shape;
using dchag::tensor::Tensor;
namespace model = dchag::model;

constexpr int kWarmReps = 2;
constexpr int kReps = 12;

struct RankTimes {
  std::vector<double> tokenizer, tree, gather, final_agg, attn, mlp, head;
  std::vector<std::vector<double>> levels;
  std::uint64_t steady_allocs = 0;
};

/// One ViT block's modules, built to the encoder's shapes.
struct ReplayBlock {
  ReplayBlock(const model::ModelConfig& cfg, dchag::tensor::Rng& rng)
      : ln1(cfg.embed_dim),
        ln2(cfg.embed_dim),
        attn(cfg.embed_dim, cfg.num_heads, rng),
        up(cfg.embed_dim, cfg.mlp_ratio * cfg.embed_dim, rng),
        down(cfg.mlp_ratio * cfg.embed_dim, cfg.embed_dim, rng) {}
  void freeze() {
    ln1.freeze_for_serving();
    ln2.freeze_for_serving();
    attn.freeze_for_serving();
    up.freeze_for_serving();
    down.freeze_for_serving();
  }
  LayerNorm ln1, ln2;
  model::MultiHeadSelfAttention attn;
  Linear up, down;
};

}  // namespace

LayerReplay replay_dchag_layers(const model::ModelConfig& cfg,
                                const dchag::core::DchagOptions& opts,
                                Index channels, int ranks,
                                std::uint64_t model_seed,
                                const dchag::runtime::Context& ctx,
                                const Tensor& batch) {
  const Index B = batch.dim(0);
  const Index S = cfg.seq_len();
  const Index D = cfg.embed_dim;
  const Index p2 = cfg.patch_size * cfg.patch_size;
  std::vector<RankTimes> times(static_cast<std::size_t>(ranks));
  model::TreePlan plan;

  dchag::comm::World world(ranks);
  world.run([&](dchag::comm::Communicator& comm) {
    dchag::runtime::Scope scope(ctx);
    dchag::autograd::NoGradGuard no_grad;
    RankTimes& t = times[static_cast<std::size_t>(comm.rank())];

    dchag::tensor::Rng rng(model_seed);
    auto fc = dchag::core::make_dchag_forecast(cfg, channels, comm, opts,
                                               rng, ctx);
    fc->freeze_for_serving();
    const auto& fe =
        dynamic_cast<const dchag::core::DchagFrontEnd&>(fc->frontend());
    const model::TreePlan& tree_plan = fe.partial_tree().plan();
    if (comm.rank() == 0) plan = tree_plan;

    // Modules the model keeps private, rebuilt at identical shapes.
    dchag::tensor::Rng rr(model_seed ^ 0x5EE1ULL);
    dchag::parallel::DistributedTokenizer tok(cfg, channels, comm, rr);
    tok.freeze_for_serving();
    std::vector<std::vector<std::unique_ptr<model::ChannelAggregator>>> units;
    for (const auto& widths : tree_plan.level_widths) {
      units.emplace_back();
      for (Index w : widths) {
        units.back().push_back(model::make_aggregator(
            opts.partial_kind, D, cfg.num_heads, w, cfg.query_mode, rr,
            "replay.unit"));
        units.back().back()->freeze_for_serving();
      }
    }
    std::vector<std::unique_ptr<ReplayBlock>> blocks;
    for (Index l = 0; l < cfg.num_layers; ++l) {
      blocks.push_back(std::make_unique<ReplayBlock>(cfg, rr));
      blocks.back()->freeze();
    }
    LayerNorm final_ln(D);
    final_ln.freeze_for_serving();
    Linear head(D, channels * p2, rr);
    head.freeze_for_serving();
    t.levels.resize(tree_plan.level_widths.size());

    dchag::tensor::plan::Arena arena;
    dchag::tensor::plan::ArenaScope arena_scope(arena);
    const Tensor local = fe.slice_local_channels(batch);

    for (int rep = 0; rep < kWarmReps + kReps; ++rep) {
      const bool keep = rep >= kWarmReps;
      auto timed = [keep](std::vector<double>& into, auto&& fn) {
        const auto t0 = Clock::now();
        auto out = fn();
        if (keep) into.push_back(ms_since(t0));
        return out;
      };
      comm.barrier();
      Variable bscd = timed(t.tokenizer, [&] {
        return dchag::autograd::permute(tok.forward_local(local),
                                        {0, 2, 1, 3});
      });
      Variable partial =
          timed(t.tree, [&] { return fe.partial_tree().forward(bscd); });
      Variable current = bscd;
      for (std::size_t lvl = 0; lvl < units.size(); ++lvl) {
        current = timed(t.levels[lvl], [&] {
          const auto& widths = tree_plan.level_widths[lvl];
          std::vector<Variable> outs;
          Index off = 0;
          for (std::size_t g = 0; g < widths.size(); ++g) {
            Variable group = dchag::autograd::slice(current, 2, off,
                                                    widths[g]);
            outs.push_back(dchag::autograd::reshape(
                units[lvl][g]->forward(group), Shape{B, S, 1, D}));
            off += widths[g];
          }
          return outs.size() == 1 ? outs.front()
                                  : dchag::autograd::concat(outs, 2);
        });
      }

      comm.barrier();
      Variable gathered = timed(t.gather, [&] {
        return dchag::parallel::all_gather_cat(
            dchag::autograd::reshape(partial, Shape{B, S, 1, D}), comm, 2,
            dchag::parallel::GatherBackward::kLocalSlice);
      });
      Variable h = timed(t.final_agg, [&] {
        return fe.final_aggregator().forward(gathered);
      });
      double attn_ms = 0.0;
      double mlp_ms = 0.0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        ReplayBlock& blk = *blocks[b];
        auto t0 = Clock::now();
        Variable h1 = blk.attn.forward_residual(blk.ln1.forward(h), h);
        attn_ms += ms_since(t0);
        t0 = Clock::now();
        Variable up = blk.up.forward_gelu(blk.ln2.forward(h1));
        h = b + 1 < blocks.size()
                ? blk.down.forward_residual(up, h1)
                : blk.down.forward_residual_layernorm(
                      up, h1, final_ln.gamma(), final_ln.beta());
        mlp_ms += ms_since(t0);
      }
      if (keep) {
        t.attn.push_back(attn_ms);
        t.mlp.push_back(mlp_ms);
      }
      Variable pred = timed(t.head, [&] { return head.forward(h); });
      (void)pred;
    }

    // The zero-allocation contract of the planned forward: after warm-up,
    // one more full model forward must not touch the heap.
    for (int i = 0; i < 2; ++i) (void)fc->predict(local);
    const std::uint64_t a0 = dchag::tensor::plan::thread_buffer_allocations();
    (void)fc->predict(local);
    t.steady_allocs = dchag::tensor::plan::thread_buffer_allocations() - a0;
  });

  LayerReplay out;
  std::vector<double> local_stage;
  for (const RankTimes& t : times) {
    out.tokenizer_ms = std::max(out.tokenizer_ms, median(t.tokenizer));
    out.tree_ms = std::max(out.tree_ms, median(t.tree));
    local_stage.push_back(median(t.tokenizer) + median(t.tree));
    out.steady_allocs = std::max(out.steady_allocs, t.steady_allocs);
    out.tree_level_ms.resize(t.levels.size(), 0.0);
    for (std::size_t l = 0; l < t.levels.size(); ++l)
      out.tree_level_ms[l] = std::max(out.tree_level_ms[l],
                                      median(t.levels[l]));
  }
  out.rank_skew_ms =
      *std::max_element(local_stage.begin(), local_stage.end()) -
      *std::min_element(local_stage.begin(), local_stage.end());
  const RankTimes& r0 = times.front();
  out.gather_ms = median(r0.gather);
  out.final_agg_ms = median(r0.final_agg);
  out.vit_attn_ms = median(r0.attn);
  out.vit_mlp_ms = median(r0.mlp);
  out.head_ms = median(r0.head);
  out.gather_bytes =
      static_cast<double>(ranks * B * S * D) * sizeof(float);

  const double c_local =
      static_cast<double>(channels) / static_cast<double>(ranks);
  out.tokenizer_flops =
      dchag::hw::FlopModel::tokenizer_flops(cfg, static_cast<double>(B),
                                            c_local);
  const auto tree = dchag::hw::FlopModel::tree_flops(
      cfg, static_cast<double>(B), plan, opts.partial_kind);
  out.tree_flops = tree.scores + tree.proj;
  out.vit_flops =
      dchag::hw::FlopModel::transformer_flops(cfg, static_cast<double>(B));
  return out;
}

void append_replay_metrics(const LayerReplay& rep, double coverage,
                           std::vector<Metric>* out) {
  auto gflops = [](double flops, double ms) {
    return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
  };
  out->push_back({"model.tokenizer_ms", rep.tokenizer_ms, "ms"});
  out->push_back({"model.tree_ms", rep.tree_ms, "ms"});
  for (std::size_t l = 0; l < rep.tree_level_ms.size(); ++l)
    out->push_back({"model.tree.l" + std::to_string(l) + "_ms",
                    rep.tree_level_ms[l], "ms"});
  out->push_back({"comm.gather_ms", rep.gather_ms, "ms"});
  out->push_back({"comm.gather_bytes", rep.gather_bytes, "bytes"});
  out->push_back({"model.final_agg_ms", rep.final_agg_ms, "ms"});
  out->push_back({"model.vit.attn_ms", rep.vit_attn_ms, "ms"});
  out->push_back({"model.vit.mlp_ms", rep.vit_mlp_ms, "ms"});
  out->push_back({"model.head_ms", rep.head_ms, "ms"});
  out->push_back({"model.rank_skew_ms", rep.rank_skew_ms, "ms"});
  out->push_back({"model.tokenizer_gflops",
                  gflops(rep.tokenizer_flops, rep.tokenizer_ms), "GFLOP/s"});
  out->push_back(
      {"model.tree_gflops", gflops(rep.tree_flops, rep.tree_ms), "GFLOP/s"});
  out->push_back({"model.vit_gflops",
                  gflops(rep.vit_flops, rep.vit_attn_ms + rep.vit_mlp_ms),
                  "GFLOP/s"});
  out->push_back({"model.coverage", coverage, "share"});
  out->push_back({"tensor.steady_allocs",
                  static_cast<double>(rep.steady_allocs), "count"});
}

}  // namespace perfbench
