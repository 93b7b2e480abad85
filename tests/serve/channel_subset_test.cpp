// Channel-subset request correctness (paper §2.1): subset tokenization is
// bit-identical to the matching rows of a full tokenization, the
// aggregation tree's partial-channel routing degenerates to the plain
// forward on the full set, slot validation fails loudly, components
// without subset support reject subsets with a typed error, and the D-CHAG
// SPMD front-end serves subsets replicated across ranks — including ranks
// owning none of the requested channels.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "core/dchag_frontend.hpp"
#include "model/foundation.hpp"
#include "model/perceiver.hpp"

namespace dchag::model {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using tensor::Index;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor gather_channels(const Tensor& images, const std::vector<Index>& ids) {
  std::vector<Tensor> slabs;
  slabs.reserve(ids.size());
  for (Index c : ids) slabs.push_back(ops::slice(images, 1, c, 1));
  return slabs.size() == 1 ? slabs.front() : ops::concat(slabs, 1);
}

TEST(ChannelSubsetServe, SubsetTokensMatchFullTokenizationBitForBit) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(1);
  PatchTokenizer tok(cfg, 6, rng);
  Tensor images = Rng(2).normal_tensor(Shape{2, 6, 16, 16});
  Tensor full = tok.forward(images).value();  // [B, 6, S, D]

  const std::vector<Index> subset{1, 3, 4};
  Tensor sub_tokens =
      tok.forward_subset(gather_channels(images, subset), subset).value();
  for (std::size_t i = 0; i < subset.size(); ++i) {
    Tensor expected = ops::slice(full, 1, subset[i], 1);
    Tensor got = ops::slice(sub_tokens, 1, static_cast<Index>(i), 1);
    EXPECT_EQ(ops::max_abs_diff(expected, got), 0.0f) << "channel "
                                                      << subset[i];
  }
}

TEST(ChannelSubsetServe, TreeFullSetSubsetEqualsForward) {
  ModelConfig cfg = ModelConfig::tiny();
  for (AggLayerKind kind :
       {AggLayerKind::kCrossAttention, AggLayerKind::kLinear}) {
    Rng rng(3);
    auto tree = AggregationTree::with_units(cfg, kind, 8, 4, rng);
    Tensor tokens = Rng(4).normal_tensor(Shape{1, 4, 8, cfg.embed_dim});
    std::vector<Index> all{0, 1, 2, 3, 4, 5, 6, 7};
    Tensor direct = tree->forward(Variable::input(tokens)).value();
    Tensor routed =
        tree->forward_subset(Variable::input(tokens), all).value();
    EXPECT_EQ(ops::max_abs_diff(direct, routed), 0.0f)
        << "kind " << to_string(kind);
  }
}

TEST(ChannelSubsetServe, TreePartialRoutingIsDeterministicAndSensitive) {
  ModelConfig cfg = ModelConfig::tiny();
  for (AggLayerKind kind :
       {AggLayerKind::kCrossAttention, AggLayerKind::kLinear}) {
    Rng rng(5);
    // 8 channels, first-level width 3 -> uneven groups + a second level:
    // the subset below spans group boundaries and skips whole groups.
    AggregationTree tree(cfg, kind, 8, 3, rng);
    Tensor full = Rng(6).normal_tensor(Shape{2, 4, 8, cfg.embed_dim});
    const std::vector<Index> subset{0, 4, 7};
    std::vector<Tensor> slabs;
    for (Index c : subset) slabs.push_back(ops::slice(full, 2, c, 1));
    Tensor sub_tokens = ops::concat(slabs, 2);

    Variable out =
        tree.forward_subset(Variable::input(sub_tokens), subset);
    EXPECT_EQ(out.shape(), (Shape{2, 4, cfg.embed_dim}));
    for (float v : out.value().span()) ASSERT_TRUE(std::isfinite(v));
    // Deterministic across calls...
    Tensor again =
        tree.forward_subset(Variable::input(sub_tokens.clone()), subset)
            .value();
    EXPECT_EQ(ops::max_abs_diff(out.value(), again), 0.0f);
    // ...and genuinely different from aggregating all 8 channels.
    Tensor full_out = tree.forward(Variable::input(full)).value();
    EXPECT_GT(ops::max_abs_diff(out.value(), full_out), 1e-5f);
  }
}

TEST(ChannelSubsetServe, SlotValidationFailsLoudly) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(7);
  AggregationTree tree(cfg, AggLayerKind::kCrossAttention, 6, 3, rng);
  Tensor tokens = Rng(8).normal_tensor(Shape{1, 4, 2, cfg.embed_dim});
  EXPECT_THROW(
      tree.forward_subset(Variable::input(tokens), std::vector<Index>{3, 1}),
      Error);  // unsorted
  EXPECT_THROW(
      tree.forward_subset(Variable::input(tokens), std::vector<Index>{1, 9}),
      Error);  // out of range
  EXPECT_THROW(tree.forward_subset(Variable::input(tokens),
                                   std::vector<Index>{0, 1, 2}),
               Error);  // token/slot count mismatch

  Rng rng2(9);
  PatchTokenizer tok(cfg, 4, rng2);
  Tensor img = Rng(10).normal_tensor(Shape{1, 2, 16, 16});
  EXPECT_THROW(
      (void)tok.forward_subset(img, std::vector<Index>{2, 7}),
      Error);  // channel 7 not tokenized here
}

TEST(ChannelSubsetServe, BaseImplementationsRejectSubsetsTyped) {
  // The Perceiver keeps the base ChannelAggregator::forward_subset: the
  // full slot set is a plain forward, anything narrower is refused.
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(11);
  PerceiverAggregator agg(cfg.embed_dim, cfg.num_heads, 4, /*latents=*/2,
                          /*iterations=*/1, rng);
  Tensor tokens = Rng(12).normal_tensor(Shape{1, 4, 4, cfg.embed_dim});
  Tensor direct = agg.forward(Variable::input(tokens)).value();
  Tensor routed = agg.forward_subset(Variable::input(tokens),
                                     std::vector<Index>{0, 1, 2, 3})
                      .value();
  EXPECT_EQ(ops::max_abs_diff(direct, routed), 0.0f);
  Tensor two = ops::slice(tokens, 2, 0, 2);
  EXPECT_THROW((void)agg.forward_subset(Variable::input(two),
                                        std::vector<Index>{0, 2}),
               Error);

  // A front-end that does not override forward_subset refuses it.
  struct FullOnlyFrontEnd : FrontEnd {
    Variable forward(const Tensor& images) const override {
      return Variable::input(images);
    }
    Index local_channels() const override { return 2; }
  };
  FullOnlyFrontEnd fe;
  Tensor img = Rng(13).normal_tensor(Shape{1, 1, 16, 16});
  EXPECT_THROW((void)fe.forward_subset(img, std::vector<Index>{1}), Error);
}

TEST(ChannelSubsetServe, ForecastPredictSubsetEndToEnd) {
  ModelConfig cfg = ModelConfig::tiny();
  constexpr Index kChannels = 6;
  Rng rng(11);
  auto agg = AggregationTree::with_units(cfg, AggLayerKind::kCrossAttention,
                                         kChannels, 2, rng);
  auto fe = std::make_unique<LocalFrontEnd>(cfg, kChannels, std::move(agg),
                                            rng);
  ForecastModel model(cfg, std::move(fe), kChannels, rng);
  Tensor images = Rng(12).normal_tensor(Shape{2, kChannels, 16, 16});
  const std::vector<Index> subset{0, 2, 5};
  autograd::NoGradGuard no_grad;
  Tensor pred = model.predict_subset(gather_channels(images, subset), subset)
                    .value();
  EXPECT_EQ(pred.shape(),
            (Shape{2, cfg.seq_len(),
                   kChannels * cfg.patch_size * cfg.patch_size}));
  for (float v : pred.span()) ASSERT_TRUE(std::isfinite(v));
}

TEST(ChannelSubsetServe, DchagSubsetReplicatedAcrossRanksAndFullSetExact) {
  ModelConfig cfg = ModelConfig::tiny();
  constexpr Index kChannels = 8;
  Tensor images = Rng(13).normal_tensor(Shape{2, kChannels, 16, 16});
  comm::World world(4);
  world.run([&](comm::Communicator& comm) {
    Rng master(21);
    core::DchagFrontEnd fe(cfg, kChannels, comm,
                           {/*tree_units=*/1, AggLayerKind::kLinear},
                           master);
    autograd::NoGradGuard no_grad;

    // Full set via the subset path == plain distributed forward.
    std::vector<Index> all(kChannels);
    for (Index c = 0; c < kChannels; ++c) all[static_cast<std::size_t>(c)] = c;
    Tensor direct = fe.forward(fe.slice_local_channels(images)).value();
    Tensor routed = fe.forward_subset(images, all).value();
    EXPECT_EQ(ops::max_abs_diff(direct, routed), 0.0f);

    // A subset leaving ranks 1 and 2 empty (channels 0,1 on rank 0 and 7
    // on rank 3) still aggregates, replicated across all ranks.
    const std::vector<Index> subset{0, 1, 7};
    Tensor sub_images = gather_channels(images, subset);
    Tensor out = fe.forward_subset(sub_images, subset).value();
    EXPECT_EQ(out.shape(), (Shape{2, cfg.seq_len(), cfg.embed_dim}));
    for (float v : out.span()) ASSERT_TRUE(std::isfinite(v));
    EXPECT_TRUE(parallel::is_replicated(out, comm));
  });
}

}  // namespace
}  // namespace dchag::model
