#include "model/foundation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace dchag::model {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(ViTEncoder, ShapeAndBlocks) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(1);
  ViTEncoder enc(cfg, rng);
  EXPECT_EQ(enc.num_blocks(), cfg.num_layers);
  Tensor x = rng.normal_tensor(Shape{2, 5, cfg.embed_dim});
  EXPECT_EQ(enc.forward(Variable::input(x)).shape(), (Shape{2, 5, 32}));
}

/// The pre-LN ViT encoder written out as a plain autograd op chain over
/// `p`, the encoder's parameters in registration order.
Variable reference_encoder(const Variable& x, const std::vector<Variable>& p,
                           const ModelConfig& cfg) {
  std::size_t i = 0;
  auto linear = [&](const Variable& in) {
    const Variable& w = p[i++];
    return autograd::add(autograd::matmul(in, w), p[i++]);
  };
  auto layernorm = [&](const Variable& in) {
    const Variable& g = p[i++];
    return autograd::layernorm(in, g, p[i++]);
  };
  const float s = 1.0f / std::sqrt(static_cast<float>(cfg.head_dim()));
  Variable h = x;
  for (tensor::Index b = 0; b < cfg.num_layers; ++b) {
    const Variable a = layernorm(h);
    const Variable q = detail::split_heads(linear(a), cfg.num_heads);
    const Variable k = detail::split_heads(linear(a), cfg.num_heads);
    const Variable v = detail::split_heads(linear(a), cfg.num_heads);
    const Variable scores = autograd::scale(
        autograd::matmul(q, autograd::transpose_last2(k)), s);
    const Variable attn =
        autograd::matmul(autograd::softmax_lastdim(scores), v);
    h = autograd::add(h, linear(detail::merge_heads(attn)));
    h = autograd::add(h, linear(autograd::gelu(linear(layernorm(h)))));
  }
  return layernorm(h);
}

// Every parameter gets a gradient, bitwise equal to the explicit chain's.
TEST(ViTEncoder, GradsFlowThroughAllBlocks) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(2);
  ViTEncoder enc(cfg, rng);
  const Tensor xv = rng.normal_tensor(Shape{2, 5, cfg.embed_dim});
  const Variable r = Variable::input(rng.normal_tensor(xv.shape()));
  const std::vector<Variable> params = enc.parameters();

  auto run = [&](auto&& forward) {
    enc.zero_grad();
    Variable x = Variable::leaf(xv, /*requires_grad=*/true);
    Variable y = forward(x);
    autograd::sum_all(autograd::mul(y, r)).backward();
    std::vector<Tensor> out{y.value(), x.grad()};
    for (const Variable& p : params) out.push_back(p.grad());
    return out;
  };
  const std::vector<Tensor> got =
      run([&](const Variable& x) { return enc.forward(x); });
  const std::vector<Tensor> want = run(
      [&](const Variable& x) { return reference_encoder(x, params, cfg); });
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string what = i == 0   ? "output"
                             : i == 1 ? "input grad"
                                      : params[i - 2].name();
    ASSERT_TRUE(got[i].defined()) << what;
    EXPECT_EQ(ops::max_abs_diff(got[i], want[i]), 0.0f) << what;
  }
}

TEST(LocalFrontEnd, BaselineProducesSpatialTokens) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(3);
  auto fe = make_baseline_frontend(cfg, 4, rng);
  Tensor img = rng.normal_tensor(Shape{2, 4, 16, 16});
  EXPECT_EQ(fe->forward(img).shape(), (Shape{2, cfg.seq_len(), 32}));
  EXPECT_EQ(fe->local_channels(), 4);
}

TEST(PredictionLayout, RoundTrip) {
  Rng rng(4);
  Tensor patches = rng.normal_tensor(Shape{2, 3, 4, 16});  // [B,C,S,p2]
  Tensor pred = to_prediction_layout(patches);
  EXPECT_EQ(pred.shape(), (Shape{2, 4, 48}));
  Tensor back = from_prediction_layout(pred, 3, 4);
  EXPECT_LT(ops::max_abs_diff(patches, back), 1e-7f);
}

TEST(MaeModel, MaskFractionAndDeterminism) {
  Rng a(5);
  Rng b(5);
  Tensor m1 = MaeModel::make_mask(4, 16, 0.75f, a);
  Tensor m2 = MaeModel::make_mask(4, 16, 0.75f, b);
  EXPECT_LT(ops::max_abs_diff(m1, m2), 1e-9f);
  for (tensor::Index row = 0; row < 4; ++row) {
    float count = 0;
    for (tensor::Index s = 0; s < 16; ++s) count += m1.at({row, s});
    EXPECT_EQ(count, 12.0f);  // 0.75 * 16 per row
  }
  EXPECT_THROW(MaeModel::make_mask(1, 4, 0.0f, a), Error);
}

TEST(MaeModel, ForwardShapesAndFiniteLoss) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(6);
  auto fe = make_baseline_frontend(cfg, 3, rng);
  MaeModel mae(cfg, std::move(fe), 3, rng);
  Tensor img = rng.normal_tensor(Shape{2, 3, 16, 16});
  Tensor mask = MaeModel::make_mask(2, cfg.seq_len(), 0.5f, rng);
  auto out = mae.forward(img, img, mask);
  EXPECT_EQ(out.pred.shape(),
            (Shape{2, cfg.seq_len(), 3 * cfg.patch_size * cfg.patch_size}));
  EXPECT_TRUE(std::isfinite(out.loss.value().item()));
  EXPECT_GT(out.loss.value().item(), 0.0f);
}

TEST(MaeModel, LossIgnoresVisiblePatches) {
  // Perturbing the target on an UNMASKED patch must not change the loss.
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(7);
  auto fe = make_baseline_frontend(cfg, 2, rng);
  MaeModel mae(cfg, std::move(fe), 2, rng);
  Tensor img = rng.normal_tensor(Shape{1, 2, 16, 16});
  Tensor mask(Shape{1, cfg.seq_len()});
  mask.set({0, 0}, 1.0f);  // only patch 0 masked
  const float base = mae.forward(img, img, mask).loss.value().item();

  Tensor img2 = img.clone();
  // Patch 3 spans pixels rows 0-3, cols 12-15 (patch 4, grid 4x4).
  img2.set({0, 0, 0, 12}, img2.at({0, 0, 0, 12}) + 5.0f);
  const float perturbed_visible =
      mae.forward(img, img2, mask).loss.value().item();
  EXPECT_NEAR(base, perturbed_visible, 1e-6f);

  Tensor img3 = img.clone();
  img3.set({0, 0, 0, 0}, img3.at({0, 0, 0, 0}) + 5.0f);  // inside patch 0
  const float perturbed_masked =
      mae.forward(img, img3, mask).loss.value().item();
  EXPECT_GT(std::abs(perturbed_masked - base), 1e-3f);
}

TEST(MaeModel, BackwardReachesFrontendAndHead) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(8);
  auto fe = make_baseline_frontend(cfg, 2, rng);
  MaeModel mae(cfg, std::move(fe), 2, rng);
  Tensor img = rng.normal_tensor(Shape{1, 2, 16, 16});
  Tensor mask = MaeModel::make_mask(1, cfg.seq_len(), 0.5f, rng);
  mae.forward(img, img, mask).loss.backward();
  int with_grad = 0;
  for (const auto& p : mae.parameters()) with_grad += p.has_grad() ? 1 : 0;
  // All parameters participate except none: mask token, tokenizer, encoder,
  // head all receive gradient.
  EXPECT_EQ(with_grad, static_cast<int>(mae.parameters().size()));
}

TEST(ForecastModel, ForwardAndLoss) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(9);
  auto fe = make_baseline_frontend(cfg, 3, rng);
  ForecastModel fm(cfg, std::move(fe), 3, rng);
  Tensor now = rng.normal_tensor(Shape{2, 3, 16, 16});
  Tensor future = rng.normal_tensor(Shape{2, 3, 16, 16});
  auto out = fm.forward(now, future);
  EXPECT_EQ(out.pred.shape(), (Shape{2, cfg.seq_len(), 3 * 16}));
  EXPECT_TRUE(std::isfinite(out.loss.value().item()));
}

TEST(ForecastModel, PerfectPredictionGivesZeroRmse) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(10);
  Tensor target = rng.normal_tensor(Shape{2, 3, 16, 16});
  Tensor pred = to_prediction_layout(patchify(target, cfg.patch_size));
  auto rmse = ForecastModel::per_channel_rmse(pred, target, cfg.patch_size);
  ASSERT_EQ(rmse.size(), 3u);
  for (float r : rmse) EXPECT_NEAR(r, 0.0f, 1e-6f);
}

TEST(ForecastModel, RmseDetectsPerChannelError) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(11);
  Tensor target = rng.normal_tensor(Shape{1, 2, 16, 16});
  Tensor pred_imgs = target.clone();
  // Bias channel 1 by +2 => RMSE(ch1) = 2, RMSE(ch0) = 0.
  for (tensor::Index i = 0; i < 16 * 16; ++i)
    pred_imgs.data()[16 * 16 + i] += 2.0f;
  Tensor pred = to_prediction_layout(patchify(pred_imgs, cfg.patch_size));
  auto rmse = ForecastModel::per_channel_rmse(pred, target, cfg.patch_size);
  EXPECT_NEAR(rmse[0], 0.0f, 1e-6f);
  EXPECT_NEAR(rmse[1], 2.0f, 1e-5f);
}

TEST(FoundationModels, ParameterCountsAreConsistent) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(12);
  auto fe = make_baseline_frontend(cfg, 3, rng);
  const Index fe_params = fe->num_parameters();
  EXPECT_EQ(fe_params,
            cfg.tokenizer_params(3) +
                cfg.aggregator_params(AggLayerKind::kCrossAttention, 3));
  MaeModel mae(cfg, std::move(fe), 3, rng);
  const Index head = cfg.embed_dim * 3 * 16 + 3 * 16;
  EXPECT_EQ(mae.num_parameters(), fe_params + cfg.transformer_params() +
                                      head + cfg.embed_dim /*mask token*/);
}

}  // namespace
}  // namespace dchag::model
