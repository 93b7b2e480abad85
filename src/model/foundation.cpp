#include "model/foundation.hpp"

#include <cmath>

namespace dchag::model {

namespace ops = tensor::ops;

LocalFrontEnd::LocalFrontEnd(const ModelConfig& cfg, Index channels,
                             std::unique_ptr<ChannelAggregator> agg,
                             Rng& rng)
    : tokenizer_(std::make_unique<PatchTokenizer>(cfg, channels, rng)),
      agg_(std::move(agg)) {
  DCHAG_CHECK(agg_ != nullptr, "LocalFrontEnd needs an aggregator");
  DCHAG_CHECK(agg_->width() == channels,
              "aggregator width " << agg_->width() << " != channels "
                                  << channels);
  register_child(*tokenizer_);
  register_child(*agg_);
}

Variable LocalFrontEnd::forward(const Tensor& images) const {
  Variable tokens = tokenizer_->forward(images);       // [B, C, S, D]
  Variable bscd = autograd::permute(tokens, {0, 2, 1, 3});  // [B, S, C, D]
  return agg_->forward(bscd);                          // [B, S, D]
}

Variable LocalFrontEnd::forward_subset(
    const Tensor& images, std::span<const Index> channels) const {
  // One id->position mapping feeds both the tokenizer and the aggregator
  // slots (identity positions for the usual 0..C-1 tokenizer).
  const std::vector<Index> positions = tokenizer_->local_positions(channels);
  Variable tokens = tokenizer_->forward_at_positions(images, positions);
  Variable bscd = autograd::permute(tokens, {0, 2, 1, 3});  // [B, S, W, D]
  return agg_->forward_subset(bscd, positions);
}

std::unique_ptr<LocalFrontEnd> make_baseline_frontend(const ModelConfig& cfg,
                                                      Index channels,
                                                      Rng& rng) {
  auto agg = std::make_unique<CrossAttentionAggregator>(
      cfg.embed_dim, cfg.num_heads, channels, cfg.query_mode, rng,
      "baseline.xattn");
  return std::make_unique<LocalFrontEnd>(cfg, channels, std::move(agg), rng);
}

Tensor to_prediction_layout(const Tensor& patches) {
  DCHAG_CHECK(patches.rank() == 4, "expected [B, C, S, p2]");
  const Index B = patches.dim(0);
  const Index C = patches.dim(1);
  const Index S = patches.dim(2);
  const Index p2 = patches.dim(3);
  return ops::permute(patches, {0, 2, 1, 3}).reshape({B, S, C * p2});
}

Tensor from_prediction_layout(const Tensor& pred, Index channels,
                              Index patch) {
  DCHAG_CHECK(pred.rank() == 3, "expected [B, S, C*p2]");
  const Index B = pred.dim(0);
  const Index S = pred.dim(1);
  const Index p2 = patch * patch;
  DCHAG_CHECK(pred.dim(2) == channels * p2, "prediction layout mismatch");
  return ops::permute(pred.reshape({B, S, channels, p2}), {0, 2, 1, 3});
}

// ----- MAE -------------------------------------------------------------------

MaeModel::MaeModel(const ModelConfig& cfg, std::unique_ptr<FrontEnd> frontend,
                   Index target_channels, Rng& rng)
    : cfg_(cfg),
      target_channels_(target_channels),
      frontend_(std::move(frontend)) {
  Rng r = rng.fork(0xAE);
  encoder_ = std::make_unique<ViTEncoder>(cfg_, r);
  head_ = std::make_unique<Linear>(
      cfg_.embed_dim, target_channels * cfg_.patch_size * cfg_.patch_size, r,
      "mae.head");
  register_child(*frontend_);
  register_child(*encoder_);
  register_child(*head_);
  mask_token_ = register_param(
      "mae.mask_token",
      r.normal_tensor(tensor::Shape{cfg_.embed_dim}, 0.0f, 0.02f));
}

Tensor MaeModel::make_mask(Index batch, Index seq, float mask_ratio,
                           Rng& rng) {
  DCHAG_CHECK(mask_ratio > 0.0f && mask_ratio < 1.0f,
              "mask_ratio must be in (0, 1)");
  Tensor mask(tensor::Shape{batch, seq});
  const Index per_row =
      std::max<Index>(1, static_cast<Index>(std::round(
                             mask_ratio * static_cast<float>(seq))));
  for (Index b = 0; b < batch; ++b) {
    // Partial Fisher-Yates: choose per_row distinct positions.
    std::vector<Index> idx(static_cast<std::size_t>(seq));
    for (Index i = 0; i < seq; ++i) idx[static_cast<std::size_t>(i)] = i;
    for (Index i = 0; i < per_row; ++i) {
      const Index j = rng.uniform_int(i, seq - 1);
      std::swap(idx[static_cast<std::size_t>(i)],
                idx[static_cast<std::size_t>(j)]);
      mask.set({b, idx[static_cast<std::size_t>(i)]}, 1.0f);
    }
  }
  return mask;
}

MaeModel::Output MaeModel::forward(const Tensor& local_images,
                                   const Tensor& full_images,
                                   const Tensor& mask) const {
  const Index B = local_images.dim(0);
  const Index S = cfg_.seq_len();
  DCHAG_CHECK(mask.shape() == tensor::Shape({B, S}),
              "mask must be [B, S], got " << mask.shape().to_string());
  Variable tokens = frontend_->forward(local_images);  // [B, S, D]

  // Replace masked positions with the learned mask token:
  // masked = tokens * (1 - m) + mask_token * m.
  Tensor m3 = ops::expand_dim(mask, 2, 1);  // [B, S, 1]
  Variable keep = autograd::mul(
      tokens, Variable::input(ops::add_scalar(ops::neg(m3), 1.0f)));
  Variable fill = autograd::mul(
      autograd::expand_dim(autograd::expand_dim(mask_token_, 0, S), 0, B),
      Variable::input(m3));
  Variable masked = autograd::add(keep, fill);

  Variable encoded = encoder_->forward(masked);
  Variable pred = head_->forward(encoded);  // [B, S, C*p2]

  Tensor target =
      to_prediction_layout(patchify(full_images, cfg_.patch_size));
  DCHAG_CHECK(target.shape() == pred.shape(),
              "MAE target/pred mismatch: " << target.shape().to_string()
                                           << " vs "
                                           << pred.shape().to_string());
  // Loss over masked patches only (all pixels of a masked patch).
  Tensor mask_px(pred.shape());
  const Index px = pred.shape().dim(2);
  for (Index b = 0; b < B; ++b) {
    for (Index s = 0; s < S; ++s) {
      if (mask.at({b, s}) == 0.0f) continue;
      float* row = mask_px.data() + (b * S + s) * px;
      for (Index i = 0; i < px; ++i) row[i] = 1.0f;
    }
  }
  Variable loss = autograd::masked_mse_loss(pred, target, mask_px);
  return {pred, loss};
}

// ----- Forecast --------------------------------------------------------------

ForecastModel::ForecastModel(const ModelConfig& cfg,
                             std::unique_ptr<FrontEnd> frontend,
                             Index target_channels, Rng& rng,
                             bool lead_conditioned)
    : cfg_(cfg),
      target_channels_(target_channels),
      lead_conditioned_(lead_conditioned),
      frontend_(std::move(frontend)) {
  Rng r = rng.fork(0xF0);
  encoder_ = std::make_unique<ViTEncoder>(cfg_, r);
  head_ = std::make_unique<Linear>(
      cfg_.embed_dim, target_channels * cfg_.patch_size * cfg_.patch_size, r,
      "forecast.head");
  register_child(*frontend_);
  register_child(*encoder_);
  register_child(*head_);
  if (lead_conditioned_) {
    lead_embed_ = std::make_unique<Linear>(kLeadFeatures, cfg_.embed_dim, r,
                                           "forecast.lead_embed");
    register_child(*lead_embed_);
  }
}

Variable ForecastModel::encode_and_project(Variable tokens,
                                           float lead_time) const {
  if (lead_conditioned_) {
    // Sinusoidal lead-time features at geometric frequencies, embedded to
    // D and broadcast-added to every token (the Fig. 1 metadata token).
    Tensor feats(tensor::Shape{1, kLeadFeatures});
    for (Index k = 0; k < kLeadFeatures / 2; ++k) {
      const float freq = std::pow(2.0f, static_cast<float>(k)) * 0.25f;
      feats.set({0, 2 * k}, std::sin(freq * lead_time));
      feats.set({0, 2 * k + 1}, std::cos(freq * lead_time));
    }
    Variable lead = lead_embed_->forward(Variable::input(feats));  // [1, D]
    tokens = autograd::add(tokens, lead);  // broadcast over [B, S, D]
  }
  return head_->forward(encoder_->forward(tokens));
}

ForecastModel::Output ForecastModel::forward(const Tensor& local_images,
                                             const Tensor& target_images,
                                             float lead_time) const {
  Variable pred =
      encode_and_project(frontend_->forward(local_images), lead_time);
  Tensor target =
      to_prediction_layout(patchify(target_images, cfg_.patch_size));
  Variable loss = autograd::mse_loss(pred, target);
  return {pred, loss};
}

Variable ForecastModel::predict(const Tensor& local_images,
                                float lead_time) const {
  return encode_and_project(frontend_->forward(local_images), lead_time);
}

Variable ForecastModel::predict_subset(const Tensor& images,
                                       std::span<const Index> channels,
                                       float lead_time) const {
  return encode_and_project(frontend_->forward_subset(images, channels),
                            lead_time);
}

std::vector<float> ForecastModel::per_channel_rmse(
    const Tensor& pred, const Tensor& target_images, Index patch) {
  const Index C = target_images.dim(1);
  Tensor pred_imgs = unpatchify(from_prediction_layout(pred, C, patch),
                                patch, target_images.dim(2),
                                target_images.dim(3));
  std::vector<float> rmse(static_cast<std::size_t>(C));
  const Index B = target_images.dim(0);
  const Index hw = target_images.dim(2) * target_images.dim(3);
  for (Index c = 0; c < C; ++c) {
    double se = 0.0;
    for (Index b = 0; b < B; ++b) {
      const float* p =
          pred_imgs.data() + (b * C + c) * hw;
      const float* t = target_images.data() + (b * C + c) * hw;
      for (Index i = 0; i < hw; ++i) {
        const double d = static_cast<double>(p[i]) - t[i];
        se += d * d;
      }
    }
    rmse[static_cast<std::size_t>(c)] =
        static_cast<float>(std::sqrt(se / static_cast<double>(B * hw)));
  }
  return rmse;
}

}  // namespace dchag::model
