// The D-CHAG model shared by the dchag_serve and dchag_train workloads:
// 128 channels of 32x32 images, patch 4, D = 64, 4 ViT layers of 4 heads,
// and a Tree1 cross-attention partial tree on every rank. At 128 channels
// the rank-local tokenizer and tree are most of the forward, which is the
// regime the paper's D-CHAG targets.
#pragma once

#include "core/dchag_frontend.hpp"

namespace perfbench {

inline constexpr dchag::tensor::Index kDchagChannels = 128;

inline dchag::model::ModelConfig dchag_model_config() {
  dchag::model::ModelConfig cfg;
  cfg.name = "perfbench-dchag";
  cfg.embed_dim = 64;
  cfg.num_layers = 4;
  cfg.num_heads = 4;
  cfg.patch_size = 4;
  cfg.image_h = 32;
  cfg.image_w = 32;
  cfg.validate();
  return cfg;
}

inline dchag::core::DchagOptions dchag_options() {
  return dchag::core::DchagOptions(
      /*units=*/1, dchag::model::AggLayerKind::kCrossAttention);
}

}  // namespace perfbench
