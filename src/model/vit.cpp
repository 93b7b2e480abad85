#include "model/vit.hpp"

namespace dchag::model {

ViTBlock::ViTBlock(const ModelConfig& cfg, Rng& rng,
                   const std::string& name) {
  Rng r = rng.fork(std::hash<std::string>{}(name));
  const Index d = cfg.embed_dim;
  const Index hidden = cfg.mlp_ratio * d;
  ln1_ = std::make_unique<LayerNorm>(d, name + ".ln1");
  attn_ = std::make_unique<MultiHeadSelfAttention>(d, cfg.num_heads, r,
                                                   name + ".attn");
  ln2_ = std::make_unique<LayerNorm>(d, name + ".ln2");
  mlp_up_ = std::make_unique<Linear>(d, hidden, r, name + ".mlp_up");
  mlp_down_ = std::make_unique<Linear>(hidden, d, r, name + ".mlp_down");
  register_child(*ln1_);
  register_child(*attn_);
  register_child(*ln2_);
  register_child(*mlp_up_);
  register_child(*mlp_down_);
}

// Both residual adds, the MLP's GELU and (in forward_post_ln) the final
// layernorm ride their producing Linear's epilogue: fused into the GEMM
// row strips when frozen for serving, the plain autograd op chain
// otherwise. The residual lands as (value + residual), a commutative
// float add, so both forms are bit-identical.
Variable ViTBlock::forward(const Variable& x) const {
  Variable h = attn_->forward_residual(ln1_->forward(x), x);
  return mlp_down_->forward_residual(mlp_up_->forward_gelu(ln2_->forward(h)),
                                     h);
}

Variable ViTBlock::forward_post_ln(const Variable& x,
                                   const LayerNorm& final_ln) const {
  Variable h = attn_->forward_residual(ln1_->forward(x), x);
  return mlp_down_->forward_residual_layernorm(
      mlp_up_->forward_gelu(ln2_->forward(h)), h, final_ln.gamma(),
      final_ln.beta());
}

ViTEncoder::ViTEncoder(const ModelConfig& cfg, Rng& rng,
                       const std::string& name) {
  blocks_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (Index i = 0; i < cfg.num_layers; ++i) {
    blocks_.push_back(std::make_unique<ViTBlock>(
        cfg, rng, name + ".block" + std::to_string(i)));
    register_child(*blocks_.back());
  }
  final_ln_ = std::make_unique<LayerNorm>(cfg.embed_dim, name + ".final_ln");
  register_child(*final_ln_);
}

Variable ViTEncoder::forward(const Variable& x) const {
  if (blocks_.empty()) return final_ln_->forward(x);
  // The final layernorm rides the last block's closing MLP projection.
  Variable h = x;
  for (std::size_t i = 0; i + 1 < blocks_.size(); ++i)
    h = blocks_[i]->forward(h);
  return blocks_.back()->forward_post_ln(h, *final_ln_);
}

}  // namespace dchag::model
