#include "parallel/tp_layers.hpp"

namespace dchag::parallel {

namespace ops = tensor::ops;
using tensor::Shape;

// ----- ColumnParallelLinear ---------------------------------------------------

ColumnParallelLinear::ColumnParallelLinear(Index in, Index out,
                                           Communicator& comm, Rng& rng,
                                           const std::string& name) {
  init_from_full(rng.xavier(Shape{in, out}), comm, name);
}

ColumnParallelLinear::ColumnParallelLinear(Tensor full_weight,
                                           Communicator& comm,
                                           const std::string& name) {
  init_from_full(full_weight, comm, name);
}

void ColumnParallelLinear::init_from_full(const Tensor& full,
                                          Communicator& comm,
                                          const std::string& name) {
  const Index out = full.dim(1);
  const int P = comm.size();
  DCHAG_CHECK(out % P == 0, "column-parallel: out dim " << out
                                                        << " % tp " << P);
  local_out_ = out / P;
  Tensor shard = ops::slice(full, 1, comm.rank() * local_out_, local_out_);
  weight_ = register_param(name + ".weight", shard);
  bias_ = register_param(name + ".bias", Tensor({local_out_}, 0.0f));
}

Variable ColumnParallelLinear::forward(const Variable& x) const {
  return autograd::add(autograd::matmul(x, weight_), bias_);
}

// ----- RowParallelLinear ------------------------------------------------------

RowParallelLinear::RowParallelLinear(const Tensor& full, Communicator& comm,
                                     const std::string& name)
    : comm_(&comm) {
  const Index in = full.dim(0);
  const Index out = full.dim(1);
  const int P = comm.size();
  DCHAG_CHECK(in % P == 0, "row-parallel: in dim " << in << " % tp " << P);
  const Index local_in = in / P;
  Tensor shard = ops::slice(full, 0, comm.rank() * local_in, local_in);
  weight_ = register_param(name + ".weight", shard);
  bias_ = register_param(name + ".bias", Tensor({out}, 0.0f));
}

Variable RowParallelLinear::forward(const Variable& x_local) const {
  Variable partial = autograd::matmul(x_local, weight_);
  // Sum the partial products across the TP group, then add the bias once.
  return autograd::add(reduce_from_parallel(partial, *comm_), bias_);
}

// ----- ParallelSelfAttention --------------------------------------------------

namespace {

/// [B, S, Dl] -> [B, hl, S, dh] for the local head shard.
Variable split_local_heads(const Variable& x, Index local_heads) {
  const auto& s = x.shape();
  const Index B = s.dim(0);
  const Index S = s.dim(1);
  const Index dl = s.dim(2);
  Variable y =
      autograd::reshape(x, Shape{B, S, local_heads, dl / local_heads});
  return autograd::permute(y, {0, 2, 1, 3});
}

Variable merge_local_heads(const Variable& x) {
  const auto& s = x.shape();  // [B, hl, S, dh]
  Variable y = autograd::permute(x, {0, 2, 1, 3});
  return autograd::reshape(
      y, Shape{s.dim(0), s.dim(2), s.dim(1) * s.dim(3)});
}

}  // namespace

ParallelSelfAttention::ParallelSelfAttention(Index dim, Index heads,
                                             Communicator& comm, Rng& rng,
                                             const std::string& name)
    : dim_(dim), comm_(&comm) {
  const int P = comm.size();
  DCHAG_CHECK(heads % P == 0, "attention heads " << heads << " % tp " << P);
  DCHAG_CHECK(dim % heads == 0, "dim % heads");
  local_heads_ = heads / P;
  // Same draw order as model::MultiHeadSelfAttention (wq, wk, wv, wo) from
  // the same fork, so the full weights match the serial layer exactly.
  Rng r = rng.fork(std::hash<std::string>{}(name));
  wq_ = std::make_unique<ColumnParallelLinear>(r.xavier(Shape{dim, dim}),
                                               comm, name + ".wq");
  wk_ = std::make_unique<ColumnParallelLinear>(r.xavier(Shape{dim, dim}),
                                               comm, name + ".wk");
  wv_ = std::make_unique<ColumnParallelLinear>(r.xavier(Shape{dim, dim}),
                                               comm, name + ".wv");
  wo_ = std::make_unique<RowParallelLinear>(r.xavier(Shape{dim, dim}), comm,
                                            name + ".wo");
  register_child(*wq_);
  register_child(*wk_);
  register_child(*wv_);
  register_child(*wo_);
}

Variable ParallelSelfAttention::forward(const Variable& x) const {
  DCHAG_CHECK(x.shape().dim(-1) == dim_, "attention dim mismatch");
  // Megatron g-op: identity forward, AllReduce backward — the replicated
  // input feeds rank-local head computation.
  Variable xp = copy_to_parallel(x, *comm_);
  Variable q = split_local_heads(wq_->forward(xp), local_heads_);
  Variable k = split_local_heads(wk_->forward(xp), local_heads_);
  Variable v = split_local_heads(wv_->forward(xp), local_heads_);
  const Index dh = q.shape().dim(-1);
  Variable scores = autograd::scale(
      autograd::matmul(q, autograd::transpose_last2(k)),
      1.0f / std::sqrt(static_cast<float>(dh)));
  Variable attn = autograd::matmul(autograd::softmax_lastdim(scores), v);
  return wo_->forward(merge_local_heads(attn));
}

// ----- ParallelMlp ------------------------------------------------------------

ParallelMlp::ParallelMlp(Index dim, Index hidden, Communicator& comm,
                         Rng& rng, const std::string& name)
    : comm_(&comm) {
  up_ = std::make_unique<ColumnParallelLinear>(rng.xavier(Shape{dim, hidden}),
                                               comm, name + "_up");
  down_ = std::make_unique<RowParallelLinear>(
      rng.xavier(Shape{hidden, dim}), comm, name + "_down");
  register_child(*up_);
  register_child(*down_);
}

Variable ParallelMlp::forward(const Variable& x) const {
  Variable xp = copy_to_parallel(x, *comm_);
  return down_->forward(autograd::gelu(up_->forward(xp)));
}

// ----- ParallelViTBlock / Encoder ---------------------------------------------

ParallelViTBlock::ParallelViTBlock(const ModelConfig& cfg, Communicator& comm,
                                   Rng& rng, const std::string& name) {
  Rng r = rng.fork(std::hash<std::string>{}(name));
  const Index d = cfg.embed_dim;
  ln1_ = std::make_unique<LayerNorm>(d, name + ".ln1");
  attn_ = std::make_unique<ParallelSelfAttention>(d, cfg.num_heads, comm, r,
                                                  name + ".attn");
  ln2_ = std::make_unique<LayerNorm>(d, name + ".ln2");
  mlp_ = std::make_unique<ParallelMlp>(d, cfg.mlp_ratio * d, comm, r,
                                       name + ".mlp");
  register_child(*ln1_);
  register_child(*attn_);
  register_child(*ln2_);
  register_child(*mlp_);
}

Variable ParallelViTBlock::forward(const Variable& x) const {
  Variable h = autograd::add(x, attn_->forward(ln1_->forward(x)));
  return autograd::add(h, mlp_->forward(ln2_->forward(h)));
}

ParallelViTEncoder::ParallelViTEncoder(const ModelConfig& cfg,
                                       Communicator& comm, Rng& rng,
                                       const std::string& name) {
  blocks_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (Index i = 0; i < cfg.num_layers; ++i) {
    blocks_.push_back(std::make_unique<ParallelViTBlock>(
        cfg, comm, rng, name + ".block" + std::to_string(i)));
    register_child(*blocks_.back());
  }
  final_ln_ = std::make_unique<LayerNorm>(cfg.embed_dim, name + ".final_ln");
  register_child(*final_ln_);
}

Variable ParallelViTEncoder::forward(const Variable& x) const {
  Variable h = x;
  for (const auto& block : blocks_) h = block->forward(h);
  return final_ln_->forward(h);
}

}  // namespace dchag::parallel
