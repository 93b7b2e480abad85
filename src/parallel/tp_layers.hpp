// Megatron-style tensor-parallel transformer layers (paper §4.3 baseline).
//
// Every parallel layer derives its shard from the SAME full-weight random
// stream a serial layer with the same name/seed would draw, so a TP model
// is bit-for-bit a sharding of the corresponding serial model — the
// equivalence tests in tests/parallel/tp_equivalence_test.cpp rely on it,
// and it mirrors how real checkpoints are TP-resharded.
#pragma once

#include "model/vit.hpp"
#include "parallel/collective_ops.hpp"

namespace dchag::parallel {

using autograd::LayerNorm;
using autograd::Module;
using model::ModelConfig;
using tensor::Rng;
using tensor::Tensor;

/// y_local = x @ W[:, shard] + b[shard]; output is sharded on the last dim.
class ColumnParallelLinear : public Module {
 public:
  ColumnParallelLinear(Index in, Index out, Communicator& comm, Rng& rng,
                       const std::string& name);
  /// Shards an externally generated full weight (for layers whose random
  /// stream is interleaved with others).
  ColumnParallelLinear(Tensor full_weight, Communicator& comm,
                       const std::string& name);

  [[nodiscard]] Variable forward(const Variable& x) const;
  [[nodiscard]] Index local_out() const { return local_out_; }

 private:
  void init_from_full(const Tensor& full, Communicator& comm,
                      const std::string& name);
  Index local_out_ = 0;
  Variable weight_;  // [in, out/P]
  Variable bias_;    // [out/P]
};

/// y = AllReduce_r(x_local @ W[shard, :]) + b; input sharded on last dim.
class RowParallelLinear : public Module {
 public:
  RowParallelLinear(const Tensor& full_weight, Communicator& comm,
                    const std::string& name);

  [[nodiscard]] Variable forward(const Variable& x_local) const;

 private:
  Communicator* comm_ = nullptr;
  Variable weight_;  // [in/P, out]
  Variable bias_;    // [out], added once after the reduction
};

/// Self-attention with heads sharded across the TP group.
class ParallelSelfAttention : public Module {
 public:
  ParallelSelfAttention(Index dim, Index heads, Communicator& comm, Rng& rng,
                        const std::string& name = "attn");

  /// x replicated [B, S, D] -> replicated [B, S, D].
  [[nodiscard]] Variable forward(const Variable& x) const;

 private:
  Index dim_;
  Index local_heads_;
  Communicator* comm_;
  std::unique_ptr<ColumnParallelLinear> wq_, wk_, wv_;
  std::unique_ptr<RowParallelLinear> wo_;
};

/// Transformer MLP with the hidden dimension sharded.
class ParallelMlp : public Module {
 public:
  ParallelMlp(Index dim, Index hidden, Communicator& comm, Rng& rng,
              const std::string& name = "mlp");

  [[nodiscard]] Variable forward(const Variable& x) const;

 private:
  Communicator* comm_;
  std::unique_ptr<ColumnParallelLinear> up_;
  std::unique_ptr<RowParallelLinear> down_;
};

/// Pre-LN ViT block with TP attention + MLP; LayerNorms are replicated.
class ParallelViTBlock : public Module {
 public:
  ParallelViTBlock(const ModelConfig& cfg, Communicator& comm, Rng& rng,
                   const std::string& name);

  [[nodiscard]] Variable forward(const Variable& x) const;

 private:
  std::unique_ptr<LayerNorm> ln1_, ln2_;
  std::unique_ptr<ParallelSelfAttention> attn_;
  std::unique_ptr<ParallelMlp> mlp_;
};

/// Drop-in TP replacement for model::ViTEncoder (same seed => same math).
class ParallelViTEncoder : public Module {
 public:
  ParallelViTEncoder(const ModelConfig& cfg, Communicator& comm, Rng& rng,
                     const std::string& name = "vit");

  [[nodiscard]] Variable forward(const Variable& x) const;

 private:
  std::vector<std::unique_ptr<ParallelViTBlock>> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;
};

}  // namespace dchag::parallel
