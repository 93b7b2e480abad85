// D-CHAG: Distributed Cross-Channel Hierarchical Aggregation (paper §3.3,
// Fig. 4) — the paper's primary contribution.
//
// Each rank of the TP/D-CHAG group:
//   1. tokenizes its contiguous slice of the input channels,
//   2. reduces those tokens to ONE channel representation with a local
//      partial-channel aggregation tree (TreeN of -C or -L units),
//   3. AllGathers the single representation per rank (the only front-end
//      communication, forward-only: the backward takes a local slice),
//   4. applies the final cross-attention — whose weights are replicated
//      across the group — over the P gathered representations.
//
// Downstream of step 4 every rank computes on identical data, so the
// replicated parameters stay in sync without gradient synchronisation and
// the rank-local tokenizer/tree parameters train on purely local
// gradients: no communication in the backward pass.
//
// One driver runs these four steps for every forward: full-channel
// (forward), channel-subset and degraded survivor-group (forward_subset)
// alike. It splits the batch into K = clamp(pipeline_chunks, 1, B)
// micro-chunks so chunk k's gather is in flight while chunk k+1 computes;
// K = 1 is the plain single-gather forward. A rank owning none of the
// requested channels sends a zero placeholder, and only the owners'
// representations enter step 4, at their original partition slots.
#pragma once

#include <optional>

#include "comm/async.hpp"
#include "model/foundation.hpp"
#include "parallel/dist_tokenizer.hpp"
#include "runtime/context.hpp"

namespace dchag::core {

using model::AggLayerKind;
using model::Index;
using model::ModelConfig;
using parallel::Communicator;
using tensor::Rng;

struct DchagOptions {
  DchagOptions() = default;
  DchagOptions(Index units, AggLayerKind kind)
      : tree_units(units), partial_kind(kind) {}

  /// Paper's TreeN: number of first-level units in the partial module
  /// (0/1 = one unit over all local channels; Fig. 9's best is Tree0).
  Index tree_units = 1;
  /// -C (cross-attention) vs -L (linear) partial layers; the final shared
  /// aggregation is always cross-attention (paper §3.3).
  AggLayerKind partial_kind = AggLayerKind::kLinear;
};

class DchagFrontEnd : public model::FrontEnd {
 public:
  /// All ranks must construct with the same `master_rng` seed — the final
  /// aggregation weights are derived from it and must be replicated.
  ///
  /// `ctx` pins this front-end's execution configuration (kernel backend,
  /// comm mode + pipeline depth, tracing). nullopt = unpinned: every
  /// forward reads the ambient runtime::Context::current() at call time.
  /// A pinned context is still outranked by any runtime::Scope active on
  /// the forwarding thread (the precedence ladder in runtime/context.hpp).
  DchagFrontEnd(const ModelConfig& cfg, Index total_channels,
                Communicator& comm, const DchagOptions& opts,
                Rng& master_rng,
                std::optional<runtime::Context> ctx = std::nullopt);

  /// local_images: [B, C/P, H, W] (this rank's channels, rank order).
  /// Returns [B, S, D], identical on every rank.
  [[nodiscard]] autograd::Variable forward(
      const tensor::Tensor& images) const override;

  /// Distributed channel-subset inference (paper §2.1 under §3.3's layout):
  /// unlike forward(), every rank receives the FULL subset batch
  /// [B, W, H, W] (W == channels.size(), strictly increasing global ids)
  /// and slices its own intersection internally. Ranks owning none of the
  /// subset contribute a zero placeholder to the AllGather (collectives
  /// must stay symmetric) which is dropped before the final aggregation,
  /// so the result matches the subset-only math on every rank. After a
  /// survivor rebind, channels of slots no live rank carries are dropped
  /// the same way: a degraded group serves a request with this same call,
  /// bit-exact to the healthy group over the surviving channels. Throws
  /// (uniformly, before any collective) if no live rank owns a requested
  /// channel.
  [[nodiscard]] autograd::Variable forward_subset(
      const tensor::Tensor& images,
      std::span<const Index> channels) const override;

  /// The rank-local stage only (tokenize + partial aggregation tree ->
  /// this rank's single channel representation [B, S, D]). Contains no
  /// collectives; useful for profiling the localised workload.
  [[nodiscard]] autograd::Variable forward_local_partial(
      const tensor::Tensor& images) const;

  [[nodiscard]] Index local_channels() const override {
    return tokenizer_->local_channels();
  }
  [[nodiscard]] Index total_channels() const override {
    return tokenizer_->total_channels();
  }
  [[nodiscard]] const model::AggregationTree& partial_tree() const {
    return *tree_;
  }
  [[nodiscard]] const model::CrossAttentionAggregator& final_aggregator()
      const {
    return *final_;
  }
  [[nodiscard]] Communicator& communicator() const { return *comm_; }
  /// The full effective context a forward on this thread would run under
  /// (pinned construction context, if any, overlaid with active Scopes).
  [[nodiscard]] runtime::Context effective_context() const {
    return runtime::Context::effective_or_current(ctx_);
  }
  /// Effective comm config for a forward on this thread.
  [[nodiscard]] comm::CommConfig comm_config() const {
    return effective_context().comm();
  }
  /// Ledger of async collectives issued by chunked (K > 1) async
  /// forwards (null until the first one constructs the progress lane).
  [[nodiscard]] const comm::CommStats* async_stats() const {
    return async_ ? &async_->stats() : nullptr;
  }

  /// Elastic-recovery hook (serve/spmd_engine): rebinds this front-end to
  /// a regrouped communicator after a rank failure. `logical_slots` maps
  /// the new group's rank i to the ORIGINAL channel-partition slot it
  /// carries (strictly increasing, values < the construction-time world
  /// size; rank i's entry must be this rank's own original slot). Tears
  /// down the async progress lane (it holds a shadow group of the old
  /// comm) and rebuilds the sync lane; every forward and
  /// slice_local_channels consult the slot map, so a degraded group
  /// serves the surviving channels bit-exactly through forward_subset.
  void rebind(Communicator& comm, std::vector<int> logical_slots);
  /// Current rank -> original channel-slot map (identity until rebind).
  [[nodiscard]] const std::vector<int>& logical_slots() const {
    return logical_slots_;
  }
  /// Group size this front-end was constructed for (the channel-partition
  /// width; survives rebinds to smaller survivor groups).
  [[nodiscard]] int world_size() const { return world_size_; }

  /// The slice of the full input this rank consumes:
  /// images[:, slot*C/P : (slot+1)*C/P] (slot == rank until a rebind).
  [[nodiscard]] tensor::Tensor slice_local_channels(
      const tensor::Tensor& full_images) const;
  [[nodiscard]] tensor::Tensor select_input(
      const tensor::Tensor& full_images) const override {
    return slice_local_channels(full_images);
  }

 private:
  /// The one D-CHAG forward. `images` [B, n, H, W] holds this rank's
  /// channels at tokenizer `positions` (n == positions.size(); empty =
  /// this rank owns none of the request and sends a zero placeholder);
  /// `participants` are the group ranks, ascending, whose representations
  /// the final aggregation keeps. Double-buffered micro-chunks of the
  /// batch: chunk k's gather is in flight while chunk k+1's tokenizer and
  /// tree GEMMs issue; wait() happens only at each chunk's combine point.
  [[nodiscard]] autograd::Variable forward_chunked(
      const tensor::Tensor& images, const std::vector<Index>& positions,
      const std::vector<int>& participants) const;
  /// Tokenize + partial tree for one chunk -> [b, S, D] (no collectives).
  [[nodiscard]] autograd::Variable local_partial(
      const tensor::Tensor& images,
      const std::vector<Index>& positions) const;
  /// The ICollective for `mode`. First async use constructs the
  /// AsyncCommunicator, which is COLLECTIVE (it splits a shadow group) —
  /// all ranks must take their first async forward together, the usual
  /// symmetric-SPMD contract.
  [[nodiscard]] comm::ICollective& collective_for(comm::CommMode mode) const;

  ModelConfig cfg_;
  Communicator* comm_;
  /// Construction-time group size == channel-partition width.
  int world_size_;
  /// Group rank -> original channel slot. Identity until rebind() maps a
  /// survivor group onto the original partition.
  std::vector<int> logical_slots_;
  /// Tokenizer positions 0..C/P-1: every local channel.
  std::vector<Index> all_positions_;
  /// Pinned execution context (nullopt = read the ambient context per
  /// forward).
  std::optional<runtime::Context> ctx_;
  mutable std::optional<comm::SyncCollective> sync_coll_;
  mutable std::unique_ptr<comm::AsyncCommunicator> async_;
  std::unique_ptr<parallel::DistributedTokenizer> tokenizer_;
  std::unique_ptr<model::AggregationTree> tree_;
  std::unique_ptr<model::CrossAttentionAggregator> final_;
};

/// Convenience: full D-CHAG MAE / forecast models (front-end + replicated
/// encoder and head) built from one master seed. `ctx` pins the
/// front-end's execution context exactly as in DchagFrontEnd.
[[nodiscard]] std::unique_ptr<model::MaeModel> make_dchag_mae(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx = std::nullopt);
[[nodiscard]] std::unique_ptr<model::ForecastModel> make_dchag_forecast(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx = std::nullopt);

}  // namespace dchag::core
