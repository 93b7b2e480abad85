#include "core/dchag_frontend.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace dchag::core {

namespace ops = tensor::ops;
using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

DchagFrontEnd::DchagFrontEnd(const ModelConfig& cfg, Index total_channels,
                             Communicator& comm, const DchagOptions& opts,
                             Rng& master_rng,
                             std::optional<runtime::Context> ctx)
    : cfg_(cfg),
      comm_(&comm),
      world_size_(comm.size()),
      ctx_(std::move(ctx)) {
  cfg_.validate();
  logical_slots_.resize(static_cast<std::size_t>(world_size_));
  std::iota(logical_slots_.begin(), logical_slots_.end(), 0);
  sync_coll_.emplace(comm);
  // The async progress lane is built lazily at the first async forward
  // (collective_for), NOT here: front-end construction must stay free of
  // collectives so a rank whose peer fails to construct can still unwind
  // (SpmdEngine's cold-start failure path relies on this).
  Rng tok_rng = master_rng.fork(0xD0C);
  tokenizer_ = std::make_unique<parallel::DistributedTokenizer>(
      cfg_, total_channels, comm, tok_rng);
  register_child(*tokenizer_);

  const Index c_local = tokenizer_->local_channels();
  all_positions_.resize(static_cast<std::size_t>(c_local));
  std::iota(all_positions_.begin(), all_positions_.end(), Index{0});
  const Index units =
      std::min<Index>(std::max<Index>(opts.tree_units, 1), c_local);
  Rng tree_rng = master_rng.fork(0x73EE);
  tree_ = model::AggregationTree::with_units(cfg_, opts.partial_kind,
                                             c_local, units, tree_rng,
                                             "dchag.tree");
  register_child(*tree_);

  // Final shared cross-attention over one representation per rank. Its
  // weights derive from the same master stream on every rank, so they are
  // replicated by construction (asserted in tests via is_replicated).
  Rng final_rng = master_rng.fork(0xF17A);
  final_ = std::make_unique<model::CrossAttentionAggregator>(
      cfg_.embed_dim, cfg_.num_heads, comm.size(), cfg_.query_mode,
      final_rng, "dchag.final");
  register_child(*final_);
}

void DchagFrontEnd::rebind(Communicator& comm,
                           std::vector<int> logical_slots) {
  DCHAG_CHECK(static_cast<int>(logical_slots.size()) == comm.size(),
              "rebind: slot map size " << logical_slots.size()
                                       << " != group size " << comm.size());
  int prev = -1;
  for (int s : logical_slots) {
    DCHAG_CHECK(s > prev && s < world_size_,
                "rebind: logical slots must be strictly increasing in [0, "
                    << world_size_ << ")");
    prev = s;
  }
  // Tear down comm-bound lanes BEFORE swapping: the async progress thread
  // holds a shadow group of the old comm. On a poisoned group, queued ops
  // fail fast into their futures, so this join cannot hang.
  async_.reset();
  comm_ = &comm;
  sync_coll_.emplace(comm);
  tokenizer_->rebind(comm);
  logical_slots_ = std::move(logical_slots);
}

Variable DchagFrontEnd::forward_local_partial(const Tensor& images) const {
  // Scope into this front-end's effective context for the local stage
  // (thread-local, so concurrent ranks don't fight over the process
  // default, and pool workers inherit it across the fan-out).
  runtime::Scope scope(effective_context());
  return local_partial(images, all_positions_);
}

Variable DchagFrontEnd::local_partial(
    const Tensor& images, const std::vector<Index>& positions) const {
  Variable tokens = tokenizer_->local_tokenizer().forward_at_positions(
      images, positions);                                   // [b, n, S, D]
  Variable bscd = autograd::permute(tokens, {0, 2, 1, 3});  // [b, S, n, D]
  return tree_->forward_subset(bscd, positions);            // [b, S, D]
}

comm::ICollective& DchagFrontEnd::collective_for(comm::CommMode mode) const {
  if (mode == comm::CommMode::kSync) return *sync_coll_;
  if (!async_) async_ = std::make_unique<comm::AsyncCommunicator>(*comm_);
  return *async_;
}

Variable DchagFrontEnd::forward(const Tensor& images) const {
  std::vector<int> everyone(static_cast<std::size_t>(comm_->size()));
  std::iota(everyone.begin(), everyone.end(), 0);
  return forward_chunked(images, all_positions_, everyone);
}

Variable DchagFrontEnd::forward_subset(
    const Tensor& images, std::span<const Index> channels) const {
  DCHAG_CHECK(images.rank() == 4 &&
                  images.dim(1) == static_cast<Index>(channels.size()),
              "forward_subset expects the full subset batch [B, "
                  << channels.size() << ", H, W], got "
                  << images.shape().to_string());
  // Validate the ids up front, before any rank-dependent branching: every
  // rank sees the identical list, so malformed requests throw uniformly
  // on all ranks and the collective call sequence stays symmetric
  // (otherwise a rank with no intersection would sail into the AllGather
  // while another throws — a deadlock, not an error).
  Index prev = -1;
  for (Index c : channels) {
    DCHAG_CHECK(c > prev && c < total_channels(),
                "subset channel ids must be strictly increasing in [0, "
                    << total_channels() << ")");
    prev = c;
  }
  const Index c_local = local_channels();
  const int me = comm_->rank();

  // Group rank r owns global ids [slot*c_local, (slot+1)*c_local), where
  // slot is the original channel-partition slot it carries (== r until a
  // rebind remaps a survivor group); sorted ids make that one contiguous
  // run of the request. Channels of slots no live rank carries are never
  // owned, so a degraded group serves a request like any other.
  std::vector<int> participants;
  Index first = 0;
  std::vector<Index> mine;
  for (int r = 0; r < comm_->size(); ++r) {
    const Index lo =
        static_cast<Index>(logical_slots_[static_cast<std::size_t>(r)]) *
        c_local;
    const auto begin = std::lower_bound(channels.begin(), channels.end(), lo);
    const auto end = std::lower_bound(begin, channels.end(), lo + c_local);
    if (begin == end) continue;
    participants.push_back(r);
    if (r == me) {
      first = static_cast<Index>(begin - channels.begin());
      mine.assign(begin, end);
    }
  }
  DCHAG_CHECK(!participants.empty(),
              "no requested channel is owned by a live rank");
  if (mine.empty())
    return forward_chunked(images, /*positions=*/{}, participants);
  return forward_chunked(
      ops::slice(images, 1, first, static_cast<Index>(mine.size())),
      tokenizer_->local_tokenizer().local_positions(mine), participants);
}

Variable DchagFrontEnd::forward_chunked(
    const Tensor& images, const std::vector<Index>& positions,
    const std::vector<int>& participants) const {
  // One context resolution per forward: everything below (including
  // nested ops on pool workers) runs under it.
  const runtime::Context ctx = effective_context();
  runtime::Scope scope(ctx);
  const Index B = images.dim(0);
  const Index S = cfg_.seq_len();
  const Index D = cfg_.embed_dim;
  const comm::CommConfig cc = ctx.comm();
  const Index K = std::max<Index>(std::min<Index>(cc.pipeline_chunks, B), 1);
  runtime::trace(ctx, "core.forward.pipeline_chunks", static_cast<double>(K));
  // A single chunk has no next chunk to overlap its gather with, so it
  // takes the blocking lane whatever the mode.
  comm::ICollective& coll =
      collective_for(K > 1 ? cc.mode : comm::CommMode::kSync);

  // The final aggregation sees the participants' representations at their
  // ORIGINAL partition slots, so after a survivor rebind it gets the same
  // kept reps in the same slots as the full-world forward over the same
  // channels would — bit-exact degraded serving.
  std::vector<Index> slots;
  slots.reserve(participants.size());
  for (int r : participants)
    slots.push_back(
        static_cast<Index>(logical_slots_[static_cast<std::size_t>(r)]));
  const bool everyone =
      static_cast<int>(participants.size()) == comm_->size();

  // Software pipeline over K batch micro-chunks with two gather slots:
  //
  //   chunk k   : tokenizer + tree GEMMs -> issue iall_gather into slot k%2
  //   chunk k+1 : tokenizer + tree GEMMs  | slot k traffic in flight
  //   combine k : wait slot k, final cross-attention (the only barrier)
  //
  // A slot is re-armed only after its combine, so at most two gathers are
  // ever in flight and buffers are never overwritten mid-transfer. Under
  // SyncCollective the identical code runs with eager (pre-completed)
  // futures: same chunking, same arithmetic order, bit-identical output —
  // the oracle the FaultyWorld stress tests compare against.
  std::array<std::optional<parallel::PendingGatherCat>, 2> pending;
  std::vector<Variable> outs(static_cast<std::size_t>(K));
  auto combine = [&](Index k) {
    auto& slot = pending[static_cast<std::size_t>(k % 2)];
    Variable reps = slot->wait();  // [b, S, P, D]
    slot.reset();
    if (!everyone) {
      std::vector<Variable> kept;
      kept.reserve(participants.size());
      for (int r : participants)
        kept.push_back(autograd::slice(reps, 2, static_cast<Index>(r), 1));
      reps = kept.size() == 1 ? kept.front() : autograd::concat(kept, 2);
    }
    outs[static_cast<std::size_t>(k)] = final_->forward_subset(reps, slots);
  };

  const Index base = B / K;
  const Index rem = B % K;
  Index off = 0;
  for (Index k = 0; k < K; ++k) {
    const Index len = base + (k < rem ? 1 : 0);
    if (k >= 2) combine(k - 2);  // retire chunk k-2 before re-arming its slot
    // A rank owning none of the requested channels still sends a
    // representation (collectives stay symmetric); combine drops it.
    Variable partial =
        positions.empty()
            ? Variable::input(Tensor(Shape{len, S, D}, 0.0f))
            : local_partial(images.slice0(off, len), positions);
    Variable as_channel = autograd::reshape(partial, Shape{len, S, 1, D});
    // The gather's backward is a local slice: downstream is replicated,
    // so the backward pass issues no communication (§3.3).
    pending[static_cast<std::size_t>(k % 2)] =
        parallel::all_gather_cat_start(as_channel, coll, /*dim=*/2);
    off += len;
  }
  for (Index k = std::max<Index>(K - 2, 0); k < K; ++k) combine(k);
  return K == 1 ? outs.front() : autograd::concat(outs, 0);  // [B, S, D]
}

Tensor DchagFrontEnd::slice_local_channels(const Tensor& full_images) const {
  DCHAG_CHECK(full_images.rank() == 4 &&
                  full_images.dim(1) == total_channels(),
              "expected full [B, " << total_channels() << ", H, W], got "
                                   << full_images.shape().to_string());
  const Index c_local = local_channels();
  const Index slot =
      static_cast<Index>(logical_slots_[static_cast<std::size_t>(comm_->rank())]);
  return ops::slice(full_images, 1, slot * c_local, c_local);
}

std::unique_ptr<model::MaeModel> make_dchag_mae(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx) {
  auto frontend = std::make_unique<DchagFrontEnd>(
      cfg, total_channels, comm, opts, master_rng, std::move(ctx));
  Rng task_rng = master_rng.fork(0x3AE);
  return std::make_unique<model::MaeModel>(cfg, std::move(frontend),
                                           total_channels, task_rng);
}

std::unique_ptr<model::ForecastModel> make_dchag_forecast(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx) {
  auto frontend = std::make_unique<DchagFrontEnd>(
      cfg, total_channels, comm, opts, master_rng, std::move(ctx));
  Rng task_rng = master_rng.fork(0x3AF);
  return std::make_unique<model::ForecastModel>(cfg, std::move(frontend),
                                                total_channels, task_rng);
}

}  // namespace dchag::core
