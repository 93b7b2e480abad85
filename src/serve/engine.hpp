// The inference engines behind the server's worker pool. Both produce an
// InferenceFn — the batched forward the Server executes — and both run
// tape-free (autograd::NoGradGuard) over an eval()'d model, so serving
// never pays autograd allocation.
//
//  * Engine: single-device; one shared read-only model, safe to call from
//    many worker threads at once (a no-grad forward only reads parameter
//    values and builds thread-private value nodes).
//  * SpmdEngine (spmd_engine.hpp): D-CHAG workers over comm::World.
#pragma once

#include <functional>
#include <optional>

#include "model/foundation.hpp"
#include "runtime/context.hpp"
#include "tensor/plan.hpp"

namespace dchag::serve {

using tensor::Index;
using tensor::Tensor;

/// Batched inference entry point: images [B, C_sub, H, W] (every sample
/// the same channel subset / lead time), returns pred [B, S, C_target*p^2].
using InferenceFn = std::function<Tensor(
    const Tensor& images, const std::vector<Index>& channels,
    float lead_time)>;

/// Serving-plan knobs. The default is the fully planned forward; plan =
/// false keeps the model merely eval()'d and every run() allocating
/// tensors fresh — the baseline the serving bench and the plan parity
/// suite compare against (outputs are bit-identical either way).
struct EngineOptions {
  /// freeze_for_serving() the model (pre-packed GEMM panels, fused
  /// epilogues) and route run()'s tensor buffers through a shared arena.
  bool plan = true;
};

class Engine {
 public:
  /// The model must outlive the engine. It is switched to eval mode here
  /// (and, with opts.plan, frozen for serving — re-freeze via
  /// freeze_for_serving() after any weight mutation such as load_module);
  /// full-channel requests must carry exactly frontend().total_channels()
  /// channel slabs.
  ///
  /// `ctx` pins the execution context every run() uses; nullopt =
  /// unpinned, each run inherits the calling thread's effective context
  /// (how Server workers hand theirs through). A runtime::Scope active
  /// on the calling thread outranks a pinned context.
  explicit Engine(model::ForecastModel& model,
                  std::optional<runtime::Context> ctx = std::nullopt,
                  EngineOptions opts = {});

  /// Tape-free batched forward; `channels` empty means all channels.
  /// Either way the request runs the front-end's forward_subset over its
  /// channel list. Thread-safe for concurrent callers.
  [[nodiscard]] Tensor run(const Tensor& images,
                           const std::vector<Index>& channels,
                           float lead_time) const;

  [[nodiscard]] InferenceFn inference_fn() const;

  [[nodiscard]] const model::ForecastModel& model() const { return *model_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  /// Arena pool counters (fresh = warm-up heap allocations, reused =
  /// steady-state hits). All zero when opts.plan is off.
  [[nodiscard]] tensor::plan::Arena::Stats arena_stats() const {
    return arena_.stats();
  }

 private:
  model::ForecastModel* model_;
  std::optional<runtime::Context> ctx_;
  EngineOptions opts_;
  mutable tensor::plan::Arena arena_;
  std::vector<Index> all_channels_;  ///< what an empty channel list means
};

/// Every global channel id of the front-end's full input, 0..C-1: the
/// channel list of a full-channel request.
[[nodiscard]] std::vector<Index> all_channels(const model::FrontEnd& frontend);

}  // namespace dchag::serve
