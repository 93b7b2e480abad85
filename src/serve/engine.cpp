#include "serve/engine.hpp"

namespace dchag::serve {

Engine::Engine(model::ForecastModel& model,
               std::optional<runtime::Context> ctx, EngineOptions opts)
    : model_(&model), ctx_(std::move(ctx)), opts_(opts) {
  if (opts_.plan) {
    model_->freeze_for_serving();
  } else {
    model_->eval();
  }
}

Tensor Engine::run(const Tensor& images, const std::vector<Index>& channels,
                   float lead_time) const {
  DCHAG_CHECK(!model_->is_training(),
              "serving requires an eval-mode model");
  autograd::NoGradGuard no_grad;
  // With a plan, every tensor this forward builds draws from the shared
  // pool; only warm-up, until the largest shape has been served, touches
  // the heap.
  std::optional<tensor::plan::ArenaScope> arena_scope;
  if (opts_.plan) arena_scope.emplace(arena_);
  runtime::Scope ctx_scope(runtime::Context::effective_or_current(ctx_));
  if (channels.empty()) {
    // Full-channel request; strategy-agnostic input selection (identity
    // for the single-device front-end).
    return model_
        ->predict(model_->frontend().select_input(images), lead_time)
        .value();
  }
  return model_->predict_subset(images, channels, lead_time).value();
}

InferenceFn Engine::inference_fn() const {
  return [this](const Tensor& images, const std::vector<Index>& channels,
                float lead_time) { return run(images, channels, lead_time); };
}

}  // namespace dchag::serve
