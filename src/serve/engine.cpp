#include "serve/engine.hpp"

#include <numeric>

namespace dchag::serve {

Engine::Engine(model::ForecastModel& model,
               std::optional<runtime::Context> ctx, EngineOptions opts)
    : model_(&model),
      ctx_(std::move(ctx)),
      opts_(opts),
      all_channels_(all_channels(model.frontend())) {
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
  return model_
      ->predict_subset(images, channels.empty() ? all_channels_ : channels,
                       lead_time)
      .value();
}

std::vector<Index> all_channels(const model::FrontEnd& frontend) {
  std::vector<Index> all(static_cast<std::size_t>(frontend.total_channels()));
  std::iota(all.begin(), all.end(), Index{0});
  return all;
}

InferenceFn Engine::inference_fn() const {
  return [this](const Tensor& images, const std::vector<Index>& channels,
                float lead_time) { return run(images, channels, lead_time); };
}

}  // namespace dchag::serve
