#include "train/loops.hpp"

#include <gtest/gtest.h>

#include "data/hyperspectral.hpp"
#include "data/weather.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::train {
namespace {

using data::HyperspectralConfig;
using data::HyperspectralGenerator;
using data::WeatherConfig;
using data::WeatherGenerator;
using model::ModelConfig;
using tensor::Index;
using tensor::Rng;
using tensor::Tensor;

ModelConfig tiny() { return ModelConfig::tiny(); }

TEST(TrainMae, LossDecreasesOnHyperspectralData) {
  ModelConfig cfg = tiny();
  const Index C = 6;
  HyperspectralConfig hc;
  hc.channels = C;
  hc.height = 16;
  hc.width = 16;
  HyperspectralGenerator gen(hc, 1);

  Rng rng(2024);
  auto fe = model::make_baseline_frontend(cfg, C, rng);
  model::MaeModel mae(cfg, std::move(fe), C, rng);

  // Deterministic data stream: pre-generate batches.
  std::vector<Tensor> batches;
  for (int i = 0; i < 30; ++i) batches.push_back(gen.sample_batch(2));

  LoopConfig lc;
  lc.steps = 30;
  lc.batch = 2;
  lc.adam.lr = 3e-3f;
  TrainCurve curve = train_mae(mae, lc, [&](Index step) {
    return batches[static_cast<std::size_t>(step)];
  });
  ASSERT_EQ(curve.losses.size(), 30u);
  const float early = (curve.losses[0] + curve.losses[1] + curve.losses[2]) / 3;
  EXPECT_LT(curve.tail_mean(5), 0.7f * early);
  for (float l : curve.losses) EXPECT_TRUE(std::isfinite(l));
}

TEST(TrainForecast, LossDecreasesOnWeatherData) {
  ModelConfig cfg = tiny();
  WeatherConfig wc;
  wc.num_variables = 2;
  wc.levels_per_variable = 2;
  wc.surface_variables = 2;  // 6 channels
  wc.height = 16;
  wc.width = 16;
  WeatherGenerator gen(wc, 3);

  Rng rng(2025);
  auto fe = model::make_baseline_frontend(cfg, wc.channels(), rng);
  model::ForecastModel fm(cfg, std::move(fe), wc.channels(), rng);

  std::vector<WeatherGenerator::Pair> pairs;
  for (int i = 0; i < 30; ++i) pairs.push_back(gen.sample_pair(2, 1.0f));

  LoopConfig lc;
  lc.steps = 30;
  lc.adam.lr = 3e-3f;
  TrainCurve curve = train_forecast(fm, lc, [&](Index step) {
    const auto& p = pairs[static_cast<std::size_t>(step)];
    return std::make_pair(p.now, p.future);
  });
  const float early = curve.losses[0];
  EXPECT_LT(curve.tail_mean(5), 0.8f * early);
}

TEST(TrainMae, PinnedContextGovernsTheWholeLoop) {
  using tensor::KernelBackend;
  const KernelBackend ambient = tensor::kernel_config().backend;
  const KernelBackend pinned = ambient == KernelBackend::kNaive
                                   ? KernelBackend::kBlocked
                                   : KernelBackend::kNaive;
  // Off-SIMD hosts degrade blocked to naive at dispatch.
  const KernelBackend expected =
      tensor::blocked_kernels_supported() ? pinned : KernelBackend::kNaive;
  const runtime::Context ctx =
      runtime::Context::current().to_builder().kernel_backend(pinned).build();

  ModelConfig cfg = tiny();
  const Index C = 4;
  Rng rng(7);
  auto fe = model::make_baseline_frontend(cfg, C, rng);
  model::MaeModel mae(cfg, std::move(fe), C, rng);

  LoopConfig lc;
  lc.steps = 2;
  lc.batch = 2;
  std::vector<KernelBackend> seen;
  const TrainCurve curve = train_mae(
      mae, lc,
      [&](Index step) {
        seen.push_back(tensor::kernel_config().backend);
        return Rng(100 + static_cast<std::uint64_t>(step))
            .normal_tensor(tensor::Shape{2, C, 16, 16});
      },
      ctx);
  EXPECT_EQ(curve.losses.size(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  for (KernelBackend b : seen) EXPECT_EQ(b, expected);
  // The loop's Scope is gone once it returns.
  EXPECT_EQ(tensor::kernel_config().backend, ambient);
}

TEST(EvaluateForecastRmse, ReturnsPerChannelValues) {
  ModelConfig cfg = tiny();
  WeatherConfig wc;
  wc.num_variables = 1;
  wc.levels_per_variable = 2;
  wc.surface_variables = 1;  // 3 channels
  wc.height = 16;
  wc.width = 16;
  WeatherGenerator gen(wc, 4);
  Rng rng(2026);
  auto fe = model::make_baseline_frontend(cfg, wc.channels(), rng);
  model::ForecastModel fm(cfg, std::move(fe), wc.channels(), rng);

  auto rmse = evaluate_forecast_rmse(
      fm, cfg.patch_size,
      [&](Index) {
        auto p = gen.sample_pair(1, 1.0f);
        return std::make_pair(p.now, p.future);
      },
      3);
  ASSERT_EQ(rmse.size(), 3u);
  for (float r : rmse) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0f);
  }
}

TEST(TrainCurve, TailMeanAveragesLastK) {
  TrainCurve c;
  c.losses = {10.0f, 2.0f, 4.0f};
  EXPECT_NEAR(c.tail_mean(2), 3.0f, 1e-6f);
  EXPECT_NEAR(c.tail_mean(100), 16.0f / 3.0f, 1e-5f);
  EXPECT_EQ(c.final_loss(), 4.0f);
}

}  // namespace
}  // namespace dchag::train
