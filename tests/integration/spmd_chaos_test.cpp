// Chaos suite for elastic SPMD serving: 64 seeded schedules spread
// across {rank death, link partition, straggler} x {2, 4, 8} ranks. For
// every structural failure the engine must (a) keep answering during
// recovery — each answer bit-exact with a healthy world's forward over
// either the full or the surviving channel set — and (b) after the
// respawned rank rejoins, answer bit-exactly like a world that never
// failed. Every assertion message carries the seed + one-line schedule
// (FaultPlan::describe), so a red run reproduces from the log alone.
// Runs under both DCHAG_COMM modes (the CI comm matrix flips the env).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>

#include "core/dchag_frontend.hpp"
#include "serve/spmd_engine.hpp"
#include "testing/schedules.hpp"

namespace dchag::serve {
namespace {

namespace ops = tensor::ops;
using dchag::testing::ChaosKind;
using model::AggLayerKind;
using model::ModelConfig;
using tensor::Rng;
using tensor::Shape;

constexpr Index kChannels = 8;  // divisible by every world size in play

SpmdEngine::RankModelFactory factory_for(ModelConfig cfg) {
  return [cfg](comm::Communicator& comm) {
    Rng master(42);  // every rank (and respawn): same master seed
    core::DchagOptions opts{/*tree_units=*/1, AggLayerKind::kLinear};
    return core::make_dchag_forecast(cfg, kChannels, comm, opts, master);
  };
}

TEST(SpmdChaos, SixtyFourSeededSchedulesServeDegradedThenHealBitExact) {
  const ModelConfig cfg = ModelConfig::tiny();
  // One healthy oracle per world size, reused across schedules.
  std::map<int, std::unique_ptr<SpmdEngine>> oracles;
  for (int P : {2, 4, 8})
    oracles[P] = std::make_unique<SpmdEngine>(P, factory_for(cfg));

  constexpr int kSchedules = 64;
  constexpr std::array<int, 3> kSizes{2, 4, 8};
  constexpr std::array<ChaosKind, 3> kKinds{
      ChaosKind::kDeath, ChaosKind::kPartition, ChaosKind::kStraggler};

  for (int sched = 0; sched < kSchedules; ++sched) {
    const int P = kSizes[static_cast<std::size_t>(sched % 3)];
    const ChaosKind kind = kKinds[static_cast<std::size_t>((sched / 3) % 3)];
    const comm::FaultSpec spec = dchag::testing::chaos_schedule(
        static_cast<std::uint64_t>(sched), kind, P);
    const auto plan = comm::make_fault_plan(spec, P);
    std::ostringstream os;
    os << "sched=" << sched << " P=" << P << " | " << plan->describe();
    const std::string repro = os.str();

    SpmdEngine engine(
        P, factory_for(cfg), {},
        runtime::Context::current().to_builder().fault_plan(plan).build());
    SpmdEngine& oracle = *oracles[P];

    const Tensor img = Rng(1000 + static_cast<std::uint64_t>(sched))
                           .normal_tensor(Shape{1, kChannels, 16, 16});
    const Tensor full = oracle.run(img, {}, 1.0f);
    const std::vector<int> dead =
        dchag::testing::chaos_casualties(spec, P);

    if (dead.empty()) {
      // Straggler schedule: slowness is never failure — every answer is
      // the healthy one and no recovery machinery fires.
      for (int i = 0; i < 3; ++i)
        ASSERT_EQ(ops::max_abs_diff(engine.run(img, {}, 1.0f), full), 0.0f)
            << "job " << i << " | " << repro;
      const Metrics::Snapshot m = engine.metrics();
      EXPECT_EQ(m.recoveries, 0u) << repro;
      EXPECT_EQ(m.degraded_responses, 0u) << repro;
      continue;
    }

    // Degraded ground truth: the healthy oracle's answer over exactly
    // the surviving channels.
    const Index c_local = kChannels / P;
    std::vector<Index> surviving;
    std::vector<Tensor> slabs;
    for (int r = 0; r < P; ++r) {
      if (std::binary_search(dead.begin(), dead.end(), r)) continue;
      for (Index c = 0; c < c_local; ++c)
        surviving.push_back(static_cast<Index>(r) * c_local + c);
      slabs.push_back(ops::slice(img, 1,
                                 static_cast<Index>(r) * c_local, c_local));
    }
    const Tensor degraded_img =
        slabs.size() == 1 ? slabs.front() : ops::concat(slabs, 1);
    const Tensor degraded = oracle.run(degraded_img, surviving, 1.0f);

    // Drive jobs through the event: the interrupted job is retried by
    // the survivors and returns the degraded answer; once the respawn
    // finishes, answers flip back to the full one. Nothing else is
    // acceptable.
    bool saw_degraded = false;
    for (int i = 0; i < 8; ++i) {
      const Tensor got = engine.run(img, {}, 1.0f);
      const bool is_full = ops::max_abs_diff(got, full) == 0.0f;
      const bool is_degraded = ops::max_abs_diff(got, degraded) == 0.0f;
      ASSERT_TRUE(is_full || is_degraded)
          << "job " << i << " matches neither healthy nor degraded | "
          << repro;
      saw_degraded = saw_degraded || is_degraded;
    }
    ASSERT_TRUE(saw_degraded) << "event never fired in 8 jobs | " << repro;

    engine.wait_recovered();
    ASSERT_EQ(ops::max_abs_diff(engine.run(img, {}, 1.0f), full), 0.0f)
        << "post-heal parity | " << repro;
    const Metrics::Snapshot m = engine.metrics();
    EXPECT_GE(m.recoveries, 1u) << repro;
    EXPECT_GT(m.mean_recovery_ms, 0.0) << repro;
    EXPECT_GE(m.degraded_responses, 1u) << repro;
  }
}

}  // namespace
}  // namespace dchag::serve
