// Seeded-schedule stress: the async pipelined D-CHAG forward must be
// BIT-identical to the sync oracle under adversarial comm timing. 64
// random FaultyWorld schedules spread across 2/4/8-rank groups; any
// nonzero diff means overlap reordered arithmetic or raced a buffer. The
// channel-subset forward gets the same check over uneven chunks.
#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "core/dchag_frontend.hpp"
#include "testing/schedules.hpp"

namespace dchag::core {
namespace {

namespace ops = tensor::ops;
using autograd::Variable;
using comm::CommConfig;
using comm::CommMode;
using comm::FaultSpec;
using comm::FaultyWorld;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// Shared with the chaos suite: a pure function of the seed (see
// tests/testing/schedules.hpp), so "schedule N" in a failure message
// reproduces the exact timing run.
FaultSpec schedule(std::uint64_t seed) {
  return dchag::testing::timing_schedule(seed);
}

TEST(AsyncStress, SixtyFourSchedulesBitIdenticalSyncVsAsync) {
  constexpr int kSchedules = 64;
  const int sizes[] = {2, 4, 8};
  ModelConfig cfg = ModelConfig::tiny();
  const tensor::Index C = 8;
  const tensor::Index B = 4;

  for (int sched = 0; sched < kSchedules; ++sched) {
    const int P = sizes[sched % 3];
    Tensor img = Rng(1000 + static_cast<std::uint64_t>(sched))
                     .normal_tensor(Shape{B, C, 16, 16});
    FaultyWorld world(P, schedule(static_cast<std::uint64_t>(sched)));
    world.run([&](parallel::Communicator& comm) {
      autograd::NoGradGuard no_grad;
      Rng master(4242);
      // One model, one weight set; only the comm schedule differs between
      // the two forwards (runtime::Scope flips the mode thread-locally). Same
      // pipeline depth on both sides so the chunked arithmetic matches.
      DchagFrontEnd fe(cfg, C, comm,
                       {1, model::AggLayerKind::kLinear}, master);
      Tensor local = fe.slice_local_channels(img);
      Tensor sync_out, async_out;
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kSync, /*pipeline_chunks=*/4}));
        sync_out = fe.forward(local).value();
      }
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kAsync, /*pipeline_chunks=*/4}));
        async_out = fe.forward(local).value();
      }
      ASSERT_EQ(ops::max_abs_diff(sync_out, async_out), 0.0f)
          << "schedule " << sched << " P=" << P << " rank " << comm.rank();
      // And the pipelined result must equal the monolithic single-gather
      // oracle too (same values, chunked along the batch only).
      Tensor mono;
      {
        runtime::Scope scope(runtime::ContextPatch::with_comm(
            CommConfig{CommMode::kSync, /*pipeline_chunks=*/1}));
        mono = fe.forward(local).value();
      }
      ASSERT_LT(ops::max_abs_diff(mono, async_out), 1e-5f)
          << "schedule " << sched << " P=" << P;
    });
    ASSERT_GT(world.plan().injections(), 0u) << "schedule " << sched;
  }
}

TEST(AsyncStress, ChunkedSubsetWithEmptyRanksBitIdenticalSyncVsAsync) {
  // Channel-subset forwards run the same chunked driver: B = 5 over K = 4
  // gives uneven chunks (2, 1, 1, 1), and subset {1, 2} leaves ranks with
  // no requested channel at every group size (they gather placeholders
  // that the final aggregation drops).
  constexpr int kSchedules = 12;
  const int sizes[] = {2, 4, 8};
  ModelConfig cfg = ModelConfig::tiny();
  const tensor::Index C = 8;
  const tensor::Index B = 5;
  const std::vector<tensor::Index> subset{1, 2};

  for (int sched = 0; sched < kSchedules; ++sched) {
    const int P = sizes[sched % 3];
    const Tensor img = Rng(2000 + static_cast<std::uint64_t>(sched))
                           .normal_tensor(Shape{B, C, 16, 16});
    const Tensor sub = ops::slice(img, 1, subset.front(),
                                  static_cast<tensor::Index>(subset.size()));
    FaultyWorld world(P, schedule(static_cast<std::uint64_t>(sched)));
    world.run([&](parallel::Communicator& comm) {
      autograd::NoGradGuard no_grad;
      Rng master(4242);
      DchagFrontEnd fe(cfg, C, comm,
                       {1, model::AggLayerKind::kLinear}, master);
      auto run = [&](CommMode mode, int chunks) {
        runtime::Scope scope(
            runtime::ContextPatch::with_comm(CommConfig{mode, chunks}));
        return fe.forward_subset(sub, subset).value();
      };
      const Tensor sync_out = run(CommMode::kSync, 4);
      const Tensor async_out = run(CommMode::kAsync, 4);
      ASSERT_EQ(ops::max_abs_diff(sync_out, async_out), 0.0f)
          << "schedule " << sched << " P=" << P << " rank " << comm.rank();
      ASSERT_LT(ops::max_abs_diff(run(CommMode::kSync, 1), async_out), 1e-5f)
          << "schedule " << sched << " P=" << P;
    });
  }
}

}  // namespace
}  // namespace dchag::core
