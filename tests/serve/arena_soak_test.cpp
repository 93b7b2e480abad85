// Serving-memory soak for the capacity-class arena (tensor/plan.hpp): a
// 4-rank SpmdEngine serves a seeded stream of forwards over batch sizes
// 1..8 and random channel subsets — including subsets that leave some
// rank with an empty local intersection — and must
//  * answer every request bit-for-bit like the unplanned oracle (the same
//    rank models eval()'d but not frozen, with no arena: what
//    EngineOptions{.plan = false} is for the single-device Engine);
//  * hold at most twice its live peak on every rank after every forward,
//    whatever mix of shapes came before;
//  * make zero fresh allocations when the same stream is replayed.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/dchag_frontend.hpp"
#include "serve/spmd_engine.hpp"

namespace dchag::serve {
namespace {

using model::AggLayerKind;
using model::ModelConfig;
using tensor::Rng;
using tensor::Shape;

constexpr int kRanks = 4;
constexpr Index kChannels = 16;  // c_local = 4 per rank
constexpr Index kMaxBatch = 8;
constexpr int kForwards = 200;

struct Job {
  Tensor images;
  std::vector<Index> channels;  ///< empty = all channels
};

std::vector<Job> seeded_stream() {
  std::mt19937_64 gen(2024);
  std::vector<Job> jobs;
  jobs.reserve(kForwards);
  for (int i = 0; i < kForwards; ++i) {
    Job job;
    const auto batch = static_cast<Index>(1 + gen() % kMaxBatch);
    switch (gen() % 4) {
      case 0:  // every channel
        break;
      case 1: {  // one rank's channels only: the others intersect nothing
        const auto slot = static_cast<Index>(gen() % kRanks);
        const Index c_local = kChannels / kRanks;
        for (Index c = 0; c < c_local; ++c)
          if (c == 0 || gen() % 2 == 0)
            job.channels.push_back(slot * c_local + c);
        break;
      }
      default:  // a random subset across ranks
        for (Index c = 0; c < kChannels; ++c)
          if (gen() % 2 == 0) job.channels.push_back(c);
        if (job.channels.empty())
          job.channels.push_back(static_cast<Index>(gen() % kChannels));
        break;
    }
    const Index width = job.channels.empty()
                            ? kChannels
                            : static_cast<Index>(job.channels.size());
    job.images = Rng(1000 + static_cast<std::uint64_t>(i))
                     .normal_tensor(Shape{batch, width, 16, 16});
    jobs.push_back(std::move(job));
  }
  return jobs;
}

SpmdEngine::RankModelFactory factory(const ModelConfig& cfg) {
  return [&cfg](comm::Communicator& comm) {
    Rng master(42);  // every rank: same master seed (D-CHAG contract)
    return core::make_dchag_forecast(
        cfg, kChannels, comm, {/*tree_units=*/2, AggLayerKind::kLinear},
        master);
  };
}

/// The unplanned answers: the same rank models, eval()'d only, served
/// with every tensor freshly allocated.
std::vector<Tensor> oracle_answers(const ModelConfig& cfg,
                                   const std::vector<Job>& jobs) {
  std::vector<Tensor> answers(jobs.size());
  comm::World world(kRanks);
  world.run([&](comm::Communicator& comm) {
    autograd::NoGradGuard no_grad;
    auto model = factory(cfg)(comm);
    model->eval();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      Tensor pred =
          job.channels.empty()
              ? model->predict(model->frontend().select_input(job.images),
                               1.0f)
                    .value()
              : model->predict_subset(job.images, job.channels, 1.0f).value();
      if (comm.rank() == 0) answers[i] = pred;
    }
  });
  return answers;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(ArenaSoak, RandomShapesStayBitExactBoundedAndAllocationFreeOnReplay) {
  const ModelConfig cfg = ModelConfig::tiny();
  const std::vector<Job> jobs = seeded_stream();
  const std::vector<Tensor> expected = oracle_answers(cfg, jobs);
  SpmdEngine engine(kRanks, factory(cfg));

  auto serve_stream = [&](int pass) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Tensor got = engine.run(jobs[i].images, jobs[i].channels, 1.0f);
      ASSERT_TRUE(bit_equal(got, expected[i]))
          << "pass " << pass << " forward " << i << " differs from the "
          << "unplanned oracle";
      for (int r = 0; r < kRanks; ++r) {
        const tensor::plan::Arena::Stats s = engine.arena_stats(r);
        ASSERT_LE(s.held_bytes, 2 * s.peak_live_bytes)
            << "pass " << pass << " forward " << i << " rank " << r
            << ": the arena holds more than twice its live peak";
      }
    }
  };

  serve_stream(0);
  const std::uint64_t fresh = engine.arena_stats().fresh;
  EXPECT_GT(fresh, 0u);  // the warm-up
  serve_stream(1);
  EXPECT_EQ(engine.arena_stats().fresh, fresh)
      << "replaying the served stream allocated fresh buffers";
  EXPECT_EQ(engine.metrics().arena_held_bytes,
            engine.arena_stats().held_bytes);
  EXPECT_NE(engine.metrics().to_exposition().find(
                "dchag_serve_arena_held_bytes " +
                std::to_string(engine.arena_stats().held_bytes) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace dchag::serve
