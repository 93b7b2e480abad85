// Elastic pool sizing: queue pressure grows the worker pool toward
// max_workers, and sustained idleness shrinks it back to min_workers —
// with every response still bit-exact across the resizes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress_test_util.hpp"

namespace dchag::ingress {
namespace {

using testutil::TrainedModel;

TEST(Scale, PressureGrowsThePoolAndIdlenessShrinksIt) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 3;
  cfg.ring.slots = 2;
  cfg.queue_capacity = 256;
  cfg.scale_up_depth = 4;
  cfg.scale_down_idle = std::chrono::milliseconds(150);
  Ingress ingress(cfg);
  ASSERT_EQ(ingress.worker_count(), 1u);

  // Sustained pressure: 8 client threads, 8 sequential requests each.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::atomic<std::size_t> peak_workers{0};
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load()) {
      std::size_t w = ingress.worker_count();
      std::size_t prev = peak_workers.load();
      while (w > prev && !peak_workers.compare_exchange_weak(prev, w)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client(ingress.port());
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seed =
            900 + static_cast<std::uint64_t>(t * kPerThread + i);
        const Tensor images = testutil::sample_image(seed);
        try {
          const Tensor pred = client.infer(images);
          testutil::expect_bit_exact(pred, trained.reference(images));
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  watcher.join();
  EXPECT_EQ(failures.load(), 0);

  const serve::Metrics::Snapshot during = ingress.metrics();
  EXPECT_GE(during.scale_ups, 1u)
      << "64 requests against one worker must trip scale_up_depth=4";
  EXPECT_GE(std::max(peak_workers.load(), ingress.worker_count()), 2u);

  // Sustained idleness: shrink back to min_workers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ingress.worker_count() > 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ingress.worker_count(), 1u);
  EXPECT_GE(ingress.metrics().scale_downs, 1u);

  // Scaling never crosses the floor: a request after the shrink still
  // gets a bit-exact answer from the remaining worker.
  Client client(ingress.port());
  const Tensor images = testutil::sample_image(31337);
  testutil::expect_bit_exact(client.infer(images),
                             trained.reference(images));

  ingress.drain();
  const serve::Metrics::Snapshot c = ingress.metrics();
  EXPECT_EQ(c.accepted, c.requests);
  EXPECT_EQ(c.worker_restarts, 0u)
      << "deliberate retirement must not be counted as a crash";
}

}  // namespace
}  // namespace dchag::ingress
