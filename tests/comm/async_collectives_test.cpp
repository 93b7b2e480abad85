// Non-blocking collectives: ICollective futures must deliver exactly the
// blocking results, tolerate many in-flight ops and out-of-order waits,
// and surface per-op failures at wait() — under quiet and faulty worlds.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/async.hpp"
#include "comm/fault.hpp"

namespace dchag::comm {
namespace {

std::vector<float> iota_data(int rank, std::size_t n) {
  std::vector<float> d(n);
  std::iota(d.begin(), d.end(), static_cast<float>(rank) * 100.0f);
  return d;
}

TEST(AsyncCollectives, AllOpsMatchBlockingResults) {
  World world(4);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    const int P = comm.size();
    const std::size_t n = 12;

    // Blocking reference results on the parent communicator.
    std::vector<float> ref_reduce = iota_data(comm.rank(), n);
    comm.all_reduce(ref_reduce);
    std::vector<float> ref_gather(n * static_cast<std::size_t>(P));
    comm.all_gather(iota_data(comm.rank(), n), ref_gather);
    std::vector<float> big =
        iota_data(comm.rank(), n * static_cast<std::size_t>(P));
    std::vector<float> ref_scatter(n);
    comm.reduce_scatter(big, ref_scatter);
    std::vector<float> ref_bcast = iota_data(2, n);

    std::vector<float> a = iota_data(comm.rank(), n);
    std::vector<float> g_send = iota_data(comm.rank(), n);
    std::vector<float> g(n * static_cast<std::size_t>(P));
    std::vector<float> s_send = big;
    std::vector<float> s(n);
    std::vector<float> b =
        comm.rank() == 2 ? iota_data(2, n) : std::vector<float>(n, -1.0f);

    CommFuture fa = async.iall_reduce(a);
    CommFuture fg = async.iall_gather(g_send, g);
    CommFuture fs = async.ireduce_scatter(s_send, s);
    CommFuture fb = async.ibroadcast(b, /*root=*/2);
    fa.wait();
    fg.wait();
    fs.wait();
    fb.wait();

    ASSERT_EQ(a, ref_reduce);
    ASSERT_EQ(g, ref_gather);
    ASSERT_EQ(s, ref_scatter);
    ASSERT_EQ(b, ref_bcast);
  });
}

TEST(AsyncCollectives, ManyInFlightWaitedOutOfOrder) {
  World world(3);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    constexpr int kOps = 8;
    std::vector<std::vector<float>> bufs;
    bufs.reserve(kOps);
    std::vector<CommFuture> futs;
    for (int i = 0; i < kOps; ++i) {
      bufs.push_back({static_cast<float>(comm.rank() + i), 1.0f});
      futs.push_back(async.iall_reduce(bufs.back()));
    }
    // Waiting newest-first must still observe every op's exact result:
    // completion is FIFO internally, wait order is the caller's business.
    for (int i = kOps - 1; i >= 0; --i) {
      futs[static_cast<std::size_t>(i)].wait();
      ASSERT_EQ(bufs[static_cast<std::size_t>(i)][0],
                3.0f + 3.0f * static_cast<float>(i));
      ASSERT_EQ(bufs[static_cast<std::size_t>(i)][1], 3.0f);
    }
    ASSERT_EQ(async.in_flight(), 0u);
    ASSERT_EQ(async.stats().calls_of(CollectiveKind::kAllReduce),
              static_cast<std::uint64_t>(kOps));
  });
}

TEST(AsyncCollectives, SyncCollectiveIsEagerAndBitIdenticalToAsync) {
  World world(4);
  world.run([](Communicator& comm) {
    const std::size_t n = 33;
    const std::size_t P = static_cast<std::size_t>(comm.size());
    // All-reduce, reduce-scatter and broadcast outputs of one collective.
    auto run_ops = [&](ICollective& coll, bool eager) {
      std::vector<float> reduced = iota_data(comm.rank(), n);
      const std::vector<float> big = iota_data(comm.rank(), n * P);
      std::vector<float> scattered(n);
      std::vector<float> bcast = comm.rank() == 1
                                     ? iota_data(1, n)
                                     : std::vector<float>(n, -1.0f);
      std::vector<CommFuture> futs;
      futs.push_back(coll.iall_reduce(reduced));
      futs.push_back(coll.ireduce_scatter(big, scattered));
      futs.push_back(coll.ibroadcast(bcast, /*root=*/1));
      for (CommFuture& f : futs) {
        if (eager) {
          EXPECT_TRUE(f.ready());  // the oracle completes at issue time
        }
        f.wait();
      }
      return std::vector<std::vector<float>>{reduced, scattered, bcast};
    };
    SyncCollective sync(comm);
    AsyncCommunicator async(comm);
    const auto via_sync = run_ops(sync, /*eager=*/true);
    const auto via_async = run_ops(async, /*eager=*/false);
    ASSERT_EQ(via_sync, via_async);
    ASSERT_EQ(via_sync[2], iota_data(1, n));
  });
}

TEST(AsyncCollectives, OpFailureSurfacesAtWaitAndLaneKeepsServing) {
  World world(2);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    std::vector<float> send(4);
    std::vector<float> recv(5);  // wrong: must be send * P = 8 on all ranks
    CommFuture bad = async.iall_gather(send, recv);
    EXPECT_THROW(bad.wait(), Error);
    // The failed op never reached a rendezvous (it threw validating its
    // arguments), so the shadow group is intact and later ops still work.
    std::vector<float> ok{static_cast<float>(comm.rank())};
    CommFuture good = async.iall_reduce(ok);
    good.wait();
    ASSERT_EQ(ok[0], 1.0f);
  });
}

TEST(AsyncCollectives, DrainQuiescesWithoutConsumingFutures) {
  World world(2);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    std::vector<float> a{static_cast<float>(comm.rank()), 2.0f};
    std::vector<float> b{3.0f, static_cast<float>(comm.rank())};
    CommFuture fa = async.iall_reduce(a);
    CommFuture fb = async.iall_reduce(b);
    async.drain();
    ASSERT_EQ(async.in_flight(), 0u);
    ASSERT_TRUE(fa.ready());
    ASSERT_TRUE(fb.ready());
    fa.wait();
    fb.wait();
    ASSERT_EQ(a[0], 1.0f);
    ASSERT_EQ(b[1], 1.0f);
  });
}

TEST(AsyncCollectives, ExactUnderFaultyWorldSchedules) {
  FaultSpec spec;
  spec.seed = 99;
  spec.min_edge_delay_us = 1;
  spec.max_edge_delay_us = 200;
  spec.drop_prob = 0.4;
  spec.retry_backoff_us = 20;
  spec.max_completion_jitter_us = 150;
  FaultyWorld world(4, spec);
  world.run([](Communicator& comm) {
    AsyncCommunicator async(comm);
    for (int round = 0; round < 4; ++round) {
      std::vector<float> d{static_cast<float>(comm.rank() + round), 7.0f};
      CommFuture f = async.iall_reduce(d);
      f.wait();
      ASSERT_EQ(d[0], 6.0f + 4.0f * static_cast<float>(round));
      ASSERT_EQ(d[1], 28.0f);
    }
  });
  // The plan must actually have fired (delays and/or retries injected) —
  // otherwise this test exercises nothing.
  ASSERT_GT(world.plan().injections(), 0u);
  ASSERT_GT(world.plan().injected_delay_us(), 0u);
}

}  // namespace
}  // namespace dchag::comm
