// End-to-end serving: checkpoint cold start (save -> load into a fresh
// model), served responses bit-identical to the direct no-grad forward,
// worker-pool robustness to bad requests, metrics accounting, and the
// SPMD D-CHAG serving engine.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "core/dchag_frontend.hpp"
#include "serve/spmd_engine.hpp"
#include "tensor/kernel_config.hpp"
#include "train/checkpoint.hpp"

namespace dchag::serve {
namespace {

namespace ops = tensor::ops;
using model::AggLayerKind;
using model::ForecastModel;
using model::ModelConfig;
using tensor::Rng;
using tensor::Shape;

constexpr Index kChannels = 4;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::unique_ptr<ForecastModel> make_tree_model(std::uint64_t seed) {
  ModelConfig cfg = ModelConfig::tiny();
  Rng rng(seed);
  auto agg = model::AggregationTree::with_units(
      cfg, AggLayerKind::kCrossAttention, kChannels, 2, rng);
  auto fe = std::make_unique<model::LocalFrontEnd>(cfg, kChannels,
                                                   std::move(agg), rng);
  return std::make_unique<ForecastModel>(cfg, std::move(fe), kChannels, rng);
}

Tensor sample_image(std::uint64_t seed, Index channels) {
  Rng rng(seed);
  return rng.normal_tensor(Shape{channels, 16, 16});
}

TEST(Server, ColdStartServesBitForBitAgainstSourceModel) {
  // The "trained" model writes the checkpoint...
  auto source = make_tree_model(1);
  const std::string path = tmp_path("serve_ckpt.bin");
  train::save_module(path, *source);
  // ...a fresh differently-seeded model cold-starts from it.
  auto served = make_tree_model(999);
  train::load_module(path, *served);

  Engine engine(*served);
  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = std::chrono::microseconds(2000);
  Server server(engine.inference_fn(), cfg);

  struct Case {
    Request request;
    ResponseFuture future;
  };
  std::vector<Case> cases;
  const std::vector<std::vector<Index>> subsets{
      {}, {0, 1, 2, 3}, {1, 3}, {2}};
  for (int i = 0; i < 24; ++i) {
    Request r;
    const auto& subset = subsets[static_cast<std::size_t>(i) % 4];
    const Index c =
        subset.empty() ? kChannels : static_cast<Index>(subset.size());
    r.images = sample_image(100 + static_cast<std::uint64_t>(i), c);
    r.channels = subset;
    Case cs{r, {}};
    cs.future = server.submit(std::move(r));
    cases.push_back(std::move(cs));
  }
  server.start();

  autograd::NoGradGuard no_grad;
  for (Case& cs : cases) {
    Response resp = cs.future.get();
    const auto& s = cs.request.images.shape();
    Tensor batch1 =
        cs.request.images.reshape(Shape{1, s.dim(0), s.dim(1), s.dim(2)});
    Tensor direct =
        cs.request.channels.empty()
            ? source->predict(batch1, cs.request.lead_time).value()
            : source
                  ->predict_subset(batch1, cs.request.channels,
                                   cs.request.lead_time)
                  .value();
    Tensor direct_row =
        direct.reshape(Shape{direct.dim(1), direct.dim(2)});
    EXPECT_EQ(ops::max_abs_diff(resp.pred, direct_row), 0.0f);
    EXPECT_GE(resp.batch_size, 1);
  }
  server.drain();
  const Metrics::Snapshot m = server.metrics().summary();
  EXPECT_EQ(m.requests, 24u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.mean_batch_size, 1.0);  // pre-start parking guarantees coalescing
  std::remove(path.c_str());
}

TEST(Server, WorkerSurvivesFailingBatchAndKeepsServing) {
  auto served = make_tree_model(3);
  Engine engine(*served);
  ServerConfig cfg;
  cfg.batcher.max_batch = 2;
  cfg.batcher.max_wait = std::chrono::microseconds(500);
  Server server(engine.inference_fn(), cfg);
  server.start();

  // Channel id out of the model's range -> the batch fails, the future
  // carries the exception, the worker survives.
  Request bad;
  bad.images = sample_image(7, 2);
  bad.channels = {1, 17};
  ResponseFuture bad_future = server.submit(std::move(bad));
  EXPECT_THROW(bad_future.get(), Error);

  Request good;
  good.images = sample_image(8, kChannels);
  Response resp = server.submit(std::move(good)).get();
  EXPECT_EQ(resp.pred.rank(), 2);
  server.drain();
  const Metrics::Snapshot m = server.metrics().summary();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.requests, 1u);
}

TEST(Server, MetricsCountBatchesAndPercentiles) {
  auto served = make_tree_model(5);
  Engine engine(*served);
  ServerConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = std::chrono::microseconds(1000);
  Server server(engine.inference_fn(), cfg);
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.images = sample_image(200 + static_cast<std::uint64_t>(i), kChannels);
    (void)server.submit(std::move(r));
  }
  server.start();
  server.drain();
  const Metrics::Snapshot m = server.metrics().summary();
  EXPECT_EQ(m.requests, 8u);
  EXPECT_EQ(m.batches, 2u);  // 8 parked compatible requests, max_batch 4
  EXPECT_EQ(m.mean_batch_size, 4.0);
  EXPECT_GT(m.p50_ms, 0.0);
  EXPECT_GE(m.p99_ms, m.p50_ms);
  EXPECT_GT(m.requests_per_s, 0.0);
  EXPECT_GE(m.max_queue_depth, 8u);
}

TEST(Server, SpmdEngineServesSubsetsIdenticallyToDirectRun) {
  ModelConfig cfg = ModelConfig::tiny();
  constexpr Index kSpmdChannels = 8;
  const auto factory = [&cfg](comm::Communicator& comm) {
    Rng master(42);  // every rank: same master seed (D-CHAG contract)
    return core::make_dchag_forecast(
        cfg, kSpmdChannels, comm,
        {/*tree_units=*/1, AggLayerKind::kLinear}, master);
  };
  SpmdEngine engine(/*ranks=*/2, factory);
  SpmdEngine reference(/*ranks=*/2, factory);

  ServerConfig scfg;
  scfg.batcher.max_batch = 4;
  scfg.batcher.max_wait = std::chrono::microseconds(1000);
  Server server(engine.inference_fn(), scfg);

  const std::vector<std::vector<Index>> subsets{{}, {0, 1, 6}};
  std::vector<Request> requests;
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 8; ++i) {
    Request r;
    const auto& subset = subsets[static_cast<std::size_t>(i) % 2];
    const Index c =
        subset.empty() ? kSpmdChannels : static_cast<Index>(subset.size());
    r.images = sample_image(300 + static_cast<std::uint64_t>(i), c);
    r.channels = subset;
    requests.push_back(r);
    futures.push_back(server.submit(std::move(r)));
  }
  server.start();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response resp = futures[i].get();
    const auto& s = requests[i].images.shape();
    Tensor batch1 =
        requests[i].images.reshape(Shape{1, s.dim(0), s.dim(1), s.dim(2)});
    Tensor direct = reference.run(batch1, requests[i].channels,
                                  requests[i].lead_time);
    EXPECT_EQ(ops::max_abs_diff(
                  resp.pred,
                  direct.reshape(Shape{direct.dim(1), direct.dim(2)})),
              0.0f)
        << "request " << i;
  }

  // An out-of-range channel id throws uniformly on every rank before any
  // collective: the request's future fails but the world keeps serving.
  Request bad;
  bad.images = sample_image(99, 2);
  bad.channels = {1, 17};
  ResponseFuture bad_future = server.submit(std::move(bad));
  EXPECT_THROW(bad_future.get(), Error);
  Request good;
  good.images = sample_image(98, kSpmdChannels);
  Response after = server.submit(std::move(good)).get();
  EXPECT_EQ(after.pred.rank(), 2);

  server.drain();
  EXPECT_GT(server.metrics().summary().mean_batch_size, 1.0);
}

TEST(Server, SpmdEnginePartialConstructionFailureDoesNotDeadlock) {
  ModelConfig cfg = ModelConfig::tiny();
  const auto factory = [&cfg](comm::Communicator& comm)
      -> std::unique_ptr<ForecastModel> {
    if (comm.rank() == 1) DCHAG_FAIL("simulated cold-start failure");
    Rng master(42);
    return core::make_dchag_forecast(cfg, 8, comm, {1, AggLayerKind::kLinear},
                                     master);
  };
  // Rank 0 constructs fine; rank 1 throws. The constructor must surface
  // the failure (with rank context) instead of hanging on rank 0's
  // never-arriving jobs.
  try {
    SpmdEngine engine(/*ranks=*/2, factory);
    FAIL() << "partial construction failure did not surface";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("simulated cold-start failure"), std::string::npos)
        << what;
  }
}

TEST(CheckpointColdStart, TruncatedAndCorruptFilesFailLoudly) {
  auto m = make_tree_model(6);
  const std::string path = tmp_path("serve_trunc.bin");
  train::save_module(path, *m);

  // Cut into the last parameter's float payload: load must name the size
  // mismatch instead of silently misreading.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - 17));
  out.close();
  try {
    train::load_module(path, *m);
    FAIL() << "truncated checkpoint loaded silently";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bytes"), std::string::npos) << what;
  }

  // A byte-swapped header must be diagnosed as an endianness mismatch.
  std::string swapped = bytes;
  for (int i = 0; i < 8; ++i) swapped[4 + i] = bytes[4 + 7 - i];
  std::ofstream out2(path, std::ios::binary | std::ios::trunc);
  out2.write(swapped.data(), static_cast<std::streamsize>(swapped.size()));
  out2.close();
  try {
    train::load_module(path, *m);
    FAIL() << "byte-swapped checkpoint loaded silently";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("endianness"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Server, WorkersInheritConstructorSideContextOverride) {
  // Regression for the pre-Context footgun: "a scope set on the caller
  // silently does not reach worker threads". A runtime::Scope active
  // where the Server is BUILT must be what its workers forward under —
  // observed here inside the InferenceFn on the worker thread.
  std::mutex mu;
  std::vector<tensor::KernelBackend> observed;
  auto infer = [&](const Tensor& images, const std::vector<Index>&,
                   float) {
    {
      std::lock_guard<std::mutex> lock(mu);
      observed.push_back(tensor::kernel_config().backend);
    }
    return Tensor(Shape{images.dim(0), 1, 1});
  };

  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.batcher.max_batch = 1;
  std::optional<Server> server;
  {
    // Caller-side override, gone again before any batch executes.
    runtime::Scope scope(runtime::ContextPatch::with_kernels(
        {tensor::KernelBackend::kNaive, 0}));
    server.emplace(infer, cfg);
  }
  server->start();
  constexpr int kRequests = 4;
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request r;
    r.images = sample_image(40 + static_cast<std::uint64_t>(i), 2);
    futures.push_back(server->submit(std::move(r)));
  }
  for (auto& f : futures) (void)f.get();
  server->drain();

  ASSERT_EQ(observed.size(), static_cast<std::size_t>(kRequests));
  for (tensor::KernelBackend b : observed) {
    EXPECT_EQ(b, tensor::KernelBackend::kNaive)
        << "worker forward did not observe the submitter's context";
  }
  // The override never leaked into this (caller) thread's ambient state
  // (meaningful wherever the default isn't already degraded to naive).
  if (tensor::blocked_kernels_supported()) {
    EXPECT_NE(tensor::kernel_config().backend,
              tensor::KernelBackend::kNaive);
  }
}

TEST(World, ThrowingRankFailsRunWithRankContext) {
  comm::World world(2);
  try {
    world.run([](comm::Communicator& comm) {
      if (comm.rank() == 1) DCHAG_FAIL("simulated rank failure");
      // rank 0 returns normally; no collectives, so no deadlock.
    });
    FAIL() << "exception from rank 1 did not surface";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("simulated rank failure"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dchag::serve
