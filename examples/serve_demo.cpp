// Serving demo (and ctest acceptance check for the serve subsystem):
//
//   1. "Train" a hierarchical-aggregation forecast model and save a
//      checkpoint.
//   2. Cold-start a server from that checkpoint: fresh model + load, a
//      dynamic micro-batcher, and a worker pool running the tape-free
//      no-grad forward.
//   3. Fire 120 concurrent requests from 4 client threads, mixing full-
//      channel and channel-subset requests (paper §2.1's deployment
//      flexibility — subsets route through the aggregation tree's
//      partial-channel path).
//   4. Verify every response is bit-for-bit identical to the direct
//      no-grad forward on the source model, and that the batcher actually
//      coalesced (mean batch size > 1).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/serve_demo
#include <cstdio>
#include <thread>

#include "serve/server.hpp"
#include "train/checkpoint.hpp"

using namespace dchag;

namespace {

constexpr tensor::Index kChannels = 6;

std::unique_ptr<model::ForecastModel> make_model(std::uint64_t seed) {
  model::ModelConfig cfg = model::ModelConfig::tiny();
  tensor::Rng rng(seed);
  auto agg = model::AggregationTree::with_units(
      cfg, model::AggLayerKind::kCrossAttention, kChannels, /*units=*/2,
      rng);
  auto fe = std::make_unique<model::LocalFrontEnd>(cfg, kChannels,
                                                   std::move(agg), rng);
  return std::make_unique<model::ForecastModel>(cfg, std::move(fe),
                                                kChannels, rng);
}

}  // namespace

int main() {
  // ----- 1. checkpoint from the "training" side -------------------------------
  auto trained = make_model(7);
  const std::string ckpt = "serve_demo_checkpoint.bin";
  train::save_module(ckpt, *trained);
  std::printf("saved checkpoint: %lld parameters -> %s\n",
              static_cast<long long>(trained->num_parameters()),
              ckpt.c_str());

  // ----- 2. cold start the server from the checkpoint -------------------------
  auto servable = make_model(12345);  // different seed: load must matter
  train::load_module(ckpt, *servable);
  serve::Engine engine(*servable);
  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait = std::chrono::microseconds(3000);
  // Execution config in one place: both workers inherit this context
  // (kernel backend, comm mode, tracing — see ARCHITECTURE §9).
  const runtime::Context ctx = runtime::Context::from_env();
  serve::Server server(engine.inference_fn(), cfg, ctx);

  // ----- 3. 120 concurrent mixed-channel-subset requests ----------------------
  const std::vector<std::vector<tensor::Index>> subsets{
      {},            // all channels
      {0, 1, 2, 3, 4, 5},
      {0, 2, 5},     // spans both first-level tree groups
      {1},           // single channel
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::vector<serve::Request> requests(kClients * kPerClient);
  std::vector<serve::ResponseFuture> futures(kClients * kPerClient);
  {
    std::vector<std::thread> clients;
    for (int cl = 0; cl < kClients; ++cl) {
      clients.emplace_back([&, cl] {
        for (int i = 0; i < kPerClient; ++i) {
          const int id = cl * kPerClient + i;
          const auto& subset = subsets[static_cast<std::size_t>(id) % 4];
          const tensor::Index c =
              subset.empty() ? kChannels
                             : static_cast<tensor::Index>(subset.size());
          tensor::Rng rng(1000 + static_cast<std::uint64_t>(id));
          serve::Request r;
          r.images = rng.normal_tensor({c, 16, 16});
          r.channels = subset;
          requests[static_cast<std::size_t>(id)] = r;
          futures[static_cast<std::size_t>(id)] =
              server.submit(std::move(r));
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  std::printf("submitted %d concurrent requests (4 subset shapes), queue "
              "depth %zu\n",
              kClients * kPerClient, server.queue_depth());
  server.start();

  // ----- 4. verify: bit-for-bit parity + real coalescing ----------------------
  autograd::NoGradGuard no_grad;
  namespace ops = tensor::ops;
  int mismatches = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Response resp = futures[i].get();
    const auto& s = requests[i].images.shape();
    tensor::Tensor batch1 = requests[i].images.reshape(
        {1, s.dim(0), s.dim(1), s.dim(2)});
    tensor::Tensor direct =
        requests[i].channels.empty()
            ? trained->predict(batch1).value()
            : trained->predict_subset(batch1, requests[i].channels).value();
    tensor::Tensor row =
        direct.reshape({direct.dim(1), direct.dim(2)});
    if (ops::max_abs_diff(resp.pred, row) != 0.0f) ++mismatches;
  }
  server.drain();
  const serve::Metrics::Snapshot m = server.metrics().summary();
  std::printf("served == direct no-grad forward bit-for-bit: %s "
              "(%d/%zu mismatches)\n",
              mismatches == 0 ? "yes" : "NO", mismatches, futures.size());
  std::printf("/metrics:\n%s", m.to_exposition().c_str());

  const bool coalesced = m.mean_batch_size > 1.0;
  std::printf("batched coalescing (mean batch > 1): %s\n",
              coalesced ? "yes" : "NO");
  std::remove(ckpt.c_str());
  const bool ok = mismatches == 0 && coalesced &&
                  m.requests == futures.size() && m.failed == 0;
  std::printf("\nserve_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
