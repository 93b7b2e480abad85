// Ingress tier overhead bench: end-to-end requests/s through the full
// network path (TCP -> dispatcher -> shm ring -> worker process) versus
// the zero-overhead in-process serve::Engine bound on the same model and
// checkpoint. Emits BENCH_ingress.json in Google-Benchmark JSON shape so
// scripts/bench_compare.py can gate the ratio scale-free in CI (one
// command line):
//
//   scripts/bench_compare.py --fresh BENCH_ingress.json
//       --speedup BM_ServeInProcess BM_ServeIngress 0.7
//
// (ratio = inproc_time / ingress_time = ingress_thpt / inproc_thpt.)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress/worker.hpp"
#include "serve/engine.hpp"
#include "tensor/rng.hpp"
#include "train/checkpoint.hpp"

using namespace dchag;

namespace {

constexpr tensor::Index kChannels = 6;
constexpr tensor::Index kImage = 16;
constexpr int kRequests = 256;
constexpr int kClients = 4;
constexpr int kWorkers = 2;

ingress::ModelSpec spec() {
  ingress::ModelSpec s;
  s.preset = "tiny";
  s.channels = kChannels;
  s.units = 2;
  return s;
}

tensor::Tensor sample(std::uint64_t seed) {
  tensor::Rng rng(seed);
  return rng.normal_tensor({kChannels, kImage, kImage});
}

/// ns per request of a plain single-thread Engine::run loop — the
/// in-process bound the ingress tier is measured against.
double run_in_process(serve::Engine& engine) {
  // Warm-up outside the timed window.
  (void)engine.run(sample(1).reshape({1, kChannels, kImage, kImage}), {},
                   1.0f);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    const tensor::Tensor image = sample(100 + static_cast<std::uint64_t>(i));
    (void)engine.run(image.reshape({1, kChannels, kImage, kImage}), {},
                     1.0f);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         kRequests;
}

/// ns per request of the full network path: kClients concurrent
/// connections against a kWorkers-process pool.
double run_ingress(const std::string& checkpoint) {
  ingress::IngressConfig cfg;
  cfg.min_workers = kWorkers;
  cfg.max_workers = kWorkers;
  cfg.queue_capacity = 512;
  cfg.checkpoint = checkpoint;
  cfg.model = spec();
  ingress::Ingress ing(cfg);

  // Warm-up: one request per client-to-be so every worker has faulted in
  // its pages before the timed window.
  {
    ingress::Client warm(ing.port());
    for (int i = 0; i < 2 * kWorkers; ++i) (void)warm.infer(sample(2));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ingress::Client client(ing.port());
      for (int i = 0; i < kRequests / kClients; ++i) {
        const std::uint64_t seed =
            1000 + static_cast<std::uint64_t>(c * kRequests + i);
        (void)client.infer(sample(seed));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_req =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kRequests;
  ing.drain();
  return ns_per_req;
}

void emit_row(std::ofstream& json, const char* name, double ns,
              bool trailing_comma) {
  json << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\","
       << " \"iterations\": " << kRequests << ", \"real_time\": " << ns
       << ", \"cpu_time\": " << ns << ", \"time_unit\": \"ns\","
       << " \"requests_per_second\": " << 1e9 / ns << "}"
       << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

int main() {
  bench::header("ingress_throughput",
                "network ingress tier vs in-process serving bound");

  // One trained model; the workers cold-start from its checkpoint, the
  // in-process engine serves it directly — identical math on both paths.
  auto model = ingress::build_model(spec(), /*seed=*/11);
  serve::Engine engine(*model);
  const char* tmp = std::getenv("TMPDIR");
  const std::string checkpoint =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/bench_ingress_ckpt.bin";
  train::save_module(checkpoint, *model);

  bench::section("requests/s (tiny model, 16x16 images, 256 requests)");
  const double inproc_ns = run_in_process(engine);
  std::printf("%-18s %12.1f req/s  %10.3f ms/req\n", "in-process",
              1e9 / inproc_ns, inproc_ns / 1e6);
  const double ingress_ns = run_ingress(checkpoint);
  std::printf("%-18s %12.1f req/s  %10.3f ms/req  (%d workers, %d clients)\n",
              "ingress", 1e9 / ingress_ns, ingress_ns / 1e6, kWorkers,
              kClients);
  const double ratio = inproc_ns / ingress_ns;
  std::printf("%-18s %12.2fx of in-process throughput\n", "ingress tier",
              ratio);

  std::ofstream json("BENCH_ingress.json");
  json << "{\n  \"context\": {\"bench\": \"ingress_throughput\","
       << " \"model\": \"tiny, " << kChannels << " channels, " << kImage
       << "x" << kImage << "\", \"requests\": " << kRequests
       << ", \"workers\": " << kWorkers << ", \"clients\": " << kClients
       << "},\n  \"benchmarks\": [\n";
  emit_row(json, "BM_ServeInProcess", inproc_ns, true);
  emit_row(json, "BM_ServeIngress", ingress_ns, false);
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_ingress.json\n");
  std::remove(checkpoint.c_str());

  bench::ShapeChecks checks;
  checks.expect(inproc_ns > 0 && ingress_ns > 0, "both paths measured");
  checks.expect(ratio >= 0.7,
                "ingress tier sustains >= 0.7x of in-process throughput");
  return checks.report();
}
