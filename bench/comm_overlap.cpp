// Compute/comm overlap bench: end-to-end D-CHAG forward, sync oracle vs
// async pipeline, at 8 ranks under simulated per-edge link latency
// (FaultyWorld). The link delay is CALIBRATED to the machine: one quiet
// sync run measures per-chunk compute, and every edge then gets exactly
// that latency — the regime the paper targets, where communication and
// compute are comparable and overlap decides throughput. Emits
// BENCH_overlap.json in Google-Benchmark JSON so
// scripts/bench_compare.py --speedup can gate the ratio in CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "comm/fault.hpp"
#include "core/dchag_frontend.hpp"
#include "tensor/kernel_config.hpp"

using namespace dchag;

namespace {

constexpr int kRanks = 8;
constexpr tensor::Index kChannels = 8;
constexpr tensor::Index kBatch = 16;
constexpr int kChunks = 8;
constexpr int kReps = 3;

model::ModelConfig bench_config() {
  model::ModelConfig cfg = model::ModelConfig::tiny();
  cfg.image_h = 32;  // S = 64 with patch 4: enough tree/attention work per
  cfg.image_w = 32;  // chunk for overlap to have something to hide behind
  return cfg;
}

core::DchagOptions options() {
  return core::DchagOptions{/*tree_units=*/1, model::AggLayerKind::kLinear};
}

/// Per-mode execution context: kBlocked kernels (the P rank threads are
/// the parallelism) + the pipelined comm config under test.
runtime::Context bench_context(comm::CommMode mode) {
  return runtime::ContextBuilder()
      .kernel_backend(tensor::KernelBackend::kBlocked)
      .comm(comm::CommConfig{mode, kChunks})
      .build();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median per-forward wall ms across kReps timed forwards (after one
/// warmup), measured on rank 0 between barriers. `out` (optional)
/// receives rank 0's last forward output for bit-comparisons.
template <typename WorldT>
double measure_forward_ms(WorldT& world, comm::CommMode mode,
                          tensor::Tensor* out) {
  std::vector<double> reps;
  world.run([&](comm::Communicator& comm) {
    autograd::NoGradGuard no_grad;
    tensor::Rng master(2024);
    core::DchagFrontEnd fe(bench_config(), kChannels, comm, options(),
                           master, bench_context(mode));
    tensor::Tensor img = tensor::Rng(7).normal_tensor(
        tensor::Shape{kBatch, kChannels, 32, 32});
    tensor::Tensor local = fe.slice_local_channels(img);
    (void)fe.forward(local);  // warmup (lazy async lane, allocator)
    for (int r = 0; r < kReps; ++r) {
      comm.barrier();
      const double t0 = now_ms();
      autograd::Variable y = fe.forward(local);
      comm.barrier();
      if (comm.rank() == 0) {
        reps.push_back(now_ms() - t0);
        if (out && r == kReps - 1) *out = y.value().clone();
      }
    }
  });
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// Degraded-world forward: 6 of 8 ranks regroup as survivors (the elastic
/// recovery path in serve/spmd_engine) and serve the surviving channel
/// subset through the rebound front-end, under the same injected link
/// latency. Median per-forward wall ms on rank 0.
template <typename WorldT>
double measure_degraded_ms(WorldT& world, comm::CommMode mode) {
  constexpr int kAlive = 6;
  std::vector<double> reps;
  world.run([&](comm::Communicator& comm) {
    autograd::NoGradGuard no_grad;
    tensor::Rng master(2024);
    core::DchagFrontEnd fe(bench_config(), kChannels, comm, options(),
                           master, bench_context(mode));
    if (comm.rank() >= kAlive) return;  // the casualties
    std::vector<int> alive(kAlive);
    for (int r = 0; r < kAlive; ++r) alive[r] = r;
    comm::Communicator surv = comm.split_survivors(alive, "bench-degraded");
    fe.rebind(surv, alive);
    tensor::Tensor img = tensor::Rng(7).normal_tensor(
        tensor::Shape{kBatch, kChannels, 32, 32});
    // c_local = 1 at 8 ranks: survivors own channels [0, kAlive).
    tensor::Tensor sub = tensor::ops::slice(img, 1, 0, kAlive);
    std::vector<tensor::Index> chans(kAlive);
    for (int c = 0; c < kAlive; ++c) chans[c] = c;
    (void)fe.forward_subset(sub, chans);  // warmup
    for (int r = 0; r < kReps; ++r) {
      surv.barrier();
      const double t0 = now_ms();
      (void)fe.forward_subset(sub, chans);
      surv.barrier();
      if (comm.rank() == 0) reps.push_back(now_ms() - t0);
    }
  });
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

int main() {
  bench::header("comm_overlap",
                "async non-blocking collectives: D-CHAG forward overlap at "
                "8 ranks under simulated link latency");

  // Calibrate: quiet-world sync forward -> per-chunk compute time. Each
  // simulated edge gets that as its latency, clamped to a sane range.
  comm::World quiet(kRanks);
  const double quiet_ms = measure_forward_ms(quiet, comm::CommMode::kSync,
                                             nullptr);
  const auto edge_us = static_cast<std::uint32_t>(std::clamp(
      quiet_ms * 1000.0 / kChunks, 100.0, 20000.0));
  bench::section("calibration");
  std::printf("quiet sync forward: %.2f ms -> per-edge latency %u us\n",
              quiet_ms, edge_us);

  comm::FaultSpec spec;
  spec.seed = 1;
  spec.min_edge_delay_us = edge_us;
  spec.max_edge_delay_us = edge_us;
  comm::FaultyWorld faulty(kRanks, spec);

  tensor::Tensor sync_out, async_out;
  const double sync_ms =
      measure_forward_ms(faulty, comm::CommMode::kSync, &sync_out);
  const double async_ms =
      measure_forward_ms(faulty, comm::CommMode::kAsync, &async_out);
  const double speedup = sync_ms / async_ms;
  const double degraded_ms =
      measure_degraded_ms(faulty, comm::CommMode::kSync);
  const double degraded_tp = sync_ms / degraded_ms;

  bench::section("8-rank forward under per-edge latency");
  std::printf("%8s %14s %14s\n", "mode", "forward ms", "speedup");
  std::printf("%8s %14.2f %14s\n", "sync", sync_ms, "1.00x");
  std::printf("%8s %14.2f %13.2fx\n", "async", async_ms, speedup);
  std::printf("%8s %14.2f %13.2fx\n", "degraded", degraded_ms, degraded_tp);

  const float diff = tensor::ops::max_abs_diff(sync_out, async_out);

  std::ofstream json("BENCH_overlap.json");
  json << "{\n  \"context\": {\"bench\": \"comm_overlap\", \"ranks\": "
       << kRanks << ", \"chunks\": " << kChunks
       << ", \"edge_latency_us\": " << edge_us << "},\n"
       << "  \"benchmarks\": [\n"
       << "    {\"name\": \"BM_DchagForward/ranks:8/mode:sync\", "
          "\"run_type\": \"iteration\", \"real_time\": "
       << sync_ms << ", \"time_unit\": \"ms\"},\n"
       << "    {\"name\": \"BM_DchagForward/ranks:8/mode:async\", "
          "\"run_type\": \"iteration\", \"real_time\": "
       << async_ms << ", \"time_unit\": \"ms\"},\n"
       << "    {\"name\": \"BM_DchagForward/ranks:8/mode:degraded\", "
          "\"run_type\": \"iteration\", \"real_time\": "
       << degraded_ms << ", \"time_unit\": \"ms\"}\n"
       << "  ]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_overlap.json\n");

  bench::ShapeChecks checks;
  checks.expect(diff == 0.0f,
                "async pipelined forward is bit-identical to the sync "
                "oracle under the injected schedule");
  checks.expect(speedup >= 1.3,
                "overlap hides calibrated link latency: async >= 1.3x "
                "faster than sync at 8 ranks");
  checks.expect(async_ms < sync_ms,
                "async never loses to sync when latency ~ compute");
  checks.expect(degraded_tp >= 0.5,
                "degraded serving (6/8 survivors on surviving channels) "
                "keeps >= 0.5x healthy throughput");
  return checks.report();
}
