// dchag_train: hybrid D-CHAG masked-autoencoder training. 4 rank threads
// form 2 D-CHAG groups x 2 data-parallel replicas (the layout of
// examples/hyperspectral_mae.cpp and the paper's hybrid configurations),
// training the dchag_serve model on 128-band synthetic hyperspectral
// scenes, batch 4 per replica.
//
// Training runs in epochs of kEpochSteps seeded steps, each from a freshly
// built model: epoch 0 is the reference, and every later epoch must end on
// the same loss and with bit-identical DP replicas. Epochs repeat until
// the run's seconds are spent. Each step is composed from public calls:
// MaeModel::forward, loss.backward(), parallel::all_reduce_gradients over
// the DP group, Adam::step. Every rank times its own thread's CPU per
// step; the gated figures are their sum per sample and the busiest rank's.
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "data/hyperspectral.hpp"
#include "dchag_model.hpp"
#include "parallel/data_parallel.hpp"
#include "train/optim.hpp"

namespace perfbench {

using dchag::tensor::Index;
using dchag::tensor::Tensor;

namespace {

constexpr int kRanks = 4;
constexpr int kGroupSize = 2;  ///< ranks per D-CHAG group
constexpr int kReplicas = kRanks / kGroupSize;
constexpr Index kBatch = 4;  ///< per replica
constexpr int kEpochSteps = 6;
constexpr float kMaskRatio = 0.75f;
/// Loss agreement with the reference epoch, relative.
constexpr double kLossRtol = 1e-6;

struct StepTimes {
  double forward = 0, backward = 0, allreduce = 0, optim = 0;
};

struct RankLog {
  std::vector<StepTimes> steps;  ///< timed steps only (traced pass)
  std::vector<double> step_cpu_ms;  ///< this rank's CPU per timed step
  std::vector<double> setup_cpu_ms;  ///< build to end of step 0, per epoch
  std::vector<float> epoch_loss;  ///< last-step loss of every epoch
  std::vector<bool> epoch_in_sync;
};

struct PassStats {
  std::vector<double> step_ms;   ///< rank 0 wall time of timed steps
  std::vector<double> setup_wall_s;  ///< build to end of step 0, per epoch
  std::vector<RankLog> ranks;
  int epochs = 0;
  double param_bytes = 0.0;
};

PassStats train_pass(const Options& opt, bool traced,
                     const dchag::runtime::Context& ctx,
                     const std::vector<std::vector<Tensor>>& replica_batches,
                     const std::vector<Tensor>& masks) {
  const dchag::model::ModelConfig cfg = dchag_model_config();
  const dchag::core::DchagOptions dopts = dchag_options();
  const std::uint64_t model_seed = opt.seed * 6151 + 29;
  PassStats st;
  st.ranks.resize(kRanks);

  dchag::comm::World world(kRanks);
  world.run([&](dchag::comm::Communicator& comm) {
    dchag::runtime::Scope scope(ctx);
    dchag::comm::Communicator dchag_group = comm.split(comm.rank() / kGroupSize);
    dchag::comm::Communicator dp_group = comm.split(comm.rank() % kGroupSize);
    const auto replica = static_cast<std::size_t>(comm.rank() / kGroupSize);
    RankLog& log = st.ranks[static_cast<std::size_t>(comm.rank())];
    const bool leader = comm.rank() == 0;
    Clock::time_point timed_start{};

    for (int epoch = 0;; ++epoch) {
      // Rank 0 decides whether another epoch fits; everyone follows.
      float go = 1.0f;
      if (leader && epoch >= 2 &&
          ms_since(timed_start) >= opt.seconds * 1e3)
        go = 0.0f;
      comm.broadcast(std::span<float>(&go, 1), 0);
      if (go == 0.0f) break;
      if (epoch == 1) timed_start = Clock::now();

      const auto t_build = Clock::now();
      const double cpu_build = thread_cpu_ms();
      dchag::tensor::Rng rng(model_seed);
      auto mae = dchag::core::make_dchag_mae(cfg, kDchagChannels, dchag_group,
                                             dopts, rng, ctx);
      const std::vector<dchag::autograd::Variable> params =
          mae->parameters();
      dchag::train::Adam adam(params, {.lr = 1e-3f});
      if (leader && epoch == 0) {
        for (const auto& p : params)
          if (p.requires_grad())
            st.param_bytes += static_cast<double>(p.shape().numel()) *
                              sizeof(float);
      }

      float loss = 0.0f;
      for (int step = 0; step < kEpochSteps; ++step) {
        const Tensor& full =
            replica_batches[replica][static_cast<std::size_t>(step)];
        const auto t0 = Clock::now();
        const double cpu0 = thread_cpu_ms();
        adam.zero_grad();
        auto out = mae->forward(mae->frontend().select_input(full), full,
                                masks[static_cast<std::size_t>(step)]);
        const auto t1 = traced ? Clock::now() : t0;
        out.loss.backward();
        const auto t2 = traced ? Clock::now() : t0;
        dchag::parallel::all_reduce_gradients(params, dp_group);
        const auto t3 = traced ? Clock::now() : t0;
        adam.step();
        const auto t4 = Clock::now();
        const double cpu = thread_cpu_ms() - cpu0;
        loss = out.loss.value().item();
        if (step == 0) {
          log.setup_cpu_ms.push_back(thread_cpu_ms() - cpu_build);
          if (leader) st.setup_wall_s.push_back(ms_between(t_build, t4) / 1e3);
        } else if (epoch >= 1) {
          if (leader) st.step_ms.push_back(ms_between(t0, t4));
          log.step_cpu_ms.push_back(cpu);
          if (traced)
            log.steps.push_back({ms_between(t0, t1), ms_between(t1, t2),
                                 ms_between(t2, t3), ms_between(t3, t4)});
        }
      }
      log.epoch_loss.push_back(loss);
      log.epoch_in_sync.push_back(
          dchag::parallel::parameters_in_sync(params, dp_group));
      if (leader) st.epochs = epoch + 1;
    }
  });
  return st;
}

}  // namespace

Result run_dchag_train(const Options& opt) {
  const auto ctx = pinned_context(dchag::runtime::KernelBackend::kBlocked);
  const dchag::model::ModelConfig cfg = dchag_model_config();

  // Seeded data: per-replica scene streams (DP replicas see different
  // scenes) and one shared mask per step.
  dchag::data::HyperspectralConfig hc;
  hc.channels = kDchagChannels;
  hc.height = cfg.image_h;
  hc.width = cfg.image_w;
  std::vector<std::vector<Tensor>> replica_batches(kReplicas);
  for (int r = 0; r < kReplicas; ++r) {
    dchag::data::HyperspectralGenerator gen(
        hc, opt.seed * 1000 + static_cast<std::uint64_t>(r));
    for (int s = 0; s < kEpochSteps; ++s)
      replica_batches[static_cast<std::size_t>(r)].push_back(
          gen.sample_batch(kBatch));
  }
  std::vector<Tensor> masks;
  for (int s = 0; s < kEpochSteps; ++s) {
    dchag::tensor::Rng mask_rng(opt.seed * 7001 + static_cast<std::uint64_t>(s));
    masks.push_back(dchag::model::MaeModel::make_mask(kBatch, cfg.seq_len(),
                                                      kMaskRatio, mask_rng));
  }

  PassStats pass = train_pass(opt, /*traced=*/false, ctx, replica_batches,
                              masks);
  const double samples_per_step = static_cast<double>(kBatch * kReplicas);
  auto samples_per_s = [&](const PassStats& p) {
    double total_ms = 0.0;
    for (double ms : p.step_ms) total_ms += ms;
    return total_ms > 0 ? samples_per_step *
                              static_cast<double>(p.step_ms.size()) /
                              (total_ms / 1e3)
                        : 0.0;
  };
  // The gated figures, from every rank's CPU per step: the sum over ranks
  // per sample, and the busiest rank's. Medians over the timed steps.
  struct CpuFigures {
    double ms_per_answer = 0.0;
    double capacity_rps = 0.0;
    double setup_s = 0.0;
  };
  auto cpu_figures = [&](const PassStats& p) {
    std::vector<double> per_answer, busiest, setup;
    for (std::size_t i = 0; i < p.ranks.front().step_cpu_ms.size(); ++i) {
      double sum = 0.0, hi = 0.0;
      for (const RankLog& log : p.ranks) {
        sum += log.step_cpu_ms[i];
        hi = std::max(hi, log.step_cpu_ms[i]);
      }
      per_answer.push_back(sum / samples_per_step);
      busiest.push_back(hi);
    }
    for (std::size_t e = 0; e < p.ranks.front().setup_cpu_ms.size(); ++e) {
      double sum = 0.0;
      for (const RankLog& log : p.ranks) sum += log.setup_cpu_ms[e];
      setup.push_back(sum / 1e3);
    }
    const double hi = median(busiest);
    return CpuFigures{median(per_answer),
                      hi > 0 ? samples_per_step / (hi / 1e3) : 0.0,
                      median(setup)};
  };
  Result r;
  // Every epoch of every pass must reproduce the first pass's reference
  // epoch loss on every rank, and end with identical parameters on both
  // DP replicas; a failing epoch fails all of its steps.
  std::vector<double> ref_loss;
  for (const RankLog& log : pass.ranks)
    ref_loss.push_back(log.epoch_loss.front());
  auto check = [&](const PassStats& p) {
    std::uint64_t bad_epochs = 0;
    for (int e = 0; e < p.epochs; ++e) {
      bool ok = true;
      for (int rank = 0; rank < kRanks; ++rank) {
        const RankLog& log = p.ranks[static_cast<std::size_t>(rank)];
        const double ref = ref_loss[static_cast<std::size_t>(rank)];
        const double got = log.epoch_loss[static_cast<std::size_t>(e)];
        if (!std::isfinite(got) ||
            std::fabs(got - ref) > kLossRtol * std::max(1.0, std::fabs(ref)) ||
            !log.epoch_in_sync[static_cast<std::size_t>(e)])
          ok = false;
      }
      if (!ok) ++bad_epochs;
    }
    r.attempted += static_cast<std::uint64_t>(p.epochs) * kEpochSteps;
    r.failed += bad_epochs * kEpochSteps;
  };
  check(pass);
  double untraced_cpu_ms = 0.0;
  if (opt.trace) {
    untraced_cpu_ms = cpu_figures(pass).ms_per_answer;
    PassStats traced =
        train_pass(opt, /*traced=*/true, ctx, replica_batches, masks);
    check(traced);
    pass = std::move(traced);
  }
  if (r.failed > 0) {
    r.correct = false;
    r.findings.push_back(std::to_string(r.failed / kEpochSteps) +
                         " epochs diverged from the reference loss or left "
                         "the DP replicas out of sync");
  }

  const CpuFigures cpu = cpu_figures(pass);
  r.end_to_end = {
      {"setup_s", cpu.setup_s, "s"},
      {"cpu_ms_per_answer", cpu.ms_per_answer, "ms"},
      {"capacity_rps", cpu.capacity_rps, "1/s"},
      {"peak_rss_mb", peak_rss_mb_self(), "MB"},
  };
  r.info = {
      {"train_samples_per_s", samples_per_s(pass), "1/s"},
      {"latency_p50_ms", percentile(pass.step_ms, 0.50), "ms"},
      {"latency_p99_ms", percentile(pass.step_ms, 0.99), "ms"},
      {"setup_wall_s", median(pass.setup_wall_s), "s"},
      {"step_samples", static_cast<double>(pass.step_ms.size()), "count"},
      {"epochs", static_cast<double>(pass.epochs), "count"},
      {"reference_loss",
       ref_loss.front(), "loss"},
      {"failed_share",
       r.attempted ? static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted)
                   : 0.0,
       "share"},
  };

  if (opt.trace) {
    std::vector<double> fwd, bwd, ar, optim, skew;
    const std::size_t n = pass.ranks.front().steps.size();
    for (std::size_t s = 0; s < n; ++s) {
      double lo = 1e300, hi = 0.0;
      for (const RankLog& log : pass.ranks) {
        const StepTimes& t = log.steps[s];
        fwd.push_back(t.forward);
        bwd.push_back(t.backward);
        ar.push_back(t.allreduce);
        optim.push_back(t.optim);
        lo = std::min(lo, t.forward + t.backward);
        hi = std::max(hi, t.forward + t.backward);
      }
      skew.push_back(hi - lo);
    }
    r.per_layer = {
        {"train.forward_ms", median(fwd), "ms"},
        {"train.backward_ms", median(bwd), "ms"},
        {"train.allreduce_ms", median(ar), "ms"},
        {"train.optim_ms", median(optim), "ms"},
        {"train.rank_skew_ms", median(skew), "ms"},
        {"comm.allreduce_bytes", pass.param_bytes, "bytes"},
        {"bench.trace_overhead_share",
         untraced_cpu_ms > 0 ? cpu.ms_per_answer / untraced_cpu_ms - 1.0
                             : 0.0,
         "share"},
    };
    r.not_applicable = {"ingress.", "serve.", "spmd.", "model.",
                        "comm.gather_", "tensor.", "bench.gen_late_p99_ms"};
  }
  return r;
}

}  // namespace perfbench
