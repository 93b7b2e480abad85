// dchag_serve: closed-loop in-process serving of a many-channel D-CHAG
// forecast model. One client thread keeps kOutstanding requests in flight
// on a serve::Server (1 worker, max_batch 8, max_wait 2 ms) whose
// InferenceFn is an SpmdEngine of 4 rank threads. 3/4 of the requests
// carry all 128 channels; 1/4 carry every 4th band, so each rank keeps
// work on the subset path too. The gated figures are the CPU of every
// thread but the client's over the measurement window, per correct answer
// and on the busiest thread.
//
// The traced run adds, after the same load, a direct SpmdEngine::run probe
// at batch 8 and a replay of the model's layers at the workload's exact
// shapes inside a 4-rank comm::World (see layer_replay.cpp).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "common.hpp"
#include "dchag_model.hpp"
#include "layer_replay.hpp"
#include "serve/server.hpp"
#include "serve/spmd_engine.hpp"

namespace perfbench {

using dchag::tensor::Index;
using dchag::tensor::Tensor;
namespace serve = dchag::serve;

namespace {

constexpr int kRanks = 4;
constexpr Index kMaxBatch = 8;
constexpr int kOutstanding = 32;
/// A request answered later than this misses the goodput count.
constexpr double kLatencyLimitMs = 2000.0;
constexpr int kSetupReps = 25;
constexpr int kFullTemplates = 12;
constexpr int kSubsetTemplates = 4;
/// Completions discarded before the measurement window opens (lets the
/// rank arenas warm up for every batch size the batcher produces).
constexpr int kWarmupCompletions = 96;
constexpr int kRunProbeReps = 15;
/// Tolerance of a served answer against the batch-1 reference from the
/// same engine: batching changes no per-sample arithmetic, so answers are
/// expected bit-identical; the tolerance only absorbs a reordered GEMM
/// edge tile, never a wrong answer.
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-5f;

struct Template {
  Tensor image;  ///< [C_sub, H, W]
  std::vector<Index> channels;
  Tensor expected;  ///< [S, C * p^2] batch-1 answer
};

bool close_enough(const float* got, const float* want, Index n,
                  bool* bit_exact) {
  *bit_exact = std::memcmp(got, want, static_cast<std::size_t>(n) *
                                          sizeof(float)) == 0;
  if (*bit_exact) return true;
  for (Index i = 0; i < n; ++i) {
    if (!(std::fabs(got[i] - want[i]) <= kAtol + kRtol * std::fabs(want[i])))
      return false;
  }
  return true;
}

std::vector<Index> strided_subset() {
  std::vector<Index> ch;
  for (Index c = 0; c < kDchagChannels; c += 4) ch.push_back(c);
  return ch;
}

/// Stacks samples [C, H, W] into one batch [B, C, H, W].
Tensor stack(const std::vector<const Tensor*>& samples) {
  const auto& s = samples.front()->shape();
  Tensor out(dchag::tensor::Shape{static_cast<Index>(samples.size()),
                                  s.dim(0), s.dim(1), s.dim(2)});
  const Index n = samples.front()->numel();
  for (std::size_t i = 0; i < samples.size(); ++i)
    std::memcpy(out.data() + static_cast<Index>(i) * n, samples[i]->data(),
                static_cast<std::size_t>(n) * sizeof(float));
  return out;
}

struct LoadStats {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> forward_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t good = 0;  ///< correct and within the latency limit
  std::uint64_t bit_exact = 0;
  /// Correct answers between the two CPU snapshots.
  std::uint64_t correct = 0;
  double window_s = 0.0;
  double batch_mean = 0.0;
  /// CPU of every thread but the client's over the window.
  CpuUse cpu;
};

/// Closed loop: keeps kOutstanding requests in flight, measures the
/// completions of a `seconds`-long window after warm-up, then drains.
LoadStats closed_loop(serve::Server& server,
                      const std::vector<Template>& templates,
                      std::uint64_t seed, double seconds) {
  dchag::tensor::Rng mix(seed ^ 0x5E17EULL);
  struct InFlight {
    serve::ResponseFuture future;
    int tmpl;
    Clock::time_point submitted;
  };
  std::deque<InFlight> inflight;
  auto submit_one = [&] {
    const bool full = mix.uniform() < 0.75f;
    const int idx =
        full ? static_cast<int>(mix.uniform_int(0, kFullTemplates - 1))
             : kFullTemplates + static_cast<int>(
                                    mix.uniform_int(0, kSubsetTemplates - 1));
    const Template& t = templates[static_cast<std::size_t>(idx)];
    serve::Request req;
    req.images = t.image;
    req.channels = t.channels;
    const auto now = Clock::now();
    inflight.push_back({server.submit(std::move(req)), idx, now});
  };

  LoadStats st;
  int warm = 0;
  bool window_open = false;
  bool submitting = true;
  Clock::time_point window_start{};
  Clock::time_point window_end{};
  for (int i = 0; i < kOutstanding; ++i) submit_one();

  serve::Metrics::Snapshot at_open{};
  ThreadCpu cpu_at_open;
  while (!inflight.empty()) {
    // Complete whichever request is ready (lanes finish out of order);
    // block briefly on the oldest when none is.
    auto it = inflight.begin();
    for (; it != inflight.end(); ++it) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready)
        break;
    }
    if (it == inflight.end()) {
      inflight.front().future.wait_for(std::chrono::milliseconds(1));
      continue;
    }
    InFlight done = std::move(*it);
    inflight.erase(it);
    const auto now = Clock::now();
    const double latency = ms_between(done.submitted, now);
    const bool in_window =
        window_open && now >= window_start && now <= window_end;
    bool ok = false;
    bool exact = false;
    serve::Response resp;
    try {
      resp = done.future.get();
      const Template& t = templates[static_cast<std::size_t>(done.tmpl)];
      ok = resp.pred.numel() == t.expected.numel() &&
           close_enough(resp.pred.data(), t.expected.data(),
                        t.expected.numel(), &exact);
    } catch (const std::exception&) {
      ok = false;
    }
    // Every answer is checked, warm-up and drain included.
    ++st.attempted;
    if (!ok) ++st.failed;
    if (exact) ++st.bit_exact;
    if (in_window) {
      const bool good = ok && latency <= kLatencyLimitMs;
      st.latency_ms.push_back(latency);
      st.queue_ms.push_back(resp.queue_ms);
      st.forward_ms.push_back(resp.forward_ms);
      if (good) ++st.good;
    }
    // The answer that closes the window is charged below, so it counts.
    if (ok && window_open && submitting) ++st.correct;

    if (!window_open && ++warm >= kWarmupCompletions) {
      window_open = true;
      window_start = Clock::now();
      window_end = window_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
      at_open = server.metrics().summary();
      cpu_at_open = thread_cpu_snapshot();
    }
    if (submitting && window_open && Clock::now() >= window_end) {
      submitting = false;
      st.cpu = cpu_between(cpu_at_open, thread_cpu_snapshot(),
                           {current_tid()});
    }
    if (submitting) submit_one();
  }
  const auto at_close = server.metrics().summary();
  st.window_s = seconds;
  const double batches =
      static_cast<double>(at_close.batches - at_open.batches);
  const double reqs =
      at_close.mean_batch_size * static_cast<double>(at_close.batches) -
      at_open.mean_batch_size * static_cast<double>(at_open.batches);
  st.batch_mean = batches > 0 ? reqs / batches : 0.0;
  return st;
}

}  // namespace

Result run_dchag_serve(const Options& opt) {
  const auto ctx = pinned_context(dchag::runtime::KernelBackend::kBlocked);
  const dchag::model::ModelConfig cfg = dchag_model_config();
  const dchag::core::DchagOptions dopts = dchag_options();
  const std::uint64_t model_seed = opt.seed * 7919 + 17;
  serve::SpmdEngine::RankModelFactory factory =
      [cfg, dopts, model_seed, ctx](dchag::comm::Communicator& comm) {
        dchag::tensor::Rng rng(model_seed);
        return dchag::core::make_dchag_forecast(cfg, kDchagChannels, comm,
                                                dopts, rng, ctx);
      };

  // Request templates from the seed: full-channel samples, then samples
  // of the strided subset.
  dchag::tensor::Rng data(opt.seed * 104729 + 3);
  std::vector<Template> templates;
  for (int i = 0; i < kFullTemplates; ++i)
    templates.push_back({data.normal_tensor({kDchagChannels, cfg.image_h,
                                             cfg.image_w}),
                         {},
                         {}});
  const std::vector<Index> subset = strided_subset();
  for (int i = 0; i < kSubsetTemplates; ++i)
    templates.push_back(
        {data.normal_tensor({static_cast<Index>(subset.size()), cfg.image_h,
                             cfg.image_w}),
         subset,
         {}});
  auto batch1 = [&](const Template& t) {
    const auto& s = t.image.shape();
    return t.image.reshape({1, s.dim(0), s.dim(1), s.dim(2)});
  };

  Result r;
  // Set-up: SpmdEngine cold start (4 rank models + freeze) to the first
  // answer, repeated; every cold start must answer identically. Each is
  // charged the CPU of every thread, and timed on the wall.
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<serve::SpmdEngine> engine;
  Tensor first_answer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    engine = std::make_unique<serve::SpmdEngine>(kRanks, factory,
                                                 serve::SpmdEngineConfig{},
                                                 ctx);
    Tensor out = engine->run(batch1(templates[0]), {}, 1.0f);
    setup_s.push_back(process_cpu_s() - cpu0);
    setup_wall_s.push_back(ms_since(t0) / 1e3);
    if (rep == 0) {
      first_answer = out;
    } else if (std::memcmp(out.data(), first_answer.data(),
                           static_cast<std::size_t>(out.numel()) *
                               sizeof(float)) != 0) {
      r.correct = false;
      r.findings.push_back("cold start " + std::to_string(rep) +
                           " answered differently from cold start 0");
    }
  }

  // Batch-1 references from the same engine.
  for (Template& t : templates) {
    Tensor out = engine->run(batch1(t), t.channels, 1.0f);
    t.expected = out.reshape({out.dim(1), out.dim(2)});
  }

  // Warm every batch size the batcher can form, on both lanes, before
  // any load: the rank arenas pool buffers per size, so the footprint
  // (peak_rss_mb) would otherwise depend on which sizes a run happened to
  // form.
  for (Index b = 1; b <= kMaxBatch; ++b) {
    std::vector<const Tensor*> full, sub;
    for (Index i = 0; i < b; ++i) {
      full.push_back(&templates[static_cast<std::size_t>(i % kFullTemplates)]
                          .image);
      sub.push_back(&templates[static_cast<std::size_t>(
                                   kFullTemplates + i % kSubsetTemplates)]
                         .image);
    }
    (void)engine->run(stack(full), {}, 1.0f);
    (void)engine->run(stack(sub), subset, 1.0f);
  }

  serve::ServerConfig scfg;
  scfg.num_workers = 1;
  scfg.batcher.max_batch = kMaxBatch;
  scfg.batcher.max_wait = std::chrono::microseconds(2000);

  auto run_load = [&] {
    serve::Server server(engine->inference_fn(), scfg, ctx);
    server.start();
    LoadStats st = closed_loop(server, templates, opt.seed, opt.seconds);
    server.drain();
    return st;
  };

  LoadStats load = run_load();
  r.attempted = load.attempted;
  r.failed = load.failed;
  auto cpu_ms_per_answer = [](const LoadStats& st) {
    return st.correct ? st.cpu.total_s * 1e3 / static_cast<double>(st.correct)
                      : 0.0;
  };
  double untraced_cpu_ms = 0.0;
  if (opt.trace) {
    // The traced pass repeats the identical load; its difference from the
    // pass above is the tracing overhead.
    untraced_cpu_ms = cpu_ms_per_answer(load);
    load = run_load();
    r.attempted += load.attempted;
    r.failed += load.failed;
  }

  if (r.failed > 0) {
    r.correct = false;
    r.findings.push_back(std::to_string(r.failed) +
                         " served answers failed or differed from the "
                         "batch-1 reference");
  }
  const double cpu_ms = cpu_ms_per_answer(load);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"cpu_ms_per_answer", cpu_ms, "ms"},
      {"capacity_rps",
       load.cpu.busiest_s > 0
           ? static_cast<double>(load.correct) / load.cpu.busiest_s
           : 0.0,
       "1/s"},
      {"peak_rss_mb", peak_rss_mb_self(), "MB"},
  };
  r.info = {
      {"latency_p50_ms", percentile(load.latency_ms, 0.50), "ms"},
      {"latency_p99_ms", percentile(load.latency_ms, 0.99), "ms"},
      {"goodput_rps", static_cast<double>(load.good) / load.window_s,
       "1/s"},
      {"setup_wall_s", median(setup_wall_s), "s"},
      {"latency_samples", static_cast<double>(load.latency_ms.size()),
       "count"},
      {"latency_limit_ms", kLatencyLimitMs, "ms"},
      {"failed_share",
       r.attempted ? static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted)
                   : 0.0,
       "share"},
      {"bit_exact_share",
       load.attempted ? static_cast<double>(load.bit_exact) /
                            static_cast<double>(load.attempted)
                      : 0.0,
       "share"},
      {"setup_reps", static_cast<double>(setup_s.size()), "count"},
  };

  if (opt.trace) {
    // Direct SpmdEngine::run at batch 8, all channels.
    std::vector<const Tensor*> eight;
    for (Index i = 0; i < kMaxBatch; ++i)
      eight.push_back(&templates[static_cast<std::size_t>(i % kFullTemplates)]
                           .image);
    const Tensor batch = stack(eight);
    std::vector<double> run_ms;
    for (int rep = 0; rep < kRunProbeReps + 2; ++rep) {
      const auto t0 = Clock::now();
      Tensor out = engine->run(batch, {}, 1.0f);
      const double ms = ms_since(t0);
      if (rep >= 2) run_ms.push_back(ms);
      const Index per = out.numel() / kMaxBatch;
      for (Index i = 0; i < kMaxBatch; ++i) {
        bool exact = false;
        const Template& t =
            templates[static_cast<std::size_t>(i % kFullTemplates)];
        if (!close_enough(out.data() + i * per, t.expected.data(), per,
                          &exact)) {
          r.correct = false;
          r.findings.push_back("direct batch-8 SpmdEngine::run answer " +
                               std::to_string(i) +
                               " differs from the batch-1 reference");
        }
      }
    }
    engine.reset();
    const double spmd_run_ms = median(run_ms);

    const LayerReplay rep =
        replay_dchag_layers(cfg, dopts, kDchagChannels, kRanks, model_seed,
                            ctx, batch);
    const double replay_sum = rep.tokenizer_ms + rep.tree_ms +
                              rep.gather_ms + rep.final_agg_ms +
                              rep.vit_attn_ms + rep.vit_mlp_ms + rep.head_ms;
    const double coverage = replay_sum / spmd_run_ms;
    if (std::fabs(coverage - 1.0) > 0.10) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "replayed layers sum to %.1f ms against spmd.run_ms "
                    "%.1f ms (coverage %.3f, outside 1 +/- 0.10)",
                    replay_sum, spmd_run_ms, coverage);
      r.findings.push_back(buf);
    }
    if (rep.steady_allocs != 0) {
      r.findings.push_back("planned SPMD forward allocated " +
                           std::to_string(rep.steady_allocs) +
                           " buffers in steady state (contract: 0)");
    }
    const double batch_mean = load.batch_mean;
    r.per_layer = {
        {"serve.queue_wait_ms", median(load.queue_ms), "ms"},
        {"serve.forward_ms", median(load.forward_ms), "ms"},
        {"serve.batch_mean", batch_mean, "count"},
        {"serve.batch_fill", batch_mean / static_cast<double>(kMaxBatch),
         "share"},
        {"spmd.run_ms", spmd_run_ms, "ms"},
    };
    append_replay_metrics(rep, coverage, &r.per_layer);
    r.per_layer.push_back(
        {"bench.trace_overhead_share",
         untraced_cpu_ms > 0 ? cpu_ms / untraced_cpu_ms - 1.0 : 0.0,
         "share"});
    r.not_applicable = {"ingress.", "train.", "comm.allreduce_bytes",
                        "serve.engine_b1_ms", "bench.gen_late_p99_ms"};
  }
  return r;
}

}  // namespace perfbench
