#include "ingress/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "ingress/shm_ring.hpp"
#include "runtime/context.hpp"
#include "serve/engine.hpp"
#include "tensor/autograd.hpp"
#include "train/checkpoint.hpp"

namespace dchag::ingress {

std::string ModelSpec::serialize() const {
  return preset + ":" + std::to_string(channels) + ":" +
         std::to_string(units);
}

ModelSpec ModelSpec::parse(const std::string& text) {
  ModelSpec spec;
  const std::size_t a = text.find(':');
  const std::size_t b = a == std::string::npos ? a : text.find(':', a + 1);
  DCHAG_CHECK(a != std::string::npos && b != std::string::npos,
              "ModelSpec must be 'preset:channels:units', got '" << text
                                                                 << "'");
  spec.preset = text.substr(0, a);
  spec.channels =
      static_cast<tensor::Index>(std::stoll(text.substr(a + 1, b - a - 1)));
  spec.units = static_cast<tensor::Index>(std::stoll(text.substr(b + 1)));
  DCHAG_CHECK(!spec.preset.empty() && spec.channels >= 1 && spec.units >= 1,
              "bad ModelSpec '" << text << "'");
  return spec;
}

std::unique_ptr<model::ForecastModel> build_model(const ModelSpec& spec,
                                                  std::uint64_t seed) {
  const model::ModelConfig cfg = spec.preset == "tiny"
                                     ? model::ModelConfig::tiny()
                                     : model::ModelConfig::preset(spec.preset);
  tensor::Rng rng(seed);
  auto agg = model::AggregationTree::with_units(
      cfg, model::AggLayerKind::kCrossAttention, spec.channels, spec.units,
      rng);
  auto fe = std::make_unique<model::LocalFrontEnd>(cfg, spec.channels,
                                                   std::move(agg), rng);
  return std::make_unique<model::ForecastModel>(cfg, std::move(fe),
                                                spec.channels, rng);
}

namespace {

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

/// Pushes a response, waiting out a full ring (the dispatcher drains it
/// continuously; a persistently full ring means the dispatcher died, in
/// which case the control word or a SIGKILL ends us anyway).
void push_response_blocking(ShmRing& ring, const RingResponse& hdr,
                            const float* payload, const char* error) {
  while (!ring.try_push_response(hdr, payload, error)) {
    ring.beat();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

int worker_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dchag_ingress_worker <shm-ring-name>\n");
    return 2;
  }
  try {
    // THE context hand-off: the dispatcher re-exported its effective
    // context as DCHAG_* variables before exec, so the process default
    // built here mirrors the dispatcher's serving configuration.
    runtime::Context::set_process_default(runtime::Context::from_env());

    ShmRing ring = ShmRing::open(argv[1]);
    ring.set_state(WorkerState::kStarting);
    ring.beat();

    const ModelSpec spec =
        ModelSpec::parse(env_or(kEnvModelSpec, "tiny:6:2"));
    const char* ckpt = std::getenv(kEnvCheckpoint);
    auto model = build_model(spec, /*seed=*/1);
    if (ckpt != nullptr && ckpt[0] != '\0') train::load_module(ckpt, *model);
    serve::Engine engine(*model);

    // Deterministic fault injection for the crash-recovery suites: die
    // mid-request — after consuming request N but before its response —
    // exactly where a real forward-pass crash loses the most state.
    const long crash_at = std::strtol(env_or(kEnvCrashAt, "0"), nullptr, 10);

    ring.set_state(WorkerState::kReady);
    std::uint64_t served = 0;
    RingRequest req;
    std::vector<float> payload;
    autograd::NoGradGuard no_grad;
    for (;;) {
      ring.beat();
      if (!ring.try_pop_request(&req, &payload)) {
        if (ring.control() == ControlWord::kDrainStop) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (ring.control() == ControlWord::kDrainStop)
        ring.set_state(WorkerState::kDraining);

      ++served;
      RingResponse resp;
      resp.id = req.id;
      try {
        Tensor images = Tensor::from_data(
            tensor::Shape{1, req.c, req.h, req.w}, std::move(payload));
        std::vector<Index> channels(req.channels,
                                    req.channels + req.n_channels);
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t allocs0 = tensor::plan::thread_buffer_allocations();
        Tensor pred = engine.run(images, channels, req.lead_time);
        resp.forward_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        resp.forward_allocations =
            tensor::plan::thread_buffer_allocations() - allocs0;
        if (crash_at > 0 && served == static_cast<std::uint64_t>(crash_at))
          ::_exit(42);  // injected crash: request consumed, answer lost
        Tensor row =
            pred.reshape(tensor::Shape{pred.dim(1), pred.dim(2)});
        resp.s = row.dim(0);
        resp.d = row.dim(1);
        if (static_cast<std::uint64_t>(row.numel()) >
            ring.max_payload_floats()) {
          resp.status = static_cast<std::uint32_t>(ErrorCode::kInternal);
          const std::string msg = "prediction exceeds ring slot budget";
          resp.error_bytes = static_cast<std::uint32_t>(msg.size());
          push_response_blocking(ring, resp, nullptr, msg.data());
        } else {
          push_response_blocking(ring, resp, row.data(), nullptr);
        }
      } catch (const std::exception& e) {
        // A per-request failure is an answer, not a worker death.
        resp.status = static_cast<std::uint32_t>(ErrorCode::kInternal);
        const std::string msg = e.what();
        resp.error_bytes = static_cast<std::uint32_t>(msg.size());
        push_response_blocking(ring, resp, nullptr, msg.data());
      }
      payload.clear();
    }
    ring.set_state(WorkerState::kStopped);
    ring.beat();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dchag_ingress_worker: fatal: %s\n", e.what());
    return 1;
  }
}

}  // namespace dchag::ingress
