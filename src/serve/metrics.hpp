// The serving telemetry registry: request latency percentiles, throughput,
// queue and per-stage timing, recovery accounting, and the ingress tier's
// admission and worker-lifecycle events — one registry, one Snapshot, one
// exposition format. A Server, an SpmdEngine and an ingress::Ingress each
// own one; every writer (worker, rank, connection, dispatch and monitor
// threads) records behind its mutex. Memory is fixed: latencies land in a
// log-bucket histogram, so recording and summary() allocate nothing and
// cost the same after 10 requests or 10^9.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace dchag::serve {

/// Fixed log-bucket latency histogram over [kMinMs, kMaxMs] (1 µs to
/// 10^6 ms), kPerDecade buckets per decade. A bucket spans the ratio
/// r = 10^(1/kPerDecade) and reports the value within (r-1)/(r+1) < 0.5%
/// of every sample it holds, so a quantile is within 0.5% of the exact
/// sample at its rank. Samples outside the range clamp into the end
/// buckets and still count.
class LatencyHistogram {
 public:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kMaxMs = 1e6;
  static constexpr std::size_t kPerDecade = 256;
  static constexpr std::size_t kBuckets = 9 * kPerDecade;

  void record(double ms) {
    ++counts_[bucket(ms)];
    ++total_;
  }

  /// Quantile by the nearest-rank rule on the sorted sample: the value at
  /// 0-based rank round(q * (n - 1)). 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  [[nodiscard]] static std::size_t bucket(double ms);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

class Metrics {
 public:
  /// Plain event counters, one each: request failures, degraded answers
  /// and the ingress admission and worker-lifecycle events.
  enum class Event : std::size_t {
    kFailed,             ///< request completed with an exception
    kDegraded,           ///< answer served from a survivor channel subset
    kConnection,         ///< client connection accepted
    kAccepted,           ///< request admitted to the queue
    kRejectedSaturated,  ///< typed reject: queue full
    kRejectedDraining,   ///< typed reject: shutting down
    kRejectedBad,        ///< typed reject: malformed
    kRedispatch,         ///< in-flight job moved off a dead worker
    kScaleUp,
    kScaleDown,
    kCount,
  };

  struct Snapshot {
    std::uint64_t requests = 0;  ///< responses delivered
    std::uint64_t batches = 0;   ///< forwards executed
    std::uint64_t failed = 0;    ///< requests completed with an exception
    double mean_batch_size = 0.0;
    double p50_ms = 0.0;  ///< end-to-end request latency percentiles
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_queue_ms = 0.0;    ///< submit -> batch assembly
    double mean_forward_ms = 0.0;  ///< model forward per batch
    double requests_per_s = 0.0;   ///< over the recording window
    std::uint64_t max_queue_depth = 0;
    /// Failures healed: a respawned rank (SpmdEngine) or a crashed
    /// worker process (Ingress).
    std::uint64_t recoveries = 0;
    double mean_recovery_ms = 0.0;  ///< failure detection -> heal ready
    std::uint64_t degraded_responses = 0;  ///< answers served from a
                                           ///< survivor channel subset
    std::uint64_t forward_allocations = 0;  ///< heap buffer allocations on
                                            ///< the forward path, summed
    std::uint64_t last_forward_allocations = 0;  ///< most recent batch; the
                                                 ///< steady-state-zero gauge
    /// Capacity bytes the rank arenas hold (SpmdEngine::metrics(); 0
    /// elsewhere): bounded by the live peak of the largest shape served.
    std::uint64_t arena_held_bytes = 0;

    // Ingress tier: the dchag_ingress_* series, 0 outside Ingress::metrics().
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_saturated = 0;
    std::uint64_t rejected_draining = 0;
    std::uint64_t rejected_bad = 0;
    std::uint64_t redispatches = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    std::uint64_t completed = 0;        ///< requests (Ingress::metrics())
    std::uint64_t worker_restarts = 0;  ///< recoveries (Ingress::metrics())
    std::uint64_t workers = 0;      ///< live pool size (Ingress::metrics())
    std::uint64_t queue_depth = 0;  ///< admission queue (Ingress::metrics())

    /// /metrics exposition lines ("dchag_serve_<name> <value>" and
    /// "dchag_ingress_<name> <value>", percentiles as quantile-labelled
    /// gauges) — what the ingress tier serves for kMetricsQuery.
    [[nodiscard]] std::string to_exposition() const;
  };

  void record_request(double total_ms, double queue_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    latency_.record(total_ms);
    queue_ms_sum_ += queue_ms;
  }

  /// `allocations` is the forward's heap-buffer count on the executing
  /// thread (tensor::plan::thread_buffer_allocations delta) — non-zero
  /// only during warm-up when the engine serves under a memory plan.
  void record_batch(std::uint64_t size, double forward_ms,
                    std::uint64_t allocations = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++batches_;
    batched_requests_ += size;
    forward_ms_sum_ += forward_ms;
    forward_allocations_ += allocations;
    last_forward_allocations_ = allocations;
  }

  /// One completed recovery: a failed rank or worker was replaced.
  /// `recovery_ms` spans failure detection to heal-ready.
  void record_recovery(double recovery_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    ++recoveries_;
    recovery_ms_sum_ += recovery_ms;
  }

  void record(Event e, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    events_[static_cast<std::size_t>(e)] += n;
  }

  void observe_queue_depth(std::uint64_t depth) {
    std::lock_guard<std::mutex> lock(mu_);
    max_queue_depth_ = std::max(max_queue_depth_, depth);
  }

  /// Wall-clock window for requests_per_s; set once serving starts and
  /// once it drains (idempotent: the window is [first_mark, last_mark]).
  void mark_window(double now_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_start_ms_ < 0.0) window_start_ms_ = now_ms;
    window_end_ms_ = now_ms;
  }

  [[nodiscard]] Snapshot summary() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t forward_allocations_ = 0;
  std::uint64_t last_forward_allocations_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Event::kCount)>
      events_{};
  double recovery_ms_sum_ = 0.0;
  double queue_ms_sum_ = 0.0;
  double forward_ms_sum_ = 0.0;
  double window_start_ms_ = -1.0;
  double window_end_ms_ = -1.0;
  LatencyHistogram latency_;
};

}  // namespace dchag::serve
