#include "serve/metrics.hpp"

#include <cmath>
#include <sstream>

namespace dchag::serve {

std::size_t LatencyHistogram::bucket(double ms) {
  if (!(ms > kMinMs)) return 0;  // also NaN
  if (!(ms < kMaxMs)) return kBuckets - 1;
  const auto i = static_cast<std::size_t>(std::log10(ms / kMinMs) *
                                          static_cast<double>(kPerDecade));
  return std::min(i, kBuckets - 1);
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto n = static_cast<double>(total_);
  const auto rank = std::min(static_cast<std::uint64_t>(q * (n - 1.0) + 0.5),
                             total_ - 1);
  std::size_t k = 0;
  for (std::uint64_t seen = counts_[0]; seen <= rank; seen += counts_[k])
    ++k;
  // The value with equal relative error to both bucket edges [a, a*r].
  const double r = std::pow(10.0, 1.0 / static_cast<double>(kPerDecade));
  const double a = kMinMs * std::pow(r, static_cast<double>(k));
  return 2.0 * a * r / (1.0 + r);
}

Metrics::Snapshot Metrics::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.requests = requests_;
  s.batches = batches_;
  s.max_queue_depth = max_queue_depth_;
  s.recoveries = recoveries_;
  s.forward_allocations = forward_allocations_;
  s.last_forward_allocations = last_forward_allocations_;
  const auto event = [this](Event e) {
    return events_[static_cast<std::size_t>(e)];
  };
  s.failed = event(Event::kFailed);
  s.degraded_responses = event(Event::kDegraded);
  s.connections = event(Event::kConnection);
  s.accepted = event(Event::kAccepted);
  s.rejected_saturated = event(Event::kRejectedSaturated);
  s.rejected_draining = event(Event::kRejectedDraining);
  s.rejected_bad = event(Event::kRejectedBad);
  s.redispatches = event(Event::kRedispatch);
  s.scale_ups = event(Event::kScaleUp);
  s.scale_downs = event(Event::kScaleDown);
  if (recoveries_ > 0)
    s.mean_recovery_ms = recovery_ms_sum_ / static_cast<double>(recoveries_);
  if (batches_ > 0) {
    s.mean_batch_size = static_cast<double>(batched_requests_) /
                        static_cast<double>(batches_);
    s.mean_forward_ms = forward_ms_sum_ / static_cast<double>(batches_);
  }
  if (requests_ > 0)
    s.mean_queue_ms = queue_ms_sum_ / static_cast<double>(requests_);
  s.p50_ms = latency_.quantile(0.50);
  s.p95_ms = latency_.quantile(0.95);
  s.p99_ms = latency_.quantile(0.99);
  const double window_ms = window_end_ms_ - window_start_ms_;
  if (requests_ > 0 && window_ms > 0.0) {
    s.requests_per_s = static_cast<double>(requests_) / (window_ms / 1e3);
  }
  return s;
}

std::string Metrics::Snapshot::to_exposition() const {
  std::ostringstream os;
  os << "dchag_serve_requests_total " << requests << "\n"
     << "dchag_serve_batches_total " << batches << "\n"
     << "dchag_serve_failed_total " << failed << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.5\"} " << p50_ms << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.95\"} " << p95_ms << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.99\"} " << p99_ms << "\n"
     << "dchag_serve_mean_queue_ms " << mean_queue_ms << "\n"
     << "dchag_serve_mean_forward_ms " << mean_forward_ms << "\n"
     << "dchag_serve_requests_per_second " << requests_per_s << "\n"
     << "dchag_serve_max_queue_depth " << max_queue_depth << "\n"
     << "dchag_serve_recoveries_total " << recoveries << "\n"
     << "dchag_serve_mean_recovery_ms " << mean_recovery_ms << "\n"
     << "dchag_serve_degraded_responses_total " << degraded_responses << "\n"
     << "dchag_serve_forward_allocations_total " << forward_allocations
     << "\n"
     << "dchag_serve_last_forward_allocations " << last_forward_allocations
     << "\n"
     << "dchag_serve_arena_held_bytes " << arena_held_bytes << "\n"
     << "dchag_ingress_connections_total " << connections << "\n"
     << "dchag_ingress_accepted_total " << accepted << "\n"
     << "dchag_ingress_rejected_saturated_total " << rejected_saturated
     << "\n"
     << "dchag_ingress_rejected_draining_total " << rejected_draining << "\n"
     << "dchag_ingress_rejected_bad_total " << rejected_bad << "\n"
     << "dchag_ingress_completed_total " << completed << "\n"
     << "dchag_ingress_redispatches_total " << redispatches << "\n"
     << "dchag_ingress_worker_restarts_total " << worker_restarts << "\n"
     << "dchag_ingress_scale_ups_total " << scale_ups << "\n"
     << "dchag_ingress_scale_downs_total " << scale_downs << "\n"
     << "dchag_ingress_workers " << workers << "\n"
     << "dchag_ingress_queue_depth " << queue_depth << "\n";
  return os.str();
}

}  // namespace dchag::serve
