// serve::Metrics latency store: the fixed log-bucket histogram keeps
// p50/p95/p99 within 1% of the exact nearest-rank sample over the whole
// 1 µs - 10^6 ms range, clamps out-of-range samples into its end buckets,
// and holds its memory fixed however many requests it records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "serve/metrics.hpp"

namespace dchag::serve {
namespace {

/// The exact quantile under the rule Metrics documents: the sorted
/// sample's value at 0-based rank round(q * (n - 1)).
double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto idx = std::min(static_cast<std::size_t>(q * (n - 1.0) + 0.5),
                            v.size() - 1);
  return v[idx];
}

void expect_quantiles_within_1pct(const std::vector<double>& sample) {
  Metrics m;
  for (double ms : sample) m.record_request(ms, 0.0);
  const Metrics::Snapshot s = m.summary();
  ASSERT_EQ(s.requests, sample.size());
  const struct {
    double q;
    double got;
  } checks[] = {{0.50, s.p50_ms}, {0.95, s.p95_ms}, {0.99, s.p99_ms}};
  for (const auto& c : checks) {
    const double want = exact_quantile(sample, c.q);
    EXPECT_LE(std::abs(c.got - want), 0.01 * want)
        << "q=" << c.q << " got " << c.got << " want " << want;
  }
}

TEST(Metrics, LogNormalQuantilesWithinOnePercent) {
  std::mt19937_64 rng(20261019);
  std::lognormal_distribution<double> dist(/*m=*/1.0, /*s=*/1.2);
  std::vector<double> sample(200000);
  for (double& x : sample) x = dist(rng);
  expect_quantiles_within_1pct(sample);
}

TEST(Metrics, BimodalQuantilesWithinOnePercent) {
  // A fast mode and a 100x slower tail mode, 90/10: p95 and p99 land in
  // the slow mode, p50 in the fast one.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> fast(std::log(0.8), 0.3);
  std::lognormal_distribution<double> slow(std::log(80.0), 0.5);
  std::bernoulli_distribution pick_slow(0.10);
  std::vector<double> sample(200000);
  for (double& x : sample) x = pick_slow(rng) ? slow(rng) : fast(rng);
  expect_quantiles_within_1pct(sample);
}

TEST(Metrics, QuantilesWithinOnePercentAcrossTheWholeRange) {
  // Log-uniform over 1 µs .. 10^6 ms: every decade the histogram covers.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> exponent(-3.0, 6.0);
  std::vector<double> sample(200000);
  for (double& x : sample) x = std::pow(10.0, exponent(rng));
  expect_quantiles_within_1pct(sample);
}

TEST(Metrics, OutOfRangeSamplesClampIntoTheEndBucketsAndCount) {
  Metrics m;
  for (double ms : {0.0, 1e-9, 5e-4}) m.record_request(ms, 0.0);
  m.record_request(1e12, 0.0);
  const Metrics::Snapshot s = m.summary();
  EXPECT_EQ(s.requests, 4u);
  // Three samples sit below the range and one above: p50 (rank 2 of
  // 0..3) reads the low end bucket, p99 (rank 3) the high one.
  EXPECT_NEAR(s.p50_ms, LatencyHistogram::kMinMs,
              0.01 * LatencyHistogram::kMinMs);
  EXPECT_NEAR(s.p99_ms, LatencyHistogram::kMaxMs,
              0.01 * LatencyHistogram::kMaxMs);
}

/// Peak resident set (VmHWM) of this process, in kB.
long vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

TEST(Metrics, RecordingTenMillionRequestsKeepsMemoryFixed) {
  const long before = vm_hwm_kb();
  ASSERT_GT(before, 0) << "no VmHWM in /proc/self/status";
  Metrics m;
  constexpr std::uint64_t kRequests = 10'000'000;
  for (std::uint64_t i = 0; i < kRequests; ++i)
    m.record_request(0.5 + static_cast<double>(i % 1000) * 0.01, 0.1);
  const Metrics::Snapshot s = m.summary();
  const long after = vm_hwm_kb();
  EXPECT_EQ(s.requests, kRequests);
  EXPECT_GT(s.p99_ms, s.p50_ms);
  EXPECT_LT(after - before, 1024)
      << "peak RSS grew " << (after - before) << " kB over " << kRequests
      << " recorded requests";
}

TEST(Metrics, EventCountersCountOnceAndIngressSeriesReadZeroElsewhere) {
  Metrics m;
  m.record(Metrics::Event::kFailed, 3);
  m.record(Metrics::Event::kDegraded);
  m.record_request(2.0, 0.5);
  m.record_recovery(4.0);
  const Metrics::Snapshot s = m.summary();
  EXPECT_EQ(s.failed, 3u);
  EXPECT_EQ(s.degraded_responses, 1u);
  EXPECT_EQ(s.recoveries, 1u);
  EXPECT_EQ(s.mean_recovery_ms, 4.0);
  // The ingress aliases are filled in by Ingress::metrics() only: a
  // Server or SpmdEngine registry prints its ingress series as 0.
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.worker_restarts, 0u);
  const std::string text = s.to_exposition();
  EXPECT_NE(text.find("dchag_serve_failed_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("dchag_serve_degraded_responses_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dchag_serve_recoveries_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dchag_ingress_completed_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("dchag_ingress_worker_restarts_total 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace dchag::serve
