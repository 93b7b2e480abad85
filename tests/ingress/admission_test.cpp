// Admission control: a saturated bounded queue answers with typed
// kSaturated rejects (no hangs, no silent drops), every ACCEPTED request
// is answered bit-exactly, a malformed frame is a typed kBadRequest, and
// a draining ingress type-rejects new work while still finishing
// everything it admitted. A /metrics scrape keeps every series name
// scrapers read, each exactly once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "ingress_test_util.hpp"

namespace dchag::ingress {
namespace {

using testutil::TrainedModel;

TEST(Admission, SaturationIsATypedRejectNeverAHangOrDrop) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 1;
  cfg.ring.slots = 1;
  cfg.queue_capacity = 2;
  Ingress ingress(cfg);

  // One synchronized burst of 16 single-request clients against a
  // capacity-2 queue + 1-slot ring: most must be rejected kSaturated.
  constexpr int kClients = 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok{0}, saturated{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(ingress.port());
      const Tensor images =
          testutil::sample_image(100 + static_cast<std::uint64_t>(i));
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      try {
        const Tensor pred = client.infer(images);
        testutil::expect_bit_exact(pred, trained.reference(images));
        ok.fetch_add(1);
      } catch (const IngressError& e) {
        if (e.code() == ErrorCode::kSaturated) {
          saturated.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : threads) t.join();  // no hangs: every client returns

  EXPECT_EQ(ok.load() + saturated.load() + other.load(), kClients);
  EXPECT_GE(saturated.load(), 1) << "a 16-burst must overflow capacity 2+1";
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);

  ingress.drain();
  const serve::Metrics::Snapshot c = ingress.metrics();
  EXPECT_EQ(c.accepted, static_cast<std::uint64_t>(ok.load()))
      << "accepted and answered must match: no drops of admitted work";
  EXPECT_EQ(c.requests, c.accepted);
  EXPECT_EQ(c.rejected_saturated,
            static_cast<std::uint64_t>(saturated.load()));
}

TEST(Admission, MalformedFrameIsATypedBadRequest) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 1;
  Ingress ingress(cfg);

  // A raw socket: Client only ever sends well-formed frames.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ingress.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // A kInfer frame too short to hold a request header.
  ASSERT_TRUE(write_frame(fd, MsgType::kInfer,
                          std::vector<std::uint8_t>{1, 2, 3}));
  std::optional<Frame> reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(decode_error(reply->payload.data(), reply->payload.size()).code,
            ErrorCode::kBadRequest);
  // The connection keeps being served after the reject.
  ASSERT_TRUE(write_frame(fd, MsgType::kHealthQuery, {}));
  reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kHealthOk);
  ::close(fd);

  ingress.drain();
  const serve::Metrics::Snapshot c = ingress.metrics();
  EXPECT_EQ(c.rejected_bad, 1u);
  EXPECT_EQ(c.accepted, 0u);
}

TEST(Admission, DrainingRejectsNewWorkAndFinishesAdmittedWork) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 1;
  cfg.ring.slots = 1;
  cfg.queue_capacity = 64;
  // The first worker dies on its first request: while its replacement
  // cold-starts, the backlog below is guaranteed to build, so the drain
  // happens with admitted-but-unanswered work outstanding.
  cfg.crash_plan = {CrashSpec{0, 1}};
  Ingress ingress(cfg);

  // Build a real backlog: 32 concurrent single-request clients.
  constexpr int kClients = 32;
  std::atomic<int> ok{0}, shutdown_rejected{0}, hung_up{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const Tensor images =
          testutil::sample_image(300 + static_cast<std::uint64_t>(i));
      try {
        Client client(ingress.port());
        const Tensor pred = client.infer(images);
        testutil::expect_bit_exact(pred, trained.reference(images));
        ok.fetch_add(1);
      } catch (const IngressError& e) {
        // Late arrivals may race the drain below; that reject must be
        // typed kShuttingDown, nothing else.
        EXPECT_EQ(e.code(), ErrorCode::kShuttingDown);
        shutdown_rejected.fetch_add(1);
      } catch (const std::exception&) {
        // A client the drain beat to the listener (refused connect or
        // closed socket before its request was admitted). Not a drop:
        // nothing of this client's was ever accepted.
        hung_up.fetch_add(1);
      }
    });
  }
  // Probe connection opened BEFORE the drain so it survives the closed
  // listener and exercises the admission path of a draining dispatcher.
  // The healthz round-trip proves the dispatcher actually ACCEPTED this
  // connection (not merely queued it in the listen backlog, where the
  // drain's listener close would reset it).
  Client probe(ingress.port());
  EXPECT_TRUE(probe.healthz());
  while (ingress.queue_depth() < 4) std::this_thread::yield();

  std::thread drainer([&] { ingress.drain(); });
  // /healthz on the open probe turns into a typed kShuttingDown the
  // moment the dispatcher flips to draining, which drain() does only
  // after closing the listener: from then on a new connect is refused.
  // The crash-stalled backlog keeps the drain itself busy long past this
  // point, so the probe below lands while the dispatcher still drains.
  while (probe.healthz()) std::this_thread::yield();
  EXPECT_THROW(Client{ingress.port()}, std::exception);
  bool saw_shutdown = false;
  int probe_ok = 0;
  try {
    for (int i = 0; i < 1000 && !saw_shutdown; ++i) {
      try {
        (void)probe.infer(testutil::sample_image(999));
        ++probe_ok;  // slipped in before draining_ flipped
      } catch (const IngressError& e) {
        ASSERT_EQ(e.code(), ErrorCode::kShuttingDown);
        saw_shutdown = true;
      }
    }
  } catch (const std::exception&) {
    // Drain finished and hung up mid-probe — only acceptable if we
    // already observed the typed reject.
  }
  EXPECT_TRUE(saw_shutdown);

  drainer.join();
  for (std::thread& t : threads) t.join();

  const serve::Metrics::Snapshot c = ingress.metrics();
  EXPECT_EQ(c.accepted, c.requests) << "drain must answer admitted work";
  EXPECT_EQ(c.accepted, static_cast<std::uint64_t>(ok.load() + probe_ok));
  EXPECT_GE(c.rejected_draining, 1u);
  EXPECT_EQ(c.queue_depth, 0u);
  EXPECT_EQ(ok.load() + shutdown_rejected.load() + hung_up.load(),
            kClients);
}

TEST(Admission, MetricsScrapeServesEveryExpositionNameOnce) {
  TrainedModel trained;
  IngressConfig cfg = testutil::base_config(trained);
  cfg.min_workers = 1;
  cfg.max_workers = 1;
  Ingress ingress(cfg);

  Client client(ingress.port());
  double client_ms = 0.0;  // summed round trips, as the client sees them
  auto timed_infer = [&](std::uint64_t seed) {
    const Tensor images = testutil::sample_image(seed);
    const auto t0 = std::chrono::steady_clock::now();
    const Tensor pred = client.infer(images);
    client_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    testutil::expect_bit_exact(pred, trained.reference(images));
  };
  timed_infer(77);
  const std::string text = client.metrics_text();

  std::map<std::string, int> seen;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    ++seen[line.substr(0, line.find(' '))];
  const std::vector<std::string> expected = {
      "dchag_serve_requests_total",
      "dchag_serve_batches_total",
      "dchag_serve_failed_total",
      "dchag_serve_latency_ms{quantile=\"0.5\"}",
      "dchag_serve_latency_ms{quantile=\"0.95\"}",
      "dchag_serve_latency_ms{quantile=\"0.99\"}",
      "dchag_serve_mean_queue_ms",
      "dchag_serve_mean_forward_ms",
      "dchag_serve_requests_per_second",
      "dchag_serve_max_queue_depth",
      "dchag_serve_recoveries_total",
      "dchag_serve_mean_recovery_ms",
      "dchag_serve_degraded_responses_total",
      "dchag_serve_forward_allocations_total",
      "dchag_serve_last_forward_allocations",
      "dchag_serve_arena_held_bytes",
      "dchag_ingress_connections_total",
      "dchag_ingress_accepted_total",
      "dchag_ingress_rejected_saturated_total",
      "dchag_ingress_rejected_draining_total",
      "dchag_ingress_rejected_bad_total",
      "dchag_ingress_completed_total",
      "dchag_ingress_redispatches_total",
      "dchag_ingress_worker_restarts_total",
      "dchag_ingress_scale_ups_total",
      "dchag_ingress_scale_downs_total",
      "dchag_ingress_workers",
      "dchag_ingress_queue_depth",
  };
  for (const std::string& name : expected)
    EXPECT_EQ(seen[name], 1) << name << " in:\n" << text;
  EXPECT_EQ(seen.size(), expected.size()) << "unexpected series in:\n" << text;
  EXPECT_NE(text.find("dchag_serve_requests_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dchag_ingress_completed_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dchag_ingress_workers 1\n"), std::string::npos);

  // Stage accounting: the forward series come from the worker, which
  // times its own Engine::run and counts its heap buffer allocations.
  for (std::uint64_t seed : {78, 79, 80}) timed_infer(seed);
  const serve::Metrics::Snapshot m = ingress.metrics();
  ASSERT_EQ(m.batches, 4u);
  EXPECT_GT(m.mean_forward_ms, 0.0);
  EXPECT_LT(m.mean_forward_ms, client_ms / 4.0)
      << "the forward is one stage of the request, not all of it";
  EXPECT_GT(m.forward_allocations, 0u) << "the warm-up forward allocates";
  EXPECT_EQ(m.last_forward_allocations, 0u)
      << "a warmed-up forward allocates nothing";
}

}  // namespace
}  // namespace dchag::ingress
