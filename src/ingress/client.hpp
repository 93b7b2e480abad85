// Blocking socket client for the ingress tier: the reference
// implementation of the wire protocol's client side, used by the tests,
// the example, and the benchmark. One connection, synchronous
// request/response; open several Clients for concurrency (the dispatcher
// multiplexes connections server-side).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ingress/wire.hpp"

namespace dchag::ingress {

class Client {
 public:
  /// Connects to an Ingress on 127.0.0.1:port; throws on refusal.
  explicit Client(std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One synchronous inference: sends kInfer, waits for the matching
  /// kResult and returns its prediction [S, D]. A kError response
  /// rethrows as IngressError carrying the typed code (kSaturated,
  /// kShuttingDown, kBadRequest, kInternal).
  [[nodiscard]] Tensor infer(const Tensor& images,
                             const std::vector<Index>& channels = {},
                             float lead_time = 1.0f);

  /// The /metrics-style exposition text (kMetricsQuery round trip).
  [[nodiscard]] std::string metrics_text();
  /// The /healthz-style liveness probe; true iff the ingress answered ok
  /// (a draining ingress answers a typed kShuttingDown instead).
  [[nodiscard]] bool healthz();

 private:
  [[nodiscard]] Frame round_trip(MsgType type,
                                 const std::vector<std::uint8_t>& payload);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

}  // namespace dchag::ingress
