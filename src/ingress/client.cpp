#include "ingress/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "tensor/check.hpp"

namespace dchag::ingress {

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DCHAG_CHECK(fd_ >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    DCHAG_FAIL("connect(127.0.0.1:" << port
                                    << ") failed: " << std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::round_trip(MsgType type,
                         const std::vector<std::uint8_t>& payload) {
  DCHAG_CHECK(write_frame(fd_, type, payload),
              "ingress connection closed while sending");
  std::optional<Frame> reply = read_frame(fd_);
  DCHAG_CHECK(reply.has_value(),
              "ingress connection closed before the response arrived");
  return std::move(*reply);
}

Tensor Client::infer(const Tensor& images, const std::vector<Index>& channels,
                     float lead_time) {
  InferRequest req;
  req.id = next_id_++;
  req.lead_time = lead_time;
  req.channels = channels;
  req.images = images;
  const Frame reply = round_trip(MsgType::kInfer, encode_infer(req));
  if (reply.type == MsgType::kError) {
    const WireError err =
        decode_error(reply.payload.data(), reply.payload.size());
    throw IngressError(err.code, err.message);
  }
  DCHAG_CHECK(reply.type == MsgType::kResult,
              "unexpected reply frame type "
                  << static_cast<int>(reply.type) << " to kInfer");
  InferResult result =
      decode_result(reply.payload.data(), reply.payload.size());
  DCHAG_CHECK(result.id == req.id, "response id " << result.id
                                                  << " does not match request "
                                                  << req.id);
  return std::move(result.pred);
}

std::string Client::metrics_text() {
  const Frame reply = round_trip(MsgType::kMetricsQuery, {});
  DCHAG_CHECK(reply.type == MsgType::kMetricsText,
              "unexpected reply frame type "
                  << static_cast<int>(reply.type) << " to kMetricsQuery");
  return std::string(reply.payload.begin(), reply.payload.end());
}

bool Client::healthz() {
  const Frame reply = round_trip(MsgType::kHealthQuery, {});
  return reply.type == MsgType::kHealthOk;
}

}  // namespace dchag::ingress
