#include "ingress/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>

#include "tensor/check.hpp"

namespace dchag::ingress {

namespace {
constexpr std::uint64_t kMagic = 0x44434841474E4731ull;  // "DCHAGNG1"
constexpr std::uint32_t kVersion = 2;
}  // namespace

// The control block at the start of the segment. Cache-line alignment
// keeps the producer- and consumer-owned counters off each other's lines.
struct alignas(64) ShmRing::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slots;
  std::uint32_t max_payload_floats;
  std::uint32_t req_slot_bytes;
  std::uint32_t resp_slot_bytes;
  alignas(64) std::atomic<std::uint64_t> heartbeat;
  alignas(64) std::atomic<std::uint32_t> state;
  std::atomic<std::uint32_t> control;
  alignas(64) std::atomic<std::uint64_t> req_head;   // dispatcher-owned
  alignas(64) std::atomic<std::uint64_t> req_tail;   // worker-owned
  alignas(64) std::atomic<std::uint64_t> resp_head;  // worker-owned
  alignas(64) std::atomic<std::uint64_t> resp_tail;  // dispatcher-owned
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings need lock-free 64-bit atomics");

std::size_t ShmRing::segment_bytes(const RingConfig& cfg) {
  const std::size_t req_slot =
      sizeof(RingRequest) + std::size_t(cfg.max_payload_floats) * 4;
  const std::size_t resp_slot =
      sizeof(RingResponse) + std::size_t(cfg.max_payload_floats) * 4;
  return sizeof(Header) + cfg.slots * (req_slot + resp_slot);
}

ShmRing::Header* ShmRing::hdr() const {
  return static_cast<Header*>(map_);
}

std::uint8_t* ShmRing::req_slot(std::uint64_t seq) const {
  Header* h = hdr();
  std::uint8_t* base =
      static_cast<std::uint8_t*>(map_) + sizeof(Header);
  return base + (seq % h->slots) * h->req_slot_bytes;
}

std::uint8_t* ShmRing::resp_slot(std::uint64_t seq) const {
  Header* h = hdr();
  std::uint8_t* base = static_cast<std::uint8_t*>(map_) + sizeof(Header) +
                       std::size_t(h->slots) * h->req_slot_bytes;
  return base + (seq % h->slots) * h->resp_slot_bytes;
}

ShmRing ShmRing::create(const std::string& name, RingConfig cfg) {
  DCHAG_CHECK(cfg.slots >= 1 && cfg.max_payload_floats >= 1,
              "ShmRing needs >= 1 slot and a nonzero payload budget");
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  DCHAG_CHECK(fd >= 0, "shm_open(" << name << ") failed: "
                                   << std::strerror(errno));
  const std::size_t bytes = segment_bytes(cfg);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    DCHAG_FAIL("ftruncate(" << name << ", " << bytes
                            << ") failed: " << std::strerror(err));
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    DCHAG_FAIL("mmap(" << name << ") failed: " << std::strerror(errno));
  }

  ShmRing ring;
  ring.name_ = name;
  ring.map_ = map;
  ring.map_bytes_ = bytes;
  ring.creator_ = true;

  Header* h = new (map) Header();
  h->version = kVersion;
  h->slots = cfg.slots;
  h->max_payload_floats = cfg.max_payload_floats;
  h->req_slot_bytes = static_cast<std::uint32_t>(
      sizeof(RingRequest) + std::size_t(cfg.max_payload_floats) * 4);
  h->resp_slot_bytes = static_cast<std::uint32_t>(
      sizeof(RingResponse) + std::size_t(cfg.max_payload_floats) * 4);
  h->heartbeat.store(0, std::memory_order_relaxed);
  h->state.store(static_cast<std::uint32_t>(WorkerState::kStarting),
                 std::memory_order_relaxed);
  h->control.store(static_cast<std::uint32_t>(ControlWord::kRun),
                   std::memory_order_relaxed);
  h->req_head.store(0, std::memory_order_relaxed);
  h->req_tail.store(0, std::memory_order_relaxed);
  h->resp_head.store(0, std::memory_order_relaxed);
  h->resp_tail.store(0, std::memory_order_relaxed);
  // Publish the magic last: an opener that sees it sees a full header.
  std::atomic_thread_fence(std::memory_order_release);
  h->magic = kMagic;
  return ring;
}

ShmRing ShmRing::open(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  DCHAG_CHECK(fd >= 0, "shm_open(" << name << ") failed: "
                                   << std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(Header))) {
    ::close(fd);
    DCHAG_FAIL("shm segment " << name << " truncated or unreadable");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  DCHAG_CHECK(map != MAP_FAILED,
              "mmap(" << name << ") failed: " << std::strerror(errno));

  ShmRing ring;
  ring.name_ = name;
  ring.map_ = map;
  ring.map_bytes_ = bytes;

  Header* h = ring.hdr();
  DCHAG_CHECK(h->magic == kMagic && h->version == kVersion,
              "shm segment " << name << " has wrong magic/version");
  std::atomic_thread_fence(std::memory_order_acquire);
  DCHAG_CHECK(segment_bytes(RingConfig{h->slots, h->max_payload_floats}) <=
                  bytes,
              "shm segment " << name << " smaller than its own geometry");
  return ring;
}

ShmRing::ShmRing(ShmRing&& other) noexcept { *this = std::move(other); }

ShmRing& ShmRing::operator=(ShmRing&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    name_ = std::move(other.name_);
    map_ = other.map_;
    map_bytes_ = other.map_bytes_;
    creator_ = other.creator_;
    other.map_ = nullptr;
    other.map_bytes_ = 0;
    other.creator_ = false;
  }
  return *this;
}

ShmRing::~ShmRing() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void ShmRing::unlink() {
  if (!name_.empty()) ::shm_unlink(name_.c_str());
}

bool ShmRing::try_push_request(const RingRequest& hdr_in,
                               const float* payload,
                               std::size_t n_payload) {
  Header* h = hdr();
  DCHAG_CHECK(n_payload <= h->max_payload_floats,
              "request payload " << n_payload << " floats exceeds slot "
                                 << "budget " << h->max_payload_floats);
  const std::uint64_t head = h->req_head.load(std::memory_order_relaxed);
  const std::uint64_t tail = h->req_tail.load(std::memory_order_acquire);
  if (head - tail >= h->slots) return false;  // full
  std::uint8_t* slot = req_slot(head);
  std::memcpy(slot, &hdr_in, sizeof(RingRequest));
  if (n_payload > 0)
    std::memcpy(slot + sizeof(RingRequest), payload, n_payload * 4);
  h->req_head.store(head + 1, std::memory_order_release);
  return true;
}

bool ShmRing::try_pop_request(RingRequest* out,
                              std::vector<float>* payload) {
  Header* h = hdr();
  const std::uint64_t tail = h->req_tail.load(std::memory_order_relaxed);
  const std::uint64_t head = h->req_head.load(std::memory_order_acquire);
  if (tail == head) return false;  // empty
  const std::uint8_t* slot = req_slot(tail);
  std::memcpy(out, slot, sizeof(RingRequest));
  const std::size_t n = static_cast<std::size_t>(out->c) *
                        static_cast<std::size_t>(out->h) *
                        static_cast<std::size_t>(out->w);
  DCHAG_CHECK(n <= h->max_payload_floats,
              "ring request claims " << n << " floats > slot budget");
  payload->resize(n);
  if (n > 0) std::memcpy(payload->data(), slot + sizeof(RingRequest), n * 4);
  h->req_tail.store(tail + 1, std::memory_order_release);
  return true;
}

bool ShmRing::try_push_response(const RingResponse& hdr_in,
                                const float* payload,
                                const char* error_bytes) {
  Header* h = hdr();
  const std::uint64_t head = h->resp_head.load(std::memory_order_relaxed);
  const std::uint64_t tail = h->resp_tail.load(std::memory_order_acquire);
  if (head - tail >= h->slots) return false;  // full
  std::uint8_t* slot = resp_slot(head);
  std::memcpy(slot, &hdr_in, sizeof(RingResponse));
  if (hdr_in.status == 0) {
    const std::size_t n = static_cast<std::size_t>(hdr_in.s) *
                          static_cast<std::size_t>(hdr_in.d);
    DCHAG_CHECK(n <= h->max_payload_floats,
                "response payload " << n << " floats exceeds slot budget");
    if (n > 0) std::memcpy(slot + sizeof(RingResponse), payload, n * 4);
  } else if (hdr_in.error_bytes > 0) {
    DCHAG_CHECK(hdr_in.error_bytes <= h->max_payload_floats * 4,
                "error message exceeds slot budget");
    std::memcpy(slot + sizeof(RingResponse), error_bytes,
                hdr_in.error_bytes);
  }
  h->resp_head.store(head + 1, std::memory_order_release);
  return true;
}

bool ShmRing::try_pop_response(RingResponse* out,
                               std::vector<float>* payload,
                               std::string* error) {
  Header* h = hdr();
  const std::uint64_t tail = h->resp_tail.load(std::memory_order_relaxed);
  const std::uint64_t head = h->resp_head.load(std::memory_order_acquire);
  if (tail == head) return false;  // empty
  const std::uint8_t* slot = resp_slot(tail);
  std::memcpy(out, slot, sizeof(RingResponse));
  if (out->status == 0) {
    const std::size_t n = static_cast<std::size_t>(out->s) *
                          static_cast<std::size_t>(out->d);
    DCHAG_CHECK(n <= h->max_payload_floats,
                "ring response claims " << n << " floats > slot budget");
    payload->resize(n);
    if (n > 0)
      std::memcpy(payload->data(), slot + sizeof(RingResponse), n * 4);
  } else {
    const std::size_t n =
        std::min<std::size_t>(out->error_bytes, h->max_payload_floats * 4);
    error->assign(reinterpret_cast<const char*>(slot + sizeof(RingResponse)),
                  n);
  }
  h->resp_tail.store(tail + 1, std::memory_order_release);
  return true;
}

void ShmRing::beat() {
  hdr()->heartbeat.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ShmRing::heartbeat() const {
  return hdr()->heartbeat.load(std::memory_order_relaxed);
}

void ShmRing::set_state(WorkerState s) {
  hdr()->state.store(static_cast<std::uint32_t>(s),
                     std::memory_order_release);
}

WorkerState ShmRing::state() const {
  return static_cast<WorkerState>(
      hdr()->state.load(std::memory_order_acquire));
}

void ShmRing::set_control(ControlWord c) {
  hdr()->control.store(static_cast<std::uint32_t>(c),
                       std::memory_order_release);
}

ControlWord ShmRing::control() const {
  return static_cast<ControlWord>(
      hdr()->control.load(std::memory_order_acquire));
}

std::size_t ShmRing::request_backlog() const {
  Header* h = hdr();
  return static_cast<std::size_t>(
      h->req_head.load(std::memory_order_acquire) -
      h->req_tail.load(std::memory_order_acquire));
}

bool ShmRing::quiescent() const {
  Header* h = hdr();
  return h->req_head.load(std::memory_order_acquire) ==
             h->req_tail.load(std::memory_order_acquire) &&
         h->resp_head.load(std::memory_order_acquire) ==
             h->resp_tail.load(std::memory_order_acquire);
}

std::uint32_t ShmRing::slots() const { return hdr()->slots; }

std::uint32_t ShmRing::max_payload_floats() const {
  return hdr()->max_payload_floats;
}

std::string make_ring_name() {
  static std::atomic<std::uint64_t> seq{0};
  static const std::uint64_t salt = [] {
    std::random_device rd;
    return (std::uint64_t(rd()) << 32) ^ rd();
  }();
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/dchag_ing_%d_%llu_%llx",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    seq.fetch_add(1, std::memory_order_relaxed)),
                static_cast<unsigned long long>(salt & 0xffffffffull));
  return buf;
}

}  // namespace dchag::ingress
