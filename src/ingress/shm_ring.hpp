// POSIX shared-memory ring pair connecting the dispatcher to one worker
// process: an SPSC request ring (dispatcher produces, worker consumes) and
// an SPSC response ring (worker produces, dispatcher consumes), plus the
// liveness words health monitoring reads:
//
//   * heartbeat — the worker increments it on every loop tick; a stalled
//     counter with work in flight means a hung (not dead) worker.
//   * state    — kStarting -> kReady -> kDraining -> kStopped.
//   * control  — dispatcher-owned command word; kDrainStop tells the
//     worker to finish its ring and exit cleanly.
//
// One segment per worker: a crashing worker can only corrupt its own
// rings, and respawn is "new segment, new generation". The dispatcher is
// the creator/unlinker; the worker opens by name (passed via argv).
//
// Slots are fixed-size (header + max_payload_floats), so pushes never
// allocate in shared memory and a torn writer cannot move another slot's
// boundaries. Head/tail are monotonic counters; `head - tail` is the
// occupancy and slot index is `counter % slots`.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ingress/wire.hpp"

namespace dchag::ingress {

struct RingConfig {
  std::uint32_t slots = 4;  ///< per-direction slot count (also the max
                            ///< requests in flight inside one worker)
  std::uint32_t max_payload_floats = 1u << 16;  ///< per-slot tensor budget
};

enum class WorkerState : std::uint32_t {
  kStarting = 0,  ///< process spawned, model still loading
  kReady = 1,     ///< serving the request ring
  kDraining = 2,  ///< finishing the ring after kDrainStop
  kStopped = 3,   ///< clean exit imminent
};

enum class ControlWord : std::uint32_t {
  kRun = 0,
  kDrainStop = 1,  ///< finish queued requests, then exit(0)
};

/// Fixed-size request header copied into a slot; `n_payload` floats of
/// image data follow immediately after.
struct RingRequest {
  std::uint64_t id = 0;  ///< dispatcher-global id (not the client id)
  float lead_time = 1.0f;
  std::uint32_t n_channels = 0;
  std::int64_t channels[kMaxWireChannels] = {};
  std::int64_t c = 0, h = 0, w = 0;  ///< sample shape [C, H, W]
};

/// Fixed-size response header; `s * d` floats (ok) or `error_bytes` chars
/// (error) follow.
struct RingResponse {
  std::uint64_t id = 0;
  std::uint32_t status = 0;  ///< 0 = ok, else an ErrorCode
  std::uint32_t error_bytes = 0;
  std::int64_t s = 0, d = 0;  ///< prediction shape [S, D]
  double forward_ms = 0.0;    ///< the worker's Engine::run, timed there
  std::uint64_t forward_allocations = 0;  ///< its heap buffer allocations
};

class ShmRing {
 public:
  /// Dispatcher side: creates and maps a fresh segment (O_EXCL — a stale
  /// segment with the same name is an error; scripts/check.sh sweeps
  /// strays from interrupted runs).
  [[nodiscard]] static ShmRing create(const std::string& name,
                                      RingConfig cfg);
  /// Worker side: opens and maps an existing segment, validating magic,
  /// version, and geometry.
  [[nodiscard]] static ShmRing open(const std::string& name);

  ShmRing(ShmRing&& other) noexcept;
  ShmRing& operator=(ShmRing&& other) noexcept;
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;
  ~ShmRing();  ///< unmaps; does NOT unlink (creator calls unlink()).

  /// Removes the name from /dev/shm; mappings stay valid until unmapped.
  void unlink();

  // --- dispatcher side -----------------------------------------------------
  /// False when the request ring is full (caller keeps the job queued).
  bool try_push_request(const RingRequest& hdr, const float* payload,
                        std::size_t n_payload);
  /// Pops one worker response; false when none pending. On status != 0,
  /// `error` receives the message and `payload` is untouched.
  bool try_pop_response(RingResponse* hdr, std::vector<float>* payload,
                        std::string* error);

  // --- worker side ---------------------------------------------------------
  bool try_pop_request(RingRequest* hdr, std::vector<float>* payload);
  bool try_push_response(const RingResponse& hdr, const float* payload,
                         const char* error_bytes);

  // --- liveness / control --------------------------------------------------
  void beat();
  [[nodiscard]] std::uint64_t heartbeat() const;
  void set_state(WorkerState s);
  [[nodiscard]] WorkerState state() const;
  void set_control(ControlWord c);
  [[nodiscard]] ControlWord control() const;

  /// Requests produced but not yet consumed by the worker.
  [[nodiscard]] std::size_t request_backlog() const;
  /// True when every pushed request has been consumed AND every response
  /// has been popped — the worker-retirement precondition.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t slots() const;
  [[nodiscard]] std::uint32_t max_payload_floats() const;

 private:
  ShmRing() = default;
  struct Header;
  [[nodiscard]] static std::size_t segment_bytes(const RingConfig& cfg);
  [[nodiscard]] Header* hdr() const;
  [[nodiscard]] std::uint8_t* req_slot(std::uint64_t seq) const;
  [[nodiscard]] std::uint8_t* resp_slot(std::uint64_t seq) const;

  std::string name_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  bool creator_ = false;
};

/// Globally-unique segment name: "/dchag_ing_<pid>_<seq>_<rand>". The
/// prefix is load-bearing — scripts/check.sh sweeps /dev/shm/dchag_ing_*
/// left behind by interrupted runs.
[[nodiscard]] std::string make_ring_name();

}  // namespace dchag::ingress
