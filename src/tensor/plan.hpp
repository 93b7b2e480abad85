// Static memory plan for the tape-free serving forward: a capacity-class
// arena of aligned, reusable tensor buffers.
//
// Installing an ArenaScope on the serving thread reroutes every Tensor
// construction on that thread through the arena. A request of n floats is
// rounded up to its capacity class (the next power of two) and served
// best-fit: the smallest parked buffer whose capacity covers the class.
// On a miss every parked buffer is smaller than the request. If the
// request is above every class served so far — a new largest shape — the
// arena releases them all before allocating, so its footprint follows the
// largest shape served, not the number of (batch, channel-subset) shapes
// seen. Other misses keep them, since the same forward reuses them a
// moment later, unless the arena would then hold more than twice its live
// peak; then it releases the smallest until it fits. There is no knob.
//
// Warm-up / steady state: a forward builds the same graph every request,
// and a smaller shape fits in the buffers of a larger one. Once the
// largest shape has been served the pool settles within a few forwards,
// and from then on every request draws from it — zero heap allocations,
// which tests and the serving bench gate on via
// thread_buffer_allocations().
//
// Lifetime: buffers carry a deleter owning a reference to the arena's
// shared state, so result tensors that escape the scope (responses, the
// SPMD published result) stay valid past the arena. While the arena
// lives they return to the pool when the last Tensor referencing them
// dies; once it is gone they are freed. The pool is mutex-protected: one
// Engine-owned arena is shared by every server worker thread.
#pragma once

#include <cstdint>
#include <memory>

#include "tensor/align.hpp"
#include "tensor/shape.hpp"

namespace dchag::tensor::plan {

/// Physical buffer allocations (operator new of an AlignedVec) performed
/// on the CALLING thread since it started — arena reuses do not count.
/// The serving steady-state contract is that this stays flat across a
/// warmed-up forward.
[[nodiscard]] std::uint64_t thread_buffer_allocations();

class Arena {
 public:
  struct Stats {
    std::uint64_t fresh = 0;   ///< pool misses (heap allocations)
    std::uint64_t reused = 0;  ///< pool hits
    std::uint64_t pooled = 0;  ///< buffers currently parked in the pool
    /// Capacity bytes of every buffer the arena owns: parked plus
    /// handed out. The arena's footprint.
    std::uint64_t held_bytes = 0;
    /// Peak over time of the requested (numel) bytes handed out at once:
    /// what the workload needed, before class rounding.
    std::uint64_t peak_live_bytes = 0;

    Stats& operator+=(const Stats& o);
  };

  Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  /// Frees the parked buffers; buffers still handed out are freed when
  /// their last reference dies.
  ~Arena();

  /// A buffer of at least `n` floats whose first `n` are zero, pooled if
  /// available. Tensors read only their first numel() elements.
  [[nodiscard]] std::shared_ptr<AlignedVec> acquire(Index n);
  /// Same, but contents are unspecified (reused buffers keep stale data);
  /// callers must overwrite the first `n` elements.
  [[nodiscard]] std::shared_ptr<AlignedVec> acquire_raw(Index n);

  [[nodiscard]] Stats stats() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// RAII: routes Tensor buffer acquisition on this thread through `arena`
/// for the scope's lifetime. Nests; restores the previous arena (or none)
/// on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

namespace detail {
/// Tensor's allocation hook: the active arena's acquire (zeroed /
/// uninitialised) when an ArenaScope is installed on this thread, a plain
/// counted heap allocation otherwise.
[[nodiscard]] std::shared_ptr<AlignedVec> acquire_buffer(Index n);
[[nodiscard]] std::shared_ptr<AlignedVec> acquire_buffer_raw(Index n);
}  // namespace detail

}  // namespace dchag::tensor::plan
