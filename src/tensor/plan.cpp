#include "tensor/plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <utility>
#include <vector>

namespace dchag::tensor::plan {

namespace {

thread_local std::uint64_t t_buffer_allocations = 0;
thread_local Arena* t_active_arena = nullptr;

/// Capacity classes are powers of two: class k holds 2^k floats.
constexpr int kClasses = 64;

int class_of(Index n) {
  return n <= 1 ? 0 : std::bit_width(static_cast<std::uint64_t>(n - 1));
}

std::uint64_t bytes_of(std::uint64_t floats) { return floats * sizeof(float); }

}  // namespace

std::uint64_t thread_buffer_allocations() { return t_buffer_allocations; }

Arena::Stats& Arena::Stats::operator+=(const Stats& o) {
  fresh += o.fresh;
  reused += o.reused;
  pooled += o.pooled;
  held_bytes += o.held_bytes;
  peak_live_bytes += o.peak_live_bytes;
  return *this;
}

struct Arena::State {
  mutable std::mutex mu;
  /// parked[k] holds free buffers of exactly 2^k floats; bit k of
  /// `occupied` is set iff parked[k] is non-empty, so best-fit is one
  /// count-trailing-zeros over the classes at or above the request's.
  std::array<std::vector<std::unique_ptr<AlignedVec>>, kClasses> parked;
  std::uint64_t occupied = 0;
  int largest_class = -1;  ///< largest class ever allocated
  bool orphaned = false;   ///< the Arena is gone: release frees, not parks
  std::uint64_t pooled = 0;
  std::uint64_t fresh = 0;
  std::uint64_t reused = 0;
  std::uint64_t held_bytes = 0;
  std::uint64_t parked_bytes = 0;
  std::uint64_t live_bytes = 0;  ///< requested bytes handed out
  std::uint64_t peak_live_bytes = 0;

  /// Unparks one buffer of class `j`. Caller holds `mu`.
  std::unique_ptr<AlignedVec> take(int j) {
    auto& free = parked[static_cast<std::size_t>(j)];
    std::unique_ptr<AlignedVec> buf = std::move(free.back());
    free.pop_back();
    if (free.empty()) occupied &= ~(std::uint64_t{1} << j);
    parked_bytes -= bytes_of(buf->size());
    --pooled;
    return buf;
  }

  /// Moves parked buffers, smallest class first, into `out` (freed by the
  /// caller after unlocking) until at most `keep` parked bytes remain.
  /// Caller holds `mu`.
  void evict(std::uint64_t keep,
             std::vector<std::unique_ptr<AlignedVec>>* out) {
    while (parked_bytes > keep) {
      out->push_back(take(std::countr_zero(occupied)));
      held_bytes -= bytes_of(out->back()->size());
    }
  }
};

Arena::Arena() : state_(std::make_shared<State>()) {}

Arena::~Arena() {
  std::vector<std::unique_ptr<AlignedVec>> evicted;  // freed unlocked
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->orphaned = true;
  state_->evict(0, &evicted);
}

std::shared_ptr<AlignedVec> Arena::acquire_raw(Index n) {
  const int k = class_of(n);
  const std::uint64_t live = bytes_of(static_cast<std::uint64_t>(n));
  std::unique_ptr<AlignedVec> buf;
  {
    std::vector<std::unique_ptr<AlignedVec>> evicted;  // freed unlocked,
                                                       // before the new one
    std::lock_guard<std::mutex> lock(state_->mu);
    State& s = *state_;
    // Twice the live peak, this request counted, bounds the capacity the
    // arena holds. A hit may borrow a larger parked buffer only while the
    // capacity handed out stays within it: a small request parked in a
    // much larger buffer is capacity no eviction can return.
    const std::uint64_t bound =
        2 * std::max(s.peak_live_bytes, s.live_bytes + live);
    const std::uint64_t handed_out = s.held_bytes - s.parked_bytes;
    const std::uint64_t room = bound > handed_out ? bound - handed_out : 0;
    const int widest = std::bit_width(room / sizeof(float)) - 1;
    const std::uint64_t fits =
        widest < k ? 0
                   : s.occupied & (~std::uint64_t{0} << k) &
                         (~std::uint64_t{0} >> (kClasses - 1 - widest));
    if (fits != 0) {
      buf = s.take(std::countr_zero(fits));
      ++s.reused;
    } else {
      // A request above every class served so far is a new largest
      // shape, and every parked buffer is smaller: release them all, so
      // the footprint follows that shape rather than the shapes before
      // it. Any other miss keeps them — the same forward reuses
      // them a moment later — unless the arena would then hold more than
      // twice its live peak; then the smallest go first.
      const std::uint64_t cap = bytes_of(std::uint64_t{1} << k);
      const std::uint64_t in_use = handed_out + cap;
      const std::uint64_t keep =
          k > s.largest_class || in_use >= bound ? 0 : bound - in_use;
      s.evict(keep, &evicted);
      s.largest_class = std::max(s.largest_class, k);
      ++s.fresh;
      s.held_bytes += cap;
    }
    s.live_bytes += live;
    s.peak_live_bytes = std::max(s.peak_live_bytes, s.live_bytes);
  }
  if (!buf) {
    buf = std::make_unique<AlignedVec>(std::size_t{1} << k);
    ++t_buffer_allocations;
  }
  // The deleter owns a reference to the shared state, so buffers released
  // after the Arena object is gone are still accounted and freed safely.
  std::shared_ptr<State> state = state_;
  AlignedVec* raw = buf.release();
  return std::shared_ptr<AlignedVec>(raw, [state, live](AlignedVec* p) {
    std::unique_ptr<AlignedVec> owned(p);  // declared first: freed unlocked
    std::lock_guard<std::mutex> lock(state->mu);
    state->live_bytes -= live;
    if (state->orphaned) {
      state->held_bytes -= bytes_of(p->size());
      return;
    }
    const int j = std::countr_zero(p->size());
    state->parked[j].push_back(std::move(owned));
    state->occupied |= std::uint64_t{1} << j;
    state->parked_bytes += bytes_of(p->size());
    ++state->pooled;
  });
}

std::shared_ptr<AlignedVec> Arena::acquire(Index n) {
  std::shared_ptr<AlignedVec> buf = acquire_raw(n);
  std::fill_n(buf->begin(), n, 0.0f);
  return buf;
}

Arena::Stats Arena::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  Stats s;
  s.fresh = state_->fresh;
  s.reused = state_->reused;
  s.pooled = state_->pooled;
  s.held_bytes = state_->held_bytes;
  s.peak_live_bytes = state_->peak_live_bytes;
  return s;
}

ArenaScope::ArenaScope(Arena& arena) : prev_(t_active_arena) {
  t_active_arena = &arena;
}

ArenaScope::~ArenaScope() { t_active_arena = prev_; }

namespace detail {

std::shared_ptr<AlignedVec> acquire_buffer(Index n) {
  if (t_active_arena != nullptr) return t_active_arena->acquire(n);
  ++t_buffer_allocations;
  return std::make_shared<AlignedVec>(static_cast<std::size_t>(n), 0.0f);
}

std::shared_ptr<AlignedVec> acquire_buffer_raw(Index n) {
  if (t_active_arena != nullptr) return t_active_arena->acquire_raw(n);
  ++t_buffer_allocations;
  return std::make_shared<AlignedVec>(static_cast<std::size_t>(n));
}

}  // namespace detail

}  // namespace dchag::tensor::plan
