// The serving memory plan's kernel-level contracts:
//  * gemm_blocked_prepacked is bit-identical to gemm_blocked (same packed
//    panels, same loop order) on every shape the block/offset bookkeeping
//    could mishandle, and the packed storage is 32-byte aligned;
//  * ops::matmul with an Epilogue (per call or on pre-packed panels) and
//    layernorm_value are bit-identical to the unfused op chains they
//    replace, on every backend, and descriptors that cannot apply throw;
//  * the Arena reuses buffers (zero heap allocations once warm), serves a
//    smaller request from a larger parked buffer zeroed over its numel,
//    releases smaller parked buffers when a new largest class arrives,
//    stays consistent under concurrent acquire/release, and buffers
//    outlive the arena itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "tensor/rng.hpp"

namespace dchag::tensor {
namespace {

namespace ops = tensor::ops;

const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

runtime::ContextPatch backend_patch(KernelBackend b) {
  return runtime::ContextPatch::with_kernels({b, 0});
}

/// gemm_blocked vs gemm_blocked_prepacked on raw buffers, plus a naive
/// k-ascending oracle with a scaled-input 1e-5 bound.
void expect_prepacked_parity(Index M, Index N, Index K, std::uint64_t seed) {
  const float s = 1.0f / std::sqrt(std::max<float>(1.0f, static_cast<float>(K)));
  Rng rng(seed);
  Tensor a = rng.normal_tensor(Shape{M, K}, 0.0f, s);
  Tensor b = rng.normal_tensor(Shape{K, N}, 0.0f, s);
  Tensor c_blocked(Shape{M, N});
  Tensor c_packed(Shape{M, N});
  gemm::gemm_blocked(M, N, K, a.data(), K, b.data(), N,
                     c_blocked.data(), N);
  gemm::PackedB pb = gemm::pack_b_matrix(b.data(), K, N, N);
  EXPECT_TRUE(pb.matches(K, N));
  EXPECT_TRUE(is_aligned(pb.data.data()));
  gemm::gemm_blocked_prepacked(M, a.data(), K, pb, c_packed.data(),
                               N);
  EXPECT_EQ(ops::max_abs_diff(c_blocked, c_packed), 0.0f)
      << "prepacked drifted from per-call packing at M=" << M << " N=" << N
      << " K=" << K;

  // Naive oracle: strictly k-ascending accumulation per element.
  Tensor c_ref(Shape{M, N});
  float* cr = c_ref.data();
  for (Index i = 0; i < M; ++i)
    for (Index k = 0; k < K; ++k) {
      const float av = a.data()[i * K + k];
      for (Index j = 0; j < N; ++j) cr[i * N + j] += av * b.data()[k * N + j];
    }
  EXPECT_LE(ops::max_abs_diff(c_ref, c_packed), 1e-5f);
}

TEST(GemmPrepacked, TileAlignedSingleBlock) {
  expect_prepacked_parity(120, 512, 256, 1);
  expect_prepacked_parity(6, 16, 256, 2);
}

TEST(GemmPrepacked, MultiBlockWithEdges) {
  // N spans two NC blocks plus an edge, K spans three KC blocks with an
  // edge: the offset table must step by the exact per-block panel count.
  expect_prepacked_parity(250, 1040, 600, 3);
  // Edge jc block narrower than one NR panel.
  expect_prepacked_parity(37, 513, 257, 4);
}

TEST(GemmPrepacked, OddShapesOffTileBoundaries) {
  expect_prepacked_parity(1, 1, 1, 5);
  expect_prepacked_parity(37, 29, 53, 6);
  expect_prepacked_parity(7, 17, 300, 7);
  expect_prepacked_parity(121, 15, 511, 8);
}

TEST(GemmPrepacked, PackMatchesRejectsOtherShapes) {
  Rng rng(9);
  Tensor b = rng.normal_tensor(Shape{8, 8});
  gemm::PackedB pb = gemm::pack_b_matrix(b.data(), 8, 8, 8);
  EXPECT_TRUE(pb.matches(8, 8));
  EXPECT_FALSE(pb.matches(8, 16));
  EXPECT_FALSE(pb.matches(16, 8));
}

// ----- fused epilogues -------------------------------------------------------

/// ops::matmul with a Linear-style epilogue (packed and per-call) vs the
/// unfused op chain, bitwise, on the active backend.
void expect_fused_linear_parity(const Shape& x_shape, Index N,
                                std::uint64_t seed) {
  const Index K = x_shape.dim(-1);
  Rng rng(seed);
  const float s = 1.0f / std::sqrt(static_cast<float>(K));
  Tensor x = rng.normal_tensor(x_shape, 0.0f, s);
  Tensor w = rng.normal_tensor(Shape{K, N}, 0.0f, s);
  Tensor bias = rng.normal_tensor(Shape{N});
  Tensor gamma = rng.normal_tensor(Shape{N}, 1.0f, 0.1f);
  Tensor beta = rng.normal_tensor(Shape{N}, 0.0f, 0.1f);
  gemm::PackedB pb = gemm::pack_b_matrix(w.data(), K, N, N);

  Tensor base = ops::add(ops::matmul(x, w), bias);
  Tensor residual = rng.normal_tensor(base.shape(), 0.0f, s);

  const ops::Epilogue bias_only{.bias = &bias};
  const ops::Epilogue bias_gelu{.bias = &bias, .gelu = true};
  const ops::Epilogue bias_res{.bias = &bias, .residual = &residual};
  const ops::Epilogue full{
      .bias = &bias, .residual = &residual, .gamma = &gamma, .beta = &beta};

  for (const gemm::PackedB* packed : {&pb, static_cast<gemm::PackedB*>(nullptr)}) {
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(x, w, bias_only, packed), base),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(x, w, bias_gelu, packed),
                                ops::gelu(base)),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(x, w, bias_res, packed),
                                ops::add(residual, base)),
              0.0f);
    EXPECT_EQ(
        ops::max_abs_diff(ops::matmul(x, w, full, packed),
                          ops::layernorm(ops::add(residual, base), gamma,
                                         beta)
                              .y),
        0.0f);
  }
}

TEST(FusedEpilogues, LinearBitIdenticalAcrossBackends) {
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    expect_fused_linear_parity(Shape{33, 24}, 40, 11);
    expect_fused_linear_parity(Shape{2, 7, 19, 24}, 16, 12);  // flat rows
    expect_fused_linear_parity(Shape{1, 24}, 24, 13);
  }
}

TEST(FusedEpilogues, MatmulScaleSoftmaxBitIdenticalAcrossBackends) {
  Rng rng(14);
  Tensor a = rng.normal_tensor(Shape{2, 3, 9, 8}, 0.0f, 0.35f);
  Tensor bt = rng.normal_tensor(Shape{2, 3, 8, 13}, 0.0f, 0.35f);
  Tensor b2 = rng.normal_tensor(Shape{8, 13}, 0.0f, 0.35f);  // shared B
  const float s = 1.0f / std::sqrt(8.0f);
  const gemm::PackedB pb2 = gemm::pack_b_matrix(b2.data(), 8, 13, 13);
  const ops::Epilogue scale_softmax{.scale = s, .softmax = true};
  // Bias over a batched B: every batch slice gets the same row bias.
  Tensor bias = rng.normal_tensor(Shape{13});
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    EXPECT_EQ(
        ops::max_abs_diff(ops::matmul(a, bt, scale_softmax),
                          ops::softmax_lastdim(ops::scale(ops::matmul(a, bt),
                                                          s))),
        0.0f);
    const Tensor shared_ref =
        ops::softmax_lastdim(ops::scale(ops::matmul(a, b2), s));
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(a, b2, scale_softmax),
                                shared_ref),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(a, b2, scale_softmax, &pb2),
                                shared_ref),
              0.0f);
    EXPECT_EQ(ops::max_abs_diff(ops::matmul(a, bt, {.bias = &bias}),
                                ops::add(ops::matmul(a, bt), bias)),
              0.0f);
  }
}

TEST(FusedEpilogues, DescriptorsThatCannotApplyThrowTyped) {
  Rng rng(16);
  Tensor a = rng.normal_tensor(Shape{2, 5, 8});
  Tensor batched = rng.normal_tensor(Shape{2, 8, 6});
  Tensor w = rng.normal_tensor(Shape{8, 6});
  Tensor gamma(Shape{6}, 1.0f);
  Tensor beta(Shape{6}, 0.0f);
  const gemm::PackedB pb = gemm::pack_b_matrix(w.data(), 8, 6, 6);
  const gemm::PackedB other = gemm::pack_b_matrix(w.data(), 6, 8, 8);
  // Pre-packed panels only stand in for one shared B of their shape.
  EXPECT_THROW((void)ops::matmul(a, batched, {}, &pb), Error);
  EXPECT_THROW((void)ops::matmul(a, w, {}, &other), Error);
  EXPECT_THROW((void)ops::matmul(
                   a, w, {.softmax = true, .gamma = &gamma, .beta = &beta}),
               Error);
  EXPECT_EQ(ops::matmul(a, w, {}, &pb).shape(), (Shape{2, 5, 6}));
}

TEST(FusedEpilogues, LayernormValueMatchesLayernormY) {
  Rng rng(15);
  Tensor x = rng.normal_tensor(Shape{257, 48});
  Tensor gamma = rng.normal_tensor(Shape{48}, 1.0f, 0.1f);
  Tensor beta = rng.normal_tensor(Shape{48}, 0.0f, 0.1f);
  for (KernelBackend b : {KernelBackend::kNaive, KernelBackend::kBlocked,
                          KernelBackend::kParallel}) {
    runtime::Scope scope(backend_patch(b));
    EXPECT_EQ(ops::max_abs_diff(ops::layernorm_value(x, gamma, beta),
                                ops::layernorm(x, gamma, beta).y),
              0.0f);
  }
}

// ----- arena -----------------------------------------------------------------

TEST(Arena, ReusesReleasedBuffersAndCounts) {
  plan::Arena arena;
  const std::uint64_t before = plan::thread_buffer_allocations();
  {
    auto b1 = arena.acquire(64);
    EXPECT_TRUE(is_aligned(b1->data()));
    (*b1)[0] = 42.0f;
  }  // parked
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
  auto b2 = arena.acquire(64);  // pool hit, zeroed
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
  EXPECT_EQ((*b2)[0], 0.0f);
  auto b3 = arena.acquire(64);  // b2 still held: fresh
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 2u);
  const plan::Arena::Stats s = arena.stats();
  EXPECT_EQ(s.fresh, 2u);
  EXPECT_EQ(s.reused, 1u);
  (void)b3;
}

TEST(Arena, BuffersOutliveTheArena) {
  std::shared_ptr<AlignedVec> escaped;
  {
    plan::Arena arena;
    escaped = arena.acquire(16);
  }
  (*escaped)[15] = 1.0f;  // state kept alive by the deleter
  escaped.reset();        // the arena is gone: freed, not parked

  // The same under a scope, with parked buffers freed at destruction.
  Tensor result;
  {
    plan::Arena arena;
    plan::ArenaScope scope(arena);
    Tensor scratch(Shape{4, 64}, 1.0f);
    result = ops::add(scratch, scratch);
  }
  for (float v : result.span()) EXPECT_EQ(v, 2.0f);
}

TEST(Arena, SmallerRequestReusesALargerParkedBufferZeroedOverItsNumel) {
  plan::Arena arena;
  const float* parked = nullptr;
  {
    auto big = arena.acquire_raw(1000);  // class 1024
    std::fill(big->begin(), big->end(), 7.0f);
    parked = big->data();
  }
  const std::uint64_t before = plan::thread_buffer_allocations();
  auto small = arena.acquire(300);
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 0u);
  EXPECT_EQ(small->data(), parked) << "best fit is the one parked buffer";
  for (Index i = 0; i < 300; ++i) ASSERT_EQ((*small)[i], 0.0f) << i;
  // Only numel is zeroed: the capacity tail keeps its stale contents.
  EXPECT_EQ((*small)[300], 7.0f);
  small.reset();
  {
    plan::ArenaScope scope(arena);
    Tensor t(Shape{5, 60}, 2.5f);  // the same buffer, filled over numel
    EXPECT_EQ(t.data(), parked);
    for (float v : t.span()) ASSERT_EQ(v, 2.5f);
  }
  const plan::Arena::Stats s = arena.stats();
  EXPECT_EQ(s.fresh, 1u);
  EXPECT_EQ(s.reused, 2u);
  EXPECT_EQ(s.held_bytes, 1024u * sizeof(float));
  EXPECT_EQ(s.peak_live_bytes, 1000u * sizeof(float));
}

TEST(Arena, NewLargestClassReleasesSmallerParkedBuffers) {
  plan::Arena arena;
  {
    auto a = arena.acquire(64);   // class 64
    auto b = arena.acquire(100);  // class 128
  }
  plan::Arena::Stats s = arena.stats();
  EXPECT_EQ(s.pooled, 2u);
  EXPECT_EQ(s.held_bytes, (64u + 128u) * sizeof(float));
  auto big = arena.acquire(5000);  // class 8192, above every class so far
  s = arena.stats();
  EXPECT_EQ(s.pooled, 0u) << "the smaller parked buffers were released";
  EXPECT_EQ(s.held_bytes, 8192u * sizeof(float));
  big.reset();
  {
    // The first takes the parked 8192 buffer; the second misses below the
    // largest class, which adds one buffer and releases nothing.
    auto c = arena.acquire(16);
    auto d = arena.acquire(16);
  }
  s = arena.stats();
  EXPECT_EQ(s.pooled, 2u);
  EXPECT_EQ(s.held_bytes, (8192u + 16u) * sizeof(float));
  EXPECT_EQ(s.fresh, 4u);
  EXPECT_EQ(s.peak_live_bytes, 5000u * sizeof(float));
}

TEST(Arena, ConcurrentAcquireAndReleaseOnASharedArena) {
  // serve::Engine shares one arena across every server worker thread.
  plan::Arena arena;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      std::mt19937 gen(static_cast<unsigned>(t + 1));
      std::vector<std::pair<std::shared_ptr<AlignedVec>, Index>> held;
      const auto mark = static_cast<float>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        const auto n = static_cast<Index>(1 + gen() % 5000);
        auto buf = arena.acquire(n);
        for (Index j = 0; j < n; ++j) {
          ASSERT_EQ((*buf)[j], 0.0f);
          (*buf)[j] = mark;
        }
        held.emplace_back(std::move(buf), n);
        if (held.size() > 3) {
          // No other thread wrote into a buffer this one still holds.
          const auto& [old, m] = held.front();
          for (Index j = 0; j < m; ++j) ASSERT_EQ((*old)[j], mark);
          held.erase(held.begin());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const plan::Arena::Stats s = arena.stats();
  EXPECT_EQ(s.fresh + s.reused, std::uint64_t{kThreads} * kIters);
  EXPECT_GT(s.reused, 0u);
  EXPECT_GT(s.pooled, 0u);  // released buffers park again
}

TEST(Arena, ScopeRoutesTensorsAndSteadyStateAllocatesNothing) {
  plan::Arena arena;
  const Shape shape{13, 7};
  auto forward = [&] {
    // A miniature "request": a few op-sized temporaries plus a result.
    Tensor a(shape, 0.5f);
    Tensor b(shape, 0.25f);
    return ops::add(ops::mul(a, b), a);
  };
  Tensor result;
  {
    plan::ArenaScope scope(arena);
    result = forward();  // warm-up populates the pool
    result = forward();  // previous result's buffer returns mid-steady
    const std::uint64_t before = plan::thread_buffer_allocations();
    result = forward();
    EXPECT_EQ(plan::thread_buffer_allocations() - before, 0u)
        << "steady-state forward touched the heap";
  }
  EXPECT_GT(arena.stats().reused, 0u);
  // Outside the scope, construction is plain counted heap allocation.
  const std::uint64_t before = plan::thread_buffer_allocations();
  Tensor t(shape);
  EXPECT_EQ(plan::thread_buffer_allocations() - before, 1u);
}

}  // namespace
}  // namespace dchag::tensor
