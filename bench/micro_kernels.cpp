// Microbenchmark (google-benchmark): tensor kernels and model building
// blocks of the CPU substrate (matmul, softmax, attention fwd/bwd,
// aggregation units). Characterises the simulator, not Frontier.
//
// The *Backend benches sweep the runtime-dispatched kernel backends
// (0 = naive, 1 = blocked, 2 = parallel; tensor/kernel_config.hpp).
// The RowKernel and Permute benches time the transcendental row kernels
// and the head split at the shapes the D-CHAG serving model runs them
// (tensor/row_kernels.hpp), on the blocked backend.
//
// From a Release build, this command (one line, shown wrapped)
// regenerates the committed BENCH_kernels.json, which
// scripts/bench_compare.py gates on (see .github/workflows/ci.yml):
//   micro_kernels --benchmark_filter='Backend|RowKernel|Permute'
//     --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
//     --benchmark_context=nproc=$(nproc)
//     --benchmark_context=build_type=Release
//     --benchmark_context=commit=$(git describe --always --dirty)
//     --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "model/aggregation.hpp"
#include "model/tokenizer.hpp"
#include "model/vit.hpp"
#include "tensor/kernel_config.hpp"

namespace {

using namespace dchag;
using autograd::Variable;
using tensor::KernelBackend;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
namespace ops = tensor::ops;

KernelBackend backend_arg(std::int64_t v) {
  switch (v) {
    case 0: return KernelBackend::kNaive;
    case 1: return KernelBackend::kBlocked;
    default: return KernelBackend::kParallel;
  }
}

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = rng.normal_tensor(Shape{n, n});
  Tensor b = rng.normal_tensor(Shape{n, n});
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// ----- kernel-backend sweeps (the bench-gate surface) ----------------------

void BM_MatmulBackend(benchmark::State& state) {
  const auto n = state.range(0);
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({backend_arg(state.range(1)), 0}));
  Rng rng(1);
  Tensor a = rng.normal_tensor(Shape{n, n});
  Tensor b = rng.normal_tensor(Shape{n, n});
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulBackend)
    ->ArgNames({"n", "backend"})
    ->ArgsProduct({{128, 256, 512}, {0, 1, 2}});

void BM_BatchedMatmulBackend(benchmark::State& state) {
  // The attention shape: [B*h, N, dh] x shared [dh, dh'] projections.
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({backend_arg(state.range(0)), 0}));
  Rng rng(2);
  Tensor a = rng.normal_tensor(Shape{16, 64, 64});
  Tensor b = rng.normal_tensor(Shape{64, 64});
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 2 * 64 * 64 * 64);
}
BENCHMARK(BM_BatchedMatmulBackend)->ArgNames({"backend"})->DenseRange(0, 2);

void BM_SoftmaxBackend(benchmark::State& state) {
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({backend_arg(state.range(0)), 0}));
  Rng rng(3);
  Tensor a = rng.normal_tensor(Shape{512, 1024});
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(a);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxBackend)->ArgNames({"backend"})->DenseRange(0, 2);

void BM_ElementwiseBackend(benchmark::State& state) {
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({backend_arg(state.range(0)), 0}));
  Rng rng(4);
  Tensor a = rng.normal_tensor(Shape{1024, 1024});
  Tensor b = rng.normal_tensor(Shape{1024, 1024});
  for (auto _ : state) {
    Tensor y = ops::gelu(ops::add(a, b));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ElementwiseBackend)->ArgNames({"backend"})->DenseRange(0, 2);

// ----- row kernels at the serving model's shapes ----------------------------

/// Softmax over the aggregation tree's C x C score rows (D = 32) and GELU
/// over an MLP up-projection ([2048, 256]); items = elements.
void BM_RowKernelSoftmax(benchmark::State& state) {
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({KernelBackend::kBlocked, 1}));
  Rng rng(5);
  Tensor a = rng.normal_tensor(Shape{state.range(0), state.range(1)});
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(a);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_RowKernelSoftmax)
    ->ArgNames({"rows", "d"})
    ->Args({65536, 32})
    ->Unit(benchmark::kMillisecond);

void BM_RowKernelGelu(benchmark::State& state) {
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({KernelBackend::kBlocked, 1}));
  Rng rng(6);
  Tensor a = rng.normal_tensor(Shape{state.range(0), state.range(1)});
  for (auto _ : state) {
    Tensor y = ops::gelu(a);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_RowKernelGelu)
    ->ArgNames({"rows", "d"})
    ->Args({2048, 256})
    ->Unit(benchmark::kMillisecond);

/// split_heads at the aggregator's [B, N, C, h, dh] = [8, 64, 32, 4, 16]:
/// head_dim stays innermost, so permute copies 16-float runs.
void BM_PermuteSplitHeads(benchmark::State& state) {
  runtime::Scope scope(
      runtime::ContextPatch::with_kernels({KernelBackend::kBlocked, 1}));
  Rng rng(7);
  Tensor a = rng.normal_tensor(Shape{8, 64, 32, 4, 16});
  for (auto _ : state) {
    Tensor y = ops::permute(a, {0, 1, 3, 2, 4});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_PermuteSplitHeads)->Unit(benchmark::kMillisecond);

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(2);
  Tensor a = rng.normal_tensor(Shape{64, state.range(0)});
  for (auto _ : state) {
    Tensor y = ops::softmax_lastdim(a);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLastDim)->Arg(128)->Arg(1024);

void BM_SelfAttentionForward(benchmark::State& state) {
  Rng rng(3);
  model::MultiHeadSelfAttention attn(64, 4, rng);
  Tensor x = rng.normal_tensor(Shape{2, state.range(0), 64});
  for (auto _ : state) {
    Variable y = attn.forward(Variable::input(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_SelfAttentionForward)->Arg(16)->Arg(64);

void BM_SelfAttentionBackward(benchmark::State& state) {
  Rng rng(4);
  model::MultiHeadSelfAttention attn(64, 4, rng);
  Tensor x = rng.normal_tensor(Shape{2, state.range(0), 64});
  for (auto _ : state) {
    attn.zero_grad();
    Variable y = attn.forward(Variable::input(x));
    autograd::sum_all(y).backward();
    benchmark::DoNotOptimize(attn.parameters().front().grad().data());
  }
}
BENCHMARK(BM_SelfAttentionBackward)->Arg(16)->Arg(64);

void BM_CrossAttentionAggregator(benchmark::State& state) {
  const auto channels = state.range(0);
  Rng rng(5);
  model::CrossAttentionAggregator agg(32, 4, channels,
                                      model::QueryMode::kChannelTokens, rng);
  Tensor tokens = rng.normal_tensor(Shape{1, 16, channels, 32});
  for (auto _ : state) {
    Variable y = agg.forward(Variable::input(tokens));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_CrossAttentionAggregator)->Arg(8)->Arg(32)->Arg(64);

void BM_AggregationTreeVsFlat(benchmark::State& state) {
  // Tree over 64 channels with width state.range(0).
  const auto width = state.range(0);
  model::ModelConfig cfg = model::ModelConfig::tiny();
  Rng rng(6);
  model::AggregationTree tree(cfg, model::AggLayerKind::kCrossAttention, 64,
                              width, rng);
  Tensor tokens = rng.normal_tensor(Shape{1, 16, 64, cfg.embed_dim});
  for (auto _ : state) {
    Variable y = tree.forward(Variable::input(tokens));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_AggregationTreeVsFlat)->Arg(64)->Arg(16)->Arg(4);

void BM_PatchTokenizer(benchmark::State& state) {
  model::ModelConfig cfg = model::ModelConfig::tiny();
  Rng rng(7);
  model::PatchTokenizer tok(cfg, state.range(0), rng);
  Tensor img = rng.normal_tensor(Shape{2, state.range(0), 16, 16});
  for (auto _ : state) {
    Variable t = tok.forward(img);
    benchmark::DoNotOptimize(t.value().data());
  }
}
BENCHMARK(BM_PatchTokenizer)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
