// Stateless tensor kernels. All functions return freshly-allocated tensors;
// inputs are never mutated. Elementwise binaries use numpy-style
// right-aligned broadcasting. A process-wide FLOP ledger instruments every
// matmul so the analytic hw::FlopModel can be validated against executed
// kernels (tests/hw/flop_model_test.cpp).
//
// matmul, the elementwise/broadcast fast paths, softmax, layernorm, and
// sum_dim dispatch on kernel_config() (naive | blocked | parallel); see
// tensor/kernel_config.hpp for the backend contract and env knobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace dchag::tensor::ops {

// ----- elementwise with broadcasting ---------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

/// Sum `t` down to `target` shape by reducing the dimensions that were
/// broadcast (the adjoint of broadcasting; used by autograd backward).
Tensor reduce_to_shape(const Tensor& t, const Shape& target);

// ----- linear algebra -------------------------------------------------------

/// Rowwise tail stages matmul applies to each completed output row, in
/// this order: scale, bias add, GELU, residual add, then softmax or
/// layernorm (never both). Each stage runs the exact row code of its
/// standalone op (softmax and GELU: tensor/row_kernels.hpp), and the
/// residual add only swaps the operand order of a commutative float add,
/// so a fused matmul is bit-identical to the unfused op chain — the
/// parity suites assert this. Every stage runs in the row strip that
/// produced the row, not in a separate fan-out.
struct Epilogue {
  float scale = 1.0f;                ///< ops::scale; skipped at 1
  const Tensor* bias = nullptr;      ///< [N], broadcast over rows
  bool gelu = false;
  const Tensor* residual = nullptr;  ///< same shape as the output
  bool softmax = false;              ///< ops::softmax_lastdim
  const Tensor* gamma = nullptr;     ///< [N]; with beta, layernorm tail
  const Tensor* beta = nullptr;      ///< [N]
  float eps = 1e-5f;
};

/// Batched matmul with an optional fused epilogue: a is [*, M, K]; b is
/// [*, K, N] with identical leading dims, or rank-2 [K, N] shared across
/// the batch. `packed` (gemm::pack_b_matrix of a shared b) removes pack_b
/// from the per-call path on the blocked/parallel backends. Throws Error
/// for a `packed` with batched b or of another shape, and for softmax
/// combined with layernorm.
Tensor matmul(const Tensor& a, const Tensor& b, const Epilogue& epi = {},
              const gemm::PackedB* packed = nullptr);

Tensor transpose_last2(const Tensor& a);
Tensor permute(const Tensor& a, const std::vector<Index>& perm);

// ----- nonlinearities / normalisation ---------------------------------------

Tensor softmax_lastdim(const Tensor& a);
/// GELU with tanh approximation (matches the PyTorch default used by ViTs),
/// evaluated as x / (1 + exp(-2u)) by the row kernels.
Tensor gelu(const Tensor& a);
Tensor gelu_grad(const Tensor& a);  // d gelu / d a, elementwise

struct LayerNormResult {
  Tensor y;     ///< normalised output (same shape as input)
  Tensor mean;  ///< per-row mean, shape = input shape without last dim
  Tensor rstd;  ///< per-row 1/std, same shape as mean
};
/// Layer norm over the last dimension; gamma/beta have shape [D].
LayerNormResult layernorm(const Tensor& a, const Tensor& gamma,
                          const Tensor& beta, float eps = 1e-5f);

/// Forward-only layer norm: the same kernel as layernorm() but without
/// materialising the mean/rstd tensors backward needs — the tape-free
/// serving path (three fresh tensors per call otherwise). Bit-identical y.
Tensor layernorm_value(const Tensor& a, const Tensor& gamma,
                       const Tensor& beta, float eps = 1e-5f);

// ----- shape manipulation ----------------------------------------------------

Tensor concat(std::span<const Tensor> ts, Index dim);
Tensor slice(const Tensor& a, Index dim, Index start, Index len);
/// Writes `src` into `dst` at offset `start` along `dim` (for backward of
/// slice / concat); mutates dst in place.
void add_slice_inplace(Tensor& dst, const Tensor& src, Index dim, Index start);

// ----- reductions ------------------------------------------------------------

Tensor sum_all(const Tensor& a);   // -> shape [1]
Tensor mean_all(const Tensor& a);  // -> shape [1]
Tensor sum_dim(const Tensor& a, Index dim);
Tensor mean_dim(const Tensor& a, Index dim);
/// Broadcast `a` (shape without `dim`) back across `dim` with `n` copies.
Tensor expand_dim(const Tensor& a, Index dim, Index n);

// ----- comparisons for tests -------------------------------------------------

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// ----- FLOP ledger -----------------------------------------------------------

/// Cumulative multiply-add FLOPs (2*M*N*K per matmul) executed by this
/// process since the last reset. Thread-safe (rank threads all count).
std::uint64_t flops_executed();
void reset_flops();

}  // namespace dchag::tensor::ops
