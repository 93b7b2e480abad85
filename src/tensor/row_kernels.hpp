// Transcendental row kernels: exp, softmax, GELU and GELU's derivative
// over contiguous float rows. Every backend (naive, blocked, parallel),
// every fused GEMM epilogue and every standalone op calls these, so the
// fused == unfused, planned == unplanned and naive == parallel identities
// hold bit for bit.
//
// exp is range-reduced (x = n*ln2 + r, |r| <= ln2/2), evaluated with a
// degree-6 FMA polynomial and scaled by 2^n through the exponent bits. It
// is within 2.4e-7 relative error of the true value on [-87.3, 88.7]
// (libm expf: 6e-8). Special values:
//   exp(NaN) = NaN, exp(-inf) = 0, exp(+inf) = +inf,
//   x below ln(FLT_MIN) gives 0, x above ln(FLT_MAX) gives +inf;
//   a softmax row holding NaN or +inf comes out all NaN.
// GELU (tanh form) is evaluated as x / (1 + exp(-2u)), the same function
// as 0.5 x (1 + tanh u) with u = sqrt(2/pi) (x + 0.044715 x^3); its
// derivative uses the same sigmoid.
//
// Two implementations exist: an AVX2+FMA one (row_kernels_avx2.cpp, the
// TU compiled with the GEMM micro-kernel's SIMD flags) and a portable
// scalar twin (row_kernels.cpp). Both instantiate one algorithm
// (row_kernels_impl.hpp) over different lane types: the same operations
// in the same order, fused multiply-adds through fmaf, softmax row sums
// striped over eight lanes. They therefore produce the same bits, and the
// AVX2 version runs its row tails through the scalar twin's code. Which
// one runs is decided once per process by CPU capability alone.
#pragma once

#include "tensor/shape.hpp"

namespace dchag::tensor::rowk {

/// One implementation of every row kernel. `softmax` may run in place
/// (out == row); the elementwise kernels may too (y == x).
struct RowKernels {
  const char* name;
  void (*exp)(const float* x, float* y, Index n);
  void (*softmax)(const float* row, float* out, Index d);
  void (*gelu)(const float* x, float* y, Index n);
  void (*gelu_grad)(const float* x, float* y, Index n);
};

/// The portable scalar twin; runs on every CPU.
[[nodiscard]] const RowKernels& scalar_kernels();

/// The AVX2+FMA kernels, or nullptr when they were not compiled in or
/// this CPU lacks AVX2/FMA.
[[nodiscard]] const RowKernels* avx2_kernels();

/// The kernels every op uses: AVX2 when available, else the scalar twin.
[[nodiscard]] const RowKernels& row_kernels();

}  // namespace dchag::tensor::rowk
