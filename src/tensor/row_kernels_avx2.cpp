// The AVX2+FMA row kernels: row_kernels_impl.hpp instantiated over an
// 8-wide lane type. Built with the GEMM micro-kernel's SIMD flags (see
// src/tensor/CMakeLists.txt); row_kernels.cpp only hands this table out
// when the CPU has AVX2 and FMA.
#include "tensor/row_kernels.hpp"

#if defined(DCHAG_GEMM_AVX2)
#include <immintrin.h>

#include "tensor/row_kernels_impl.hpp"
#endif

namespace dchag::tensor::rowk {

#if defined(DCHAG_GEMM_AVX2)
namespace {

/// Eight lanes that match Scalar operation for operation: maxps/minps
/// return the second operand on NaN, exactly like `a > b ? a : b`.
struct Avx2 {
  using V = __m256;
  using M = __m256;
  static constexpr Index kWidth = 8;
  static V set(float c) { return _mm256_set1_ps(c); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V round(V a) {
    return _mm256_round_ps(a, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static M lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static M gt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static M eq(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static V select(M m, V a, V b) { return _mm256_blendv_ps(b, a, m); }
  static V ldexp2(V p, V n) {
    const __m256i k = _mm256_cvtps_epi32(n);
    const __m256i h = _mm256_srai_epi32(k, 1);
    const __m256i bias = _mm256_set1_epi32(127);
    const auto pow2 = [&](__m256i e) {
      return _mm256_castsi256_ps(
          _mm256_slli_epi32(_mm256_add_epi32(e, bias), 23));
    };
    return mul(mul(p, pow2(h)), pow2(_mm256_sub_epi32(k, h)));
  }
};

constexpr RowKernels kAvx2Kernels = make_row_kernels<Avx2>("avx2");

}  // namespace
#endif

namespace detail {

const RowKernels* avx2_table() {
#if defined(DCHAG_GEMM_AVX2)
  return &kAvx2Kernels;
#else
  return nullptr;
#endif
}

}  // namespace detail

}  // namespace dchag::tensor::rowk
