// The one definition of the row kernels' arithmetic, written against a
// lane type L so the scalar twin (row_kernels.cpp, L = Scalar) and the
// AVX2 version (row_kernels_avx2.cpp, L = 8-wide AVX2) run the same
// operations in the same order and so produce the same bits. Include it
// only from those two TUs.
//
// A lane type provides: V (value), M (mask), kWidth (1 or kStripes), and
// static set, load, store, add, sub, mul, div, fma, round (to integral,
// current rounding mode), max(a, b) = a > b ? a : b, min(a, b) =
// a < b ? a : b, lt, gt, eq (ordered), select(m, a, b) = m ? a : b, and
// ldexp2(p, n) = (p * 2^(n>>1)) * 2^(n - (n>>1)) for integral n in
// [-127, 128]. Every helper here has internal linkage and calls only C
// library functions, never an inline library template: the two TUs are
// built with different ISA flags, and a shared out-of-line copy could
// hand AVX2 code to the scalar twin.
#pragma once

#include <math.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/row_kernels.hpp"

namespace dchag::tensor::rowk {
namespace {

/// Softmax row reductions stripe over this many lanes: element j belongs
/// to lane j % kStripes, in the scalar twin as in the AVX2 registers.
constexpr Index kStripes = 8;

constexpr float kInf = std::numeric_limits<float>::infinity();

// exp: ln2 split for the FMA range reduction, the degree-6 polynomial for
// e^r on [-ln2/2, ln2/2] (Chebyshev fit of (e^r - 1)/r; c0 = c1 = 1,
// c2 = 0.5), and the ends of the range with a normal, finite result.
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693147182464599609375f;  // float nearest ln2
constexpr float kLn2Lo = -1.90465429995776805e-9f;  // ln2 - kLn2Hi
constexpr float kExpC6 = 1.393364160e-3f;
constexpr float kExpC5 = 8.369148709e-3f;
constexpr float kExpC4 = 4.166646674e-2f;
constexpr float kExpC3 = 1.666650474e-1f;
constexpr float kExpLo = -87.3365478515625f;   // ~ln(FLT_MIN)
constexpr float kExpHi = 88.72283935546875f;   // ~ln(FLT_MAX)

// GELU: -2u = x (kA1 + kA3 x^2) and 2 du/dx = kB1 + kB3 x^2, with
// u = c (x + 0.044715 x^3), c = sqrt(2/pi).
constexpr double kGeluC = 0.7978845608028654;
constexpr double kGeluK = 0.044715;
constexpr float kGeluA1 = static_cast<float>(-2.0 * kGeluC);
constexpr float kGeluA3 = static_cast<float>(-2.0 * kGeluC * kGeluK);
constexpr float kGeluB1 = static_cast<float>(2.0 * kGeluC);
constexpr float kGeluB3 = static_cast<float>(6.0 * kGeluC * kGeluK);

/// 2^k as float bits, for integral k in [-126, 127].
inline float pow2_bits(std::int32_t k) {
  const auto bits = static_cast<std::uint32_t>(k + 127) << 23;
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// The scalar lane type: the twin's every element, and the AVX2 row tail.
struct Scalar {
  using V = float;
  using M = bool;
  static constexpr Index kWidth = 1;
  static V set(float c) { return c; }
  static V load(const float* p) { return *p; }
  static void store(float* p, V v) { *p = v; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V fma(V a, V b, V c) { return fmaf(a, b, c); }
  static V round(V a) { return nearbyintf(a); }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a < b ? a : b; }
  static M lt(V a, V b) { return a < b; }
  static M gt(V a, V b) { return a > b; }
  static M eq(V a, V b) { return a == b; }
  static V select(M m, V a, V b) { return m ? a : b; }
  static V ldexp2(V p, V n) {
    const auto k = static_cast<std::int32_t>(n);
    const std::int32_t h = k >> 1;
    return mul(mul(p, pow2_bits(h)), pow2_bits(k - h));
  }
};

template <class L>
typename L::V exp_v(typename L::V x) {
  using V = typename L::V;
  // n = round(x / ln2), clamped so NaN and out-of-range x keep the
  // integer conversion defined; those lanes are replaced below.
  V n = L::round(L::mul(x, L::set(kLog2e)));
  n = L::min(L::max(n, L::set(-127.0f)), L::set(128.0f));
  V r = L::fma(n, L::set(-kLn2Hi), x);
  r = L::fma(n, L::set(-kLn2Lo), r);
  V p = L::fma(L::set(kExpC6), r, L::set(kExpC5));
  p = L::fma(p, r, L::set(kExpC4));
  p = L::fma(p, r, L::set(kExpC3));
  p = L::fma(p, r, L::set(0.5f));
  p = L::fma(p, r, L::set(1.0f));
  p = L::fma(p, r, L::set(1.0f));
  p = L::ldexp2(p, n);
  p = L::select(L::lt(x, L::set(kExpLo)), L::set(0.0f), p);
  return L::select(L::gt(x, L::set(kExpHi)), L::set(kInf), p);
}

/// exp(-2u) for the GELU sigmoid, given x and x2 = x * x.
template <class L>
typename L::V gelu_exp(typename L::V x, typename L::V x2) {
  const auto a = L::fma(x2, L::set(kGeluA3), L::set(kGeluA1));
  return exp_v<L>(L::mul(a, x));
}

struct ExpOp {
  template <class L>
  static typename L::V apply(typename L::V x) {
    return exp_v<L>(x);
  }
};

/// gelu(x) = x * sigmoid(2u) = x / (1 + exp(-2u)).
struct GeluOp {
  template <class L>
  static typename L::V apply(typename L::V x) {
    const auto e = gelu_exp<L>(x, L::mul(x, x));
    return L::div(x, L::add(L::set(1.0f), e));
  }
};

/// gelu'(x) = s + 2x u'(x) s (1 - s) with s = 1 / (1 + exp(-2u)); 1 - s
/// is taken as exp(-2u) * s (no cancellation near s = 1), and as 1 where
/// exp(-2u) overflowed and s is 0.
struct GeluGradOp {
  template <class L>
  static typename L::V apply(typename L::V x) {
    const auto x2 = L::mul(x, x);
    const auto e = gelu_exp<L>(x, x2);
    const auto s = L::div(L::set(1.0f), L::add(L::set(1.0f), e));
    const auto es =
        L::select(L::eq(s, L::set(0.0f)), L::set(1.0f), L::mul(e, s));
    const auto g = L::mul(x, L::fma(x2, L::set(kGeluB3), L::set(kGeluB1)));
    return L::fma(g, L::mul(s, es), s);
  }
};

/// y[j] = Op(x[j]): full L-wide blocks, then the tail one element at a
/// time through the scalar lane type.
template <class L, class Op>
void map_row(const float* x, float* y, Index n) {
  Index j = 0;
  if constexpr (L::kWidth > 1) {
    for (; j + L::kWidth <= n; j += L::kWidth)
      L::store(y + j, Op::template apply<L>(L::load(x + j)));
  }
  for (; j < n; ++j) y[j] = Op::template apply<Scalar>(x[j]);
}

/// Folds the kStripes lane partials in one fixed order.
template <class F>
float fold_stripes(const float* lane, F op) {
  return op(op(op(lane[0], lane[4]), op(lane[2], lane[6])),
            op(op(lane[1], lane[5]), op(lane[3], lane[7])));
}

template <class L>
void softmax_row(const float* row, float* out, Index d) {
  using V = typename L::V;
  static_assert(L::kWidth == 1 || L::kWidth == kStripes);
  alignas(32) float lane[kStripes] = {};
  // Row max, striped.
  Index j = 0;
  if constexpr (L::kWidth > 1) {
    V m = L::set(-kInf);
    for (; j + L::kWidth <= d; j += L::kWidth)
      m = L::max(m, L::load(row + j));
    L::store(lane, m);
  } else {
    for (float& l : lane) l = -kInf;
  }
  for (; j < d; ++j)
    lane[j % kStripes] = Scalar::max(lane[j % kStripes], row[j]);
  const float mx = fold_stripes(lane, Scalar::max);
  // e = exp(x - max) into out, summed per stripe.
  j = 0;
  if constexpr (L::kWidth > 1) {
    const V vmx = L::set(mx);
    V s = L::set(0.0f);
    for (; j + L::kWidth <= d; j += L::kWidth) {
      const V e = exp_v<L>(L::sub(L::load(row + j), vmx));
      L::store(out + j, e);
      s = L::add(s, e);
    }
    L::store(lane, s);
  } else {
    for (float& l : lane) l = 0.0f;  // may still hold the maxima
  }
  for (; j < d; ++j) {
    const float e = exp_v<Scalar>(Scalar::sub(row[j], mx));
    out[j] = e;
    lane[j % kStripes] = Scalar::add(lane[j % kStripes], e);
  }
  const float inv = 1.0f / fold_stripes(lane, Scalar::add);
  j = 0;
  if constexpr (L::kWidth > 1) {
    const V vinv = L::set(inv);
    for (; j + L::kWidth <= d; j += L::kWidth)
      L::store(out + j, L::mul(L::load(out + j), vinv));
  }
  for (; j < d; ++j) out[j] = out[j] * inv;
}

template <class L>
constexpr RowKernels make_row_kernels(const char* name) {
  return RowKernels{name, &map_row<L, ExpOp>, &softmax_row<L>,
                    &map_row<L, GeluOp>, &map_row<L, GeluGradOp>};
}

}  // namespace
}  // namespace dchag::tensor::rowk
