// Row kernels (tensor/row_kernels.hpp): exp, softmax, GELU and GELU's
// derivative against double-precision references, the special-value
// semantics, and the AVX2 version's bit identity with the scalar twin.
// Every check runs on every table this CPU can execute; a failure
// message names the value, and the loop order names the table (scalar
// first).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/row_kernels.hpp"

namespace dchag::tensor::rowk {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr double kGeluC = 0.7978845608028654;

std::vector<const RowKernels*> tables() {
  std::vector<const RowKernels*> t{&scalar_kernels()};
  if (avx2_kernels() != nullptr) t.push_back(avx2_kernels());
  return t;
}

using RowFn = void (*)(const float*, float*, Index);

std::vector<float> run(RowFn fn, const std::vector<float>& x) {
  std::vector<float> y(x.size());
  fn(x.data(), y.data(), static_cast<Index>(x.size()));
  return y;
}

/// fn(x) evaluated at every position of a 17-element row (two AVX2
/// blocks and a tail); every position must give the same value.
float at(RowFn fn, float x) {
  const std::vector<float> y = run(fn, std::vector<float>(17, x));
  for (float v : y) {
    if (std::isnan(y[0])) {
      EXPECT_TRUE(std::isnan(v)) << "x=" << x;
    } else {
      EXPECT_EQ(std::memcmp(&v, &y[0], sizeof v), 0) << "x=" << x;
    }
  }
  return y[0];
}

double gelu_ref(double x) {
  return 0.5 * x * (1.0 + std::tanh(kGeluC * (x + 0.044715 * x * x * x)));
}

double gelu_grad_ref(double x) {
  const double t = std::tanh(kGeluC * (x + 0.044715 * x * x * x));
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}

std::vector<float> linspace(float lo, float hi, int n) {
  std::vector<float> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * static_cast<float>(i) / static_cast<float>(n - 1);
  return x;
}

TEST(RowKernels, ActiveTableIsTheBestThisCpuRuns) {
  const RowKernels* want =
      avx2_kernels() != nullptr ? avx2_kernels() : &scalar_kernels();
  EXPECT_EQ(&row_kernels(), want);
  EXPECT_STREQ(scalar_kernels().name, "scalar");
}

TEST(RowKernels, ExpWithinBoundOfDoubleReference) {
  std::vector<float> x = linspace(-87.3f, 88.7f, 1 << 20);
  std::mt19937 gen(7);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  for (int i = 0; i < (1 << 16); ++i) x.push_back(u(gen));
  for (const RowKernels* k : tables()) {
    const std::vector<float> y = run(k->exp, x);
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ref = std::exp(static_cast<double>(x[i]));
      worst = std::max(worst, std::abs(y[i] - ref) / ref);
    }
    EXPECT_LE(worst, 2.4e-7) << k->name;
  }
}

TEST(RowKernels, GeluAndGradWithinBoundOfDoubleReference) {
  std::vector<float> x = linspace(-30.0f, 30.0f, 1 << 18);
  for (float v : {-1e3f, -100.0f, 100.0f, 1e3f, 0.0f, -0.0f, 1e-20f})
    x.push_back(v);
  for (const RowKernels* k : tables()) {
    const std::vector<float> g = run(k->gelu, x);
    const std::vector<float> dg = run(k->gelu_grad, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double rg = gelu_ref(x[i]);
      const double rdg = gelu_grad_ref(x[i]);
      ASSERT_LE(std::abs(g[i] - rg), 5e-7 * std::max(1.0, std::abs(rg)))
          << k->name << " gelu x=" << x[i];
      ASSERT_LE(std::abs(dg[i] - rdg), 5e-7 * std::max(1.0, std::abs(rdg)))
          << k->name << " gelu_grad x=" << x[i];
    }
  }
}

TEST(RowKernels, SoftmaxMatchesDoubleReferenceAndSumsToOne) {
  std::mt19937 gen(11);
  std::normal_distribution<float> nd(0.0f, 4.0f);
  for (const RowKernels* k : tables()) {
    for (Index d : {1, 3, 8, 32, 33, 300}) {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<float> row(static_cast<std::size_t>(d));
        for (float& v : row) v = nd(gen);
        const std::vector<float> y = run(k->softmax, row);
        // The reference sees the kernel's float differences x - max: the
        // rounding of that subtraction is the input, not kernel error.
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        double z = 0.0;
        for (float v : row) z += std::exp(static_cast<double>(v - mx));
        double sum = 0.0;
        for (std::size_t j = 0; j < row.size(); ++j) {
          const double ref = std::exp(static_cast<double>(row[j] - mx)) / z;
          ASSERT_LE(std::abs(y[j] - ref), 1e-6 * ref + 1e-30)
              << k->name << " d=" << d;
          sum += y[j];
        }
        EXPECT_NEAR(sum, 1.0, 1e-6) << k->name << " d=" << d;
        // In place gives the same bits.
        std::vector<float> inplace = row;
        k->softmax(inplace.data(), inplace.data(), d);
        EXPECT_EQ(std::memcmp(inplace.data(), y.data(), y.size() * 4), 0);
      }
    }
  }
}

TEST(RowKernels, Avx2BitIdenticalToScalarTwin) {
  const RowKernels* avx = avx2_kernels();
  if (avx == nullptr) {
#ifdef GTEST_SKIP
    GTEST_SKIP() << "this CPU lacks AVX2/FMA or the build has no AVX2 TU";
#else
    return;
#endif
  }
  const RowKernels& sc = scalar_kernels();
  std::mt19937 gen(3);
  std::uniform_real_distribution<float> wide(-100.0f, 100.0f);
  std::uniform_real_distribution<float> narrow(-12.0f, 12.0f);
  const auto same = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (Index d : {1, 7, 8, 9, 31, 32, 33, 300}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<float> w(static_cast<std::size_t>(d));
      std::vector<float> n(static_cast<std::size_t>(d));
      for (float& v : w) v = wide(gen);
      for (float& v : n) v = narrow(gen);
      EXPECT_TRUE(same(run(avx->exp, w), run(sc.exp, w))) << "exp d=" << d;
      EXPECT_TRUE(same(run(avx->softmax, n), run(sc.softmax, n)))
          << "softmax d=" << d;
      EXPECT_TRUE(same(run(avx->softmax, w), run(sc.softmax, w)))
          << "softmax wide d=" << d;
      EXPECT_TRUE(same(run(avx->gelu, n), run(sc.gelu, n))) << "gelu d=" << d;
      EXPECT_TRUE(same(run(avx->gelu_grad, n), run(sc.gelu_grad, n)))
          << "gelu_grad d=" << d;
    }
  }
}

TEST(RowKernels, ExpSpecialValues) {
  for (const RowKernels* k : tables()) {
    EXPECT_TRUE(std::isnan(at(k->exp, kNaN)));
    EXPECT_TRUE(std::isnan(at(k->exp, -kNaN)));
    EXPECT_EQ(at(k->exp, -kInf), 0.0f);
    EXPECT_EQ(at(k->exp, kInf), kInf);
    EXPECT_EQ(at(k->exp, -FLT_MAX), 0.0f);
    EXPECT_EQ(at(k->exp, FLT_MAX), kInf);
    // Below the normal range: 0, never a denormal.
    for (float x : {-87.34f, -87.5f, -100.0f, -104.0f, -1e30f})
      EXPECT_EQ(at(k->exp, x), 0.0f) << x;
    for (float x : {88.75f, 89.0f, 1e30f}) EXPECT_EQ(at(k->exp, x), kInf) << x;
    // Denormal, tiny and zero inputs: exactly 1.
    for (float x : {std::numeric_limits<float>::denorm_min(),
                    -std::numeric_limits<float>::denorm_min(), FLT_MIN,
                    -FLT_MIN, 0.0f, -0.0f})
      EXPECT_EQ(at(k->exp, x), 1.0f) << x;
    EXPECT_GE(at(k->exp, -87.33f), FLT_MIN);
    EXPECT_LT(at(k->exp, 88.72f), kInf);
    EXPECT_EQ(at(k->exp, 1.0f), static_cast<float>(std::exp(1.0)));
  }
}

TEST(RowKernels, SoftmaxSpecialValues) {
  const auto all_nan = [](const std::vector<float>& y) {
    for (float v : y)
      if (!std::isnan(v)) return false;
    return true;
  };
  for (const RowKernels* k : tables()) {
    // A NaN or +inf anywhere, in the vector body or the tail: all NaN.
    for (std::size_t pos : {0u, 1u, 8u, 16u}) {
      std::vector<float> row(17, 0.5f);
      row[pos] = kNaN;
      EXPECT_TRUE(all_nan(run(k->softmax, row))) << "NaN at " << pos;
      row[pos] = kInf;
      EXPECT_TRUE(all_nan(run(k->softmax, row))) << "+inf at " << pos;
    }
    EXPECT_TRUE(all_nan(run(k->softmax, {-kInf, -kInf, -kInf})));
    // -inf and -FLT_MAX entries weigh nothing; denormals are ordinary.
    std::vector<float> y = run(k->softmax, {-kInf, 0.0f, -FLT_MAX, 0.0f});
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.5f);
    EXPECT_EQ(y[2], 0.0f);
    EXPECT_EQ(y[3], 0.5f);
    const float dn = std::numeric_limits<float>::denorm_min();
    y = run(k->softmax, {dn, -dn, 0.0f, dn});
    for (float v : y) EXPECT_EQ(v, 0.25f);
    y = run(k->softmax, {0.0f, -200.0f});
    EXPECT_EQ(y[0], 1.0f);
    EXPECT_EQ(y[1], 0.0f);
  }
}

TEST(RowKernels, GeluSpecialValues) {
  for (const RowKernels* k : tables()) {
    EXPECT_TRUE(std::isnan(at(k->gelu, kNaN)));
    EXPECT_TRUE(std::isnan(at(k->gelu_grad, kNaN)));
    EXPECT_EQ(at(k->gelu, kInf), kInf);
    EXPECT_TRUE(std::isnan(at(k->gelu, -kInf)));  // -inf * 0, as tanh form
    EXPECT_EQ(at(k->gelu, -FLT_MAX), 0.0f);
    EXPECT_EQ(at(k->gelu, FLT_MAX), FLT_MAX);
    EXPECT_EQ(at(k->gelu, FLT_MIN), FLT_MIN / 2);
    EXPECT_EQ(at(k->gelu, 0.0f), 0.0f);
    EXPECT_EQ(at(k->gelu_grad, 0.0f), 0.5f);
    EXPECT_EQ(at(k->gelu_grad, 1e3f), 1.0f);
    EXPECT_EQ(at(k->gelu_grad, -1e3f), 0.0f);
  }
}

TEST(RowKernels, OpsRouteThroughTheActiveTable) {
  const std::vector<float> x = linspace(-6.0f, 6.0f, 37);
  const Tensor t = Tensor::from_data(Shape{37}, x);
  const RowKernels& k = row_kernels();
  const auto same = [](const Tensor& a, const std::vector<float>& b) {
    return std::memcmp(a.data(), b.data(), b.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same(ops::gelu(t), run(k.gelu, x)));
  EXPECT_TRUE(same(ops::gelu_grad(t), run(k.gelu_grad, x)));
  EXPECT_TRUE(same(ops::softmax_lastdim(t), run(k.softmax, x)));
}

}  // namespace
}  // namespace dchag::tensor::rowk
