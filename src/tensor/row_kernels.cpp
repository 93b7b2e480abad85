// The scalar twin of the row kernels and the once-per-process choice
// between it and the AVX2 version (row_kernels_avx2.cpp).
#include "tensor/row_kernels.hpp"

#include "tensor/kernel_config.hpp"
#include "tensor/row_kernels_impl.hpp"

namespace dchag::tensor::rowk {

namespace detail {
/// The AVX2 table, or nullptr when that TU was built without AVX2.
const RowKernels* avx2_table();
}  // namespace detail

namespace {
constexpr RowKernels kScalarKernels = make_row_kernels<Scalar>("scalar");
}  // namespace

const RowKernels& scalar_kernels() { return kScalarKernels; }

const RowKernels* avx2_kernels() {
  static const RowKernels* const k =
      cpu_has_avx2_fma() ? detail::avx2_table() : nullptr;
  return k;
}

const RowKernels& row_kernels() {
  static const RowKernels& k =
      avx2_kernels() != nullptr ? *avx2_kernels() : kScalarKernels;
  return k;
}

}  // namespace dchag::tensor::rowk
