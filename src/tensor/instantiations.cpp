// Explicit instantiations of the tensor templates for the two scalar types
// the library ships with. Keeps template compile errors local to this
// module and gives the static library real object code.

#include "te/tensor/dense_tensor.hpp"
#include "te/tensor/generators.hpp"
#include "te/tensor/io.hpp"
#include "te/tensor/symmetric_tensor.hpp"

namespace te {

template class SymmetricTensor<float>;
template class SymmetricTensor<double>;
template class DenseTensor<float>;
template class DenseTensor<double>;

template DenseTensor<float> to_dense(const SymmetricTensor<float>&);
template DenseTensor<double> to_dense(const SymmetricTensor<double>&);
template SymmetricTensor<float> from_dense(const DenseTensor<float>&, float);
template SymmetricTensor<double> from_dense(const DenseTensor<double>&,
                                            double);
template SymmetricTensor<float> symmetrize(const DenseTensor<float>&);
template SymmetricTensor<double> symmetrize(const DenseTensor<double>&);

}  // namespace te
