// Explicit instantiations for the SS-HOPM templates (float and double),
// keeping template errors local and giving the library object code.

#include "te/sshopm/multi.hpp"
#include "te/sshopm/spectrum.hpp"
#include "te/sshopm/sshopm.hpp"

namespace te::sshopm {

template Result<float> solve(const kernels::BoundKernels<float>&,
                             std::span<const float>, const Options&,
                             OpCounts*, std::vector<float>*);
template Result<double> solve(const kernels::BoundKernels<double>&,
                              std::span<const double>, const Options&,
                              OpCounts*, std::vector<double>*);

template void solve_starts(const kernels::BoundKernels<float>&,
                           std::span<const std::vector<float>>, const Options&,
                           std::span<Result<float>>, OpCounts*);
template void solve_starts(const kernels::BoundKernels<double>&,
                           std::span<const std::vector<double>>,
                           const Options&, std::span<Result<double>>,
                           OpCounts*);

template std::vector<Eigenpair<float>> find_eigenpairs(
    const SymmetricTensor<float>&, kernels::Tier,
    std::span<const std::vector<float>>, const MultiStartOptions&,
    const kernels::KernelTables<float>*, OpCounts*);
template std::vector<Eigenpair<double>> find_eigenpairs(
    const SymmetricTensor<double>&, kernels::Tier,
    std::span<const std::vector<double>>, const MultiStartOptions&,
    const kernels::KernelTables<double>*, OpCounts*);

template SpectralType classify(const SymmetricTensor<float>&, float,
                               std::span<const float>, double);
template SpectralType classify(const SymmetricTensor<double>&, double,
                               std::span<const double>, double);

}  // namespace te::sshopm
