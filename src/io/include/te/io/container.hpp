#pragma once
// TETC-v1 object codecs: SymmetricTensor batches, KernelTables and
// dwmri::Dataset sections, plus the sshopm::Result record shared by the
// batch-result and checkpoint codecs (see batch_codec.hpp / checkpoint.hpp).
//
// Every codec validates the section version (newer-than-known versions are
// rejected with a precise IoError -- forward compatibility is *skipping
// unknown section types*, never guessing at unknown layouts), the dtype
// code against the requested scalar type, and every count against the
// payload bytes left before allocating from it. Decoders copy each array
// out of the StreamReader payload into the owned object they return.

#include <cstddef>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "te/dwmri/dataset.hpp"
#include "te/io/format.hpp"
#include "te/io/reader.hpp"
#include "te/io/writer.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/obs/obs.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/symmetric_tensor.hpp"

namespace te::io {

namespace detail {

/// Shared per-codec preamble: version gate + dtype gate.
inline void require_version(const SectionInfo& info,
                            const std::string& container,
                            std::uint32_t max_known) {
  TE_IO_REQUIRE(info.version >= 1 && info.version <= max_known, container,
                info.header_offset + 8,
                "unsupported '" << section_type_name(info.type)
                                << "' section version " << info.version
                                << " (this reader knows versions 1.."
                                << max_known << ')');
}

template <Real T>
void require_dtype(std::uint32_t code, const std::string& container,
                   std::uint64_t offset) {
  TE_IO_REQUIRE(code == dtype_code<T>(), container, offset,
                "scalar type mismatch: container holds "
                    << dtype_name(code) << ", reader wants "
                    << dtype_name(dtype_code<T>()));
}

/// Plausible and countable: the shape's class count is exact in 64 bits.
inline void require_shape(int order, int dim, const std::string& container,
                          std::uint64_t offset) {
  TE_IO_REQUIRE(order >= 1 && order <= 32 && dim >= 1 && dim <= 4096 &&
                    comb::shape_fits_offset(order, dim),
                container, offset,
                "implausible tensor shape (" << order << ", " << dim << ')');
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Tensor batch (SectionType::kTensorBatch, version 1).
//
// Payload: u32 dtype | i32 order | i32 dim | u64 num_tensors |
//          u64 values_per_tensor | pad to 64 | values (num_tensors *
//          values_per_tensor scalars, tensor-major).
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kTensorBatchVersion = 1;

template <Real T>
void add_tensor_batch_section(Writer& w,
                              std::span<const SymmetricTensor<T>> tensors) {
  TE_REQUIRE(!tensors.empty(), "cannot serialize an empty tensor batch");
  const int order = tensors[0].order();
  const int dim = tensors[0].dim();
  PayloadBuilder b;
  b.put_u32(dtype_code<T>());
  b.put_i32(order);
  b.put_i32(dim);
  b.put_u64(tensors.size());
  b.put_u64(static_cast<std::uint64_t>(tensors[0].num_unique()));
  b.align();
  for (const auto& a : tensors) {
    TE_REQUIRE(a.order() == order && a.dim() == dim,
               "tensor batch sections require uniform shape: got ("
                   << a.order() << ", " << a.dim() << ") vs (" << order
                   << ", " << dim << ')');
    b.put_array(a.values());
  }
  w.add_section(SectionType::kTensorBatch, kTensorBatchVersion, b.bytes());
}

/// Owned tensors from a tensor-batch section.
template <Real T>
[[nodiscard]] std::vector<SymmetricTensor<T>> read_tensor_batch(
    const SectionData& s, const std::string& container) {
  detail::require_version(s.info, container, kTensorBatchVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  detail::require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  detail::require_shape(order, dim, container, s.info.payload_offset);
  const std::uint64_t num_tensors = c.u64();
  const std::uint64_t per_tensor = c.u64();
  TE_IO_REQUIRE(per_tensor == static_cast<std::uint64_t>(
                                  comb::num_unique_entries(order, dim)),
                container, c.offset(),
                "values-per-tensor " << per_tensor << " does not match shape ("
                                     << order << ", " << dim << ')');
  c.seek(align_up(c.pos()));
  c.require_fits(num_tensors, c.require_fits(per_tensor, sizeof(T)));
  std::vector<SymmetricTensor<T>> out;
  out.reserve(static_cast<std::size_t>(num_tensors));
  for (std::uint64_t t = 0; t < num_tensors; ++t) {
    out.emplace_back(order, dim, c.copy_array<T>(per_tensor));
  }
  return out;
}

/// One-call convenience: write a fresh container holding one tensor batch.
template <Real T>
void save_tensors(const std::string& path,
                  std::span<const SymmetricTensor<T>> tensors) {
  Writer w(path);
  add_tensor_batch_section(w, tensors);
  w.flush();
}

/// One-call convenience: owned tensors from the first tensor-batch section.
template <Real T>
[[nodiscard]] std::vector<SymmetricTensor<T>> load_tensors(
    const std::string& path) {
  return read_tensor_batch<T>(find_section(path, SectionType::kTensorBatch),
                              path);
}

// ---------------------------------------------------------------------------
// Kernel tables (SectionType::kKernelTables, version 1).
//
// Payload: u32 dtype | i32 order | i32 dim | u64 num_classes |
//          u64 num_contribs | u32 sizeof(index_t) | u32 sizeof(offset_t) |
//          u32 contrib_stride | pad | index table | pad | coeff0 | pad |
//          contributions (contrib_stride bytes each, in-memory field layout
//          with padding bytes written as zero).
//
// The stride and field sizes are recorded so a reader whose Contribution
// ABI differs (different scalar, packing, or platform) rejects the section
// precisely instead of misreading it.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kKernelTablesVersion = 1;

namespace detail {

template <Real T>
struct ContribLayout {
  using C = typename kernels::KernelTables<T>::Contribution;
  static_assert(std::is_trivially_copyable_v<C>);
  static constexpr std::size_t cls_off = offsetof(C, cls);
  static constexpr std::size_t out_off = offsetof(C, out_index);
  static constexpr std::size_t skip_off = offsetof(C, skip_pos);
  static constexpr std::size_t sigma_off = offsetof(C, sigma);
};

}  // namespace detail

template <Real T>
void add_kernel_tables_section(Writer& w,
                               const kernels::KernelTables<T>& tab) {
  using L = detail::ContribLayout<T>;
  using C = typename L::C;
  PayloadBuilder b;
  b.put_u32(dtype_code<T>());
  b.put_i32(tab.order());
  b.put_i32(tab.dim());
  b.put_u64(static_cast<std::uint64_t>(tab.num_classes()));
  b.put_u64(tab.contributions().size());
  b.put_u32(sizeof(index_t));
  b.put_u32(sizeof(offset_t));
  b.put_u32(sizeof(C));
  b.align();
  b.put_array(tab.index_table());
  b.align();
  b.put_array(tab.coeff0_table());
  b.align();
  // Contributions are staged field-by-field into a zeroed record so struct
  // padding never leaks indeterminate bytes into the file (deterministic
  // CRCs; the fuzz suite depends on every byte being meaningful or zero).
  for (const C& src : tab.contributions()) {
    std::array<std::byte, sizeof(C)> rec{};
    std::memcpy(rec.data() + L::cls_off, &src.cls, sizeof(src.cls));
    std::memcpy(rec.data() + L::out_off, &src.out_index,
                sizeof(src.out_index));
    std::memcpy(rec.data() + L::skip_off, &src.skip_pos,
                sizeof(src.skip_pos));
    std::memcpy(rec.data() + L::sigma_off, &src.sigma, sizeof(src.sigma));
    b.put_bytes(rec);
  }
  w.add_section(SectionType::kKernelTables, kKernelTablesVersion, b.bytes());
}

/// Owned tables from a kernel-tables section (no combinatorial rebuild).
/// The KernelTables constructor range-checks every entry it will index by.
template <Real T>
[[nodiscard]] kernels::KernelTables<T> read_kernel_tables(
    const SectionData& s, const std::string& container) {
  using C = typename kernels::KernelTables<T>::Contribution;
  detail::require_version(s.info, container, kKernelTablesVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  detail::require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  detail::require_shape(order, dim, container, s.info.payload_offset);
  const std::uint64_t num_classes = c.u64();
  const std::uint64_t num_contribs = c.u64();
  const std::uint32_t index_bytes = c.u32();
  const std::uint32_t offset_bytes = c.u32();
  const std::uint32_t contrib_stride = c.u32();
  TE_IO_REQUIRE(index_bytes == sizeof(index_t) &&
                    offset_bytes == sizeof(offset_t) &&
                    contrib_stride == sizeof(C),
                container, s.info.payload_offset,
                "kernel-table ABI mismatch: file has index/offset/contrib "
                "sizes "
                    << index_bytes << '/' << offset_bytes << '/'
                    << contrib_stride << ", reader has " << sizeof(index_t)
                    << '/' << sizeof(offset_t) << '/' << sizeof(C));
  TE_IO_REQUIRE(num_classes == static_cast<std::uint64_t>(
                                   comb::num_unique_entries(order, dim)),
                container, s.info.payload_offset,
                "class count " << num_classes << " does not match shape ("
                               << order << ", " << dim << ')');

  c.seek(align_up(c.pos()));
  c.require_fits(num_classes, static_cast<std::uint64_t>(order) *
                                  sizeof(index_t));
  auto index_table = c.copy_array<index_t>(
      num_classes * static_cast<std::uint64_t>(order));
  c.seek(align_up(c.pos()));
  auto coeff0 = c.copy_array<T>(num_classes);
  c.seek(align_up(c.pos()));
  auto contribs = c.copy_array<C>(num_contribs);
  return kernels::KernelTables<T>(order, dim, std::move(index_table),
                                  std::move(coeff0), std::move(contribs));
}

/// Write a fresh container holding one kernel-tables section.
template <Real T>
void save_kernel_tables(const std::string& path,
                        const kernels::KernelTables<T>& tab) {
  Writer w(path);
  add_kernel_tables_section(w, tab);
  w.flush();
}

/// Best-effort warm start: scan `path` for a kernel-tables section matching
/// (order, dim, T) and rehydrate it. Any failure -- missing file, corrupt
/// container, wrong shape or dtype -- returns nullopt so the caller falls
/// back to a cold build; a persistence problem must never fail a solve.
template <Real T>
[[nodiscard]] std::optional<kernels::KernelTables<T>> try_load_kernel_tables(
    const std::string& path, int order, int dim) {
  try {
    StreamReader r(path);
    while (auto s = r.next()) {
      if (s->info.type !=
          static_cast<std::uint32_t>(SectionType::kKernelTables)) {
        continue;
      }
      try {
        auto tab = read_kernel_tables<T>(*s, path);
        if (tab.order() == order && tab.dim() == dim) {
          TE_OBS_ONLY(obs::global().counter("io.tables.loaded").inc());
          return tab;
        }
      } catch (const InvalidArgument&) {
        // wrong dtype/ABI or out-of-range entries in this section; keep
        // scanning the rest
      }
    }
  } catch (const InvalidArgument&) {
    // unreadable container: cold-build fallback
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// SS-HOPM result records (shared by batch-result and checkpoint codecs).
//
// Record: T lambda | i32 iterations | u32 converged | u32 failure |
//         u64 x_size | u64 trace_size | x scalars | trace scalars.
// Scalars round-trip through memcpy, so replay is bitwise-exact. Result
// keeps no lambda trace, so the writer always emits trace_size 0; the
// reader skips the trace scalars an older file may carry, after an overrun
// check.
// ---------------------------------------------------------------------------

template <Real T>
void put_result_record(PayloadBuilder& b, const sshopm::Result<T>& r) {
  b.put_scalar(r.lambda);
  b.put_i32(r.iterations);
  b.put_u32(r.converged ? 1u : 0u);
  b.put_u32(static_cast<std::uint32_t>(r.failure));
  b.put_u64(r.x.size());
  b.put_u64(0);  // trace_size
  b.put_array(std::span<const T>(r.x));
}

/// Smallest encoding of one result record (empty iterate, no trace): the
/// per-element bound record counts are fit-checked against.
template <Real T>
inline constexpr std::uint64_t kResultRecordMinBytes =
    sizeof(T) + 3 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

template <Real T>
[[nodiscard]] sshopm::Result<T> get_result_record(PayloadCursor& c) {
  sshopm::Result<T> r;
  r.lambda = c.scalar<T>();
  r.iterations = c.i32();
  const std::uint32_t converged = c.u32();
  TE_IO_REQUIRE(converged <= 1, c.container(), c.offset(),
                "corrupt converged flag " << converged);
  r.converged = converged == 1;
  const std::uint32_t failure = c.u32();
  TE_IO_REQUIRE(
      failure <= static_cast<std::uint32_t>(
                     sshopm::FailureReason::kNonFiniteLambda),
      c.container(), c.offset(), "corrupt failure reason " << failure);
  r.failure = static_cast<sshopm::FailureReason>(failure);
  const std::uint64_t x_size = c.u64();
  const std::uint64_t trace_size = c.u64();
  TE_IO_REQUIRE(x_size <= 4096, c.container(), c.offset(),
                "implausible iterate length " << x_size);
  const auto x_bytes = c.bytes(c.require_fits(x_size, sizeof(T)));
  r.x.resize(static_cast<std::size_t>(x_size));
  if (x_size != 0) std::memcpy(r.x.data(), x_bytes.data(), x_bytes.size());
  // An older file's trace: skipped, after the same fit check.
  (void)c.bytes(c.require_fits(trace_size, sizeof(T)));
  return r;
}

// ---------------------------------------------------------------------------
// DW-MRI dataset (SectionType::kDataset, version 1).
//
// Payload: u32 dtype | i32 order | i32 dim | u64 num_voxels | per voxel:
//          u64 num_fibers | fibers (4 f64 each: direction xyz + weight) |
//          tensor values (num_unique scalars). Ground-truth fibers travel
//          with the tensors, which the original SCI Utah data never did.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kDatasetVersion = 1;

template <Real T>
void add_dataset_section(Writer& w, const dwmri::Dataset<T>& ds) {
  TE_REQUIRE(!ds.voxels.empty(), "cannot serialize an empty dataset");
  const int order = ds.voxels[0].tensor.order();
  const int dim = ds.voxels[0].tensor.dim();
  PayloadBuilder b;
  b.put_u32(dtype_code<T>());
  b.put_i32(order);
  b.put_i32(dim);
  b.put_u64(ds.voxels.size());
  for (const auto& v : ds.voxels) {
    TE_REQUIRE(v.tensor.order() == order && v.tensor.dim() == dim,
               "dataset sections require uniform voxel tensor shape");
    b.put_u64(v.fibers.size());
    for (const auto& f : v.fibers) {
      b.put_f64(f.direction[0]);
      b.put_f64(f.direction[1]);
      b.put_f64(f.direction[2]);
      b.put_f64(f.weight);
    }
    b.put_array(v.tensor.values());
  }
  w.add_section(SectionType::kDataset, kDatasetVersion, b.bytes());
}

/// Owned dataset from a dataset section.
template <Real T>
[[nodiscard]] dwmri::Dataset<T> read_dataset(const SectionData& s,
                                             const std::string& container) {
  detail::require_version(s.info, container, kDatasetVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  detail::require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  detail::require_shape(order, dim, container, s.info.payload_offset);
  const std::uint64_t num_voxels = c.u64();
  const std::uint64_t per_tensor =
      static_cast<std::uint64_t>(comb::num_unique_entries(order, dim));
  // A voxel is at least its fiber count and its tensor values.
  c.require_fits(num_voxels, sizeof(std::uint64_t) +
                                 c.require_fits(per_tensor, sizeof(T)));
  dwmri::Dataset<T> ds;
  ds.voxels.reserve(static_cast<std::size_t>(num_voxels));
  for (std::uint64_t i = 0; i < num_voxels; ++i) {
    dwmri::Voxel<T> v;
    const std::uint64_t num_fibers = c.u64();
    TE_IO_REQUIRE(num_fibers <= 64, container, c.offset(),
                  "implausible fiber count " << num_fibers);
    v.fibers.resize(static_cast<std::size_t>(num_fibers));
    for (auto& f : v.fibers) {
      f.direction[0] = c.f64();
      f.direction[1] = c.f64();
      f.direction[2] = c.f64();
      f.weight = c.f64();
    }
    v.tensor = SymmetricTensor<T>(order, dim, c.copy_array<T>(per_tensor));
    ds.voxels.push_back(std::move(v));
  }
  return ds;
}

/// Write a fresh container holding one dataset section.
template <Real T>
void save_dataset(const std::string& path, const dwmri::Dataset<T>& ds) {
  Writer w(path);
  add_dataset_section(w, ds);
  w.flush();
}

/// Owned dataset from the first dataset section of a container.
template <Real T>
[[nodiscard]] dwmri::Dataset<T> load_dataset(const std::string& path) {
  return read_dataset<T>(find_section(path, SectionType::kDataset), path);
}

}  // namespace te::io
