#pragma once
// TETC-v1 object codecs: SymmetricTensor batches, KernelTables and
// dwmri::Dataset sections, plus the sshopm::Result record shared by the
// batch-result and checkpoint codecs (see batch_codec.hpp / checkpoint.hpp).
//
// Every codec validates the section version (newer-than-known versions are
// rejected with a precise IoError -- forward compatibility is *skipping
// unknown section types*, never guessing at unknown layouts), the dtype
// code against the requested scalar type, and every count against the
// payload size before touching bytes.
//
// Large arrays inside a payload start at kAlign boundaries. Because section
// payloads themselves start at kAlign file offsets, an mmap'ed array is
// correctly aligned for its element type, which is what makes the `view_*`
// zero-copy paths legal: they hand out borrowed SymmetricTensor /
// KernelTables objects whose spans alias the container pages directly.

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

inline void require_shape(int order, int dim, const std::string& container,
                          std::uint64_t offset) {
  TE_IO_REQUIRE(order >= 1 && order <= 32 && dim >= 1 && dim <= 4096,
                container, offset,
                "implausible tensor shape (" << order << ", " << dim << ')');
}

/// Reinterpret an aligned payload slice as a typed array (mmap path).
template <typename U>
std::span<const U> typed_view(std::span<const std::byte> bytes,
                              std::uint64_t count,
                              const std::string& container,
                              std::uint64_t offset) {
  TE_IO_REQUIRE(
      reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(U) == 0,
      container, offset, "misaligned array for zero-copy view");
  return {reinterpret_cast<const U*>(bytes.data()),
          static_cast<std::size_t>(count)};
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

namespace detail {

template <Real T>
std::vector<SymmetricTensor<T>> decode_tensor_batch(
    std::span<const std::byte> payload, const SectionInfo& info,
    const std::string& container, bool borrow_storage) {
  require_version(info, container, kTensorBatchVersion);
  PayloadCursor c(payload, container, info.payload_offset);
  require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  require_shape(order, dim, container, info.payload_offset);
  const std::uint64_t num_tensors = c.u64();
  const std::uint64_t per_tensor = c.u64();
  TE_IO_REQUIRE(per_tensor == static_cast<std::uint64_t>(
                                  comb::num_unique_entries(order, dim)),
                container, c.offset(),
                "values-per-tensor " << per_tensor << " does not match shape ("
                                     << order << ", " << dim << ')');
  c.seek(align_up(c.pos()));
  std::vector<SymmetricTensor<T>> out;
  out.reserve(static_cast<std::size_t>(num_tensors));
  for (std::uint64_t t = 0; t < num_tensors; ++t) {
    const std::uint64_t off = c.offset();
    const auto raw = c.bytes(per_tensor * sizeof(T));
    if (borrow_storage) {
      out.emplace_back(borrow, order, dim,
                       typed_view<T>(raw, per_tensor, container, off));
    } else {
      std::vector<T> vals(static_cast<std::size_t>(per_tensor));
      std::memcpy(vals.data(), raw.data(), raw.size());
      out.emplace_back(order, dim, std::move(vals));
    }
  }
  return out;
}

}  // namespace detail

/// Owned tensors from a streamed section.
template <Real T>
[[nodiscard]] std::vector<SymmetricTensor<T>> read_tensor_batch(
    const SectionData& s, const std::string& container) {
  return detail::decode_tensor_batch<T>(s.payload, s.info, container, false);
}

/// Zero-copy borrowed views aliasing a mapped section; the MappedFile the
/// view came from must outlive every returned tensor.
template <Real T>
[[nodiscard]] std::vector<SymmetricTensor<T>> view_tensor_batch(
    const SectionView& s, const std::string& container) {
  return detail::decode_tensor_batch<T>(s.payload, s.info, container, true);
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

namespace detail {

template <Real T>
kernels::KernelTables<T> decode_kernel_tables(
    std::span<const std::byte> payload, const SectionInfo& info,
    const std::string& container, bool borrow_storage) {
  using C = typename kernels::KernelTables<T>::Contribution;
  require_version(info, container, kKernelTablesVersion);
  PayloadCursor c(payload, container, info.payload_offset);
  require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  require_shape(order, dim, container, info.payload_offset);
  const std::uint64_t num_classes = c.u64();
  const std::uint64_t num_contribs = c.u64();
  const std::uint32_t index_bytes = c.u32();
  const std::uint32_t offset_bytes = c.u32();
  const std::uint32_t contrib_stride = c.u32();
  TE_IO_REQUIRE(index_bytes == sizeof(index_t) &&
                    offset_bytes == sizeof(offset_t) &&
                    contrib_stride == sizeof(C),
                container, info.payload_offset,
                "kernel-table ABI mismatch: file has index/offset/contrib "
                "sizes "
                    << index_bytes << '/' << offset_bytes << '/'
                    << contrib_stride << ", reader has " << sizeof(index_t)
                    << '/' << sizeof(offset_t) << '/' << sizeof(C));
  TE_IO_REQUIRE(num_classes == static_cast<std::uint64_t>(
                                   comb::num_unique_entries(order, dim)),
                container, info.payload_offset,
                "class count " << num_classes << " does not match shape ("
                               << order << ", " << dim << ')');

  c.seek(align_up(c.pos()));
  std::uint64_t off = c.offset();
  const auto index_raw =
      c.bytes(num_classes * static_cast<std::uint64_t>(order) *
              sizeof(index_t));
  const auto index_view = detail::typed_view<index_t>(
      index_raw, num_classes * static_cast<std::uint64_t>(order), container,
      off);

  c.seek(align_up(c.pos()));
  off = c.offset();
  const auto coeff_raw = c.bytes(num_classes * sizeof(T));
  const auto coeff_view =
      detail::typed_view<T>(coeff_raw, num_classes, container, off);

  c.seek(align_up(c.pos()));
  off = c.offset();
  const auto contrib_raw = c.bytes(num_contribs * sizeof(C));

  if (borrow_storage) {
    const auto contrib_view =
        detail::typed_view<C>(contrib_raw, num_contribs, container, off);
    return kernels::KernelTables<T>(borrow, order, dim, index_view,
                                    coeff_view, contrib_view);
  }
  std::vector<index_t> index_table(index_view.begin(), index_view.end());
  std::vector<T> coeff0(coeff_view.begin(), coeff_view.end());
  std::vector<C> contribs(static_cast<std::size_t>(num_contribs));
  if (!contribs.empty()) {
    std::memcpy(contribs.data(), contrib_raw.data(), contrib_raw.size());
  }
  return kernels::KernelTables<T>(order, dim, std::move(index_table),
                                  std::move(coeff0), std::move(contribs));
}

}  // namespace detail

/// Owned tables from a streamed section (no combinatorial rebuild).
template <Real T>
[[nodiscard]] kernels::KernelTables<T> read_kernel_tables(
    const SectionData& s, const std::string& container) {
  return detail::decode_kernel_tables<T>(s.payload, s.info, container, false);
}

/// Zero-copy borrowed tables aliasing a mapped section.
template <Real T>
[[nodiscard]] kernels::KernelTables<T> view_kernel_tables(
    const SectionView& s, const std::string& container) {
  return detail::decode_kernel_tables<T>(s.payload, s.info, container, true);
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
        // wrong dtype/ABI in this section; keep scanning the rest
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
  TE_IO_REQUIRE(trace_size * sizeof(T) <= c.remaining(), c.container(),
                c.offset(),
                "trace length " << trace_size << " overruns payload");
  r.x.resize(static_cast<std::size_t>(x_size));
  const auto xb = c.bytes(x_size * sizeof(T));
  if (!r.x.empty()) std::memcpy(r.x.data(), xb.data(), xb.size());
  (void)c.bytes(trace_size * sizeof(T));  // an older file's trace: dropped
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

namespace detail {

template <Real T>
dwmri::Dataset<T> decode_dataset(std::span<const std::byte> payload,
                                 const SectionInfo& info,
                                 const std::string& container) {
  require_version(info, container, kDatasetVersion);
  PayloadCursor c(payload, container, info.payload_offset);
  require_dtype<T>(c.u32(), container, c.offset());
  const int order = c.i32();
  const int dim = c.i32();
  require_shape(order, dim, container, info.payload_offset);
  const std::uint64_t num_voxels = c.u64();
  const std::uint64_t per_tensor =
      static_cast<std::uint64_t>(comb::num_unique_entries(order, dim));
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
    std::vector<T> vals(static_cast<std::size_t>(per_tensor));
    const auto raw = c.bytes(per_tensor * sizeof(T));
    std::memcpy(vals.data(), raw.data(), raw.size());
    v.tensor = SymmetricTensor<T>(order, dim, std::move(vals));
    ds.voxels.push_back(std::move(v));
  }
  return ds;
}

}  // namespace detail

template <Real T>
[[nodiscard]] dwmri::Dataset<T> read_dataset(const SectionData& s,
                                             const std::string& container) {
  return detail::decode_dataset<T>(s.payload, s.info, container);
}

template <Real T>
[[nodiscard]] dwmri::Dataset<T> read_dataset(const SectionView& s,
                                             const std::string& container) {
  return detail::decode_dataset<T>(s.payload, s.info, container);
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
