#pragma once
// TETC-v1 codec for batch::BatchResult (SectionType::kBatchResult, v1).
//
// Kept out of container.hpp so te::io's core stays below te::batch in the
// layering: this header is include-only glue pulled in by targets that
// already link te_batch (tools, tests, examples).
//
// Payload: u32 dtype | i32 num_tensors | i32 num_starts | u64 num_results |
//          f64 wall | f64 modeled | f64 transfer | i64 useful_flops |
//          result records (container.hpp layout).
//
// The gpusim::LaunchResult platform-model summary is intentionally not
// persisted: it describes the simulator run that produced the results, not
// the results themselves, and is rebuilt by any re-execution.

#include "te/batch/batch.hpp"
#include "te/io/container.hpp"

namespace te::io {

inline constexpr std::uint32_t kBatchResultVersion = 1;

template <Real T>
void add_batch_result_section(Writer& w, const batch::BatchResult<T>& r) {
  TE_REQUIRE(r.results.size() ==
                 static_cast<std::size_t>(r.num_tensors) *
                     static_cast<std::size_t>(r.num_starts),
             "batch result is inconsistent: " << r.results.size()
                                              << " results for "
                                              << r.num_tensors << " x "
                                              << r.num_starts);
  // Streamed: a volume-scale result set never exists as one payload
  // buffer in memory.
  w.add_streamed_section(
      SectionType::kBatchResult, kBatchResultVersion, [&r](PayloadBuilder& b) {
        b.put_u32(dtype_code<T>());
        b.put_i32(r.num_tensors);
        b.put_i32(r.num_starts);
        b.put_u64(r.results.size());
        b.put_f64(r.wall_seconds);
        b.put_f64(r.modeled_seconds);
        b.put_f64(r.transfer_seconds);
        b.put_i64(r.useful_flops);
        for (const auto& res : r.results) put_result_record(b, res);
      });
}

/// Owned result set from a batch-result section.
template <Real T>
[[nodiscard]] batch::BatchResult<T> read_batch_result(
    const SectionData& s, const std::string& container) {
  detail::require_version(s.info, container, kBatchResultVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  detail::require_dtype<T>(c.u32(), container, c.offset());
  batch::BatchResult<T> r;
  r.num_tensors = c.i32();
  r.num_starts = c.i32();
  const std::uint64_t num_results = c.u64();
  TE_IO_REQUIRE(r.num_tensors >= 0 && r.num_starts >= 0 &&
                    num_results ==
                        static_cast<std::uint64_t>(r.num_tensors) *
                            static_cast<std::uint64_t>(r.num_starts),
                container, s.info.payload_offset,
                "batch-result count mismatch: " << num_results
                                                << " results for "
                                                << r.num_tensors << " x "
                                                << r.num_starts);
  r.wall_seconds = c.f64();
  r.modeled_seconds = c.f64();
  r.transfer_seconds = c.f64();
  r.useful_flops = c.i64();
  c.require_fits(num_results, kResultRecordMinBytes<T>);
  r.results.reserve(static_cast<std::size_t>(num_results));
  for (std::uint64_t i = 0; i < num_results; ++i) {
    r.results.push_back(get_result_record<T>(c));
  }
  return r;
}

/// Write a fresh container holding one batch-result section.
template <Real T>
void save_batch_result(const std::string& path,
                       const batch::BatchResult<T>& r) {
  Writer w(path);
  add_batch_result_section(w, r);
  w.flush();
}

/// Owned result set from the first batch-result section of a container.
template <Real T>
[[nodiscard]] batch::BatchResult<T> load_batch_result(
    const std::string& path) {
  return read_batch_result<T>(find_section(path, SectionType::kBatchResult),
                              path);
}

}  // namespace te::io
