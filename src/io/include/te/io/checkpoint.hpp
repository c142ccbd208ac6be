#pragma once
// Scheduler checkpoint log (TETC-v1 sections kCheckpointManifest and
// kChunkResult).
//
// The checkpoint file is a write-ahead log living inside an ordinary TETC
// container, so tetc_check / tetc_pack can inspect it like any other file:
//
//   * at submit time the scheduler appends one manifest section per job --
//     the job's shape, tier, chunking and a fingerprint (CRC32 over shape,
//     solver options, tensor values and start vectors) that pins the log to
//     one exact problem;
//   * after each completed chunk it appends one chunk-result section
//     holding the bitwise result slots, then flushes -- a killed process
//     loses at most the chunk it was computing, never a completed one;
//   * on restart the log is replayed with torn-tail tolerance: every intact
//     section restores state, the first torn one ends the replay, and the
//     tail is truncated before appending resumes (so a resume-of-a-resume
//     replays cleanly too).
//
// The scheduler itself maps these records onto its queue (scheduler.hpp);
// this header knows only the record formats, keeping te::io below te::batch.

#include <filesystem>
#include <vector>

#include "te/io/container.hpp"

namespace te::io {

inline constexpr std::uint32_t kCheckpointManifestVersion = 1;
inline constexpr std::uint32_t kChunkResultVersion = 1;

/// One submitted job as pinned by the log.
struct CheckpointJob {
  std::uint32_t job = 0;          ///< scheduler JobId (submission index)
  std::uint32_t fingerprint = 0;  ///< problem_fingerprint() of the inputs
  std::int32_t order = 0;
  std::int32_t dim = 0;
  std::int32_t num_tensors = 0;
  std::int32_t num_starts = 0;
  std::int32_t tier = 0;
  std::int32_t chunk_tensors = 0;  ///< chunking knob; must match on resume
};

/// One completed chunk: the result slots for tensors [begin, end).
template <Real T>
struct CheckpointChunk {
  std::uint32_t job = 0;
  std::int32_t begin = 0;
  std::int32_t end = 0;
  std::vector<sshopm::Result<T>> results;  ///< (end - begin) * num_starts
};

/// Everything replayable from a checkpoint file.
template <Real T>
struct CheckpointReplay {
  bool present = false;  ///< false: no usable log (missing/empty file)
  std::vector<CheckpointJob> jobs;
  std::vector<CheckpointChunk<T>> chunks;
  /// File offset just past the last intact section: the truncation point
  /// that removes a torn tail before appending resumes.
  std::uint64_t valid_end = 0;
};

/// Pin a problem to its log: CRC32 over shape, tier, solver options, every
/// tensor value and every start vector. Any bitwise input change -- even one
/// flipped tensor entry -- yields a different fingerprint, and the scheduler
/// refuses to resume against it.
template <Real T>
[[nodiscard]] std::uint32_t problem_fingerprint(
    int order, int dim, int tier, const sshopm::Options& opt,
    std::span<const SymmetricTensor<T>> tensors,
    std::span<const std::vector<T>> starts) {
  PayloadBuilder b;
  b.put_u32(dtype_code<T>());
  b.put_i32(order);
  b.put_i32(dim);
  b.put_i32(tier);
  b.put_f64(opt.alpha);
  b.put_i32(opt.max_iterations);
  b.put_f64(opt.tolerance);
  b.put_u32(0u);  // was the removed record_trace flag; keeps old pins valid
  b.put_u64(tensors.size());
  b.put_u64(starts.size());
  std::uint32_t crc = crc32(b.bytes());
  for (const auto& a : tensors) {
    crc = crc32_update(crc, std::as_bytes(a.values()));
  }
  for (const auto& s : starts) {
    crc = crc32_update(crc, std::as_bytes(std::span<const T>(s)));
  }
  return crc;
}

inline void add_checkpoint_job_section(Writer& w, const CheckpointJob& j) {
  PayloadBuilder b;
  b.put_u32(j.job);
  b.put_u32(j.fingerprint);
  b.put_i32(j.order);
  b.put_i32(j.dim);
  b.put_i32(j.num_tensors);
  b.put_i32(j.num_starts);
  b.put_i32(j.tier);
  b.put_i32(j.chunk_tensors);
  w.add_section(SectionType::kCheckpointManifest, kCheckpointManifestVersion,
                b.bytes());
}

template <Real T>
void add_checkpoint_chunk_section(Writer& w, const CheckpointChunk<T>& c) {
  PayloadBuilder b;
  b.put_u32(dtype_code<T>());
  b.put_u32(c.job);
  b.put_i32(c.begin);
  b.put_i32(c.end);
  b.put_u64(c.results.size());
  for (const auto& r : c.results) put_result_record(b, r);
  w.add_section(SectionType::kChunkResult, kChunkResultVersion, b.bytes());
}

[[nodiscard]] inline CheckpointJob read_checkpoint_job(
    const SectionData& s, const std::string& container) {
  detail::require_version(s.info, container, kCheckpointManifestVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  CheckpointJob j;
  j.job = c.u32();
  j.fingerprint = c.u32();
  j.order = c.i32();
  j.dim = c.i32();
  j.num_tensors = c.i32();
  j.num_starts = c.i32();
  j.tier = c.i32();
  j.chunk_tensors = c.i32();
  return j;
}

template <Real T>
[[nodiscard]] CheckpointChunk<T> read_checkpoint_chunk(
    const SectionData& s, const std::string& container) {
  detail::require_version(s.info, container, kChunkResultVersion);
  PayloadCursor c(s.payload, container, s.info.payload_offset);
  detail::require_dtype<T>(c.u32(), container, c.offset());
  CheckpointChunk<T> chunk;
  chunk.job = c.u32();
  chunk.begin = c.i32();
  chunk.end = c.i32();
  const std::uint64_t n = c.u64();
  TE_IO_REQUIRE(chunk.begin >= 0 && chunk.end > chunk.begin, container,
                s.info.payload_offset,
                "corrupt chunk range [" << chunk.begin << ", " << chunk.end
                                        << ')');
  c.require_fits(n, kResultRecordMinBytes<T>);
  chunk.results.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    chunk.results.push_back(get_result_record<T>(c));
  }
  return chunk;
}

/// Replay a checkpoint log with torn-tail tolerance. A missing, empty or
/// header-corrupt file yields `present = false` (a fresh run); an intact
/// prefix is returned even when the writer died mid-append. Sections of
/// unknown type inside the log are skipped (forward compatibility).
template <Real T>
[[nodiscard]] CheckpointReplay<T> load_checkpoint(const std::string& path) {
  CheckpointReplay<T> replay;
  std::optional<StreamReader> reader;
  try {
    reader.emplace(path, /*tolerate_torn_tail=*/true);
  } catch (const IoError&) {
    return replay;  // no log yet: fresh run
  }
  replay.present = true;
  replay.valid_end = kFileHeaderBytes;
  while (auto s = reader->next()) {
    replay.valid_end = s->info.payload_offset + s->info.payload_bytes;
    switch (static_cast<SectionType>(s->info.type)) {
      case SectionType::kCheckpointManifest:
        replay.jobs.push_back(read_checkpoint_job(*s, path));
        break;
      case SectionType::kChunkResult:
        replay.chunks.push_back(read_checkpoint_chunk<T>(*s, path));
        break;
      default:
        break;  // foreign section in the log: skip
    }
  }
  return replay;
}

/// Cut a torn tail off the log so appending resumes from intact bytes.
inline void truncate_torn_tail(const std::string& path,
                               std::uint64_t valid_end) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size <= valid_end) return;
  std::filesystem::resize_file(path, valid_end, ec);
  TE_IO_REQUIRE(!ec, path, valid_end,
                "cannot truncate torn checkpoint tail: " << ec.message());
}

}  // namespace te::io
