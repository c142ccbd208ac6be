#include "te/analysis/gpu_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "te/comb/multinomial.hpp"
#include "te/gpusim/exec.hpp"
#include "te/gpusim/mem_sanitizer.hpp"
#include "te/gpusim/sshopm_kernels.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/util/assert.hpp"

namespace te::analysis {

namespace {

using gpusim::AccessKind;
using gpusim::MemSpace;
using gpusim::TraceEvent;

constexpr std::uint32_t kBulkBytes = 16;  ///< wider events are bulk records

[[nodiscard]] bool overlaps(const TraceEvent& a, const TraceEvent& b) {
  return a.addr < b.addr + b.bytes && b.addr < a.addr + a.bytes;
}

void add_capped(std::vector<Finding>& out, std::int64_t& suppressed,
                Finding f) {
  if (static_cast<std::int64_t>(out.size()) < kMaxFindingsPerReport) {
    out.push_back(std::move(f));
  } else {
    ++suppressed;
  }
}

/// Pairwise overlap scan of one (block, epoch)'s shared events. Event
/// counts per epoch are tiny (a cooperative load plus a handful of
/// whole-extent reads), so the quadratic scan is cheap and exact.
void check_shared_epoch(const std::vector<const TraceEvent*>& evs,
                        std::vector<Finding>& out, std::int64_t& suppressed,
                        std::set<std::tuple<int, int, int, int>>& seen) {
  for (std::size_t i = 0; i < evs.size(); ++i) {
    for (std::size_t j = i + 1; j < evs.size(); ++j) {
      const TraceEvent& a = *evs[i];
      const TraceEvent& b = *evs[j];
      if (a.thread == b.thread) continue;
      if (a.kind == AccessKind::kRead && b.kind == AccessKind::kRead) continue;
      if (!overlaps(a, b)) continue;
      const bool ww =
          a.kind == AccessKind::kWrite && b.kind == AccessKind::kWrite;
      const int t_lo = std::min(a.thread, b.thread);
      const int t_hi = std::max(a.thread, b.thread);
      if (!seen.emplace(a.block, a.epoch, t_lo, t_hi).second) continue;
      Finding f;
      f.kind = ww ? FindingKind::kRace : FindingKind::kReadBeforePublish;
      f.lane = t_lo;
      std::ostringstream os;
      os << "shared block=" << a.block << " epoch=" << a.epoch
         << " threads=" << t_lo << "/" << t_hi << " bytes=["
         << std::max(a.addr, b.addr) << ","
         << std::min(a.addr + a.bytes, b.addr + b.bytes) << ")";
      f.detail = os.str();
      add_capped(out, suppressed, std::move(f));
    }
  }
}

}  // namespace

std::vector<Finding> check_trace(const std::vector<TraceEvent>& events) {
  std::vector<Finding> out;
  std::int64_t suppressed = 0;

  // Shared memory: barrier-epoch race rule per block.
  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> shared;
  for (const TraceEvent& e : events) {
    if (e.space == MemSpace::kShared) {
      shared[std::make_pair(e.block, e.epoch)].push_back(&e);
    }
  }
  std::set<std::tuple<int, int, int, int>> seen;
  for (const auto& [key, evs] : shared) {
    check_shared_epoch(evs, out, suppressed, seen);
  }

  // Global memory: write sets must be disjoint across the whole grid (no
  // ordering exists between blocks, nor between lanes' result stores).
  std::vector<const TraceEvent*> writes;
  for (const TraceEvent& e : events) {
    if (e.space == MemSpace::kGlobal && e.kind == AccessKind::kWrite) {
      writes.push_back(&e);
    }
  }
  std::sort(writes.begin(), writes.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->addr < b->addr;
            });
  std::set<std::tuple<int, int, int, int>> gseen;
  for (std::size_t i = 1; i < writes.size(); ++i) {
    const TraceEvent& a = *writes[i - 1];
    const TraceEvent& b = *writes[i];
    if (a.block == b.block && a.thread == b.thread) continue;
    if (!overlaps(a, b)) continue;
    if (!gseen.emplace(a.block, a.thread, b.block, b.thread).second) continue;
    Finding f;
    f.kind = FindingKind::kRace;
    f.lane = a.thread;
    std::ostringstream os;
    os << "global write overlap block/thread " << a.block << "/" << a.thread
       << " vs " << b.block << "/" << b.thread << " at 0x" << std::hex
       << b.addr;
    f.detail = os.str();
    add_capped(out, suppressed, std::move(f));
  }

  if (suppressed > 0) {
    Finding f;
    f.kind = FindingKind::kRace;
    std::ostringstream os;
    os << suppressed << " further overlap findings suppressed";
    f.detail = os.str();
    out.push_back(std::move(f));
  }
  return out;
}

WarpStats warp_transaction_stats(const std::vector<TraceEvent>& events,
                                 const gpusim::DeviceSpec& dev) {
  WarpStats s;
  TE_REQUIRE(dev.warp_size > 0 && dev.shared_banks > 0 &&
                 dev.shared_bank_bytes > 0 && dev.gmem_segment_bytes > 0,
             "device banking parameters must be positive");

  // Transaction key: lockstep lanes of one warp issue their seq-k same-
  // space same-direction accesses together.
  using Key = std::tuple<int, int, int, int, std::int32_t, int>;
  std::map<Key, std::vector<const TraceEvent*>> groups;
  for (const TraceEvent& e : events) {
    if (e.space == MemSpace::kShared && e.bytes > kBulkBytes) {
      ++s.bulk_events;
      continue;
    }
    const Key k{static_cast<int>(e.space), e.block, e.epoch,
                e.thread / dev.warp_size, e.seq, static_cast<int>(e.kind)};
    groups[k].push_back(&e);
  }

  double way_sum = 0;
  double seg_ratio_sum = 0;
  for (const auto& [key, evs] : groups) {
    if (std::get<0>(key) == static_cast<int>(MemSpace::kShared)) {
      // Bank conflict way: distinct bank *words* per bank; lanes hitting
      // the same word broadcast for free.
      std::map<std::uint64_t, std::set<std::uint64_t>> words_per_bank;
      const auto bank_bytes =
          static_cast<std::uint64_t>(dev.shared_bank_bytes);
      const auto banks = static_cast<std::uint64_t>(dev.shared_banks);
      for (const TraceEvent* e : evs) {
        const std::uint64_t last =
            e->bytes > 0 ? e->addr + e->bytes - 1 : e->addr;
        for (std::uint64_t word = e->addr / bank_bytes;
             word <= last / bank_bytes; ++word) {
          words_per_bank[word % banks].insert(word);
        }
      }
      std::size_t way = 1;
      for (const auto& [bank, words] : words_per_bank) {
        way = std::max(way, words.size());
      }
      ++s.shared_transactions;
      way_sum += static_cast<double>(way);
      s.max_bank_conflict_way =
          std::max(s.max_bank_conflict_way, static_cast<double>(way));
    } else {
      // Coalescing: segments actually touched vs the minimum that could
      // cover the same bytes.
      const auto seg = static_cast<std::uint64_t>(dev.gmem_segment_bytes);
      std::set<std::uint64_t> segments;
      std::uint64_t bytes = 0;
      for (const TraceEvent* e : evs) {
        const std::uint64_t last =
            e->bytes > 0 ? e->addr + e->bytes - 1 : e->addr;
        for (std::uint64_t sgm = e->addr / seg; sgm <= last / seg; ++sgm) {
          segments.insert(sgm);
        }
        bytes += e->bytes;
      }
      const auto ideal = std::max<std::uint64_t>(
          1, (bytes + seg - 1) / seg);
      ++s.global_transactions;
      seg_ratio_sum += static_cast<double>(ideal) /
                       static_cast<double>(std::max<std::size_t>(
                           segments.size(), 1));
    }
  }
  if (s.shared_transactions > 0) {
    s.avg_bank_conflict_way =
        way_sum / static_cast<double>(s.shared_transactions);
  }
  if (s.global_transactions > 0) {
    s.coalescing_ratio =
        std::min(1.0, seg_ratio_sum / static_cast<double>(
                                          s.global_transactions));
  }
  return s;
}

CheckReport check_device_kernel(int order, int dim, kernels::Tier tier,
                                const DeviceCheckOptions& opt) {
  TE_REQUIRE(kernels::runs_on_device(tier),
             "device kernels implement general, blocked and unrolled");
  TE_REQUIRE(opt.num_tensors >= 1 && opt.num_starts >= 1 &&
                 opt.max_iterations >= 1,
             "device check needs a nonempty workload");
  using T = double;
  const int nt = opt.num_tensors;
  const int nv = opt.num_starts;
  const auto u = static_cast<std::size_t>(
      comb::num_unique_entries(order, dim));

  CheckReport rep;
  rep.order = order;
  rep.dim = dim;
  rep.tier = tier;
  rep.subject = "device";

  // Deterministic, well-conditioned inputs (a fixed LCG; values bounded
  // away from zero so no lane degenerates and every code path runs).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next01 = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((state >> 16) & 0xffffffU) /
           static_cast<double>(0x1000000U);
  };
  std::vector<T> tensors(static_cast<std::size_t>(nt) * u);
  for (auto& v : tensors) v = static_cast<T>(0.25 + 0.5 * next01());
  std::vector<T> starts(static_cast<std::size_t>(nv) *
                        static_cast<std::size_t>(dim));
  for (auto& v : starts) v = static_cast<T>(0.1 + 0.9 * next01());
  const auto slots = static_cast<std::size_t>(nt) *
                     static_cast<std::size_t>(nv);
  std::vector<T> out_vectors(slots * static_cast<std::size_t>(dim));
  std::vector<T> out_values(slots);
  std::vector<std::int32_t> out_iters(slots);
  std::vector<std::int32_t> out_status(slots);

  gpusim::DeviceBatchView<T> view;
  view.order = order;
  view.dim = dim;
  view.num_unique = static_cast<offset_t>(u);
  view.num_tensors = nt;
  view.num_starts = nv;
  view.tensors = tensors.data();
  view.starts = starts.data();
  view.out_vectors = out_vectors.data();
  view.out_values = out_values.data();
  view.out_iters = out_iters.data();
  view.out_status = out_status.data();

  std::optional<kernels::KernelTables<T>> tables;
  if (tier == kernels::Tier::kBlocked) tables.emplace(order, dim);
  const gpusim::GpuIterationCost cost =
      tier == kernels::Tier::kUnrolled
          ? gpusim::unrolled_iteration_cost(order, dim)
          : (tier == kernels::Tier::kBlocked
                 ? gpusim::blocked_iteration_cost(order, dim)
                 : gpusim::general_iteration_cost(order, dim));
  sshopm::Options sopt;
  sopt.max_iterations = opt.max_iterations;

  gpusim::AccessTracer tracer;
  gpusim::LaunchConfig cfg =
      gpusim::sshopm_launch_config(order, dim, nt, nv, tier);
  cfg.shared_bytes_per_block = gpusim::sshopm_shared_bytes(
      order, dim, tier, static_cast<int>(sizeof(T)));
  cfg.tracer = &tracer;

  const gpusim::LaunchResult lr = gpusim::launch(
      opt.device, cfg, [&](gpusim::ThreadCtx& ctx) {
        return gpusim::sshopm_device_thread<T>(
            ctx, view, tier, sopt, cost,
            tables ? &*tables : nullptr);
      });
  if (!lr.launchable) {
    Finding f;
    f.kind = FindingKind::kCostModelMismatch;
    f.detail = "verification launch not launchable at this geometry";
    rep.findings.push_back(std::move(f));
    return rep;
  }

  const std::vector<TraceEvent> events = tracer.take_events();
  rep.traced_events = static_cast<std::int64_t>(events.size());
  rep.findings = check_trace(events);

  const WarpStats stats = warp_transaction_stats(events, opt.device);
  rep.max_bank_conflict_way = stats.max_bank_conflict_way;
  rep.coalescing_ratio = stats.coalescing_ratio;

  // Cost-model cross-check (diagnostic): the OpCounts tallies and the trace
  // must agree on *whether* each memory space is exercised. Exact counts
  // deliberately differ -- e.g. the blocked tier's table reads are tallied
  // as shared traffic but the simulator keeps tables host-side -- so only
  // a zero/nonzero contradiction is flagged.
  std::int64_t traced_shared = 0;
  std::int64_t traced_global = 0;
  for (const TraceEvent& e : events) {
    (e.space == MemSpace::kShared ? traced_shared : traced_global) += 1;
  }
  const auto cross_check = [&](const char* space, std::int64_t modeled,
                               std::int64_t traced) {
    if ((modeled == 0) == (traced == 0)) return;
    Finding f;
    f.kind = FindingKind::kCostModelMismatch;
    f.diagnostic = true;
    f.expected = static_cast<double>(modeled);
    f.actual = static_cast<double>(traced);
    std::ostringstream os;
    os << space << " ops modeled=" << modeled << " traced=" << traced
       << " disagree on zero/nonzero";
    f.detail = os.str();
    rep.findings.push_back(std::move(f));
  };
  cross_check("shmem", lr.total_ops.shmem, traced_shared);
  cross_check("gmem", lr.total_ops.gmem, traced_global);
  return rep;
}

}  // namespace te::analysis
