#pragma once
// The start sweep: SS-HOPM from many starting vectors against one bound
// tensor -- the paper's thread-per-vector batch (Section V-B) on CPU SIMD
// lanes. solve_starts() runs detail::sweep_runs (sshopm.hpp), which keeps
// kSweepLanes runs in flight as the lanes of the facade's vector route:
// every step is one lane ttsv1 and one lane ttsv0 over all of them, so the
// tensor is walked once per step for up to kSweepLanes runs.
//
// Lanes retire *independently* and refill at once: a lane whose run
// converges, degenerates, goes non-finite or runs out of budget is
// recorded and takes the next start in the same step, while the other
// lanes keep iterating. Only at the tail, when no start is left, do idle
// lanes ride along in the kernel calls (the sshopm.multi.lane_occupancy
// gauge measures that); every kernel operation is lane-wise, so an idle
// lane's row can never contaminate a live one.
//
// Semantics contract (the parity tests assert it): every slot is bitwise
// what solve() produces from that start alone -- the lane kernels are the
// scalar kernels per lane, the update is Run::update's own expression, and
// every stop and classification is detail::Run's. Counters and OpCounts
// are a lone run's too. The facade's width does not enter: it only sizes
// VectorBatch calls.

#include <span>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/util/op_counter.hpp"

namespace te::sshopm {

/// The start sweep: SS-HOPM from every start against one bound tensor,
/// results written in start order into `out` (one slot per start), each
/// bitwise solve() from that start. The one-shot CPU backends, the
/// scheduler's CPU chunks and find_eigenpairs all sweep through here.
template <Real T>
void solve_starts(const kernels::BoundKernels<T>& k,
                  std::span<const std::vector<T>> starts, const Options& opt,
                  std::span<Result<T>> out, OpCounts* ops = nullptr) {
  TE_REQUIRE(out.size() == starts.size(), "one result slot per start");
  detail::sweep_runs<T>(
      k, starts.size(),
      [starts](std::size_t v) {
        return std::span<const T>(starts[v].data(), starts[v].size());
      },
      [out](std::size_t v) -> Result<T>& { return out[v]; }, opt, ops,
      nullptr);
}

}  // namespace te::sshopm
