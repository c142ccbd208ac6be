// serve_stream: multi-tenant service traffic against a 2-shard
// serve::Server<float> with its background pump and per-shard WALs.
//
// Open loop: one generator thread submits on a seeded schedule whatever
// the server's state, and one waiter thread per tenant observes
// completions. Latency runs from each request's due time to its observed
// completion, so a stalled generator charges the wait to every later
// request. Tenants:
//
//   interactive -- Poisson, 150/s: 8-voxel DW-MRI slabs x 64 starts,
//                  (4,3) on the unrolled tier;
//   research    -- every 100 ms with jitter: 4 random tensors x 4 starts,
//                  cycling (3,7) and (4,9) on the precomputed tier and
//                  (6,3) on the unrolled tier.
//
// The server is busy about a fifth of the time on a 4-vCPU x86-64 host.
// Heavier interactive slabs or a busier server made the latency medians
// move with the host's speed drift by more than the 25% bound. In runs
// alternating research jobs every 50 ms and every 100 ms, the p99 latency
// spread over an interquartile range of 18% and 6% of its median. Every
// request problem is built in set-up.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include "common.hpp"
#include "te/dwmri/dataset.hpp"
#include "te/serve/server.hpp"

namespace perfbench {
namespace {

using te::batch::BatchProblem;
using te::kernels::Tier;

constexpr double kInteractiveRate = 150;  // Poisson arrivals per second
constexpr double kResearchRate = 10;      // paced arrivals per second
constexpr double kResearchJitter = 0.8;  // of the period, uniform
constexpr int kSlabVoxels = 8;
constexpr int kSlabs = 64;  // distinct slabs in the dataset
constexpr int kInteractiveStarts = 64;
constexpr int kResearchTensors = 4;
constexpr int kResearchStarts = 4;
constexpr int kChunkTensors = 4;
constexpr int kTenantCapacity = 256;
constexpr int kCheckEvery = 8;  // bitwise-check every 8th completed request
constexpr double kRecoveryFloor = 0.6;
constexpr double kSegmentSeconds = 1;

struct ResearchShape {
  int order;
  int dim;
  Tier tier;
};
constexpr ResearchShape kResearch[] = {
    {3, 7, Tier::kPrecomputed},
    {4, 9, Tier::kPrecomputed},
    {6, 3, Tier::kUnrolled},
};

struct Arrival {
  double at = 0;  ///< seconds from the start of the schedule
  bool interactive = true;
  int kind = 0;  ///< slab index (interactive) or kResearch index
};

/// The seeded traffic and every request problem, built before timing.
struct Inputs {
  te::dwmri::Dataset<float> slabs;  ///< kSlabs * kSlabVoxels voxels
  std::vector<std::vector<float>> interactive_starts;
  std::vector<Arrival> arrivals;
  std::vector<BatchProblem<float>> problems;  ///< one per arrival
};

BatchProblem<float> make_problem(const Inputs& in, const Arrival& a,
                                 std::uint64_t seed, std::size_t index) {
  if (!a.interactive) {
    const auto& s = kResearch[a.kind];
    return BatchProblem<float>::random(seed * 1000003ULL + index,
                                       kResearchTensors, kResearchStarts,
                                       s.order, s.dim);
  }
  BatchProblem<float> p;
  p.order = 4;
  p.dim = 3;
  for (int v = 0; v < kSlabVoxels; ++v) {
    p.tensors.push_back(
        in.slabs.voxels[static_cast<std::size_t>(a.kind * kSlabVoxels + v)]
            .tensor);
  }
  p.starts = in.interactive_starts;
  p.options.alpha = 0.0;
  p.options.tolerance = 1e-6;
  return p;
}

Inputs make_inputs(std::uint64_t seed, double horizon_s) {
  Inputs in;
  te::dwmri::DatasetOptions dopt;
  dopt.num_voxels = kSlabs * kSlabVoxels;
  dopt.refit_from_measurements = true;
  dopt.noise_sigma = 0.02;
  in.slabs = te::dwmri::make_dataset<float>(seed, dopt);
  in.interactive_starts = te::random_sphere_batch<float>(
      te::CounterRng(seed), 1u << 20, kInteractiveStarts, 3);

  // Interactive users arrive as a Poisson stream; the research tenant's
  // jobs come on a jittered period and cycle through its three shapes.
  const te::CounterRng rng(seed ^ 0xa771ea1ULL);
  double t = 0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.unit(i, 0)) / kInteractiveRate;
    if (t >= horizon_s) break;
    in.arrivals.push_back(
        {t, true, static_cast<int>(rng.unit(i, 1) * kSlabs)});
  }
  for (std::uint64_t j = 0;; ++j) {
    const double jitter = kResearchJitter * (rng.unit(j, 2) - 0.5);
    const double at = (static_cast<double>(j) + 0.5 + jitter) / kResearchRate;
    if (at >= horizon_s) break;
    in.arrivals.push_back({at, false, static_cast<int>((j + seed) % 3)});
  }
  std::sort(in.arrivals.begin(), in.arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  in.problems.reserve(in.arrivals.size());
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    in.problems.push_back(make_problem(in, in.arrivals[i], seed, i));
  }
  return in;
}

Tier tier_of(const Arrival& a) {
  return a.interactive ? Tier::kUnrolled : kResearch[a.kind].tier;
}

const char* tenant_of(const Arrival& a) {
  return a.interactive ? "interactive" : "research";
}

te::serve::ServeOptions serve_options(const std::filesystem::path& wal_dir) {
  te::serve::ServeOptions opt;
  opt.shards = 2;
  opt.scheduler.chunk_tensors = kChunkTensors;
  opt.wal_dir = wal_dir.string();
  opt.tenant_queue_capacity = kTenantCapacity;
  opt.completed_retention = 0;  // keep every result for the checks
  return opt;
}

/// Per-request record of one pass.
struct Sent {
  std::size_t index = 0;  ///< into Inputs::arrivals / problems
  Clock::time_point due, submit_begin, submit_end, done;
  bool accepted = false;
  bool completed = false;
  te::serve::Ticket ticket = -1;
};

struct Pass {
  std::vector<Sent> sent;
  Clock::time_point t0, last_done;
  te::serve::ServerStats before, after;
};

/// Drive arrivals [first, last) against the running server in real time:
/// the calling thread is the generator.
Pass run_pass(te::serve::Server<float>& server, Inputs& in, std::size_t first,
              std::size_t last, Tracer& tr) {
  Pass pass;
  pass.before = server.stats();
  pass.sent.resize(last - first);
  const double base = in.arrivals[first].at;
  pass.t0 = Clock::now() + std::chrono::milliseconds(1);

  // One waiter thread per tenant. DRR drains each tenant's requests in
  // submission order, so a waiter that wait()s on its tenant's tickets in
  // order observes every completion as the server publishes it.
  struct Queue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> sent;  // guarded by mutex
    bool closed = false;           // guarded by mutex
  };
  Queue queues[2];  // interactive, research
  auto waiter = [&](Queue& q) {
    for (;;) {
      std::size_t k = 0;
      {
        std::unique_lock lock(q.mutex);
        q.cv.wait(lock, [&] { return !q.sent.empty() || q.closed; });
        if (q.sent.empty()) return;
        k = q.sent.front();
        q.sent.pop_front();
      }
      Sent& s = pass.sent[k];
      s.completed =
          server.wait(s.ticket) == te::serve::RequestState::kDone;
      s.done = Clock::now();
    }
  };
  std::thread waiters[2] = {std::thread(waiter, std::ref(queues[0])),
                            std::thread(waiter, std::ref(queues[1]))};

  auto close_and_join = [&] {
    for (auto& q : queues) {
      {
        std::lock_guard lock(q.mutex);
        q.closed = true;
      }
      q.cv.notify_one();
    }
    for (auto& w : waiters) w.join();
  };
  try {
    Clock::time_point idle_from = pass.t0;
    for (std::size_t k = 0; k < pass.sent.size(); ++k) {
      Sent& s = pass.sent[k];
      s.index = first + k;
      const Arrival& a = in.arrivals[s.index];
      s.due = pass.t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(a.at - base));
      std::this_thread::sleep_until(s.due);
      s.submit_begin = Clock::now();
      if (tr.enabled() && s.submit_begin > idle_from) {
        tr.record({tr.next_id(), -1, -1, "bench.wait_due", tr.at(idle_from),
                   tr.at(std::min(s.due, s.submit_begin))});
      }
      const auto out = server.submit(
          tenant_of(a), std::move(in.problems[s.index]), tier_of(a));
      s.submit_end = Clock::now();
      idle_from = s.submit_end;
      s.accepted = out.accepted;
      s.ticket = out.ticket;
      if (s.accepted) {
        Queue& q = queues[a.interactive ? 0 : 1];
        {
          std::lock_guard lock(q.mutex);
          q.sent.push_back(k);
        }
        q.cv.notify_one();
      }
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  pass.after = server.stats();
  pass.last_done = pass.t0;
  for (const auto& s : pass.sent) {
    if (s.completed) pass.last_done = std::max(pass.last_done, s.done);
  }

  if (tr.enabled()) {
    for (const auto& s : pass.sent) {
      if (!s.completed) continue;
      const auto req = static_cast<std::int64_t>(s.index);
      const std::int64_t root = tr.next_id();
      tr.record({root, -1, req, "request", tr.at(s.due), tr.at(s.done)});
      if (s.submit_begin > s.due) {
        tr.record({tr.next_id(), root, req, "bench.gen_lag", tr.at(s.due),
                   tr.at(s.submit_begin)});
      }
      tr.record({tr.next_id(), root, req, "serve.submit",
                 tr.at(s.submit_begin), tr.at(s.submit_end)});
      tr.record({tr.next_id(), root, req, "serve.in_flight",
                 tr.at(s.submit_end), tr.at(s.done)});
    }
  }
  return pass;
}

double ms(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Extract one interactive result's eigenpairs and score them against the
/// slab's true fibers.
FiberScore score_slab(const Inputs& in, int slab, const BatchProblem<float>& p,
                      const te::batch::BatchResult<float>& res) {
  te::sshopm::MultiStartOptions mopt;
  mopt.inner = p.options;
  return score_local_maxima(
      te::batch::extract_eigenpairs(p, res, mopt),
      std::span(in.slabs.voxels)
          .subspan(static_cast<std::size_t>(slab * kSlabVoxels),
                   static_cast<std::size_t>(kSlabVoxels)));
}

/// Fiber recovery over the distinct interactive slabs, each scored once
/// (every request for a slab returns the same bits).
struct Recovery {
  std::vector<bool> scored = std::vector<bool>(kSlabs, false);
  FiberScore score;
};

/// Output checks of one finished pass (server stopped): every submission
/// accounted for; every kCheckEvery-th completed request bitwise equal to
/// a direct solve; the first completed request of each slab scored into
/// `rec`. Returns failed requests (rejected + lost + mismatched).
std::int64_t check_pass(const te::serve::Server<float>& server,
                        const Inputs& in, const Pass& pass, Report& r,
                        Recovery& rec) {
  std::int64_t rejected = 0, lost = 0, mismatched = 0, completed = 0;
  for (const auto& s : pass.sent) {
    if (!s.accepted) {
      ++rejected;
      continue;
    }
    if (!s.completed) {
      ++lost;
      continue;
    }
    const Arrival& a = in.arrivals[s.index];
    const auto& prob = server.problem(s.ticket);
    const auto& res = server.result(s.ticket);
    if (completed++ % kCheckEvery == 0) {
      const auto ref = te::batch::solve_cpu_sequential(prob, tier_of(a));
      bool same = ref.results.size() == res.results.size();
      for (std::size_t i = 0; same && i < res.results.size(); ++i) {
        same = same_bits(res.results[i], ref.results[i]);
      }
      if (!same) ++mismatched;
    }
    if (a.interactive && !rec.scored[static_cast<std::size_t>(a.kind)]) {
      rec.scored[static_cast<std::size_t>(a.kind)] = true;
      rec.score += score_slab(in, a.kind, prob, res);
    }
  }
  const auto attempts = static_cast<std::int64_t>(pass.sent.size());
  const std::int64_t accepted = pass.after.submitted - pass.before.submitted;
  const std::int64_t refused = pass.after.rejected - pass.before.rejected;
  const std::int64_t done = pass.after.completed - pass.before.completed;
  if (attempts != accepted + refused || rejected != refused) {
    r.fail("serve_stream: submitted != accepted + rejected");
  }
  if (lost > 0 || done != accepted) {
    r.fail("serve_stream: " + std::to_string(accepted - done) +
           " accepted requests never completed");
  }
  if (mismatched > 0) {
    r.fail("serve_stream: " + std::to_string(mismatched) +
           " sampled requests differ from a direct solve");
  }
  if (rejected > 0) {
    std::printf("serve_stream: %lld requests rejected by admission\n",
                static_cast<long long>(rejected));
  }
  return rejected + lost + mismatched;
}

std::uintmax_t dir_bytes(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Indices [first, last) of the arrivals due in [from, to) seconds.
std::pair<std::size_t, std::size_t> slice(const Inputs& in, double from,
                                          double to) {
  std::size_t first = 0;
  while (first < in.arrivals.size() && in.arrivals[first].at < from) ++first;
  std::size_t last = first;
  while (last < in.arrivals.size() && in.arrivals[last].at < to) ++last;
  return {first, last};
}

/// Submit one request of every shape and wait, so the table cache and the
/// WAL files are warm before timing.
void warm_up(te::serve::Server<float>& server, const Inputs& in,
             std::uint64_t seed) {
  for (int kind = -1; kind < 3; ++kind) {
    Arrival a;
    a.interactive = kind < 0;
    a.kind = kind < 0 ? 0 : kind;
    const auto out = server.submit("warmup", make_problem(in, a, seed, 0),
                                   tier_of(a));
    server.wait(out.ticket);
  }
}

DeterminismCounts determinism_unit(std::uint64_t seed) {
  Inputs in = make_inputs(seed, 0.5);
  DeterminismCounts c;
  std::vector<te::SymmetricTensor<float>> all;
  for (const auto& p : in.problems) {
    all.insert(all.end(), p.tensors.begin(), p.tensors.end());
  }
  c.input_hash = hash_tensors(all);
  te::serve::Server<float> server(serve_options({}));
  const ObsCounts before = ObsCounts::now();
  std::vector<te::serve::Ticket> tickets;
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    tickets.push_back(server
                          .submit(tenant_of(in.arrivals[i]),
                                  std::move(in.problems[i]),
                                  tier_of(in.arrivals[i]))
                          .ticket);
  }
  server.pump(-1);
  const ObsCounts d = ObsCounts::now() - before;
  c.solves = d.solves;
  c.iterations_mean =
      d.solves > 0 ? d.iterations / static_cast<double>(d.solves) : 0;
  c.ttsv_calls = d.ttsv_calls;
  FiberScore score;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Arrival& a = in.arrivals[i];
    if (!a.interactive) continue;
    score += score_slab(in, a.kind, server.problem(tickets[i]),
                        server.result(tickets[i]));
  }
  c.fiber_recovery = score.fraction();
  return c;
}

/// What a run of segments produced. Each segment drives its slice of the
/// schedule against a fresh server, so retained results (kept for the
/// checks) never exceed one segment's worth of memory.
struct Stream {
  std::vector<double> all_ms, interactive_ms, research_ms, submit_us, lag_ms;
  double window_s = 0;  ///< summed first-due .. last-completion spans
  double tensors_done = 0;
  std::int64_t attempted = 0, completed = 0, failed = 0;
  Recovery recovery;
  double flops = 0, solve_s = 0, wal_bytes = 0;
  std::int64_t steps = 0, rejected = 0;
  std::int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  ObsCounts obs;
  double covered_s = 0;  ///< traced window covered by stage spans
};

Stream run_stream(Inputs& in, std::uint64_t seed, double from, double to,
                  const std::filesystem::path& wal_dir, Tracer& tr,
                  Report& r) {
  Stream st;
  for (double seg = from; seg < to; seg += kSegmentSeconds) {
    const auto [first, last] =
        slice(in, seg, std::min(seg + kSegmentSeconds, to));
    if (first == last) continue;
    std::filesystem::remove_all(wal_dir);
    te::serve::Server<float> server(serve_options(wal_dir));
    warm_up(server, in, seed);
    server.start();
    const std::uintmax_t wal_before = dir_bytes(wal_dir);
    const ObsCounts obs_before = ObsCounts::now();
    const double traced_from = tr.now();
    const Pass pass = run_pass(server, in, first, last, tr);
    const double traced_to = tr.at(pass.last_done);
    st.obs += ObsCounts::now() - obs_before;
    st.wal_bytes += static_cast<double>(dir_bytes(wal_dir) - wal_before);
    server.stop();

    st.covered_s += tr.coverage(traced_from, traced_to) *
                    (traced_to - traced_from);
    st.window_s += seconds_between(pass.t0, pass.last_done);
    for (const auto& s : pass.sent) {
      st.submit_us.push_back(seconds_between(s.submit_begin, s.submit_end) *
                             1e6);
      st.lag_ms.push_back(ms(s.due, s.submit_begin));
      if (!s.completed) continue;
      ++st.completed;
      const double lat = ms(s.due, s.done);
      const Arrival& a = in.arrivals[s.index];
      st.all_ms.push_back(lat);
      (a.interactive ? st.interactive_ms : st.research_ms).push_back(lat);
      st.tensors_done += a.interactive ? kSlabVoxels : kResearchTensors;
      const auto& res = server.result(s.ticket);
      st.flops += static_cast<double>(res.useful_flops);
      st.solve_s += res.wall_seconds;
    }
    st.attempted += static_cast<std::int64_t>(pass.sent.size());
    st.failed += check_pass(server, in, pass, r, st.recovery);
    st.steps += pass.after.steps - pass.before.steps;
    st.rejected += pass.after.rejected - pass.before.rejected;
    st.cache_hits += pass.after.cache.hits - pass.before.cache.hits;
    st.cache_misses += pass.after.cache.misses - pass.before.cache.misses;
    st.cache_evictions +=
        pass.after.cache.evictions - pass.before.cache.evictions;
  }
  std::filesystem::remove_all(wal_dir);
  return st;
}

}  // namespace

Report run_serve_stream(const RunConfig& cfg) {
  Report r;
  const auto wal_dir = cfg.out_dir / "serve-wal";
  // Untraced: one stream of cfg.seconds. Traced: an untraced reference
  // stream of half that, then the traced stream.
  const double ref_s = cfg.trace ? cfg.seconds / 2 : 0;
  const double horizon = ref_s + cfg.seconds;
  std::optional<Inputs> in;
  // Set-up: build every request problem, start a server and warm it (each
  // segment repeats the server part, outside the timed windows).
  const int setup_reps = cfg.trace ? 1 : kSetupReps;
  const double setup_s = median_setup_seconds(setup_reps, [&] {
    in.emplace(make_inputs(cfg.seed, horizon));
    std::filesystem::remove_all(wal_dir);
    te::serve::Server<float> server(serve_options(wal_dir));
    warm_up(server, *in, cfg.seed);
    server.start();
  });

  Tracer off(false);
  Tracer tr(cfg.trace);
  std::optional<Stream> ref;
  if (cfg.trace) ref = run_stream(*in, cfg.seed, 0, ref_s, wal_dir, off, r);
  const Stream st = run_stream(*in, cfg.seed, ref_s, horizon, wal_dir, tr, r);

  r.attempted = st.attempted;
  r.failed = st.failed;
  const double recovery = st.recovery.score.fraction();
  if (recovery < kRecoveryFloor) {
    r.fail("serve_stream: interactive fiber recovery " +
           std::to_string(recovery) + " below the floor " +
           std::to_string(kRecoveryFloor));
  }

  if (!cfg.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("voxels_per_s", st.tensors_done / st.window_s, "voxels/s");
    r.set("fiber_recovery", recovery, "fraction");
    r.set("req_per_s", static_cast<double>(st.completed) / st.window_s, "1/s");
    set_latency_metrics(r, st.all_ms, st.interactive_ms);
    return r;
  }

  // Per-layer metrics of the traced stream.
  const auto completed = static_cast<double>(st.completed);
  const double hits = static_cast<double>(st.cache_hits);
  const double misses = static_cast<double>(st.cache_misses);
  set_solver_metrics(r, st.obs);
  r.set("kernels.useful_gflops", st.flops / st.solve_s / 1e9, "GFLOP/s");
  r.set("batch.solve_s", st.solve_s / completed, "s");
  r.set("batch.chunks", static_cast<double>(st.obs.chunks) / completed,
        "count");
  r.set("batch.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
        "fraction");
  r.set("batch.cache_misses", misses, "count");
  r.set("batch.cache_evictions", static_cast<double>(st.cache_evictions),
        "count");
  r.set("io.wal_appends", static_cast<double>(st.obs.wal_appends), "count");
  r.set("io.wal_bytes", st.wal_bytes, "B");
  r.set("io.wal_append_p99_us",
        obs_histogram_quantile("io.checkpoint.append", 0.99) * 1e6, "us");
  r.set("serve.submit_p50_us", quantile(st.submit_us, 0.50), "us");
  r.set("serve.submit_p99_us", quantile(st.submit_us, 0.99), "us");
  r.set("serve.gen_lag_p99_ms", quantile(st.lag_ms, 0.99), "ms");
  r.set("serve.pump_steps", static_cast<double>(st.steps), "count");
  r.set("serve.rejected", static_cast<double>(st.rejected), "count");
  r.set("serve.fairness_ratio",
        quantile(st.research_ms, 0.99) / quantile(st.interactive_ms, 0.99),
        "x");
  r.set("bench.trace_overhead", mean(st.all_ms) / mean(ref->all_ms), "x");
  r.set("bench.span_coverage", st.covered_s / st.window_s, "fraction");
  tr.write_json(cfg.out_dir /
                ("trace-serve_stream-" + std::to_string(cfg.seed) + ".json"));

  // Kernel replay on the workload's own problems, one per (tier, shape).
  for (int kind = -1; kind < 3; ++kind) {
    Arrival a;
    a.interactive = kind < 0;
    a.kind = kind < 0 ? 0 : kind;
    const auto p = make_problem(*in, a, cfg.seed, 0);
    report_kernel_replay(r, tier_of(a), p.tensors, p.starts);
  }
  determinism_self_test(r, cfg.seed, determinism_unit);
  return r;
}

}  // namespace perfbench
