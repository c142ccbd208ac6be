// tract_phantom: the downstream consumer of the eigensolver. A crossing
// phantom (an x bundle everywhere, a y bundle through the central third)
// is acquired with seeded ADC noise and refitted in set-up. One request
// builds tract::PeakField over the whole volume (batch::solve_cpu_sequential
// on one thread, unrolled m=4 n=3 kernels), traces streamlines seeded at
// every voxel, and scores each voxel's peaks against the phantom truth.
//
// Closed loop. The untraced pass runs one client process per hardware
// thread, each forked after set-up and sending its next request when the
// previous one completes. A single client times one vCPU of a shared host,
// and which vCPU it lands on moves its speed by tens of percent from run to
// run; one per hardware thread samples them all, as paper_batch's pool
// does. Processes rather than threads, because threads of one process
// would share the te::obs counters every ttsv call bumps, and contending
// on them more than doubles a request's time. The traced run keeps one
// client in-process.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "te/dwmri/fit.hpp"
#include "te/kernels/flop_model.hpp"
#include "te/tract/streamline.hpp"
#include "te/util/sphere.hpp"

namespace perfbench {
namespace {

using te::kernels::Tier;

constexpr int kNx = 32, kNy = 32, kNz = 4;
constexpr int kGradients = 30;
constexpr double kAdcNoise = 0.02;  // ADC noise std-dev (1e-3 mm^2/s)
constexpr double kRecoveryFloor = 0.9;

struct Inputs {
  te::tract::Volume<float> volume{1, 1, 1};
  te::tract::TractOptions options;
};

Inputs make_inputs(std::uint64_t seed) {
  te::tract::PhantomOptions popt;
  popt.nx = kNx;
  popt.ny = kNy;
  popt.nz = kNz;
  Inputs in{te::tract::make_crossing_phantom<float>(popt), {}};
  const auto gradients = te::fibonacci_hemisphere<double>(kGradients);
  const te::CounterRng noise(seed ^ 0x7a4c7ULL);
  std::uint64_t stream = 0;
  for (auto& voxel : in.volume.voxels()) {
    std::vector<te::dwmri::AdcSample> samples;
    for (int g = 0; g < kGradients; ++g) {
      const auto& gd = gradients[static_cast<std::size_t>(g)];
      te::dwmri::AdcSample s;
      s.gradient = {gd[0], gd[1], gd[2]};
      s.adc = te::dwmri::adc_quartic(voxel.tensor,
                                     std::span<const double>(gd.data(), 3)) +
              kAdcNoise * noise.normal(stream, static_cast<std::uint64_t>(g));
      samples.push_back(s);
    }
    voxel.tensor = te::dwmri::fit_tensor<float>(
        4, std::span<const te::dwmri::AdcSample>(samples.data(),
                                                 samples.size()));
    ++stream;
  }
  // The SS-HOPM starts keep TractOptions' default seed. PeakField gives
  // every voxel the same starts and the phantom's voxels hold nearly the
  // same tensor, so a seeded start set would move the iteration count of
  // every voxel at once (by 15% between two seeds); the seeded ADC noise
  // varies per voxel instead.
  return in;
}

struct RequestOutcome {
  FiberScore recovery;
  std::vector<te::tract::Streamline> lines;
};

/// One request: peaks -> streamlines -> score.
RequestOutcome run_request(const Inputs& in, Tracer& tr) {
  RequestOutcome out;
  std::optional<te::tract::PeakField<float>> field;
  {
    Span s(tr, "tract.PeakField");
    field.emplace(in.volume, in.options);
  }
  {
    Span s(tr, "tract.seed_and_trace");
    out.lines = te::tract::seed_and_trace(*field, 1, in.options);
  }
  {
    Span s(tr, "dwmri.score_recovery");
    for (int k = 0; k < kNz; ++k) {
      for (int j = 0; j < kNy; ++j) {
        for (int i = 0; i < kNx; ++i) {
          const std::array<double, 3> c = {i + 0.5, j + 0.5, k + 0.5};
          std::vector<std::vector<float>> peaks;
          for (const auto& p : field->peaks_at(std::span<const double>(c))) {
            peaks.push_back({static_cast<float>(p[0]),
                             static_cast<float>(p[1]),
                             static_cast<float>(p[2])});
          }
          const auto score = te::dwmri::score_recovery(
              in.volume.at(i, j, k),
              std::span<const std::vector<float>>(peaks.data(), peaks.size()));
          out.recovery.matched += score.matched;
          out.recovery.fibers += score.true_fibers;
        }
      }
    }
  }
  return out;
}

/// Streamline totals and the bounds check: a streamline may end at most
/// one step past the volume boundary, where tracing stops.
struct LineStats {
  std::int64_t streamlines = 0;
  std::int64_t points = 0;
  std::int64_t out_of_bounds = 0;
};

LineStats check_lines(const std::vector<te::tract::Streamline>& lines,
                      double step) {
  LineStats st;
  const double pad = step + 1e-9;
  for (const auto& line : lines) {
    st.points += static_cast<std::int64_t>(line.points.size());
    for (const auto& p : line.points) {
      if (p[0] < -pad || p[0] > kNx + pad || p[1] < -pad ||
          p[1] > kNy + pad || p[2] < -pad || p[2] > kNz + pad) {
        ++st.out_of_bounds;
        break;
      }
    }
  }
  st.streamlines = static_cast<std::int64_t>(lines.size());
  return st;
}

struct Pass {
  std::vector<double> latency_ms;
  double requests_per_s = 0;  ///< summed over the clients
  double start = 0, end = 0;
  // Every request of a pass repeats the same work; keep the first's counts.
  FiberScore recovery;
  LineStats lines;
  std::int64_t out_of_bounds = 0;
};

/// One client, in this process: requests back to back for `seconds`.
Pass run_pass(const Inputs& in, Tracer& tr, double seconds) {
  Pass pass;
  pass.start = tr.now();
  const auto t0 = Clock::now();
  for (int i = 0; i == 0 || seconds_between(t0, Clock::now()) < seconds;
       ++i) {
    Span req(tr, "request", i);
    const auto q0 = Clock::now();
    const RequestOutcome o = run_request(in, tr);
    pass.latency_ms.push_back(seconds_between(q0, Clock::now()) * 1e3);
    Span check(tr, "bench.check");
    const LineStats st = check_lines(o.lines, in.options.step);
    if (i == 0) {
      pass.recovery = o.recovery;
      pass.lines = st;
    }
    pass.out_of_bounds += st.out_of_bounds;
  }
  pass.requests_per_s = static_cast<double>(pass.latency_ms.size()) /
                        seconds_between(t0, Clock::now());
  pass.end = tr.now();
  return pass;
}

/// The fixed-size part of a client's report to the parent; the request
/// latencies follow it on the pipe.
struct ClientHeader {
  std::int64_t requests = 0;
  double requests_per_s = 0;
  FiberScore recovery;
  LineStats lines;
  std::int64_t out_of_bounds = 0;
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Child side: warm up, run one client's pass, report it on `fd`.
[[noreturn]] void client_process(const Inputs& in, double seconds, int fd) {
  bool ok = false;
  try {
    Tracer off(false);
    (void)run_request(in, off);  // fault in this process's own pages
    const Pass p = run_pass(in, off, seconds);
    ClientHeader h;
    h.requests = static_cast<std::int64_t>(p.latency_ms.size());
    h.requests_per_s = p.requests_per_s;
    h.recovery = p.recovery;
    h.lines = p.lines;
    h.out_of_bounds = p.out_of_bounds;
    ok = write_all(fd, &h, sizeof h) &&
         write_all(fd, p.latency_ms.data(),
                   p.latency_ms.size() * sizeof(double));
  } catch (...) {
  }
  ::_exit(ok ? 0 : 1);
}

/// `clients` closed-loop clients, one forked process each, for `seconds`.
/// Latencies are pooled; requests_per_s is the sum of the clients' rates.
Pass run_clients(const Inputs& in, double seconds, int clients) {
  std::fflush(stdout);
  std::vector<std::pair<pid_t, int>> children;  // (pid, read end)
  for (int c = 0; c < clients; ++c) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      client_process(in, seconds, fds[1]);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      break;
    }
    children.emplace_back(pid, fds[0]);
  }

  Pass pass;
  bool ok = static_cast<int>(children.size()) == clients;
  for (const auto& [pid, fd] : children) {
    ClientHeader h;
    std::vector<double> latency;
    bool got = read_all(fd, &h, sizeof h) && h.requests > 0;
    if (got) {
      latency.resize(static_cast<std::size_t>(h.requests));
      got = read_all(fd, latency.data(), latency.size() * sizeof(double));
    }
    ::close(fd);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
      continue;
    }
    if (pass.latency_ms.empty()) {
      pass.recovery = h.recovery;
      pass.lines = h.lines;
    }
    pass.latency_ms.insert(pass.latency_ms.end(), latency.begin(),
                           latency.end());
    pass.requests_per_s += h.requests_per_s;
    pass.out_of_bounds += h.out_of_bounds;
  }
  if (!ok) throw std::runtime_error("tract_phantom: a client process failed");
  return pass;
}

}  // namespace

Report run_tract_phantom(const RunConfig& cfg) {
  Report r;
  std::optional<Inputs> in;
  Tracer off(false);
  const int setup_reps = cfg.trace ? 1 : kSetupReps;
  const double setup_s = median_setup_seconds(setup_reps, [&] {
    in.emplace(make_inputs(cfg.seed));
    (void)run_request(*in, off);  // warm-up
  });

  Pass pass;
  if (!cfg.trace) {
    pass = run_clients(*in, cfg.seconds, cfg.threads);
    r.set("setup_s", setup_s, "s");
  } else {
    const Pass ref = run_pass(*in, off, cfg.seconds / 2);
    Tracer tr(true);
    const ObsCounts before = ObsCounts::now();
    pass = run_pass(*in, tr, cfg.seconds);
    const ObsCounts d = ObsCounts::now() - before;
    const double n = static_cast<double>(pass.latency_ms.size());
    const double peaks = tr.total("tract.PeakField", pass.start, pass.end);
    set_solver_metrics(r, d);
    // Useful flops of the SS-HOPM runs (the count_useful_flops convention:
    // one set-up ttsv0 per run plus one iteration's work per iteration).
    const auto setup_flops = static_cast<double>(
        te::kernels::flops_symmetric_ttsv0(4, 3).flops() + 3 * 3 + 1);
    const auto iteration_flops = static_cast<double>(
        te::kernels::flops_sshopm_iteration(4, 3).flops());
    const double flops = static_cast<double>(d.solves) * setup_flops +
                         d.iterations * iteration_flops;
    r.set("kernels.useful_gflops", flops / peaks / 1e9, "GFLOP/s");
    r.set("tract.peaks_s", peaks / n, "s");
    r.set("tract.trace_s",
          tr.total("tract.seed_and_trace", pass.start, pass.end) / n, "s");
    r.set("tract.streamlines", static_cast<double>(pass.lines.streamlines),
          "count");
    r.set("tract.points", static_cast<double>(pass.lines.points), "count");
    r.set("bench.trace_overhead", mean(pass.latency_ms) / mean(ref.latency_ms),
          "x");
    r.set("bench.span_coverage", tr.coverage(pass.start, pass.end),
          "fraction");
    tr.write_json(cfg.out_dir / ("trace-tract_phantom-" +
                                 std::to_string(cfg.seed) + ".json"));

    std::vector<te::SymmetricTensor<float>> tensors;
    for (const auto& v : in->volume.voxels()) {
      if (tensors.size() < 64) tensors.push_back(v.tensor);
    }
    const auto starts = te::random_sphere_batch<float>(
        te::CounterRng(in->options.seed), 0, in->options.num_starts, 3);
    report_kernel_replay(r, Tier::kUnrolled, tensors, starts);
    determinism_self_test(r, cfg.seed, [](std::uint64_t s) {
      const Inputs unit = make_inputs(s);
      Tracer quiet(false);
      const ObsCounts b = ObsCounts::now();
      const RequestOutcome o = run_request(unit, quiet);
      const ObsCounts dd = ObsCounts::now() - b;
      DeterminismCounts c;
      c.solves = dd.solves;
      c.iterations_mean =
          dd.solves > 0 ? dd.iterations / static_cast<double>(dd.solves) : 0;
      c.ttsv_calls = dd.ttsv_calls;
      c.tract_points = check_lines(o.lines, unit.options.step).points;
      c.fiber_recovery = o.recovery.fraction();
      std::vector<te::SymmetricTensor<float>> first;
      for (const auto& v : unit.volume.voxels()) first.push_back(v.tensor);
      c.input_hash = hash_tensors(first);
      return c;
    });
  }

  const double n = static_cast<double>(pass.latency_ms.size());
  const double voxels = static_cast<double>(in->volume.num_voxels());
  r.attempted = static_cast<std::int64_t>(n * voxels);
  r.failed = pass.out_of_bounds;
  if (pass.out_of_bounds > 0) {
    r.fail("tract_phantom: " + std::to_string(pass.out_of_bounds) +
           " streamlines left the volume");
  }
  const double recovery = pass.recovery.fraction();
  if (recovery < kRecoveryFloor) {
    r.fail("tract_phantom: fiber recovery " + std::to_string(recovery) +
           " below the floor " + std::to_string(kRecoveryFloor));
  }
  if (!cfg.trace) {
    r.set("voxels_per_s", voxels * pass.requests_per_s, "voxels/s");
    r.set("fiber_recovery", recovery, "fraction");
    r.set("req_per_s", pass.requests_per_s, "1/s");
    set_latency_metrics(r, pass.latency_ms, pass.latency_ms);
  }
  return r;
}

}  // namespace perfbench
