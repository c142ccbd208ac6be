// Scheduler study (extension): streaming multi-job batch execution with a
// shared precompute cache and a double-buffered copy/compute pipeline on
// the simulated C2050. Sweeps the sub-batch (chunk) size and reports how
// much modeled PCIe transfer the pipeline hides behind kernel compute --
// the serialized vs overlapped makespans -- plus the table-cache counters
// across a heterogeneous job mix. A second table drives the same chunk
// queue through the CPU backends with one shared ThreadPool.
// Flags: --tensors N --starts V --jobs J --threads P --csv
//        --metrics-json PATH --metrics-csv PATH (te::obs registry dump).

#include "bench_common.hpp"
#include "te/batch/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace te;
  using kernels::Tier;

  CliArgs args(argc, argv);
  const bool csv = args.has("csv");
  const int nt = static_cast<int>(args.get_or("tensors", 48L));
  const int nv = static_cast<int>(args.get_or("starts", 32L));
  const int jobs = static_cast<int>(args.get_or("jobs", 3L));
  const int threads = static_cast<int>(args.get_or("threads", 4L));

  bench::banner("Extension: streaming scheduler",
                "Chunked multi-job execution, shared table cache, modeled "
                "transfer/compute overlap; " +
                    std::to_string(jobs) + " jobs x " + std::to_string(nt) +
                    " tensors x " + std::to_string(nv) + " starts");

  // Heterogeneous job mix cycling through shapes with unrolled kernels.
  const std::pair<int, int> shapes[] = {{4, 3}, {3, 6}, {6, 3}};
  auto make_jobs = [&] {
    std::vector<batch::BatchProblem<float>> ps;
    for (int j = 0; j < jobs; ++j) {
      const auto [m, n] = shapes[static_cast<std::size_t>(j) % 3];
      auto p = batch::BatchProblem<float>::random(
          static_cast<std::uint64_t>(1000 + j), nt, nv, m, n);
      p.options.alpha = 1.0;
      p.options.tolerance = 1e-5;
      p.options.max_iterations = 100;
      ps.push_back(std::move(p));
    }
    return ps;
  };
  const auto problems = make_jobs();

  // ---- GPU-sim pipeline: chunk-size sweep. -------------------------------
  TextTable t;
  t.set_header({"chunk", "chunks", "serial ms", "overlap ms", "hidden %",
                "xfer ms", "kernel ms", "cache hit%", "GFLOPS (overlap)"});
  for (const int chunk : {4, 8, 16, 32, nt}) {
    if (chunk > nt) continue;
    batch::SchedulerOptions opt;
    opt.chunk_tensors = chunk;
    batch::Scheduler<float> sched(batch::Backend::kGpuSim, opt);
    std::vector<batch::JobId> ids;
    // kBlocked exercises the shared tables; two jobs per shape would hit
    // even harder, but even one reuses tables across that job's chunks.
    for (const auto& p : problems) ids.push_back(sched.submit(p, Tier::kBlocked));
    sched.run();

    const auto rep = sched.pipeline();
    const auto stats = sched.cache_stats();
    std::int64_t flops = 0;
    for (const auto id : ids) flops += sched.result(id).useful_flops;
    const double hidden_pct =
        rep.serialized_seconds > 0
            ? 100.0 * rep.hidden_seconds() / rep.serialized_seconds
            : 0.0;
    char hid[32], hit[32];
    std::snprintf(hid, sizeof hid, "%.1f", hidden_pct);
    std::snprintf(hit, sizeof hit, "%.1f", 100.0 * stats.hit_rate());
    auto ms = [](double s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", s * 1e3);
      return std::string(buf);
    };
    char gf[32];
    std::snprintf(gf, sizeof gf, "%.1f",
                  rep.overlapped_seconds > 0
                      ? static_cast<double>(flops) / rep.overlapped_seconds /
                            1e9
                      : 0.0);
    t.add_row({std::to_string(chunk), std::to_string(rep.chunks),
               ms(rep.serialized_seconds), ms(rep.overlapped_seconds), hid,
               ms(rep.transfer_seconds), ms(rep.compute_seconds), hit, gf});
  }
  bench::emit(t, csv);

  // ---- CPU backends over the same chunk queue. ---------------------------
  TextTable c;
  c.set_header({"backend", "chunk", "wall ms", "GFLOPS", "cache hit%"});
  ThreadPool pool(threads);
  for (const auto backend :
       {batch::Backend::kCpuSequential, batch::Backend::kCpuParallel}) {
    batch::SchedulerOptions opt;
    opt.chunk_tensors = 16;
    batch::Scheduler<float> sched(backend, opt,
                                  backend == batch::Backend::kCpuParallel
                                      ? &pool
                                      : nullptr);
    std::vector<batch::JobId> ids;
    for (const auto& p : problems) {
      ids.push_back(sched.submit(p, Tier::kPrecomputed));
    }
    sched.run();
    double wall = 0;
    std::int64_t flops = 0;
    for (const auto id : ids) {
      wall += sched.result(id).wall_seconds;
      flops += sched.result(id).useful_flops;
    }
    char wb[32], gb[32], hb[32];
    std::snprintf(wb, sizeof wb, "%.2f", wall * 1e3);
    std::snprintf(gb, sizeof gb, "%.2f",
                  wall > 0 ? static_cast<double>(flops) / wall / 1e9 : 0.0);
    std::snprintf(hb, sizeof hb, "%.1f",
                  100.0 * sched.cache_stats().hit_rate());
    c.add_row({std::string(batch::backend_name(backend)), "16", wb, gb, hb});
  }
  bench::emit(c, csv);

  std::cout << "Note: overlap and transfer times are modeled (C2050 PCIe at "
               "6 GB/s); CPU rows are measured wall time on this host.\n";
  return bench::maybe_write_metrics(
             args, "bench_scheduler",
             {{"jobs", std::to_string(jobs)},
              {"tensors", std::to_string(nt)},
              {"starts", std::to_string(nv)}})
             ? 0
             : 1;
}
