// te::serve service-layer tests (DESIGN.md section 15): results bitwise
// against the one-shot backends, admission control, DRR fairness in
// deterministic chunk-steps, the cross-shard shared TableCache, per-shard
// WAL crash recovery (shard restart, whole-server restart, torn tails), and
// the wire protocol / socket front-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "te/serve/server.hpp"
#include "te/serve/socket.hpp"
#include "te/serve/wire.hpp"
#include "te/util/json.hpp"

namespace te::serve {
namespace {

using batch::BatchProblem;
using batch::Backend;
using kernels::Tier;

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("te_serve_test_") + name))
      .string();
}

// Top-level fields of a request or response line, read with the library's
// JSON reader; nullopt when the line does not parse or the field is absent
// or of another type.
std::optional<std::string> str_field(const std::string& line,
                                     const std::string& key) {
  const auto doc = json::parse(line);
  const std::string* s = doc ? doc->find_string(key) : nullptr;
  return s != nullptr ? std::optional(*s) : std::nullopt;
}

std::optional<double> num_field(const std::string& line,
                                const std::string& key) {
  const auto doc = json::parse(line);
  return doc ? doc->find_number(key) : std::nullopt;
}

std::optional<bool> bool_field(const std::string& line,
                               const std::string& key) {
  const auto doc = json::parse(line);
  const json::Value* v = doc ? doc->find(key) : nullptr;
  if (v == nullptr || v->kind != json::Value::Kind::kBool) {
    return std::nullopt;
  }
  return v->boolean;
}

/// A raw client connection to a front-end socket, or -1.
int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct TmpDir {
  explicit TmpDir(const char* name) : path(tmp_path(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TmpDir() { std::filesystem::remove_all(path); }
  std::string path;
};

template <Real T>
void expect_bitwise(const std::vector<sshopm::Result<T>>& a,
                    const std::vector<sshopm::Result<T>>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lambda, b[i].lambda) << what << " slot " << i;
    EXPECT_EQ(a[i].x, b[i].x) << what << " slot " << i;
    EXPECT_EQ(a[i].iterations, b[i].iterations) << what << " slot " << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << what << " slot " << i;
  }
}

ServeOptions small_options(int shards = 2, int chunk_tensors = 2) {
  ServeOptions opt;
  opt.shards = shards;
  opt.backend = Backend::kCpuSequential;
  opt.scheduler.chunk_tensors = chunk_tensors;
  return opt;
}

BatchProblem<float> problem(int seed, int tensors = 4) {
  return BatchProblem<float>::random(static_cast<std::uint64_t>(seed),
                                     tensors, /*num_starts=*/2, /*order=*/3,
                                     /*dim=*/4);
}

// ---------------------------------------------------------------------------
// Core client API.
// ---------------------------------------------------------------------------

TEST(Serve, ResultsMatchOneShotBackendBitwise) {
  Server<float> server(small_options());
  const auto p0 = problem(1);
  const auto p1 = problem(2, 6);
  const auto t0 = server.submit("a", problem(1), Tier::kGeneral);
  const auto t1 = server.submit("a", problem(2, 6), Tier::kPrecomputed);
  ASSERT_TRUE(t0.accepted);
  ASSERT_TRUE(t1.accepted);
  EXPECT_EQ(server.wait(t0.ticket), RequestState::kDone);
  EXPECT_EQ(server.wait(t1.ticket), RequestState::kDone);
  expect_bitwise(server.result(t0.ticket).results,
                 batch::solve_cpu_sequential(p0, Tier::kGeneral).results,
                 "general");
  expect_bitwise(server.result(t1.ticket).results,
                 batch::solve_cpu_sequential(p1, Tier::kPrecomputed).results,
                 "precomputed");
}

TEST(Serve, PollReportsProgressAndRoundRobinSharding) {
  Server<float> server(small_options());
  const auto t0 = server.submit("a", problem(3, 4), Tier::kGeneral);
  const auto t1 = server.submit("a", problem(4, 4), Tier::kGeneral);
  auto st0 = server.poll(t0.ticket);
  auto st1 = server.poll(t1.ticket);
  EXPECT_EQ(st0.shard, 0);
  EXPECT_EQ(st1.shard, 1);  // accepted submissions alternate shards
  EXPECT_EQ(st0.chunks_total, 2);
  EXPECT_EQ(st0.chunks_done, 0);
  EXPECT_EQ(st0.state, RequestState::kQueued);
  server.pump(1);
  st0 = server.poll(t0.ticket);
  EXPECT_EQ(st0.chunks_done, 1);
  server.pump();
  EXPECT_EQ(server.poll(t0.ticket).state, RequestState::kDone);
  EXPECT_EQ(server.poll(t1.ticket).state, RequestState::kDone);
}

TEST(Serve, CancelDropsQueuedChunksAndFreesAdmissionSlot) {
  auto opt = small_options(/*shards=*/1);
  opt.tenant_queue_capacity = 1;
  Server<float> server(opt);
  const auto t0 = server.submit("a", problem(5, 6), Tier::kGeneral);
  ASSERT_TRUE(t0.accepted);
  EXPECT_FALSE(server.submit("a", problem(6), Tier::kGeneral).accepted);
  EXPECT_TRUE(server.cancel(t0.ticket));
  EXPECT_FALSE(server.cancel(t0.ticket));  // already cancelled
  EXPECT_EQ(server.poll(t0.ticket).state, RequestState::kCancelled);
  EXPECT_THROW((void)server.result(t0.ticket), InvalidArgument);
  // The slot freed: the tenant can submit again, and the pump has nothing
  // left of the cancelled request.
  const auto t2 = server.submit("a", problem(6), Tier::kGeneral);
  ASSERT_TRUE(t2.accepted);
  EXPECT_EQ(server.wait(t2.ticket), RequestState::kDone);
}

TEST(Serve, AdmissionRejectsWithReasonAndRecoversAfterDrain) {
  auto opt = small_options(/*shards=*/1);
  opt.tenant_queue_capacity = 2;
  Server<float> server(opt);
  const auto a = server.submit("t", problem(7), Tier::kGeneral);
  const auto b = server.submit("t", problem(8), Tier::kGeneral);
  ASSERT_TRUE(a.accepted && b.accepted);
  const auto rejected = server.submit("t", problem(9), Tier::kGeneral);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("capacity"), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1);
  // Other tenants are unaffected by t's backpressure.
  EXPECT_TRUE(server.submit("u", problem(9), Tier::kGeneral).accepted);
  server.pump();
  EXPECT_TRUE(server.submit("t", problem(9), Tier::kGeneral).accepted);
}

TEST(Serve, BackgroundPumpThreadCompletesRequests) {
  Server<float> server(small_options());
  server.start();
  const auto t0 = server.submit("a", problem(10, 8), Tier::kGeneral);
  const auto t1 = server.submit("b", problem(11, 8), Tier::kGeneral);
  EXPECT_EQ(server.wait(t0.ticket), RequestState::kDone);
  EXPECT_EQ(server.wait(t1.ticket), RequestState::kDone);
  server.stop();
  const auto p0 = problem(10, 8);
  expect_bitwise(server.result(t0.ticket).results,
                 batch::solve_cpu_sequential(p0, Tier::kGeneral).results,
                 "threaded pump");
}

// ---------------------------------------------------------------------------
// Fair queueing.
// ---------------------------------------------------------------------------

TEST(Serve, DrrKeepsLightTenantLatencyBounded) {
  auto opt = small_options(/*shards=*/1);
  opt.drr_quantum = 2;
  Server<float> server(opt);
  // Flood: 4 requests x 8 chunks, submitted first.
  std::vector<Ticket> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(
        server.submit("flood", problem(20 + i, 16), Tier::kGeneral).ticket);
  }
  // Light: 4 single-chunk requests, submitted after the flood.
  std::vector<Ticket> light;
  for (int i = 0; i < 4; ++i) {
    light.push_back(
        server.submit("light", problem(30 + i, 2), Tier::kGeneral).ticket);
  }
  server.pump();
  // With quantum 2, light request k completes within (k/2 + 1) full rounds
  // of the two-tenant ring: at most 4 flood steps may precede each pair of
  // light completions. Bound: latency <= 2 * (k + 2) + 2.
  for (std::size_t k = 0; k < light.size(); ++k) {
    const auto st = server.poll(light[k]);
    ASSERT_EQ(st.state, RequestState::kDone);
    const auto latency = st.complete_step - st.submit_step;
    EXPECT_LE(latency, static_cast<std::int64_t>(2 * (k + 2) + 2))
        << "light request " << k << " starved";
  }
  // The flood tenant still finishes everything.
  for (const auto t : flood) {
    EXPECT_EQ(server.poll(t).state, RequestState::kDone);
  }
}

TEST(Serve, PumpStepSequenceIsDeterministic) {
  // The same accepted-submission sequence pumped twice gives identical
  // per-request completion steps, regardless of pump granularity.
  auto run = [](int pump_granularity) {
    Server<float> server(small_options());
    std::vector<Ticket> tickets;
    tickets.push_back(
        server.submit("a", problem(40, 6), Tier::kGeneral).ticket);
    tickets.push_back(
        server.submit("b", problem(41, 4), Tier::kGeneral).ticket);
    tickets.push_back(
        server.submit("a", problem(42, 2), Tier::kGeneral).ticket);
    while (server.pump(pump_granularity) > 0) {
    }
    std::vector<std::int64_t> steps;
    for (const auto t : tickets) {
      steps.push_back(server.poll(t).complete_step);
    }
    return steps;
  };
  EXPECT_EQ(run(1), run(-1));
  EXPECT_EQ(run(3), run(-1));
}

// ---------------------------------------------------------------------------
// Bounded state: retention eviction and idle-tenant cleanup.
// ---------------------------------------------------------------------------

TEST(Serve, RetentionEvictsOldRetiredRequestsAndIdleTenants) {
  auto opt = small_options(/*shards=*/1);
  opt.completed_retention = 2;
  Server<float> server(opt);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(
        server.submit("a", problem(110 + i, 2), Tier::kGeneral).ticket);
  }
  EXPECT_EQ(server.stats().active_tenants, 1);
  server.pump();
  // Only the two most recently retired results survive; older tickets are
  // evicted (their problem/result storage in the shard was released).
  EXPECT_THROW((void)server.result(tickets[0]), InvalidArgument);
  EXPECT_THROW((void)server.result(tickets[1]), InvalidArgument);
  EXPECT_EQ(server.result(tickets[2]).results.size(), 4u);
  EXPECT_EQ(server.result(tickets[3]).results.size(), 4u);
  // poll() keeps answering for evicted tickets.
  EXPECT_EQ(server.poll(tickets[0]).state, RequestState::kDone);
  // The drained tenant left the DRR ring and the tenant map...
  EXPECT_EQ(server.stats().active_tenants, 0);
  // ...and re-joins cleanly on its next submit.
  const auto t = server.submit("a", problem(120, 2), Tier::kGeneral);
  ASSERT_TRUE(t.accepted);
  EXPECT_EQ(server.wait(t.ticket), RequestState::kDone);
}

TEST(Serve, RetentionSurvivesShardKillAndRestart) {
  TmpDir dir("retention_restart");
  auto opt = small_options(/*shards=*/1);
  opt.wal_dir = dir.path;
  opt.completed_retention = 1;
  Server<float> server(opt);
  const auto t0 = server.submit("a", problem(130, 2), Tier::kGeneral);
  const auto t1 = server.submit("a", problem(131, 2), Tier::kGeneral);
  const auto t2 = server.submit("a", problem(132, 4), Tier::kGeneral);
  server.pump();
  EXPECT_THROW((void)server.result(t0.ticket), InvalidArgument);
  server.kill_shard(0);
  server.restart_shard(0);
  // Evicted jobs came back as released placeholders, so the retained
  // request keeps its job id and restores bitwise from the WAL.
  const auto p2 = problem(132, 4);
  expect_bitwise(server.result(t2.ticket).results,
                 batch::solve_cpu_sequential(p2, Tier::kGeneral).results,
                 "retained after restart");
  EXPECT_THROW((void)server.result(t0.ticket), InvalidArgument);
  // New work still lands on the restarted shard with aligned ids.
  const auto t3 = server.submit("a", problem(133, 2), Tier::kGeneral);
  ASSERT_TRUE(t3.accepted);
  EXPECT_EQ(server.wait(t3.ticket), RequestState::kDone);
}

TEST(Serve, StopReturnsWithoutDrainingTheBacklog) {
  Server<float> server(small_options(/*shards=*/1));
  // A backlog far larger than one background-pump slice. Before the pump
  // loop released the mutex between slices, stop() (and the destructor)
  // blocked until the whole backlog drained.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        server.submit("a", problem(150 + i, 16), Tier::kGeneral).accepted);
  }
  server.start();
  server.stop();  // must return promptly, pending work intact
  server.pump();  // the explicit pump finishes the rest
  EXPECT_EQ(server.stats().completed, 6);
}

#if TE_OBS_ENABLED
TEST(Serve, TenantMetricLabelsAreSanitized) {
  Server<float> server(small_options(/*shards=*/1));
  // A hostile wire-supplied tenant name must not leak CSV/JSON
  // metacharacters into the global metric registry.
  const auto t = server.submit("e,v\nil", problem(140, 2), Tier::kGeneral);
  ASSERT_TRUE(t.accepted);
  EXPECT_EQ(server.wait(t.ticket), RequestState::kDone);
  bool sanitized = false;
  for (const auto& h : obs::global().snapshot().histograms) {
    EXPECT_EQ(h.name.find_first_of(",\n\""), std::string::npos) << h.name;
    if (h.name == "serve.tenant.e_v_il.latency_steps") sanitized = true;
  }
  EXPECT_TRUE(sanitized);
}
#endif  // TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Shared cross-shard cache.
// ---------------------------------------------------------------------------

TEST(Serve, ShardsShareOneTableCache) {
  Server<float> server(small_options(/*shards=*/4));
  // Four same-shape precomputed-tier requests land on four distinct shards;
  // the first materializes the tables, the rest hit the shared cache.
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(
        server.submit("a", problem(50 + i), Tier::kPrecomputed).ticket);
  }
  server.pump();
  for (const auto t : tickets) {
    EXPECT_EQ(server.poll(t).state, RequestState::kDone);
  }
  const auto cs = server.stats().cache;
  EXPECT_EQ(cs.misses, 1);  // one build total, not one per shard
  EXPECT_GE(cs.hits, 3);
  EXPECT_GT(cs.bytes_resident, 0);
}

TEST(Serve, SharedCacheByteBudgetIsGlobal) {
  auto opt = small_options(/*shards=*/2);
  opt.cache_max_bytes = 1;  // evict after every insert, across all shards
  Server<float> server(opt);
  auto p0 = BatchProblem<float>::random(60, 2, 2, 3, 4);
  auto p1 = BatchProblem<float>::random(61, 2, 2, 3, 5);
  server.submit("a", std::move(p0), Tier::kPrecomputed);
  server.submit("a", std::move(p1), Tier::kPrecomputed);
  server.pump();
  const auto cs = server.stats().cache;
  EXPECT_EQ(cs.misses, 2);  // distinct shapes
  EXPECT_GE(cs.evictions, 1);  // the 1-byte budget cannot hold both
  EXPECT_EQ(server.cache()->size(), 1u);
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

TEST(Serve, ShardWalFilesAreNamedPerShard) {
  TmpDir dir("wal_naming");
  auto opt = small_options(/*shards=*/3);
  opt.wal_dir = dir.path;
  Server<float> server(opt);
  server.submit("a", problem(70), Tier::kGeneral);
  server.submit("a", problem(71), Tier::kGeneral);
  server.submit("a", problem(72), Tier::kGeneral);
  server.pump();
  for (int s = 0; s < 3; ++s) {
    const auto path = server.shard_wal_path(s);
    EXPECT_EQ(path, dir.path + "/shard_" + std::to_string(s) + ".tetc");
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
}

TEST(Serve, KillAndRestartShardResumesBitwise) {
  TmpDir dir("kill_restart");
  const auto p_ref0 = problem(80, 8);
  const auto p_ref1 = problem(81, 8);
  const auto ref0 = batch::solve_cpu_sequential(p_ref0, Tier::kGeneral);
  const auto ref1 = batch::solve_cpu_sequential(p_ref1, Tier::kGeneral);

  auto opt = small_options(/*shards=*/2);
  opt.wal_dir = dir.path;
  Server<float> server(opt);
  const auto t0 = server.submit("a", problem(80, 8), Tier::kGeneral);
  const auto t1 = server.submit("a", problem(81, 8), Tier::kGeneral);
  server.pump(5);  // partial progress on both shards

  const int done_before = server.poll(t0.ticket).chunks_done;
  server.kill_shard(0);
  EXPECT_FALSE(server.shard_alive(0));
  server.restart_shard(0);
  EXPECT_TRUE(server.shard_alive(0));
  // Everything executed before the kill came back from the WAL.
  EXPECT_EQ(server.poll(t0.ticket).chunks_restored, done_before);

  server.pump();
  expect_bitwise(server.result(t0.ticket).results, ref0.results,
                 "shard-0 restart");
  expect_bitwise(server.result(t1.ticket).results, ref1.results,
                 "untouched shard 1");
}

TEST(Serve, WholeServerRestartResumesFromWalsBitwise) {
  TmpDir dir("full_restart");
  const auto p_ref0 = problem(90, 6);
  const auto p_ref1 = problem(91, 6);
  const auto ref0 = batch::solve_cpu_sequential(p_ref0, Tier::kGeneral);
  const auto ref1 = batch::solve_cpu_sequential(p_ref1, Tier::kGeneral);

  auto opt = small_options(/*shards=*/2);
  opt.wal_dir = dir.path;
  int executed_before;
  {
    Server<float> first(opt);
    first.submit("a", problem(90, 6), Tier::kGeneral);
    first.submit("a", problem(91, 6), Tier::kGeneral);
    executed_before = first.pump(3);
    // Destructor = process death; the WALs hold 3 chunks.
  }
  Server<float> second(opt);
  // The client resubmits accepted requests in the original order.
  const auto t0 = second.submit("a", problem(90, 6), Tier::kGeneral);
  const auto t1 = second.submit("a", problem(91, 6), Tier::kGeneral);
  ASSERT_TRUE(t0.accepted && t1.accepted);
  const int restored = second.poll(t0.ticket).chunks_restored +
                       second.poll(t1.ticket).chunks_restored;
  EXPECT_EQ(restored, executed_before);
  second.pump();
  expect_bitwise(second.result(t0.ticket).results, ref0.results,
                 "restarted job 0");
  expect_bitwise(second.result(t1.ticket).results, ref1.results,
                 "restarted job 1");
}

TEST(Serve, RecoveryResubmissionBypassesAdmission) {
  TmpDir dir("replay_admission");
  auto opt = small_options(/*shards=*/1);
  opt.wal_dir = dir.path;
  opt.tenant_queue_capacity = 2;
  {
    Server<float> first(opt);
    first.submit("t", problem(95), Tier::kGeneral);
    first.submit("t", problem(96), Tier::kGeneral);
    first.pump(2);
  }
  Server<float> second(opt);
  // Both resubmissions are replay jobs pinned in the WAL: they must be
  // accepted even though the tenant is at capacity after the first.
  EXPECT_TRUE(second.submit("t", problem(95), Tier::kGeneral).accepted);
  EXPECT_TRUE(second.submit("t", problem(96), Tier::kGeneral).accepted);
  // A genuinely new request still honors admission.
  EXPECT_FALSE(second.submit("t", problem(97), Tier::kGeneral).accepted);
  second.pump();
}

TEST(Serve, TornTailOnOneShardIsDroppedOthersUnaffected) {
  TmpDir dir("torn_tail");
  const auto p_ref0 = problem(100, 6);
  const auto ref0 = batch::solve_cpu_sequential(p_ref0, Tier::kGeneral);

  auto opt = small_options(/*shards=*/2);
  opt.wal_dir = dir.path;
  std::string wal0;
  {
    Server<float> first(opt);
    first.submit("a", problem(100, 6), Tier::kGeneral);
    first.submit("a", problem(101, 6), Tier::kGeneral);
    first.pump(6);
    wal0 = first.shard_wal_path(0);
  }
  // Tear shard 0's WAL mid-record (a crash during the last append).
  const auto full = std::filesystem::file_size(wal0);
  std::filesystem::resize_file(wal0, full - 13);

  Server<float> second(opt);
  const auto t0 = second.submit("a", problem(100, 6), Tier::kGeneral);
  const auto t1 = second.submit("a", problem(101, 6), Tier::kGeneral);
  // Shard 0 lost its torn last chunk (restored < done-before) but shard
  // 1's WAL is intact; both finish bitwise regardless.
  second.pump();
  expect_bitwise(second.result(t0.ticket).results, ref0.results,
                 "torn shard 0");
  const auto p_ref1 = problem(101, 6);
  expect_bitwise(second.result(t1.ticket).results,
                 batch::solve_cpu_sequential(p_ref1, Tier::kGeneral).results,
                 "intact shard 1");
}

// ---------------------------------------------------------------------------
// Wire protocol and socket front-end.
// ---------------------------------------------------------------------------

TEST(ServeWire, ParsesFlatFields) {
  const std::string line =
      "{\"op\":\"submit\",\"tenant\":\"a b\",\"seed\":7,\"dim\":4}";
  EXPECT_EQ(str_field(line, "op").value(), "submit");
  EXPECT_EQ(str_field(line, "tenant").value(), "a b");
  EXPECT_EQ(num_field(line, "seed").value(), 7.0);
  EXPECT_FALSE(str_field(line, "missing").has_value());
  EXPECT_FALSE(num_field(line, "tenant").has_value());
  EXPECT_EQ(wire_tier("unrolled").value(), Tier::kUnrolled);
  EXPECT_FALSE(wire_tier("warp9").has_value());
}

// Every protocol tier name comes from the one tier list; the retired "cse"
// and "blocked_par" tiers and "jit" (no acquire path in serve) are refused
// as unknown.
TEST(ServeWire, RetiredAndJitTierNamesAreRefusedAsUnknown) {
  for (const Tier t : kernels::kAllTiers) {
    if (t == Tier::kJit) continue;
    EXPECT_EQ(wire_tier(std::string(kernels::tier_name(t))), t);
  }
  EXPECT_FALSE(wire_tier("jit").has_value());
  EXPECT_FALSE(wire_tier("blocked_par").has_value());
  Server<float> server(small_options());
  for (const char* tier : {"cse", "blocked_par", "jit"}) {
    const std::string line =
        std::string("{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,"
                    "\"tensors\":1,\"starts\":1,\"order\":3,\"dim\":4,"
                    "\"tier\":\"") +
        tier + "\"}";
    const auto resp = handle_line(server, line);
    ASSERT_TRUE(str_field(resp, "error").has_value()) << resp;
    EXPECT_NE(str_field(resp, "error")->find("unknown tier"),
              std::string::npos)
        << resp;
  }
  EXPECT_EQ(server.stats().submitted, 0);
}

// An error reply carries the precondition's own message and nothing of
// the server's source layout; the caller that asks for it gets the full
// diagnostic (failed expression, file, line) on the side.
TEST(ServeWire, ErrorRepliesCarryOnlyTheMessage) {
  Server<float> server(small_options());
  std::string diagnostic;
  const auto refused = handle_line(
      server,
      "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,\"tensors\":1,"
      "\"starts\":1,\"order\":3,\"dim\":4,\"tier\":\"blocked_par\"}",
      &diagnostic);
  EXPECT_EQ(str_field(refused, "error").value(),
            "unknown tier 'blocked_par'")
      << refused;
  EXPECT_EQ(diagnostic.rfind("precondition failed: (", 0), 0u) << diagnostic;
  EXPECT_NE(diagnostic.find("wire.cpp:"), std::string::npos) << diagnostic;

  for (const char* line :
       {"{\"op\":", "[1,2]", "{\"op\":\"poll\"}",
        "{\"op\":\"poll\",\"ticket\":99}", "{\"op\":\"warp\"}",
        "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,"
        "\"tensors\":4096,\"starts\":1,\"order\":8,\"dim\":64}"}) {
    diagnostic.clear();
    const auto resp = handle_line(server, line, &diagnostic);
    const auto error = str_field(resp, "error");
    ASSERT_TRUE(error.has_value()) << resp;
    EXPECT_EQ(error->find("precondition failed"), std::string::npos) << resp;
    EXPECT_EQ(error->find(".cpp:"), std::string::npos) << resp;
    EXPECT_EQ(error->find(".hpp:"), std::string::npos) << resp;
    EXPECT_NE(diagnostic.find(*error), std::string::npos)
        << diagnostic << " vs " << resp;
  }

  diagnostic.clear();
  const auto stats = handle_line(server, "{\"op\":\"stats\"}", &diagnostic);
  EXPECT_EQ(stats.rfind("{\"ok\":true,", 0), 0u) << stats;
  EXPECT_TRUE(diagnostic.empty()) << diagnostic;
}

// Regression: a CPU-backend server used to accept a blocked-tier job
// (past the blocked register cap, too), and its pump thread then died in
// run(), aborting the process. The device-only tier is now refused at
// submit and the server keeps serving.
TEST(ServeWire, DeviceOnlyTierIsRefusedAndTheServerKeepsRunning) {
  Server<float> server(small_options());
  server.start();
  const auto refused = handle_line(
      server,
      "{\"op\":\"submit\",\"tenant\":\"a\",\"seed\":1,\"tensors\":1,"
      "\"starts\":1,\"order\":3,\"dim\":40,\"tier\":\"blocked\"}");
  EXPECT_EQ(refused.rfind("{\"ok\":false,", 0), 0u) << refused;
  EXPECT_EQ(server.stats().submitted, 0);
  const auto submit = handle_line(
      server,
      "{\"op\":\"submit\",\"tenant\":\"a\",\"seed\":7,\"tensors\":4,"
      "\"starts\":2,\"order\":3,\"dim\":4,\"tier\":\"precomputed\"}");
  const auto ticket = num_field(submit, "ticket");
  ASSERT_TRUE(ticket.has_value()) << submit;
  const auto wait = handle_line(
      server, "{\"op\":\"wait\",\"ticket\":" +
                  std::to_string(static_cast<int>(*ticket)) + "}");
  EXPECT_EQ(str_field(wait, "state").value(), "done") << wait;
  server.stop();
}

TEST(ServeWire, StringEscapesDecodeExactlyOrNotAtAll) {
  const auto field = [](const std::string& value) {
    return str_field("{\"t\":\"" + value + "\"}", "t");
  };
  EXPECT_EQ(field(R"(a\rb)").value(), "a\rb");
  EXPECT_EQ(field(R"(\b\f\n\t\/\"\\)").value(), "\b\f\n\t/\"\\");
  EXPECT_EQ(field(R"(\u0041\u001f\u007F)").value(), "A\x1f\x7f");
  // Distinct JSON strings stay distinct (they used to collapse: "\r" read
  // as "r", "\u0041" as "u0041").
  EXPECT_NE(field(R"(a\rb)"), field("arb"));
  EXPECT_NE(field(R"(\u0041)"), field("u0041"));
  // Escapes RFC 8259 does not define, short or non-hex \u escapes, and
  // \u escapes past ASCII (which would need UTF-8 encoding) are refused
  // rather than guessed at.
  for (const char* bad : {R"(a\qb)", R"(\x41)", R"(\u00)", R"(\u12G4)",
                          R"(\u-041)", R"(\u00e9)", R"(\ud83d\ude00)"}) {
    EXPECT_FALSE(field(bad).has_value()) << bad;
  }
}

TEST(ServeWire, ControlCharacterTenantsRoundTripAndStayDistinct) {
  Server<float> server(small_options());
  const auto submit = [&](const std::string& tenant_json) {
    return handle_line(
        server, "{\"op\":\"submit\",\"tenant\":\"" + tenant_json +
                    "\",\"seed\":1,\"tensors\":1,\"starts\":1,\"order\":3,"
                    "\"dim\":3}");
  };
  // The poll reply escapes control characters as \u00XX; decoding it gives
  // back the exact tenant bytes.
  const std::string tenant = "t\x01\r\x1f\"\\";
  const auto first = submit(R"(t\u0001\r\u001F\"\\)");
  const auto ticket = num_field(first, "ticket");
  ASSERT_TRUE(ticket.has_value()) << first;
  const auto poll = handle_line(
      server, "{\"op\":\"poll\",\"ticket\":" +
                  std::to_string(static_cast<int>(*ticket)) + "}");
  EXPECT_NE(poll.find(R"(\u0001)"), std::string::npos) << poll;
  EXPECT_EQ(str_field(poll, "tenant").value(), tenant) << poll;
  // "a\rb" and "arb" are two admission/DRR buckets, not one.
  ASSERT_TRUE(num_field(submit(R"(a\rb)"), "ticket").has_value());
  ASSERT_TRUE(num_field(submit("arb"), "ticket").has_value());
  EXPECT_EQ(server.stats().active_tenants, 3);
}

TEST(ServeWire, SubmitWaitStatsCancelRoundTrip) {
  Server<float> server(small_options());
  const auto submit = handle_line(
      server,
      "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":7,\"tensors\":4,"
      "\"starts\":2,\"order\":3,\"dim\":4,\"tier\":\"general\"}");
  EXPECT_EQ(num_field(submit, "ticket").value(), 0.0);
  const auto wait = handle_line(server, "{\"op\":\"wait\",\"ticket\":0}");
  EXPECT_EQ(str_field(wait, "state").value(), "done");
  ASSERT_TRUE(num_field(wait, "lambda00").has_value());
  // The reported eigenvalue is the one-shot backend's, bit for bit (within
  // the %.9g float round-trip, which is exact for float).
  const auto ref = batch::solve_cpu_sequential(problem(7), Tier::kGeneral);
  EXPECT_FLOAT_EQ(static_cast<float>(*num_field(wait, "lambda00")),
                  ref.results.front().lambda);
  const auto stats = handle_line(server, "{\"op\":\"stats\"}");
  EXPECT_EQ(num_field(stats, "completed").value(), 1.0);

  const auto bad = handle_line(server, "{\"op\":\"warp\"}");
  EXPECT_TRUE(str_field(bad, "error").has_value());
  const auto reject = handle_line(server, "{\"op\":\"poll\",\"ticket\":99}");
  EXPECT_TRUE(str_field(reject, "error").has_value());
}

TEST(ServeSocket, LineProtocolOverAfUnix) {
  Server<float> server(small_options());
  server.start();
  const std::string path = tmp_path("sock");
  SocketFrontEnd front(server, path);
  const auto submit = request_over_socket(
      path,
      "{\"op\":\"submit\",\"tenant\":\"s\",\"seed\":8,\"tensors\":2,"
      "\"starts\":2,\"order\":3,\"dim\":4}");
  ASSERT_TRUE(num_field(submit, "ticket").has_value()) << submit;
  const auto wait = request_over_socket(path, "{\"op\":\"wait\",\"ticket\":0}");
  EXPECT_EQ(str_field(wait, "state").value(), "done") << wait;
  front.stop();
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));  // socket unlinked on stop
}

TEST(ServeSocket, StopIsPromptWithAnIdleClientConnected) {
  Server<float> server(small_options());
  server.start();
  const std::string path = tmp_path("idle_sock");
  SocketFrontEnd front(server, path);
  // A client that connects and never sends a byte: before the connection
  // loop polled with a timeout, stop() hung forever in thread_.join().
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  // Let the accept loop pick the connection up, then stop mid-connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  front.stop();
  ::close(fd);
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeWire, RejectsNonFiniteOversizedAndOutOfRangeNumbers) {
  Server<float> server(small_options());
  // 1e300 and NaN would be undefined behavior to cast to int; both must
  // come back as protocol error lines, not crashes.
  for (const char* line :
       {"{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1e300,\"tensors\":1,"
        "\"starts\":1,\"order\":3,\"dim\":4}",
        "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":nan,\"tensors\":1,"
        "\"starts\":1,\"order\":3,\"dim\":4}",
        "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,\"tensors\":1,"
        "\"starts\":1,\"order\":3,\"dim\":1000000}",
        "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,\"tensors\":0,"
        "\"starts\":1,\"order\":3,\"dim\":4}",
        "{\"op\":\"poll\",\"ticket\":0.5}"}) {
    const auto resp = handle_line(server, line);
    EXPECT_TRUE(str_field(resp, "error").has_value()) << resp;
  }
  // Individually in-range knobs whose combined footprint blows the
  // per-request size budget are rejected before anything allocates.
  const auto budget = handle_line(
      server,
      "{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":1,\"tensors\":4096,"
      "\"starts\":1,\"order\":8,\"dim\":64}");
  ASSERT_TRUE(str_field(budget, "error").has_value()) << budget;
  EXPECT_NE(str_field(budget, "error")->find("budget"), std::string::npos);
  // None of the rejects was admitted.
  EXPECT_EQ(server.stats().submitted, 0);
}

// Only RFC 8259 numbers are numbers: hex, a leading '+' or '.', a trailing
// '.', leading zeros, a numeric prefix and bare words are refused, however
// reasonable the value strtod would have read from them.
TEST(ServeWire, NumbersOutsideTheJsonGrammarAreRefused) {
  Server<float> server(small_options());
  for (const char* seed : {"0x10", "0x1p4", "+4", "4abc", ".5e1", "1.", "01",
                           "-", "1e", "1e+", "inf", "1e999"}) {
    const std::string line =
        std::string("{\"op\":\"submit\",\"tenant\":\"w\",\"seed\":") + seed +
        ",\"tensors\":1,\"starts\":1,\"order\":3,\"dim\":4}";
    const auto resp = handle_line(server, line);
    EXPECT_EQ(resp.rfind("{\"ok\":false,", 0), 0u) << seed << " -> " << resp;
  }
  EXPECT_EQ(server.stats().submitted, 0);
  EXPECT_EQ(num_field("{\"a\":-0.5e+1}", "a"), -5.0);
  EXPECT_EQ(num_field("{\"a\": 4 ,\"b\":0}", "a"), 4.0);
  EXPECT_EQ(num_field("{\"a\":1E2\t}", "a"), 100.0);
  EXPECT_EQ(num_field("{\"a\":0}", "a"), 0.0);
  EXPECT_FALSE(num_field("{\"a\":7", "a").has_value());
}

// Each malformed line gets one {"ok":false,...} reply: a line that is not
// an object, trailing bytes after the object, a tenant given only inside a
// nested object, and a repeated key. A line past the 64 KiB cap gets one
// error reply and the connection is closed. The same server then completes
// a valid submit and wait.
TEST(ServeSocket, MalformedAndOverlongLinesAreRefused) {
  Server<float> server(small_options());
  server.start();
  const std::string path = tmp_path("refuse_sock");
  SocketFrontEnd front(server, path);
  for (const char* line :
       {R"("op":"stats")", R"({"op":"stats"} x)",
        R"({"op":"submit","seed":1,"tensors":1,"starts":1,"order":3,)"
        R"("dim":4,"spec":{"tenant":"a"}})",
        R"({"op":"stats","op":"stats"})"}) {
    const auto resp = request_over_socket(path, line);
    EXPECT_EQ(bool_field(resp, "ok"), false) << line << " -> " << resp;
    EXPECT_TRUE(str_field(resp, "error").has_value()) << resp;
  }
  EXPECT_EQ(server.stats().submitted, 0);

  // 1 MiB with no newline: the server stops reading past the cap, replies
  // once and hangs up, so the send fails part way (EPIPE, not SIGPIPE).
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  const std::string blob(std::size_t{1} << 20, 'x');
  for (std::size_t sent = 0; sent < blob.size();) {
    const ssize_t n = ::send(fd, blob.data() + sent, blob.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[256];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  EXPECT_EQ(bool_field(reply, "ok"), false) << reply;
  EXPECT_NE(str_field(reply, "error").value_or("").find("65536"),
            std::string::npos)
      << reply;

  const auto submit = request_over_socket(
      path,
      "{\"op\":\"submit\",\"tenant\":\"s\",\"seed\":8,\"tensors\":2,"
      "\"starts\":2,\"order\":3,\"dim\":4}");
  const auto ticket = num_field(submit, "ticket");
  ASSERT_TRUE(ticket.has_value()) << submit;
  const auto wait = request_over_socket(
      path, "{\"op\":\"wait\",\"ticket\":" +
                std::to_string(static_cast<int>(*ticket)) + "}");
  EXPECT_EQ(str_field(wait, "state").value(), "done") << wait;
  front.stop();
  server.stop();
}

// Past completed_retention a done request's result storage is released.
// poll and wait keep answering for it, as Server::poll promises, and only
// leave out lambda00, which needs the released result.
TEST(ServeWire, EvictedRequestStillPollsAndWaits) {
  ServeOptions opt = small_options();
  opt.completed_retention = 1;
  Server<float> server(opt);
  const auto run = [&](int seed) {
    const auto submit = handle_line(
        server, "{\"op\":\"submit\",\"tenant\":\"e\",\"seed\":" +
                    std::to_string(seed) +
                    ",\"tensors\":2,\"starts\":2,\"order\":3,\"dim\":4}");
    const auto ticket = num_field(submit, "ticket");
    EXPECT_TRUE(ticket.has_value()) << submit;
    return handle_line(
        server, "{\"op\":\"wait\",\"ticket\":" +
                    std::to_string(static_cast<int>(ticket.value_or(-1))) +
                    "}");
  };
  const auto first = run(1);
  EXPECT_EQ(bool_field(first, "evicted"), false) << first;
  EXPECT_TRUE(num_field(first, "lambda00").has_value()) << first;
  const auto second = run(2);  // retires ticket 1, evicts ticket 0
  EXPECT_TRUE(num_field(second, "lambda00").has_value()) << second;
  EXPECT_TRUE(server.poll(0).evicted);
  EXPECT_FALSE(server.poll(1).evicted);
  for (const char* op : {"poll", "wait"}) {
    const auto resp = handle_line(
        server, std::string("{\"op\":\"") + op + "\",\"ticket\":0}");
    EXPECT_EQ(bool_field(resp, "ok"), true) << resp;
    EXPECT_EQ(str_field(resp, "state"), "done") << resp;
    EXPECT_EQ(bool_field(resp, "evicted"), true) << resp;
    EXPECT_FALSE(num_field(resp, "lambda00").has_value()) << resp;
  }
}

}  // namespace
}  // namespace te::serve
