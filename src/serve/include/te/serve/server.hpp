#pragma once
// Long-running batched-eigensolve service (DESIGN.md section 15).
//
// te::batch::Scheduler executes one process's jobs well, but a service that
// many clients stream problems into needs policy the scheduler deliberately
// does not have: admission control, fairness between tenants, a shared
// precompute budget across execution shards, and recovery that survives a
// shard (or whole-process) crash. te::serve::Server adds exactly that
// layer, keeping the scheduler the only component that touches kernels:
//
//   * N shards, each a batch::Scheduler with its own checkpoint WAL
//     (`<wal_dir>/shard_<i>.tetc`); accepted requests go to shards round-
//     robin in ticket order, so a restarted server that resubmits accepted
//     requests in the same order reproduces the shard mapping and job ids
//     the WALs pinned -- restored chunks come back bitwise and are never
//     re-executed;
//   * one RAM-budgeted TableCache shared by every shard (the byte budget is
//     global, not per shard), spilling to the existing .tetc disk tier;
//   * admission control: a tenant with `tenant_queue_capacity` unfinished
//     requests gets further submissions rejected with a reason instead of
//     queueing without bound (recovery resubmissions bypass admission --
//     a restart must never be refused by its own backpressure);
//   * deficit-round-robin fair queueing with the scheduler chunk as the
//     fairness unit: each tenant in the ring gets `drr_quantum` chunk-steps
//     per visit, so a tenant flooding one shard cannot starve a light
//     tenant sharing it. Latency is measured in chunk-steps (deterministic,
//     what the fairness tests and bench gates assert) and in wall seconds
//     (what the obs histograms export for p50/p95/p99);
//   * bounded state: a tenant with nothing unfinished leaves the DRR ring
//     and tenant map (it re-joins at the back on its next submit), and
//     completed/cancelled requests past the `completed_retention` window
//     are evicted -- their problem/result storage in the shard scheduler
//     is freed, poll() keeps answering but result() refuses the ticket --
//     so a long-running server's memory tracks its live load, not its
//     whole history.
//
// The pump is explicit: pump(k) executes up to k chunk-steps under the DRR
// policy, which keeps tests and the chaos bench deterministic. start()
// spawns an optional background pump thread for the socket front-end; it
// drains in bounded slices and drops the state mutex between slices, so
// submit/poll/stats/cancel and stop() stay responsive under any backlog.

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "te/batch/scheduler.hpp"

namespace te::serve {

/// Server construction knobs.
struct ServeOptions {
  /// Number of scheduler shards (independent chunk queues + WALs).
  int shards = 2;
  /// Execution backend of every shard.
  batch::Backend backend = batch::Backend::kCpuSequential;
  /// Per-shard scheduler knobs. checkpoint_path is overridden per shard
  /// (see wal_dir); the cache_* knobs are ignored -- the server-level cache
  /// settings below configure the one cache all shards share.
  batch::SchedulerOptions scheduler;
  /// When non-empty: directory of the per-shard checkpoint WALs
  /// (`shard_<i>.tetc`), created if missing. Empty disables durability.
  std::string wal_dir;
  /// Admission bound: max unfinished requests per tenant before submit()
  /// rejects with a reason.
  int tenant_queue_capacity = 64;
  /// DRR quantum: chunk-steps granted per tenant per ring visit.
  int drr_quantum = 4;
  /// Retention: the number of most-recently retired (completed or
  /// cancelled) requests whose results stay fetchable. Older retired
  /// requests are evicted -- their problem/result storage in the shard
  /// scheduler is released, poll() still reports their final state but
  /// result()/problem() refuse the ticket. <= 0 keeps everything.
  int completed_retention = 1024;
  /// Entry capacity of the cross-shard table cache.
  std::size_t cache_capacity = 8;
  /// GLOBAL byte budget of the cross-shard table cache.
  std::size_t cache_max_bytes = batch::kDefaultTableCacheBytes;
  /// When non-empty: spill directory of the cross-shard cache.
  std::string table_spill_dir;
};

/// Client-visible handle to a submitted request.
using Ticket = int;

/// Lifecycle of one request.
enum class RequestState {
  kQueued,     ///< accepted, chunks pending or executing
  kDone,       ///< all chunks complete; result() is available
  kCancelled,  ///< cancel() dropped its queued chunks
};

[[nodiscard]] constexpr std::string_view request_state_name(RequestState s) {
  switch (s) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kDone:
      return "done";
    case RequestState::kCancelled:
      return "cancelled";
  }
  return "?";
}

/// Outcome of submit(): a ticket, or a rejection with the reason.
struct SubmitOutcome {
  bool accepted = false;
  Ticket ticket = -1;
  std::string reason;  ///< set when rejected
};

/// poll() snapshot of one request.
struct RequestStatus {
  RequestState state = RequestState::kQueued;
  std::string tenant;
  int shard = -1;
  int chunks_total = 0;
  int chunks_done = 0;
  int chunks_restored = 0;  ///< replayed from a WAL, never re-executed
  std::int64_t submit_step = 0;
  std::int64_t complete_step = 0;  ///< valid when state == kDone
  bool evicted = false;  ///< retention freed it; result() refuses the ticket
};

/// stats() snapshot of the whole server.
struct ServerStats {
  std::int64_t submitted = 0;  ///< accepted submissions
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  std::int64_t steps = 0;  ///< chunk-steps pumped so far
  int pending_chunks = 0;  ///< queued across live shards
  int active_tenants = 0;  ///< tenants with unfinished requests (DRR ring)
  batch::TableCacheStats cache;  ///< the shared cross-shard cache
};

#if TE_OBS_ENABLED
namespace detail {
/// Service-layer metric handles, name-resolved once.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& cancelled;
  obs::Counter& steps;
  obs::Histogram& latency_seconds;

  static ServeMetrics& get() {
    static ServeMetrics m{
        obs::global().counter("serve.requests.submitted"),
        obs::global().counter("serve.requests.rejected"),
        obs::global().counter("serve.requests.completed"),
        obs::global().counter("serve.requests.cancelled"),
        obs::global().counter("serve.pump.steps"),
        obs::global().histogram("serve.request.latency_seconds"),
    };
    return m;
  }
};
}  // namespace detail
#endif  // TE_OBS_ENABLED

/// The service. Thread-safe: every public method may be called from any
/// thread (the socket front-end calls from its accept loop while a pump
/// thread drains chunks). One mutex guards all state; chunk execution
/// happens under it, so wait() never busy-spins and determinism in
/// chunk-steps is preserved regardless of caller interleaving.
template <Real T>
class Server {
 public:
  explicit Server(ServeOptions opt)
      : opt_(std::move(opt)),
        cache_(std::make_shared<batch::TableCache<T>>(opt_.cache_capacity,
                                                      opt_.cache_max_bytes)) {
    TE_REQUIRE(opt_.shards >= 1, "server needs at least one shard");
    TE_REQUIRE(opt_.tenant_queue_capacity >= 1,
               "tenant queue capacity must be positive");
    TE_REQUIRE(opt_.drr_quantum >= 1, "DRR quantum must be positive");
    if (!opt_.table_spill_dir.empty()) {
      std::filesystem::create_directories(opt_.table_spill_dir);
      cache_->set_spill_dir(opt_.table_spill_dir);
    }
    if (!opt_.wal_dir.empty()) {
      std::filesystem::create_directories(opt_.wal_dir);
    }
    shards_.resize(static_cast<std::size_t>(opt_.shards));
    for (int s = 0; s < opt_.shards; ++s) {
      shards_[static_cast<std::size_t>(s)] = make_shard(s);
    }
  }

  ~Server() { stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const ServeOptions& options() const { return opt_; }

  /// Path of one shard's WAL (empty when durability is off). Exposed so
  /// tests and the chaos bench can assert per-shard file naming.
  [[nodiscard]] std::string shard_wal_path(int shard) const {
    if (opt_.wal_dir.empty()) return {};
    return opt_.wal_dir + "/shard_" + std::to_string(shard) + ".tetc";
  }

  /// Submit a request for `tenant`. Rejection (admission control) consumes
  /// neither a ticket nor a shard slot, so the accepted-submission order --
  /// the one clients must replay after a full restart -- fully determines
  /// shard mapping and job ids.
  SubmitOutcome submit(const std::string& tenant, batch::BatchProblem<T> p,
                       kernels::Tier tier) {
    std::unique_lock lock(mutex_);
    const int shard = next_shard_;
    auto& sched = live_shard(shard);
    const batch::JobId id = sched.next_job_id();
    const bool replay = sched.is_replay_job(id);
    // Admission check via find(): a rejected submission must not mint a
    // tenant map entry (idle tenants are not tracked at all).
    const auto existing = tenants_.find(tenant);
    const int inflight =
        existing == tenants_.end() ? 0 : existing->second.inflight;
    if (!replay && inflight >= opt_.tenant_queue_capacity) {
      TE_OBS_ONLY(detail::ServeMetrics::get().rejected.inc());
      ++rejected_;
      SubmitOutcome out;
      out.reason = "tenant '" + tenant + "' has " + std::to_string(inflight) +
                   " unfinished requests (capacity " +
                   std::to_string(opt_.tenant_queue_capacity) +
                   "); retry after completions drain";
      return out;
    }
    const batch::JobId got = sched.submit(std::move(p), tier);
    TE_REQUIRE(got == id, "job id drifted from next_job_id()");
    TenantState& ts = tenants_[tenant];  // after submit: it may throw

    const Ticket ticket = static_cast<Ticket>(requests_.size());
    requests_.emplace_back();
    Request& r = requests_.back();
    r.tenant = tenant;
    r.shard = shard;
    r.job = id;
    r.tier = tier;
    r.submit_step = steps_;
    if (!ts.in_ring) {
      ring_.push_back(tenant);
      ts.in_ring = true;
    }
    ts.fifo.push_back(ticket);
    ++ts.inflight;
    ++total_inflight_;
    ++submitted_;
    next_shard_ = (next_shard_ + 1) % opt_.shards;
    TE_OBS_ONLY(detail::ServeMetrics::get().submitted.inc());
    work_cv_.notify_all();
    SubmitOutcome out;
    out.accepted = true;
    out.ticket = ticket;
    return out;
  }

  /// Execute up to `max_steps` chunk-steps (negative = drain everything)
  /// under the DRR policy. Returns the number of steps executed. The
  /// explicit pump is what makes service-level tests deterministic: the
  /// k-th chunk-step of a given accepted-submission sequence is always the
  /// same chunk.
  int pump(int max_steps = -1) {
    std::unique_lock lock(mutex_);
    return pump_locked(max_steps);
  }

  /// Request snapshot.
  [[nodiscard]] RequestStatus poll(Ticket t) const {
    std::unique_lock lock(mutex_);
    const Request& r = at(t);
    RequestStatus st;
    st.state = r.state;
    st.tenant = r.tenant;
    st.shard = r.shard;
    st.submit_step = r.submit_step;
    st.complete_step = r.complete_step;
    st.evicted = r.evicted;
    const auto& sched = shards_[static_cast<std::size_t>(r.shard)];
    if (sched) {
      st.chunks_total = sched->chunks_total(r.job);
      st.chunks_done = sched->chunks_done(r.job);
      st.chunks_restored = sched->restored_chunks(r.job);
    }
    return st;
  }

  /// Block until the request completes (pumping inline when no background
  /// pump thread is running), then report its final state. kCancelled
  /// requests return immediately.
  RequestState wait(Ticket t) {
    std::unique_lock lock(mutex_);
    for (;;) {
      const Request& r = at(t);
      if (r.state != RequestState::kQueued) return r.state;
      if (pump_thread_.joinable()) {
        done_cv_.wait(lock);
      } else {
        const int ran = pump_locked(1);
        TE_REQUIRE(ran > 0 || at(t).state != RequestState::kQueued,
                   "request " << t << " cannot progress (shard down?)");
      }
    }
  }

  /// Result of a completed request (wait() or poll() first). Refuses a
  /// ticket the retention policy already evicted.
  [[nodiscard]] const batch::BatchResult<T>& result(Ticket t) const {
    std::unique_lock lock(mutex_);
    const Request& r = at(t);
    TE_REQUIRE(r.state == RequestState::kDone,
               "request " << t << " is " << request_state_name(r.state));
    TE_REQUIRE(!r.evicted, "request " << t
                               << " was evicted (completed_retention="
                               << opt_.completed_retention << ")");
    return live_shard(r.shard).result(r.job);
  }

  /// The problem backing a request (eigenpair extraction needs it).
  [[nodiscard]] const batch::BatchProblem<T>& problem(Ticket t) const {
    std::unique_lock lock(mutex_);
    const Request& r = at(t);
    TE_REQUIRE(!r.evicted, "request " << t
                               << " was evicted (completed_retention="
                               << opt_.completed_retention << ")");
    return live_shard(r.shard).problem(r.job);
  }

  /// Cancel a queued request: drops its pending chunks, frees its admission
  /// slot. Returns false when the request already completed (or was already
  /// cancelled).
  bool cancel(Ticket t) {
    std::unique_lock lock(mutex_);
    Request& r = at(t);
    if (r.state != RequestState::kQueued) return false;
    live_shard(r.shard).cancel_job(r.job);
    retire(t, RequestState::kCancelled);
    ++cancelled_;
    TE_OBS_ONLY(detail::ServeMetrics::get().cancelled.inc());
    return true;
  }

  /// Simulated crash of one shard: its scheduler (open WAL handle included)
  /// is destroyed mid-flight. Problems of the shard's requests are saved
  /// first so restart_shard() can resubmit them; everything already
  /// executed is durable in the shard WAL.
  void kill_shard(int shard) {
    std::unique_lock lock(mutex_);
    auto& sched = live_shard(shard);
    for (auto& r : requests_) {
      if (r.shard != shard || r.evicted) continue;
      r.saved_problem = sched.problem(r.job);  // copy before the crash
    }
    shards_[static_cast<std::size_t>(shard)].reset();
  }

  /// Restart a killed shard: a fresh scheduler replays the shard WAL, then
  /// every request of the shard is resubmitted in ticket order -- the same
  /// order the WAL manifest pinned -- so job ids and fingerprints line up,
  /// completed chunks restore bitwise, and only genuinely unfinished chunks
  /// re-enter the queue. Cancelled requests are resubmitted too (their ids
  /// hold later jobs' slots in the manifest) and immediately re-cancelled.
  void restart_shard(int shard) {
    std::unique_lock lock(mutex_);
    TE_REQUIRE(shard >= 0 && shard < opt_.shards,
               "unknown shard " << shard);
    TE_REQUIRE(shards_[static_cast<std::size_t>(shard)] == nullptr,
               "shard " << shard << " is not down");
    auto sched = make_shard(shard);
    for (auto& r : requests_) {
      if (r.shard != shard) continue;
      if (r.evicted) {
        // Nothing to resubmit (the retention policy freed the problem),
        // but the id slot must stay consumed so later jobs keep the ids
        // the WAL manifest pinned.
        const batch::JobId id = sched->submit_released();
        TE_REQUIRE(id == r.job, "job id changed across restart");
        continue;
      }
      TE_REQUIRE(r.saved_problem.has_value(),
                 "request has no saved problem to resubmit");
      const batch::JobId id =
          sched->submit(batch::BatchProblem<T>(*r.saved_problem), r.tier);
      TE_REQUIRE(id == r.job, "job id changed across restart");
      r.saved_problem.reset();
      if (r.state == RequestState::kCancelled) {
        if (!sched->is_done(id)) sched->cancel_job(id);
        continue;
      }
      if (r.state == RequestState::kDone) {
        // All chunks were durable; finalize the fully restored job so
        // result() keeps working.
        sched->run_job(id, 0);
        TE_REQUIRE(sched->is_done(id),
                   "completed request did not restore from the WAL");
      }
    }
    shards_[static_cast<std::size_t>(shard)] = std::move(sched);
    work_cv_.notify_all();
  }

  /// True when shard `i` is live (not killed).
  [[nodiscard]] bool shard_alive(int shard) const {
    std::unique_lock lock(mutex_);
    return shards_[static_cast<std::size_t>(shard)] != nullptr;
  }

  [[nodiscard]] ServerStats stats() const {
    std::unique_lock lock(mutex_);
    ServerStats st;
    st.submitted = submitted_;
    st.rejected = rejected_;
    st.completed = completed_;
    st.cancelled = cancelled_;
    st.steps = steps_;
    st.active_tenants = static_cast<int>(tenants_.size());
    for (const auto& s : shards_) {
      if (s) st.pending_chunks += s->pending_chunks();
    }
    st.cache = cache_->stats();
    return st;
  }

  /// The cache shared by every shard (tests assert cross-shard hits).
  [[nodiscard]] const std::shared_ptr<batch::TableCache<T>>& cache() const {
    return cache_;
  }

  /// Spawn the background pump thread (idempotent). It drains chunks under
  /// the DRR policy whenever work is pending, sleeping otherwise.
  void start() {
    std::unique_lock lock(mutex_);
    if (pump_thread_.joinable()) return;
    stopping_ = false;
    pump_thread_ = std::thread([this] { pump_loop(); });
  }

  /// Stop the background pump thread (idempotent; pending work survives).
  void stop() {
    {
      std::unique_lock lock(mutex_);
      if (!pump_thread_.joinable()) return;
      stopping_ = true;
      work_cv_.notify_all();
    }
    pump_thread_.join();
  }

 private:
  struct Request {
    std::string tenant;
    int shard = -1;
    batch::JobId job = -1;
    kernels::Tier tier = kernels::Tier::kGeneral;
    RequestState state = RequestState::kQueued;
    bool evicted = false;  ///< retention freed the shard-side storage
    std::int64_t submit_step = 0;
    std::int64_t complete_step = 0;
    WallTimer timer;  ///< wall latency (observability only; steps are the
                      ///< deterministic measure)
    /// Copy of the problem, populated at kill_shard() so restart_shard()
    /// can resubmit; cleared again after resubmission.
    std::optional<batch::BatchProblem<T>> saved_problem;
  };

  struct TenantState {
    std::deque<Ticket> fifo;  ///< queued requests, submit order
    int deficit = 0;          ///< DRR chunk-step credit
    int inflight = 0;         ///< admission-counted unfinished requests
    bool in_ring = false;
  };

  [[nodiscard]] std::unique_ptr<batch::Scheduler<T>> make_shard(int shard) {
    batch::SchedulerOptions so = opt_.scheduler;
    so.checkpoint_path = shard_wal_path(shard);
    so.table_spill_dir.clear();  // the shared cache owns spill policy
    return std::make_unique<batch::Scheduler<T>>(opt_.backend, so, nullptr,
                                                 cache_);
  }

  [[nodiscard]] const Request& at(Ticket t) const {
    TE_REQUIRE(t >= 0 && t < static_cast<Ticket>(requests_.size()),
               "unknown ticket " << t);
    return requests_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] Request& at(Ticket t) {
    return const_cast<Request&>(std::as_const(*this).at(t));
  }

  [[nodiscard]] batch::Scheduler<T>& live_shard(int shard) const {
    TE_REQUIRE(shard >= 0 && shard < opt_.shards,
               "unknown shard " << shard);
    const auto& s = shards_[static_cast<std::size_t>(shard)];
    TE_REQUIRE(s != nullptr,
               "shard " << shard << " is down; restart_shard() first");
    return *s;
  }

  /// Remove a request from fairness/admission bookkeeping. A tenant whose
  /// last unfinished request retires leaves the ring and the tenant map
  /// (it re-joins at the back of the ring on its next submit), and retired
  /// requests past the retention window are evicted.
  void retire(Ticket t, RequestState state) {
    Request& r = at(t);
    r.state = state;
    TenantState& ts = tenants_[r.tenant];
    for (auto it = ts.fifo.begin(); it != ts.fifo.end(); ++it) {
      if (*it == t) {
        ts.fifo.erase(it);
        break;
      }
    }
    --ts.inflight;
    --total_inflight_;
    if (ts.inflight == 0) drop_idle_tenant(r.tenant);
    retired_.push_back(t);
    if (opt_.completed_retention > 0) {
      while (static_cast<int>(retired_.size()) > opt_.completed_retention) {
        evict(retired_.front());
        retired_.pop_front();
      }
    }
    done_cv_.notify_all();
  }

  /// Remove an idle tenant from the DRR ring and tenant map, keeping
  /// ring_pos_ aimed at the same next tenant.
  void drop_idle_tenant(const std::string& tenant) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      if (ring_[i] != tenant) continue;
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(i));
      if (static_cast<int>(i) < ring_pos_) {
        --ring_pos_;
      } else if (static_cast<int>(i) == ring_pos_) {
        mid_visit_ = false;  // the visited tenant is gone; its deficit dies
      }
      if (ring_.empty()) {
        ring_pos_ = 0;
      } else {
        ring_pos_ %= static_cast<int>(ring_.size());
      }
      break;
    }
    tenants_.erase(tenant);
  }

  /// Release an old retired request's shard-side storage (problem and
  /// result vectors -- the heavy allocations; the Request record itself
  /// stays so poll() keeps answering and restarts keep job ids aligned).
  void evict(Ticket t) {
    Request& r = at(t);
    if (r.evicted) return;
    r.evicted = true;
    r.saved_problem.reset();
    const auto& s = shards_[static_cast<std::size_t>(r.shard)];
    if (s) s->release_job(r.job);  // a down shard's memory is already gone
  }

  /// Metric-safe label for a wire-supplied tenant name: characters outside
  /// [A-Za-z0-9_.-] become '_', long names are truncated, and at most
  /// kMaxTenantMetricLabels distinct labels are ever minted (later tenants
  /// share "other") -- an untrusted client cannot grow the metric registry
  /// without bound or smuggle CSV/JSON metacharacters into metric names.
  [[nodiscard]] std::string metric_tenant_label(const std::string& tenant) {
    static constexpr std::size_t kMaxLabelLength = 48;
    static constexpr std::size_t kMaxTenantMetricLabels = 64;
    std::string label;
    label.reserve(std::min(tenant.size(), kMaxLabelLength));
    for (const char c : tenant) {
      if (label.size() == kMaxLabelLength) break;
      const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                        c == '_' || c == '-' || c == '.';
      label += safe ? c : '_';
    }
    if (label.empty()) label = "_";
    if (metric_labels_.count(label) == 0) {
      if (metric_labels_.size() >= kMaxTenantMetricLabels) return "other";
      metric_labels_.insert(label);
    }
    return label;
  }

  void complete(Ticket t) {
    Request& r = at(t);
    r.complete_step = steps_;
    retire(t, RequestState::kDone);
    ++completed_;
    TE_OBS_ONLY({
      auto& m = detail::ServeMetrics::get();
      m.completed.inc();
      m.latency_seconds.record(r.timer.seconds());
      // Per-tenant chunk-step latency, recorded on the histogram microsecond
      // scale (1 step == 1us) so the log2 buckets resolve step counts.
      obs::global()
          .histogram("serve.tenant." + metric_tenant_label(r.tenant) +
                     ".latency_steps")
          .record(static_cast<double>(r.complete_step - r.submit_step) *
                  1e-6);
    });
  }

  int pump_locked(int max_steps) {
    int executed = 0;
    while (total_inflight_ > 0 &&
           (max_steps < 0 || executed < max_steps)) {
      TE_REQUIRE(!ring_.empty(), "inflight requests but empty tenant ring");
      const std::string tenant = ring_[static_cast<std::size_t>(ring_pos_)];
      TenantState& ts = tenants_[tenant];
      if (ts.fifo.empty()) {
        // Defensive: idle tenants normally leave the ring in retire().
        ts.deficit = 0;
        mid_visit_ = false;
        advance_ring();
        continue;
      }
      if (!mid_visit_) {
        ts.deficit += opt_.drr_quantum;
        mid_visit_ = true;
      }
      const Ticket front = ts.fifo.front();
      Request& r = at(front);
      auto& sched = live_shard(r.shard);
      const int ran = sched.run_job(r.job, 1);
      if (ran > 0) {
        ++executed;
        ++steps_;
        --ts.deficit;
        TE_OBS_ONLY(detail::ServeMetrics::get().steps.inc());
      }
      if (sched.is_done(r.job)) {
        complete(front);  // pops it from the fifo; `ts` may dangle after
      } else {
        TE_REQUIRE(ran > 0, "request cannot progress");
      }
      // complete() may have retired the tenant (erasing it from the ring
      // and the map, with ring_pos_ already aimed at the next tenant).
      const auto it = tenants_.find(tenant);
      if (it == tenants_.end()) continue;
      TenantState& now = it->second;
      if (now.deficit <= 0 || now.fifo.empty()) {
        if (now.fifo.empty()) now.deficit = 0;
        mid_visit_ = false;
        advance_ring();
      }
    }
    return executed;
  }

  void advance_ring() {
    ring_pos_ = (ring_pos_ + 1) % static_cast<int>(ring_.size());
  }

  void pump_loop() {
    std::unique_lock lock(mutex_);
    while (!stopping_) {
      if (total_inflight_ > 0) {
        pump_locked(8);  // bounded slice, stopping_ re-checked per slice
        // Drop the mutex between slices: submit/poll/stats/cancel and
        // stop() must be able to interleave while a backlog drains, and
        // the destructor must never wait for a full drain.
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
      } else {
        work_cv_.wait(lock);
      }
    }
  }

  ServeOptions opt_;
  std::shared_ptr<batch::TableCache<T>> cache_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< a request completed/cancelled
  std::condition_variable work_cv_;  ///< work arrived / stopping
  std::vector<std::unique_ptr<batch::Scheduler<T>>> shards_;
  std::deque<Request> requests_;  ///< ticket-indexed (deque: stable refs)
  std::deque<Ticket> retired_;    ///< retirement order (retention window)
  std::set<std::string> metric_labels_;  ///< minted per-tenant labels
  std::map<std::string, TenantState> tenants_;
  std::vector<std::string> ring_;  ///< DRR visit order (join order)
  int ring_pos_ = 0;
  bool mid_visit_ = false;  ///< current ring tenant holds unspent deficit
  int next_shard_ = 0;
  int total_inflight_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t cancelled_ = 0;
  std::thread pump_thread_;
  bool stopping_ = false;
};

}  // namespace te::serve
