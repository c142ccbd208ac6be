#pragma once
// Shared precompute cache for the batch scheduler.
//
// KernelTables (the Section III-B.5 index/coefficient tables) depend only
// on the tensor *shape*, yet the one-shot batch backends rebuild them on
// every call. A streaming scheduler sees many jobs -- often of the same few
// shapes -- so the tables belong in a cache keyed by (order, dim) and
// shared by every chunk of every job, whichever table tier it runs (host
// precomputed and device blocked read the same tables). Entries are handed
// out as shared_ptr<const ...> so an evicted entry stays alive for any
// chunk still computing with it, and the cache itself is mutex-guarded so
// concurrent schedulers (or a future multi-threaded dispatcher) can share
// one instance. Hit/miss/eviction counters make the amortization
// measurable (bench_scheduler prints them; the tests assert hits on
// multi-job runs).

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "te/io/container.hpp"
#include "te/jit/cache_dir.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/precomputed.hpp"

namespace te::batch {

/// Monotone counters describing cache effectiveness.
struct TableCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  /// In-memory misses satisfied by rehydrating a spill file instead of a
  /// combinatorial rebuild (each also counts as a miss).
  std::int64_t disk_hits = 0;
  /// Bytes of table storage currently resident (gauge, not a counter):
  /// eviction is budgeted on this, not on entry count, because one
  /// large-n KernelTables entry can outweigh dozens of paper-scale ones.
  std::int64_t bytes_resident = 0;

  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Default table-byte budget: generous for paper-scale shapes (a (4, 6)
/// table set is ~100 KiB) while stopping a handful of large-n entries from
/// silently holding gigabytes.
inline constexpr std::size_t kDefaultTableCacheBytes = 256u << 20;

/// Thread-safe LRU cache of KernelTables keyed by shape (order, dim).
///
/// Cost accounting is in BYTES (KernelTables::table_bytes), not entries:
/// table size varies by orders of magnitude across shapes, so an
/// entry-count LRU let one large-n entry blow the real memory budget while
/// the hit/miss counters looked healthy. `capacity` (max entries) is kept
/// as a secondary bound for compatibility; `max_bytes` is the budget that
/// matters. The most recently used entry is never evicted, so a single
/// over-budget entry still works (callers hold shared_ptrs; eviction only
/// drops the cache's reference).
template <Real T>
class TableCache {
 public:
  explicit TableCache(std::size_t capacity = 8,
                      std::size_t max_bytes = kDefaultTableCacheBytes)
      : capacity_(capacity), max_bytes_(max_bytes) {
    TE_REQUIRE(capacity >= 1, "cache needs capacity >= 1");
    TE_REQUIRE(max_bytes >= 1, "cache needs a positive byte budget");
  }

  /// Enable the disk warm-start tier: misses first try
  /// `<dir>/tables_m<order>_n<dim>_<dtype>.tetc` before rebuilding, and
  /// fresh builds are spilled there (best effort -- a persistence failure
  /// never fails a solve). Empty string disables. The same directory is
  /// offered to the JIT engine as its default artifact cache (weak: an
  /// explicit te::jit override or $TE_JIT_CACHE_DIR wins), so compiled
  /// kernels spill alongside the `.tetc` tables and every shard sharing
  /// this cache shares the codegen cost fleet-wide.
  void set_spill_dir(std::string dir) {
    std::lock_guard lock(mutex_);
    if (!dir.empty()) jit::set_default_cache_dir_if_unset(dir);
    spill_dir_ = std::move(dir);
  }

  /// Spill-file path the cache would use for one shape (empty when the
  /// spill tier is disabled). Exposed so tools/benches can pre-pack it.
  [[nodiscard]] std::string spill_path(int order, int dim) const {
    std::lock_guard lock(mutex_);
    return spill_path_locked(order, dim);
  }

  /// Tables for one shape, for a job of `tier`. Tiers that never read
  /// tables (every tier but precomputed and blocked, kernels::uses_tables)
  /// return nullptr without touching the cache or its counters; the table
  /// tiers share one entry per shape.
  /// The returned pointer remains valid after eviction (shared ownership).
  ///
  /// Safe for cross-shard sharing: the combinatorial build (and the spill
  /// read) happens OUTSIDE the lock -- a large-n table build takes orders of
  /// magnitude longer than any other cache operation, and an under-lock
  /// build would stall every shard sharing the cache, including ones asking
  /// for unrelated keys that are already resident. Concurrent misses on the
  /// same key are still collapsed into one build: the first requester marks
  /// the key in flight and later ones wait on it (their satisfied waits
  /// count as hits -- they never paid for a build). Eviction runs under the
  /// lock at insert time, on the coherent bytes_resident ledger.
  [[nodiscard]] std::shared_ptr<const kernels::KernelTables<T>> get(
      int order, int dim, kernels::Tier tier) {
    if (!kernels::uses_tables(tier)) return nullptr;
    std::unique_lock lock(mutex_);
    for (;;) {
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->order == order && it->dim == dim) {
          ++stats_.hits;
          entries_.splice(entries_.begin(), entries_, it);  // mark recent
          return entries_.front().tables;
        }
      }
      if (!is_building(order, dim)) break;
      // Another shard is building exactly this key: wait for its insert
      // instead of building a duplicate. If the builder fails, its key is
      // withdrawn and the first waiter to wake becomes the new builder.
      cv_.wait(lock);
    }
    ++stats_.misses;
    building_.push_back({order, dim});
    const std::string spill = spill_path_locked(order, dim);
    lock.unlock();

    std::shared_ptr<const kernels::KernelTables<T>> tables;
    bool from_disk = false;
    try {
      // With a spill directory configured, a miss first tries the disk copy
      // (no rebuild), and a cold build is written back for the next process.
      if (!spill.empty()) {
        if (auto loaded = io::try_load_kernel_tables<T>(spill, order, dim)) {
          from_disk = true;
          tables = std::make_shared<const kernels::KernelTables<T>>(
              std::move(*loaded));
        }
      }
      if (!tables) {
        tables = std::make_shared<const kernels::KernelTables<T>>(order, dim);
        if (!spill.empty()) {
          try {
            io::save_kernel_tables(spill, *tables);
          } catch (const InvalidArgument&) {
            // unwritable spill dir: stay purely in-memory
          }
        }
      }
    } catch (...) {
      lock.lock();
      erase_building(order, dim);
      cv_.notify_all();
      throw;
    }

    lock.lock();
    erase_building(order, dim);
    if (from_disk) ++stats_.disk_hits;
    const std::size_t bytes = tables->table_bytes();
    entries_.push_front({order, dim, bytes, std::move(tables)});
    stats_.bytes_resident += static_cast<std::int64_t>(bytes);
    // Evict LRU-first until both budgets hold, always keeping the entry
    // just inserted.
    while (entries_.size() > 1 &&
           (entries_.size() > capacity_ ||
            stats_.bytes_resident >
                static_cast<std::int64_t>(max_bytes_))) {
      stats_.bytes_resident -=
          static_cast<std::int64_t>(entries_.back().bytes);
      entries_.pop_back();
      ++stats_.evictions;
    }
    auto result = entries_.front().tables;
    cv_.notify_all();
    return result;
  }

  [[nodiscard]] TableCacheStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

  /// Bytes of table storage currently held by the cache.
  [[nodiscard]] std::int64_t bytes_resident() const {
    std::lock_guard lock(mutex_);
    return stats_.bytes_resident;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    entries_.clear();
    stats_.bytes_resident = 0;
  }

 private:
  struct Entry {
    int order;
    int dim;
    std::size_t bytes;
    std::shared_ptr<const kernels::KernelTables<T>> tables;
  };

  [[nodiscard]] bool is_building(int order, int dim) const {
    return std::find(building_.begin(), building_.end(),
                     std::pair{order, dim}) != building_.end();
  }

  void erase_building(int order, int dim) {
    const auto it = std::find(building_.begin(), building_.end(),
                              std::pair{order, dim});
    if (it != building_.end()) building_.erase(it);
  }

  [[nodiscard]] std::string spill_path_locked(int order, int dim) const {
    if (spill_dir_.empty()) return {};
    std::ostringstream os;
    os << spill_dir_ << "/tables_m" << order << "_n" << dim << '_'
       << io::dtype_name(io::dtype_code<T>()) << ".tetc";
    return os.str();
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< signaled when a build finishes/fails
  std::size_t capacity_;
  std::size_t max_bytes_;
  std::list<Entry> entries_;  ///< front = most recently used
  /// Shapes being built outside the lock.
  std::vector<std::pair<int, int>> building_;
  TableCacheStats stats_;
  std::string spill_dir_;
};

}  // namespace te::batch
