// te::obs unit tests: metric semantics, span nesting, exporter round-trips,
// and the disabled-mode contract. The file compiles in both TE_OBS modes;
// mode-specific expectations are gated on TE_OBS_ENABLED so the TE_OBS=OFF
// CI leg runs the same binary and checks the stubs stay silent.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cmath>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "te/kernels/dispatch.hpp"
#include "te/obs/export.hpp"
#include "te/obs/obs.hpp"
#include "te/obs/span.hpp"
#include "te/sshopm/sshopm.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"

namespace te {
namespace {

#if TE_OBS_ENABLED

TEST(ObsCounter, IncAddAndStableReference) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("a.count");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  // Same name -> same counter; new names do not invalidate old references.
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("a.count"), &c);
  c.inc();
  EXPECT_EQ(reg.counter("a.count").value(), 6);
}

TEST(ObsGauge, KeepsLastValue) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.set(3.5);
  g.set(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
}

TEST(ObsHistogram, StatsAndBuckets) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histogram reports zeros
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.record(2e-6);
  h.record(8e-6);
  h.record(32e-6);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), 2e-6);
  EXPECT_DOUBLE_EQ(h.max(), 32e-6);
  EXPECT_NEAR(h.mean(), 14e-6, 1e-12);
  std::int64_t bucketed = 0;
  for (const auto b : h.buckets()) bucketed += b;
  EXPECT_EQ(bucketed, 3);
}

TEST(ObsHistogram, BucketIndexIsMonotoneAndClamped) {
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1e-9), 0);  // below 1 us underflows
  int prev = 0;
  for (double v = 1e-6; v < 1e3; v *= 2) {
    const int b = obs::Histogram::bucket_index(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, obs::kHistogramBuckets);
    prev = b;
  }
  EXPECT_EQ(obs::Histogram::bucket_index(1e300),
            obs::kHistogramBuckets - 1);
}

TEST(ObsHistogram, QuantilesFromKnownDistribution) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty stream reports 0
  // 100 samples spread across decades: 90 fast (~2us), 9 medium (~100us),
  // 1 slow (~5ms). The log2 buckets must place the tail correctly.
  for (int i = 0; i < 90; ++i) h.record(2e-6);
  for (int i = 0; i < 9; ++i) h.record(100e-6);
  h.record(5e-3);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  // p50 lands in the [2us, 4us) bucket, p95 in [64us, 128us), and p99 is
  // the single slow sample's bucket -- clamped to the observed max.
  EXPECT_GE(p50, 2e-6);
  EXPECT_LT(p50, 4e-6);
  EXPECT_GE(p95, 64e-6);
  EXPECT_LT(p95, 128e-6);
  EXPECT_GE(p99, 100e-6);
  EXPECT_LE(p99, 5e-3);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LT(h.quantile(0.0), 4e-6);  // stays inside the min's bucket
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(ObsHistogram, QuantileSingleSampleIsExact) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("one");
  h.record(7e-6);
  // One sample: every quantile collapses to it (clamping to [min, max]).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7e-6);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7e-6);
}

TEST(ObsHistogram, SnapshotSampleCarriesSameQuantiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 32; ++i) h.record(static_cast<double>(i + 1) * 1e-6);
  const obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(s.histograms[0].quantile(0.5), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(s.histograms[0].quantile(0.99), h.quantile(0.99));
}

TEST(ObsRegistry, SnapshotIsNameOrdered) {
  obs::Registry reg;
  reg.counter("zulu").inc();
  reg.counter("alpha").inc();
  reg.gauge("mike").set(1);
  const obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "alpha");
  EXPECT_EQ(s.counters[1].name, "zulu");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].name, "mike");
}

TEST(ObsRegistry, ResetDropsEverything) {
  obs::Registry reg;
  reg.counter("c").inc();
  reg.record_span("s", 0, 0.0, 1.0);
  EXPECT_FALSE(reg.snapshot().empty());
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Sharded metrics: every thread writes its own shard and readers merge, so
// the merged view must equal what one thread recording the same events
// would have produced -- exactly, for integer-valued observations whose
// sums are exact in any order.
// ---------------------------------------------------------------------------

/// Runs body(thread_index) on `threads` threads released together.
template <typename Body>
void run_together(int threads, Body body) {
  std::latch go(threads);
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      go.arrive_and_wait();
      body(t);
    });
  }
  for (auto& t : ts) t.join();
}

/// Deterministic integer observation i of thread t: iteration-count-like
/// values in [0, 200), which span buckets 0 and 20..27.
double sharded_value(int t, int i) {
  return static_cast<double>((t * 7919 + i * 104729) % 200);
}

void expect_histogram_merge_exact(int threads) {
  constexpr int kPerThread = 3000;
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("sharded");
  run_together(threads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) h.record(sharded_value(t, i));
  });

  obs::Registry ref_reg;
  obs::Histogram& ref = ref_reg.histogram("reference");
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < kPerThread; ++i) ref.record(sharded_value(t, i));
  }

  ASSERT_EQ(ref.count(), static_cast<std::int64_t>(threads) * kPerThread);
  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.total(), ref.total());
  EXPECT_EQ(h.min(), ref.min());
  EXPECT_EQ(h.max(), ref.max());
  EXPECT_EQ(h.buckets(), ref.buckets());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(h.quantile(q), ref.quantile(q)) << "q = " << q;
  }
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSample& s = snap.histograms[0];
  EXPECT_EQ(s.count, ref.count());
  EXPECT_EQ(s.total, ref.total());
  EXPECT_EQ(s.min, ref.min());
  EXPECT_EQ(s.max, ref.max());
  EXPECT_EQ(s.buckets, ref.buckets());
  EXPECT_EQ(s.quantile(0.99), ref.quantile(0.99));
}

constexpr int kManyThreads = 40;
static_assert(kManyThreads > static_cast<int>(obs::detail::kShards),
              "the oversubscribed tests must force threads to share shards");

TEST(ObsSharded, HistogramMergeMatchesSingleThreadReference8Threads) {
  expect_histogram_merge_exact(8);
}

TEST(ObsSharded, HistogramMergeMatchesSingleThreadReferenceManyThreads) {
  expect_histogram_merge_exact(kManyThreads);
}

TEST(ObsRegistry, ThreadedCountersDontLoseIncrements) {
  // 8 threads get shards of their own; 40 must share them.
  for (const int threads : {8, kManyThreads}) {
    obs::Registry reg;
    obs::Counter& c = reg.counter("shared");
    constexpr int kIncs = 20000;
    run_together(threads, [&](int t) {
      for (int i = 0; i < kIncs; ++i) c.inc();
      c.add(t);
    });
    const std::int64_t added = threads * (threads - 1) / 2;
    EXPECT_EQ(c.value(), std::int64_t{threads} * kIncs + added) << threads;
    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, c.value());
  }
}

TEST(ObsSharded, ResetClearsEveryShard) {
  obs::Registry reg;
  // Enough threads that every shard of both metrics gets written.
  run_together(kManyThreads, [&](int t) {
    reg.counter("c").add(1000);
    reg.histogram("h").record(static_cast<double>(t + 1));
  });
  EXPECT_EQ(reg.counter("c").value(), std::int64_t{kManyThreads} * 1000);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.counter("c").value(), 0);
  EXPECT_EQ(reg.histogram("h").count(), 0);
  EXPECT_EQ(reg.histogram("h").total(), 0.0);

  // Threads that already hold a shard must land on clean storage.
  run_together(kManyThreads, [&](int) {
    reg.counter("c").inc();
    reg.histogram("h").record(3.0);
  });
  EXPECT_EQ(reg.counter("c").value(), kManyThreads);
  EXPECT_EQ(reg.histogram("h").count(), kManyThreads);
  EXPECT_EQ(reg.histogram("h").total(), 3.0 * kManyThreads);
  EXPECT_EQ(reg.histogram("h").min(), 3.0);
  EXPECT_EQ(reg.histogram("h").max(), 3.0);
}

TEST(ObsSharded, SnapshotDuringWritesNeverExceedsFinal) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("events");
  obs::Histogram& h = reg.histogram("values");
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  constexpr std::int64_t kFinal = std::int64_t{kWriters} * kPerWriter;

  std::atomic<bool> done{false};
  std::int64_t snapshots = 0;
  std::thread reader([&] {
    std::int64_t last_counter = 0;
    std::int64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::Snapshot s = reg.snapshot();
      ++snapshots;
      ASSERT_EQ(s.counters.size(), 1u);
      ASSERT_EQ(s.histograms.size(), 1u);
      const std::int64_t cv = s.counters[0].value;
      const obs::HistogramSample& hs = s.histograms[0];
      EXPECT_LE(cv, kFinal);
      EXPECT_GE(cv, last_counter);
      EXPECT_LE(hs.count, kFinal);
      EXPECT_GE(hs.count, last_count);
      std::int64_t bucketed = 0;
      for (const auto b : hs.buckets) bucketed += b;
      EXPECT_EQ(bucketed, hs.count);
      if (hs.count > 0) {
        EXPECT_GE(hs.min, 1.0);
        EXPECT_LE(hs.min, hs.max);
        EXPECT_LE(hs.max, 2.0);
      }
      last_counter = cv;
      last_count = hs.count;
    }
  });
  run_together(kWriters, [&](int t) {
    for (int i = 0; i < kPerWriter; ++i) {
      c.inc();
      h.record(((t + i) & 1) != 0 ? 2.0 : 1.0);
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots, 0);
  EXPECT_EQ(c.value(), kFinal);
  EXPECT_EQ(h.count(), kFinal);
  EXPECT_EQ(h.total(), 1.5 * static_cast<double>(kFinal));
}

TEST(ObsSpan, NestingBuildsDottedPathsAndDepths) {
  obs::Registry reg;
  {
    obs::Span outer("outer", reg);
    EXPECT_EQ(outer.path(), "outer");
    EXPECT_EQ(outer.depth(), 0);
    {
      obs::Span inner("inner", reg);
      EXPECT_EQ(inner.path(), "outer.inner");
      EXPECT_EQ(inner.depth(), 1);
      EXPECT_EQ(obs::Span::current(), &inner);
    }
    EXPECT_EQ(obs::Span::current(), &outer);
  }
  EXPECT_EQ(obs::Span::current(), nullptr);

  const obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.spans.size(), 2u);  // finish order: inner first
  EXPECT_EQ(s.spans[0].path, "outer.inner");
  EXPECT_EQ(s.spans[0].depth, 1);
  EXPECT_EQ(s.spans[1].path, "outer");
  EXPECT_EQ(s.spans[1].depth, 0);
  EXPECT_GE(s.spans[1].duration_seconds, s.spans[0].duration_seconds);
  // Every span also feeds a "span.<path>" timer histogram.
  EXPECT_EQ(reg.timer("span.outer.inner").count(), 1);
  EXPECT_EQ(reg.timer("span.outer").count(), 1);
}

TEST(ObsSpan, RingIsBoundedAndKeepsNewest) {
  obs::Registry reg(/*span_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    reg.record_span("s" + std::to_string(i), 0, static_cast<double>(i), 0.5);
  }
  const obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.spans.size(), 4u);
  EXPECT_EQ(s.spans.front().path, "s6");  // oldest surviving
  EXPECT_EQ(s.spans.back().path, "s9");
}

TEST(ObsInstrumentation, SolveFeedsGlobalRegistry) {
  auto& reg = obs::global();
  const std::int64_t runs0 = reg.counter("sshopm.solve.runs").value();
  const std::int64_t conv0 = reg.counter("sshopm.solve.converged").value();
  const std::int64_t t0 =
      reg.counter("kernels.ttsv0.calls.general").value();

  const auto a = random_symmetric_tensor<double>(CounterRng(3), 17, 4, 3);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  sshopm::Options opt;
  opt.alpha = 2.0;
  const auto r = sshopm::solve(k, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(r.converged);

  EXPECT_EQ(reg.counter("sshopm.solve.runs").value(), runs0 + 1);
  EXPECT_EQ(reg.counter("sshopm.solve.converged").value(), conv0 + 1);
  // One setup ttsv0 plus one per iteration.
  EXPECT_EQ(reg.counter("kernels.ttsv0.calls.general").value(),
            t0 + 1 + r.iterations);
}

#else  // !TE_OBS_ENABLED

TEST(ObsDisabled, StubsRecordNothing) {
  auto& reg = obs::global();
  reg.counter("c").inc();
  reg.counter("c").add(10);
  reg.gauge("g").set(3.5);
  reg.histogram("h").record(1.0);
  reg.record_span("s", 0, 0.0, 1.0);
  {
    obs::Span span("root");
    TE_OBS_SPAN("nested");
    EXPECT_EQ(obs::Span::current(), nullptr);
  }
  EXPECT_EQ(reg.counter("c").value(), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0);
  EXPECT_DOUBLE_EQ(reg.histogram("h").quantile(0.99), 0.0);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ObsDisabled, InstrumentedSolveLeavesRegistryEmpty) {
  const auto a = random_symmetric_tensor<double>(CounterRng(3), 17, 4, 3);
  kernels::BoundKernels<double> k(a, kernels::Tier::kGeneral);
  const std::vector<double> x0 = {0.6, 0.0, 0.8};
  sshopm::Options opt;
  opt.alpha = 2.0;
  const auto r = sshopm::solve(k, {x0.data(), x0.size()}, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(obs::global().snapshot().empty());
}

#endif  // TE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Exporters: identical behavior contract in both modes (an OFF build just
// exports an empty document, which must still validate).
// ---------------------------------------------------------------------------

TEST(ObsExport, JsonValidatesRoundTrip) {
  obs::Registry reg;
  reg.counter("runs").add(7);
  reg.gauge("occupancy").set(0.66);
  reg.histogram("seconds").record(0.25);
  reg.record_span("run.chunk", 1, 0.125, 0.5);
  const std::string json = obs::to_json(
      reg.snapshot(), {{"bench", "unit\"test"}, {"host", "ci"}});
  const auto v = obs::validate_export_json(json);
  EXPECT_TRUE(v.ok) << v.error;
#if TE_OBS_ENABLED
  EXPECT_NE(json.find("\"runs\": 7"), std::string::npos);
  EXPECT_NE(json.find("run.chunk"), std::string::npos);
#endif
  EXPECT_NE(json.find("unit\\\"test"), std::string::npos);  // escaping
}

TEST(ObsExport, EmptySnapshotValidates) {
  const std::string json = obs::to_json(obs::Snapshot{}, {});
  const auto v = obs::validate_export_json(json);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(ObsExport, ValidatorRejectsCorruptDocuments) {
  EXPECT_FALSE(obs::validate_export_json("").ok);
  EXPECT_FALSE(obs::validate_export_json("{]").ok);
  EXPECT_FALSE(obs::validate_export_json("{}").ok);  // missing schema
  EXPECT_FALSE(
      obs::validate_export_json(R"({"schema": "other-v9"})").ok);
  // Counter values must be integers.
  EXPECT_FALSE(obs::validate_export_json(
                   R"({"schema": "te-obs-v1", "meta": {},
                       "counters": {"c": 1.5}, "gauges": {},
                       "histograms": {}, "spans": []})")
                   .ok);
}

TEST(ObsExport, CsvHasHeaderAndRows) {
  obs::Registry reg;
  reg.counter("c1").inc();
  const std::string csv = obs::to_csv(reg.snapshot(), {{"k", "v"}});
  EXPECT_NE(csv.find("kind,name,count,value,min,max,mean,p50,p95,p99"),
            std::string::npos);
#if TE_OBS_ENABLED
  EXPECT_NE(csv.find("counter,c1,"), std::string::npos);
#endif
}

TEST(ObsExport, CsvQuotesNamesWithMetacharacters) {
  obs::Registry reg;
  reg.counter("evil,na\"me").inc();
  const std::string csv = obs::to_csv(reg.snapshot(), {{"k", "v\nw"}});
#if TE_OBS_ENABLED
  // RFC-4180 quoting: the whole field quoted, inner quotes doubled, so the
  // embedded comma cannot fabricate a column.
  EXPECT_NE(csv.find("counter,\"evil,na\"\"me\",1,"), std::string::npos)
      << csv;
#endif
  // Meta comment lines flatten embedded newlines instead of emitting a
  // line that is not a '#' comment, a header or a row.
  EXPECT_EQ(csv.find("v\nw"), std::string::npos);
  EXPECT_NE(csv.find("# k=v w"), std::string::npos);
}

TEST(ObsExport, HistogramQuantilesRoundTripThroughJson) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 99; ++i) h.record(3e-6);
  h.record(1e-3);
  const std::string json = obs::to_json(reg.snapshot(), {});
  const auto v = obs::validate_export_json(json);
  EXPECT_TRUE(v.ok) << v.error;
#if TE_OBS_ENABLED
  const auto p50 = obs::read_export_histogram_quantile(json, "lat", 50);
  const auto p99 = obs::read_export_histogram_quantile(json, "lat", 99);
  ASSERT_TRUE(p50.has_value());
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p50, h.quantile(0.50));
  EXPECT_DOUBLE_EQ(*p99, h.quantile(0.99));
  // CSV carries the same three quantile columns for the histogram row.
  const std::string csv = obs::to_csv(reg.snapshot(), {});
  EXPECT_NE(csv.find("histogram,lat,"), std::string::npos);
#endif
  // Absent histogram or unsupported percentile -> nullopt, not a throw.
  EXPECT_FALSE(
      obs::read_export_histogram_quantile(json, "nope", 50).has_value());
  EXPECT_FALSE(
      obs::read_export_histogram_quantile(json, "lat", 42).has_value());
}

TEST(ObsExport, CountersReadBackByPrefix) {
  obs::Registry reg;
  reg.counter("solve.runs").add(912);
  reg.counter("solve.converged").add(692);
  reg.counter("kernels.calls").add(3);
  const std::string json = obs::to_json(reg.snapshot(), {});
  const auto solve = obs::read_export_counters(json, "solve.");
  ASSERT_TRUE(solve.has_value());
#if TE_OBS_ENABLED
  ASSERT_EQ(solve->size(), 2u);
  for (const auto& [name, v] : *solve) {
    EXPECT_EQ(v, name == "solve.runs" ? 912.0 : 692.0) << name;
  }
  EXPECT_EQ(obs::read_export_counters(json, "")->size(), 3u);
#else
  EXPECT_TRUE(solve->empty());
#endif
  EXPECT_TRUE(obs::read_export_counters(json, "nope.")->empty());
  EXPECT_FALSE(obs::read_export_counters("not json", "").has_value());
  EXPECT_FALSE(obs::read_export_counters("{}", "").has_value());
}

TEST(ObsExport, PreQuantileDocumentsStillValidate) {
  // Documents written before the quantile fields existed must keep
  // validating (the fields are optional) and report nullopt quantiles.
  std::string buckets = "[1, 1";
  for (int i = 2; i < obs::kHistogramBuckets; ++i) buckets += ", 0";
  buckets += "]";
  const std::string legacy =
      R"({"schema": "te-obs-v1", "meta": {}, "counters": {},
          "gauges": {},
          "histograms": {"lat": {"count": 2, "total": 3e-06, "min": 1e-06,
                                 "max": 2e-06, "mean": 1.5e-06,
                                 "buckets": )" +
      buckets + R"(}},
          "spans": []})";
  const auto v = obs::validate_export_json(legacy);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_FALSE(
      obs::read_export_histogram_quantile(legacy, "lat", 95).has_value());
}

// Gauges at the edges of double's range survive export -> validate -> read
// back exactly. The subnormal used to pass to_json and then abort
// obs_json_check (std::stod threw out_of_range on it).
TEST(ObsExport, ExtremeGaugesRoundTripExactly) {
  obs::Snapshot snap;
  const double values[] = {std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(), -0.0};
  snap.gauges = {{"tiny", values[0]}, {"huge", values[1]}, {"neg0", values[2]}};
  const std::string json = obs::to_json(snap, {});
  EXPECT_NE(json.find("4.9406564584124654e-324"), std::string::npos) << json;
  const auto v = obs::validate_export_json(json);
  ASSERT_TRUE(v.ok) << v.error;
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto got = obs::read_export_gauge(json, snap.gauges[i].name);
    ASSERT_TRUE(got.has_value()) << snap.gauges[i].name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(values[i]))
        << snap.gauges[i].name;
  }
}

// Numbers outside RFC 8259 or outside double's range fail validation with
// a message instead of being read leniently or throwing.
TEST(ObsExport, ValidatorRefusesNonJsonNumbers) {
  for (const char* gauge : {"1e999", ".5", "01", "1.", "1e", "+1", "NaN"}) {
    const std::string doc =
        std::string(R"({"schema": "te-obs-v1", "meta": {}, "counters": {},
                        "gauges": {"g": )") +
        gauge + R"(}, "histograms": {}, "spans": []})";
    const auto v = obs::validate_export_json(doc);
    EXPECT_FALSE(v.ok) << gauge;
    EXPECT_FALSE(v.error.empty()) << gauge;
    EXPECT_FALSE(obs::read_export_gauge(doc, "g").has_value()) << gauge;
  }
}

// to_json's string escaping is pinned byte for byte: quotes, backslashes,
// the short escapes, \u00xx for other control bytes, and everything else
// (DEL, UTF-8) copied through.
TEST(ObsExport, EscapedNamesMatchTheGoldenDocument) {
  obs::Snapshot snap;
  snap.counters.push_back({"c\"q\\b\x01\x1f\x7f\t\n\r\b\f", 3});
  snap.gauges.push_back({"g/\xc3\xa9", 4.9406564584124654e-324});
  snap.gauges.push_back({"max", std::numeric_limits<double>::max()});
  snap.gauges.push_back({"negzero", -0.0});
  const std::string golden =
      "{\n"
      "  \"schema\": \"te-obs-v1\",\n"
      "  \"meta\": {\n"
      "    \"k\\\"\\\\\": \"v\\u0002\\n\"\n"
      "  },\n"
      "  \"counters\": {\n"
      "    \"c\\\"q\\\\b\\u0001\\u001f\x7f"
      "\\t\\n\\r\\u0008\\u000c\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g/\xc3\xa9\": 4.9406564584124654e-324,\n"
      "    \"max\": 1.7976931348623157e+308,\n"
      "    \"negzero\": -0\n"
      "  },\n"
      "  \"histograms\": {},\n"
      "  \"spans\": []\n"
      "}\n";
  const std::string json = obs::to_json(snap, {{"k\"\\", "v\x02\n"}});
  EXPECT_EQ(json, golden);
  EXPECT_TRUE(obs::validate_export_json(json).ok);
}

}  // namespace
}  // namespace te
