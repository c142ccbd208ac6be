// Tests for the runtime kernel code generator (te::jit, ROADMAP item 3).
//
// The JIT pipeline compiles generated C++ with the host toolchain; tests
// that need that capability point $TE_JIT_CC at TE_TEST_HOST_CXX (the
// compiler CMake built this binary with) and skip when it is missing.
// Everything runs against private temp cache directories so the suite
// neither reads nor pollutes a real spill dir.
//
// Coverage:
//   * bitwise parity of acquired kernels against the general and
//     precomputed tiers, float and double, widths {1, 2, 4, 8}
//     (exact-integer inputs make every tier's result the same integer);
//   * disk-cache warm start across processes: a child process (re-exec of
//     this binary with a gtest filter) loads the artifact with NO compiler
//     available and reports cache_hits == 1, compiled == 0;
//   * the admission oracle rejects seeded defects (dropped class, doubled
//     coefficient, off-by-one write target) injected into generated source
//     by marker-comment surgery, with the expected FindingKind;
//   * graceful fallback: no compiler + no cached artifact means
//     acquire_tier degrades to kPrecomputed without throwing;
//   * the multi-width autotuner times JIT-admitted widths (its refusal
//     predicate is genuine per-lane fallback, not registry membership).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "te/jit/codegen.hpp"
#include "te/jit/engine.hpp"
#include "te/kernels/autotune.hpp"
#include "te/kernels/dispatch.hpp"
#include "te/kernels/general.hpp"
#include "te/kernels/jit_registry.hpp"
#include "te/kernels/precomputed.hpp"
#include "te/tensor/symmetric_tensor.hpp"
#include "te/util/rng.hpp"

namespace te {
namespace {

namespace fs = std::filesystem;

#ifndef TE_TEST_HOST_CXX
#define TE_TEST_HOST_CXX ""
#endif

bool host_compiler_available() {
  return fs::exists(TE_TEST_HOST_CXX);
}

// Points $TE_JIT_CC at the build compiler for one test; restores on exit.
struct ScopedCompiler {
  ScopedCompiler() { ::setenv(jit::kCompilerEnv, TE_TEST_HOST_CXX, 1); }
  ~ScopedCompiler() { ::unsetenv(jit::kCompilerEnv); }
};

std::string fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("te_jit_test_" + tag + "_" +
                                   std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Exact-integer tensor/vector so parity can be asserted BITWISE: every
// partial product and sum stays an integer below 2^24 at the shapes used
// here, which both float and double represent exactly regardless of the
// kernel's association order.
template <Real T>
SymmetricTensor<T> integer_tensor(int m, int n) {
  CounterRng rng(321);
  SymmetricTensor<T> a(m, n);
  auto vals = a.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<T>(static_cast<int>(rng.in(1, i, -3.0, 3.0)));
  }
  return a;
}

template <Real T>
std::vector<T> integer_vector(int n, std::uint64_t salt) {
  CounterRng rng(77);
  std::vector<T> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(static_cast<int>(rng.in(salt, i, -2.0, 3.0)));
  }
  return x;
}

bool has_finding(const std::vector<analysis::CheckReport>& reports,
                 analysis::FindingKind kind) {
  for (const auto& r : reports) {
    for (const auto& f : r.findings) {
      if (f.kind == kind) return true;
    }
  }
  return false;
}

// The parity shape. (3, 7) is not in the compile-time unrolled registry:
// only the runtime generator can serve it at Tier::kJit.
constexpr int kM = 3;
constexpr int kN = 7;

template <Real T>
void expect_parity() {
  const auto a = integer_tensor<T>(kM, kN);
  const auto x = integer_vector<T>(kN, 5);
  const std::span<const T> xs{x.data(), x.size()};

  std::vector<T> y_ref(static_cast<std::size_t>(kN));
  kernels::ttsv1_general(a, xs, {y_ref.data(), y_ref.size()});
  const T y0_ref = kernels::ttsv0_general(a, xs);

  kernels::KernelTables<T> tables(kM, kN);
  kernels::BoundKernels<T> pre(a, kernels::Tier::kPrecomputed, &tables);
  EXPECT_EQ(pre.ttsv0(xs), y0_ref);

  // Width 1: the scalar JIT kernel through BoundKernels dispatch.
  kernels::BoundKernels<T> jitk(a, kernels::Tier::kJit);
  EXPECT_EQ(jitk.ttsv0(xs), y0_ref);
  std::vector<T> y(static_cast<std::size_t>(kN));
  jitk.ttsv1(xs, {y.data(), y.size()});
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)],
              y_ref[static_cast<std::size_t>(i)])
        << "ttsv1 lane-1 component " << i;
  }

  // Widths {2, 4, 8}: each lane against an independent scalar general call.
  for (const int w : {2, 4, 8}) {
    kernels::BoundKernels<T> mk(a, kernels::Tier::kJit, nullptr, w);
    EXPECT_TRUE(mk.vectorized()) << "width " << w;
    kernels::VectorBatch<T> xb(kN, w);
    kernels::VectorBatch<T> yb(kN, w);
    for (int i = 0; i < kN; ++i) {
      const auto lane_vals = integer_vector<T>(
          w, static_cast<std::uint64_t>(100 + i));
      for (int lane = 0; lane < w; ++lane) {
        xb.at(i, lane) = lane_vals[static_cast<std::size_t>(lane)];
      }
    }
    std::vector<T> out(static_cast<std::size_t>(w));
    mk.ttsv0(xb, {out.data(), out.size()});
    mk.ttsv1(xb, yb);
    std::vector<T> lane_x(static_cast<std::size_t>(kN));
    std::vector<T> lane_y(static_cast<std::size_t>(kN));
    for (int lane = 0; lane < w; ++lane) {
      for (int i = 0; i < kN; ++i) {
        lane_x[static_cast<std::size_t>(i)] = xb.at(i, lane);
      }
      const std::span<const T> lxs{lane_x.data(), lane_x.size()};
      kernels::ttsv1_general(a, lxs, {lane_y.data(), lane_y.size()});
      EXPECT_EQ(out[static_cast<std::size_t>(lane)],
                kernels::ttsv0_general(a, lxs))
          << "ttsv0 width " << w << " lane " << lane;
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(yb.at(i, lane), lane_y[static_cast<std::size_t>(i)])
            << "ttsv1 width " << w << " lane " << lane << " component " << i;
      }
    }
  }
}

TEST(JitParityTest, BitwiseAgainstGeneralAndPrecomputed) {
  if (!host_compiler_available()) GTEST_SKIP() << "no host compiler";
  ScopedCompiler cc;
  jit::set_cache_dir(fresh_dir("parity"));

  const auto rd = jit::acquire<double>(kM, kN);
  ASSERT_TRUE(rd.available) << rd.error;
  EXPECT_EQ(rd.rejected, 0);
  for (const auto& r : rd.reports) {
    EXPECT_TRUE(r.proven()) << r.summary();
  }
  const auto rf = jit::acquire<float>(kM, kN);
  ASSERT_TRUE(rf.available) << rf.error;

  expect_parity<double>();
  expect_parity<float>();
}

TEST(JitAutotuneTest, TimesAdmittedJitWidths) {
  if (!host_compiler_available()) GTEST_SKIP() << "no host compiler";
  ScopedCompiler cc;
  // The tuner runs in float; after the parity test this is an in-process
  // registry fast path, standalone it is a fresh compile.
  jit::set_cache_dir(fresh_dir("autotune"));
  ASSERT_TRUE(jit::acquire<float>(kM, kN).available);

  const auto rep =
      kernels::autotune_multi_width(kM, kN, kernels::Tier::kJit, 50);
  EXPECT_EQ(rep.tier, kernels::Tier::kJit);
  // All of {2, 4, 8} are admitted, so the tuner must have timed real
  // vectorized routes, not refused into the width-1 baseline.
  EXPECT_GT(rep.best_width, 1);
}

// ---------------------------------------------------------------------------
// Disk-cache warm start across processes.
// ---------------------------------------------------------------------------

// Shape reserved for the warm-start pair so no other test pre-registers it
// in the parent process.
constexpr int kWarmM = 3;
constexpr int kWarmN = 8;

// Child half: runs only when re-exec'd by ColdThenChildWarmLoad with
// TE_JIT_TEST_CHILD_DIR set (and TE_JIT_CC scrubbed). Must warm-load the
// parent's artifact without any compile capability.
TEST(JitCacheTest, ChildWarmLoad) {
  const char* dir = std::getenv("TE_JIT_TEST_CHILD_DIR");
  if (dir == nullptr) GTEST_SKIP() << "parent-driven child test";
  ASSERT_EQ(std::getenv(jit::kCompilerEnv), nullptr)
      << "child must run without a compiler";
  jit::set_cache_dir(dir);
  const auto rep = jit::acquire<double>(kWarmM, kWarmN);
  EXPECT_TRUE(rep.available) << rep.error;
  EXPECT_EQ(rep.compiled, 0);
  EXPECT_EQ(rep.cache_hits, 1);
}

TEST(JitCacheTest, ColdThenChildWarmLoad) {
  if (!host_compiler_available()) GTEST_SKIP() << "no host compiler";
  ScopedCompiler cc;
  const std::string dir = fresh_dir("warm");
  jit::set_cache_dir(dir);

  const auto cold = jit::acquire<double>(kWarmM, kWarmN);
  ASSERT_TRUE(cold.available) << cold.error;
  EXPECT_EQ(cold.compiled, 1);
  EXPECT_EQ(cold.cache_hits, 0);

  // The artifact is enumerable for the te_analyze --all sweep extension.
  const auto shapes = jit::cached_shapes(dir);
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0], (std::pair<int, int>{kWarmM, kWarmN}));

  // Second process: same binary, child filter, compiler scrubbed from the
  // environment. A clean exit proves the load came from disk alone. The
  // exe path must be resolved here -- inside std::system's shell,
  // /proc/self/exe would name the shell.
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  const std::string cmd = "env -u " + std::string(jit::kCompilerEnv) +
                          " TE_JIT_TEST_CHILD_DIR='" + dir + "' '" + self +
                          "' --gtest_filter=JitCacheTest.ChildWarmLoad"
                          " >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

// ---------------------------------------------------------------------------
// Seeded defects: the admission oracle must reject each classic mutant.
// ---------------------------------------------------------------------------

class JitDefectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!host_compiler_available()) GTEST_SKIP() << "no host compiler";
    ::setenv(jit::kCompilerEnv, TE_TEST_HOST_CXX, 1);
    jit::set_cache_dir(fresh_dir("defect"));
    jit::CodegenRequest req;
    req.order = 3;
    req.dim = 4;
    req.float32 = false;
    req.widths = {};  // scalar only: the mutations target the scalar body
    source_ = jit::generate_source(req).source;
  }
  void TearDown() override { ::unsetenv(jit::kCompilerEnv); }

  jit::SourceAdmission admit(const std::string& source) {
    return jit::admit_source<double>(source, 3, 4, {}, false);
  }

  // Replace the first occurrence of `from` with `to`; fails the test if
  // the marker is missing (the generator's comment contract moved).
  std::string mutate(std::string s, const std::string& from,
                     const std::string& to) {
    const auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << "marker not found: " << from;
    if (pos != std::string::npos) s.replace(pos, from.size(), to);
    return s;
  }

  std::string source_;
};

TEST_F(JitDefectTest, CleanSourceAdmits) {
  const auto res = admit(source_);
  EXPECT_TRUE(res.admitted) << res.error;
}

TEST_F(JitDefectTest, DroppedClassRejected) {
  // Erase one whole ttsv0 term line (tagged `/*z cls=N*/`).
  const auto tag = source_.find("/*z cls=");
  ASSERT_NE(tag, std::string::npos);
  const auto line_start = source_.rfind('\n', tag) + 1;
  const auto line_end = source_.find('\n', tag) + 1;
  std::string mutated = source_;
  mutated.erase(line_start, line_end - line_start);

  const auto res = admit(mutated);
  EXPECT_FALSE(res.admitted);
  EXPECT_TRUE(has_finding(res.reports, analysis::FindingKind::kMissingClass));
}

TEST_F(JitDefectTest, DoubledCoefficientRejected) {
  const auto res = admit(mutate(source_, "y += ", "y += (R)2 * "));
  EXPECT_FALSE(res.admitted);
  EXPECT_TRUE(
      has_finding(res.reports, analysis::FindingKind::kCoefficientMismatch));
}

TEST_F(JitDefectTest, OffByOneWriteTargetRejected) {
  // Redirect the ttsv1 contribution of class (1,1,1) -- the line whose
  // drop-one monomial is x[1]*x[1] -- from accumulator 1 to accumulator 0.
  // Index 0 is not in that class, so the checker sees the contribution
  // missing at y[1] and reappearing verbatim at y[0]: the canonical
  // wrong-write-target fold.
  // The drop-one monomial x[1]*x[1] also belongs to class (0,1,1)'s acc0
  // line, so scan for the match that accumulates into acc1.
  auto tag = source_.find("(x[1]*x[1]); /*c");
  while (tag != std::string::npos &&
         source_.compare(source_.rfind('\n', tag) + 1, 7, "  acc1 ") != 0) {
    tag = source_.find("(x[1]*x[1]); /*c", tag + 1);
  }
  ASSERT_NE(tag, std::string::npos);
  const auto line_start = source_.rfind('\n', tag) + 1;
  std::string mutated = source_;
  mutated[line_start + 5] = '0';

  const auto res = admit(mutated);
  EXPECT_FALSE(res.admitted);
  EXPECT_TRUE(
      has_finding(res.reports, analysis::FindingKind::kWrongWriteTarget));
}

// ---------------------------------------------------------------------------
// Graceful degradation.
// ---------------------------------------------------------------------------

TEST(JitFallbackTest, NoCompilerNoCacheFallsBackToPrecomputed) {
  // Shape used nowhere else in this binary, empty cache dir, no compiler:
  // the envelope is in range, but nothing can be built or loaded.
  ::unsetenv(jit::kCompilerEnv);
  jit::set_cache_dir(fresh_dir("fallback"));
  ASSERT_TRUE(jit::jit_supported(4, 7));
  EXPECT_EQ(jit::acquire_tier<double>(4, 7), kernels::Tier::kPrecomputed);
  EXPECT_EQ(kernels::find_jit<double>(4, 7), nullptr);

  const auto rep = jit::acquire<double>(4, 7);
  EXPECT_FALSE(rep.available);
  EXPECT_FALSE(rep.error.empty());
}

TEST(JitFallbackTest, OutOfEnvelopeShapeRefused) {
  // Order 9 exceeds the float-exactness probing cap; the generator must
  // refuse rather than emit a kernel the oracle cannot prove.
  EXPECT_FALSE(jit::jit_supported(9, 3));
  EXPECT_EQ(jit::acquire_tier<double>(9, 3), kernels::Tier::kPrecomputed);
}

}  // namespace
}  // namespace te
