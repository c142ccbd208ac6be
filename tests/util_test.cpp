// Utility-layer tests: deterministic RNG, sphere sampling, small linear
// algebra (Jacobi, Cholesky, least squares), table formatting and CLI
// parsing, the strict JSON reader's conformance table, and the split of an
// InvalidArgument into its full diagnostic and the caller's message.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "te/util/assert.hpp"
#include "te/util/cli.hpp"
#include "te/util/json.hpp"
#include "te/util/linalg.hpp"
#include "te/util/op_counter.hpp"
#include "te/util/rng.hpp"
#include "te/util/small_vector.hpp"
#include "te/util/sphere.hpp"
#include "te/util/table.hpp"

namespace te {
namespace {

// ---------------------------------------------------------------------------
// InvalidArgument: what() is the full diagnostic, message() the caller's
// text alone (what an untrusted peer may see).
// ---------------------------------------------------------------------------

TEST(InvalidArgument, MessageIsTheCallersTextWithoutTheSourceLocation) {
  try {
    TE_REQUIRE(1 + 1 == 3, "arithmetic says " << 2);
    FAIL() << "TE_REQUIRE did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(e.message(), "arithmetic says 2");
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("precondition failed: (1 + 1 == 3) at ", 0), 0u)
        << what;
    EXPECT_NE(what.find("util_test.cpp:"), std::string::npos) << what;
    EXPECT_TRUE(what.ends_with(" -- arithmetic says 2")) << what;
  }
  try {
    TE_REQUIRE(false, "");
    FAIL() << "TE_REQUIRE did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(e.message(), "precondition failed");
    EXPECT_EQ(std::string(e.what()).find(" -- "), std::string::npos);
  }
  const InvalidArgument plain("plain text");
  EXPECT_EQ(plain.message(), "plain text");
  EXPECT_STREQ(plain.what(), "plain text");
}

// ---------------------------------------------------------------------------
// RNG.
// ---------------------------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, CounterRngIsOrderIndependent) {
  CounterRng rng(7);
  // Draw (stream, counter) pairs in two different orders: same values.
  const auto v1 = rng.at(3, 10);
  const auto v2 = rng.at(5, 2);
  CounterRng rng2(7);
  EXPECT_EQ(rng2.at(5, 2), v2);
  EXPECT_EQ(rng2.at(3, 10), v1);
}

TEST(Rng, CounterRngSeparatesStreams) {
  CounterRng rng(7);
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 100; ++s) seen.insert(rng.at(s, 0));
  EXPECT_EQ(seen.size(), 100u);  // no collisions across streams
}

TEST(Rng, UnitIsInRange) {
  CounterRng rng(99);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit(0, static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= 10000;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, NormalHasUnitVariance) {
  CounterRng rng(123);
  double mean = 0, var = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal(1, static_cast<std::uint64_t>(i));
    mean += z;
    var += z * z;
  }
  mean /= n;
  var = var / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Sphere sampling.
// ---------------------------------------------------------------------------

TEST(Sphere, RandomVectorsAreUnit) {
  CounterRng rng(5);
  for (int s = 0; s < 50; ++s) {
    for (int n : {2, 3, 7}) {
      auto x = random_sphere_vector<double>(rng, static_cast<std::uint64_t>(s),
                                            n);
      EXPECT_NEAR(nrm2(std::span<const double>(x.data(), x.size())), 1.0,
                  1e-12);
    }
  }
}

TEST(Sphere, BatchIsDeterministic) {
  CounterRng rng(5);
  auto a = random_sphere_batch<float>(rng, 0, 8, 3);
  auto b = random_sphere_batch<float>(rng, 0, 8, 3);
  EXPECT_EQ(a, b);
}

TEST(Sphere, FibonacciCoversBothHemispheres) {
  auto pts = fibonacci_sphere<double>(200);
  ASSERT_EQ(pts.size(), 200u);
  int north = 0;
  for (const auto& p : pts) {
    EXPECT_NEAR(nrm2(std::span<const double>(p.data(), p.size())), 1.0, 1e-12);
    if (p[2] > 0) ++north;
  }
  EXPECT_NEAR(north, 100, 2);
}

TEST(Sphere, FibonacciMinimumSeparation) {
  // Near-even spacing: the closest pair among N=64 points should not be
  // drastically closer than the ideal ~ sqrt(4 pi / N).
  auto pts = fibonacci_sphere<double>(64);
  double min_d = 10;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      min_d = std::min(min_d,
                       distance(std::span<const double>(pts[i].data(), 3),
                                std::span<const double>(pts[j].data(), 3)));
    }
  }
  EXPECT_GT(min_d, 0.5 * std::sqrt(4 * 3.14159 / 64));
}

TEST(Sphere, HemisphereKeepsUpperHalf) {
  auto pts = fibonacci_hemisphere<double>(30);
  ASSERT_EQ(pts.size(), 30u);
  for (const auto& p : pts) EXPECT_GE(p[2], 0.0);
}

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

TEST(Linalg, VectorKernels) {
  std::vector<double> x = {3, 4}, y = {1, 2};
  EXPECT_DOUBLE_EQ(dot<double>({x.data(), 2}, {y.data(), 2}), 11);
  EXPECT_DOUBLE_EQ(nrm2<double>({x.data(), 2}), 5);
  axpy(2.0, std::span<const double>(x.data(), 2), std::span<double>(y.data(), 2));
  EXPECT_DOUBLE_EQ(y[0], 7);
  EXPECT_DOUBLE_EQ(y[1], 10);
  const double n = normalize(std::span<double>(x.data(), 2));
  EXPECT_DOUBLE_EQ(n, 5);
  EXPECT_DOUBLE_EQ(x[0], 0.6);
}

TEST(Linalg, NormalizeRejectsZero) {
  std::vector<double> z = {0, 0, 0};
  EXPECT_THROW((void)normalize(std::span<double>(z.data(), 3)),
               InvalidArgument);
}

TEST(Linalg, TryNormalizeReportsInsteadOfThrowing) {
  // Healthy vector: same behavior as normalize.
  std::vector<double> x = {3, 4};
  EXPECT_DOUBLE_EQ(try_normalize(std::span<double>(x.data(), 2)), 5.0);
  EXPECT_DOUBLE_EQ(x[0], 0.6);

  // Zero / NaN / Inf inputs: returns 0 and leaves the vector untouched.
  std::vector<double> z = {0, 0, 0};
  EXPECT_DOUBLE_EQ(try_normalize(std::span<double>(z.data(), 3)), 0.0);
  EXPECT_DOUBLE_EQ(z[1], 0.0);

  std::vector<double> bad = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_DOUBLE_EQ(try_normalize(std::span<double>(bad.data(), 2)), 0.0);
  EXPECT_TRUE(std::isnan(bad[1]));  // untouched, not rescaled

  std::vector<double> inf = {std::numeric_limits<double>::infinity(), 1.0};
  EXPECT_DOUBLE_EQ(try_normalize(std::span<double>(inf.data(), 2)), 0.0);
  EXPECT_DOUBLE_EQ(inf[1], 1.0);
}

TEST(Linalg, AngleBetween) {
  std::vector<double> e1 = {1, 0}, e2 = {0, 2};
  EXPECT_NEAR(angle_between<double>({e1.data(), 2}, {e2.data(), 2}),
              3.14159265358979 / 2, 1e-12);
}

TEST(Linalg, JacobiDiagonalizesKnownMatrix) {
  // [[2,1],[1,2]] has eigenvalues 1, 3 with vectors (1,-1)/sqrt2, (1,1)/sqrt2.
  Matrix<double> a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  const auto e = jacobi_eigen(a);
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  EXPECT_NEAR(std::abs(e.vectors(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(Linalg, JacobiReconstructsRandomSymmetric) {
  CounterRng rng(17);
  const int n = 6;
  Matrix<double> a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      a(i, j) = rng.in(0, static_cast<std::uint64_t>(i * n + j), -1, 1);
      a(j, i) = a(i, j);
    }
  }
  const auto e = jacobi_eigen(a);
  // Check A v_j = w_j v_j for every eigenpair.
  for (int j = 0; j < n; ++j) {
    std::vector<double> v(static_cast<std::size_t>(n)),
        av(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = e.vectors(i, j);
    a.multiply({v.data(), v.size()}, {av.data(), av.size()});
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(av[static_cast<std::size_t>(i)],
                  e.values[static_cast<std::size_t>(j)] *
                      v[static_cast<std::size_t>(i)],
                  1e-9);
    }
  }
  // Eigenvalues ascending.
  for (int j = 1; j < n; ++j) EXPECT_LE(e.values[j - 1], e.values[j]);
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  Matrix<double> a(3, 3);
  // SPD matrix: A = L0 L0^T for L0 = [[2,0,0],[1,3,0],[0,1,1]].
  const double l0[3][3] = {{2, 0, 0}, {1, 3, 0}, {0, 1, 1}};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double s = 0;
      for (int k = 0; k < 3; ++k) s += l0[i][k] * l0[j][k];
      a(i, j) = s;
    }
  }
  std::vector<double> x_true = {1, -2, 3};
  std::vector<double> b(3);
  a.multiply({x_true.data(), 3}, {b.data(), 3});
  ASSERT_TRUE(cholesky(a));
  cholesky_solve(a, std::span<double>(b.data(), 3));
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(Linalg, CholeskyDetectsNonSpd) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a));
}

// SmallVector: the inline/heap boundary for every operation (N = 4, the
// SS-HOPM iterate's inline capacity), run under the ASan/UBSan pass.
using Small = SmallVector<float, 4>;

Small filled(std::size_t n, float base) {
  Small v;
  v.resize(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<float>(i);
  return v;
}

bool holds(const Small& v, std::size_t n, float base) {
  if (v.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != base + static_cast<float>(i)) return false;
  }
  return true;
}

constexpr std::size_t kBoundarySizes[] = {0, 1, 3, 4, 5, 40};

TEST(SmallVector, InlineUpToCapacityHeapAbove) {
  for (const std::size_t n : kBoundarySizes) {
    const Small v = filled(n, 1.0f);
    EXPECT_TRUE(holds(v, n, 1.0f)) << n;
    EXPECT_EQ(v.empty(), n == 0);
    const auto* self = reinterpret_cast<const char*>(&v);
    const auto* data = reinterpret_cast<const char*>(v.data());
    const bool inside = data >= self && data < self + sizeof(Small);
    EXPECT_EQ(inside, n <= 4) << n;
    EXPECT_EQ(v.capacity(), std::max<std::size_t>(n, 4)) << n;
  }
  // Four floats, or the heap pointer in their bytes, plus the length.
  EXPECT_EQ(sizeof(Small), 20u);
  EXPECT_EQ(alignof(Small), alignof(float));
}

TEST(SmallVector, CopyAndMoveAcrossTheBoundary) {
  for (const std::size_t from : kBoundarySizes) {
    for (const std::size_t to : kBoundarySizes) {
      const Small src = filled(from, 10.0f);
      Small copy(src);
      EXPECT_TRUE(holds(copy, from, 10.0f)) << from;
      Small assigned = filled(to, 20.0f);
      assigned = src;
      EXPECT_TRUE(holds(assigned, from, 10.0f)) << from << " <- " << to;
      EXPECT_TRUE(assigned == src);

      Small moved_from = filled(from, 30.0f);
      Small moved(std::move(moved_from));
      EXPECT_TRUE(holds(moved, from, 30.0f)) << from;
      // The moved-from vector is empty, inline and reusable.
      EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(moved_from.capacity(), 4u);
      moved_from = filled(to, 40.0f);
      EXPECT_TRUE(holds(moved_from, to, 40.0f));

      Small target = filled(to, 50.0f);
      Small source = filled(from, 60.0f);
      target = std::move(source);
      EXPECT_TRUE(holds(target, from, 60.0f)) << from << " <- " << to;
      EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(SmallVector, SelfAssignmentKeepsTheContents) {
  for (const std::size_t n : kBoundarySizes) {
    Small v = filled(n, 5.0f);
    Small& alias = v;
    v = alias;
    EXPECT_TRUE(holds(v, n, 5.0f)) << n;
    v = std::move(alias);
    EXPECT_TRUE(holds(v, n, 5.0f)) << n;
    v.assign(v.begin(), v.end());
    EXPECT_TRUE(holds(v, n, 5.0f)) << n;
  }
}

TEST(SmallVector, AssignAndResizeAcrossTheBoundary) {
  for (const std::size_t from : kBoundarySizes) {
    for (const std::size_t to : kBoundarySizes) {
      Small v = filled(from, 1.0f);
      const Small src = filled(to, 7.0f);
      v.assign(src.begin(), src.end());
      EXPECT_TRUE(holds(v, to, 7.0f)) << from << " -> " << to;

      Small r = filled(from, 2.0f);
      r.resize(to);
      ASSERT_EQ(r.size(), to);
      for (std::size_t i = 0; i < to; ++i) {
        EXPECT_EQ(r[i], i < from ? 2.0f + static_cast<float>(i) : 0.0f)
            << from << " -> " << to << " entry " << i;
      }
    }
  }
  Small v;
  v = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  EXPECT_EQ(v.size(), 5u);
  v = {9.0f};
  EXPECT_TRUE(v == std::vector<float>{9.0f});
  EXPECT_FALSE(v == std::vector<float>({9.0f, 0.0f}));
}

TEST(SmallVector, ChainsAcrossTheBoundaryKeepTheContents) {
  // inline -> heap -> inline (and every other path) on one object: the
  // heap address lives in the inline bytes, so each transition must move
  // it in and out without losing entries or the block.
  for (const std::size_t a : kBoundarySizes) {
    for (const std::size_t b : kBoundarySizes) {
      for (const std::size_t c : kBoundarySizes) {
        Small v = filled(a, 1.0f);
        v = filled(b, 2.0f);
        EXPECT_TRUE(holds(v, b, 2.0f)) << a << " -> " << b;
        const Small src = filled(c, 3.0f);
        v = src;
        EXPECT_TRUE(holds(v, c, 3.0f)) << a << " -> " << b << " -> " << c;
        v.resize(a);
        ASSERT_EQ(v.size(), a);
        for (std::size_t i = 0; i < a; ++i) {
          EXPECT_EQ(v[i], i < c ? 3.0f + static_cast<float>(i) : 0.0f)
              << a << " -> " << b << " -> " << c << " entry " << i;
        }
      }
    }
  }
  // heap -> heap at the same length keeps the block; at a new length, and
  // from the vector's own range, it moves the entries to a fresh one.
  Small v = filled(40, 1.0f);
  const float* block = v.data();
  const Small same = filled(40, 2.0f);
  v = same;
  EXPECT_EQ(v.data(), block);
  EXPECT_TRUE(holds(v, 40, 2.0f));
  v.assign(v.begin() + 1, v.begin() + 6);
  EXPECT_TRUE(holds(v, 5, 3.0f));
  v.assign(v.begin() + 1, v.begin() + 4);  // heap -> inline, own range
  EXPECT_TRUE(holds(v, 3, 4.0f));
  v.resize(40);
  EXPECT_TRUE(v == std::vector<float>(
                       [] {
                         std::vector<float> w(40, 0.0f);
                         w[0] = 4.0f;
                         w[1] = 5.0f;
                         w[2] = 6.0f;
                         return w;
                       }()));
}

TEST(Linalg, LeastSquaresRecoversExactSolution) {
  // Overdetermined consistent system.
  Matrix<double> a(5, 2);
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = i;
    b[static_cast<std::size_t>(i)] = 3.0 + 2.0 * i;  // y = 3 + 2 t
  }
  const auto x = least_squares(a, std::span<const double>(b.data(), 5));
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 3.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(Linalg, MatrixGram) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  a(2, 0) = 3;
  const auto g = a.gram();
  EXPECT_DOUBLE_EQ(g(0, 0), 10);
  EXPECT_DOUBLE_EQ(g(1, 1), 4);
  EXPECT_DOUBLE_EQ(g(0, 1), 0);
}

// ---------------------------------------------------------------------------
// OpCounts.
// ---------------------------------------------------------------------------

TEST(OpCounts, FlopConvention) {
  OpCounts c;
  c.fma = 3;
  c.fmul = 2;
  c.fadd = 1;
  c.sfu = 1;
  EXPECT_EQ(c.flops(), 2 * 3 + 2 + 1 + 1);
}

TEST(OpCounts, ArithmeticComposes) {
  OpCounts a;
  a.fmul = 2;
  a.iop = 5;
  OpCounts b;
  b.fmul = 1;
  b.gmem = 7;
  const auto s = a + b;
  EXPECT_EQ(s.fmul, 3);
  EXPECT_EQ(s.iop, 5);
  EXPECT_EQ(s.gmem, 7);
  const auto t = a * 3;
  EXPECT_EQ(t.fmul, 6);
  EXPECT_EQ(t.iop, 15);
}

// ---------------------------------------------------------------------------
// Tables and CLI.
// ---------------------------------------------------------------------------

TEST(Table, AlignsAndSeparates) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
}

TEST(Table, CsvOutput) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Cli, ParsesBothForms) {
  // Note: a bare token directly after a flag is consumed as that flag's
  // value, so positionals come first (or use --flag=value).
  const char* argv[] = {"prog", "positional", "--tensors", "64",
                        "--alpha=1.5", "--verbose"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_or("tensors", 0L), 64);
  EXPECT_DOUBLE_EQ(args.get_or("alpha", 0.0), 1.5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_or("missing", std::string("dflt")), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Formatting, FixedAndAuto) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_auto(0.0), "0");
  EXPECT_NE(fmt_auto(1e9).find("e"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON reader conformance.
// ---------------------------------------------------------------------------

std::optional<double> json_number(const std::string& text) {
  const auto v = json::parse(text);
  if (!v || v->kind != json::Value::Kind::kNumber) return std::nullopt;
  return v->number;
}

std::optional<std::string> json_string(const std::string& text) {
  const auto v = json::parse(text);
  if (!v || v->kind != json::Value::Kind::kString) return std::nullopt;
  return v->string;
}

TEST(JsonReader, AcceptsRfcNumbers) {
  EXPECT_EQ(json_number("0"), 0.0);
  const auto neg_zero = json_number("-0");
  ASSERT_TRUE(neg_zero.has_value());
  EXPECT_TRUE(std::signbit(*neg_zero));
  EXPECT_EQ(json_number("1E+2"), 100.0);
  EXPECT_EQ(json_number("-0.5e+1"), -5.0);
  EXPECT_EQ(json_number(" 12.25e-2 \r\n"), 0.1225);
  EXPECT_EQ(json_number("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json_number("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
}

TEST(JsonReader, RefusesNumbersOutsideTheGrammarOrRange) {
  for (const char* bad : {".5", "01", "1.", "1e", "1e+", "-", "+1", "0x10",
                          "1e999", "-1e999", "1e-400", "NaN", "Infinity",
                          "inf", "- 1", "1 2"}) {
    std::string error;
    EXPECT_FALSE(json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonReader, DecodesValidEscapesExactly) {
  EXPECT_EQ(json_string(R"("\"\\\/\b\f\n\r\t")"), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(json_string(R"("A\u001f\u007F\u0000")"),
            std::string("A\x1f\x7f\0", 4));
  EXPECT_EQ(json_string("\"caf\xc3\xa9\x7f\""), "caf\xc3\xa9\x7f");
}

TEST(JsonReader, RefusesBadEscapesAndRawControlCharacters) {
  for (const char* bad :
       {R"("a\qb")", R"("\x41")", R"("\u00")", R"("\u12G4")", R"("\u-041")",
        R"("\u00e9")", R"("\ud83d\ude00")", R"("\)", R"("abc)", "\"a\nb\"",
        "\"a\tb\"", "\"\x01\"", "\"\x1f\""}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
}

TEST(JsonReader, RefusesDeepNestingTrailingBytesAndDuplicateKeys) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).has_value());
  EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 1)).has_value());
  EXPECT_FALSE(json::parse(nested(100000)).has_value());  // no stack blowup
  for (const char* bad :
       {R"({"a":1} x)", R"({"a":1}{})", "[1]]", "true false", R"({"a":1,})",
        "[1,]", R"({"a" 1})", R"({a:1})", "", "   ", "tru", "nul",
        R"({"a":1,"b":2,"a":3})", R"({"k":{"x":1,"x":1}})"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
  // The same key in sibling objects is not a duplicate.
  const auto ok = json::parse(R"([{"a":1},{"a":2}] )");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->array.size(), 2u);
}

TEST(JsonReader, LookupsAreTopLevelAndTyped) {
  const auto doc =
      json::parse(R"({"s":"x","n":2,"b":true,"z":null,"o":{"s":"inner"}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc->find_string("s"), "x");
  EXPECT_EQ(doc->find_number("n"), 2.0);
  EXPECT_EQ(doc->find_string("n"), nullptr);
  EXPECT_FALSE(doc->find_number("s").has_value());
  EXPECT_TRUE(doc->find("b")->boolean);
  EXPECT_EQ(doc->find("z")->kind, json::Value::Kind::kNull);
  EXPECT_EQ(doc->find("inner"), nullptr);
  EXPECT_EQ(*doc->find("o")->find_string("s"), "inner");
  EXPECT_EQ(doc->find("o")->find("o"), nullptr);
}

TEST(JsonReader, AppendEscapedOutputParsesBackToTheSameBytes) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::string out;
  json::append_escaped(out, all);
  EXPECT_EQ(json_string(out), all);
  out.clear();
  json::append_escaped(out, "q\"b\\n\n\r\t\x01");
  EXPECT_EQ(out, R"("q\"b\\n\n\r\t\u0001")");
}

}  // namespace
}  // namespace te
