// Tests for the combinatorics module: multinomials (Properties 1-2),
// index-class iteration (Fig. 4), ranking/unranking, the paper's Table I
// enumeration reproduced verbatim, and the large-n guards (the
// shape_fits_offset capacity precheck, checked_binomial, rank/unrank round
// trips at n = 10^4).

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "te/comb/index_class.hpp"
#include "te/comb/multinomial.hpp"
#include "te/tensor/symmetric_tensor.hpp"

namespace te::comb {
namespace {

using testing::Test;

TEST(Factorial, SmallValues) {
  EXPECT_EQ(factorial(0), 1);
  EXPECT_EQ(factorial(1), 1);
  EXPECT_EQ(factorial(2), 2);
  EXPECT_EQ(factorial(5), 120);
  EXPECT_EQ(factorial(10), 3628800);
  EXPECT_EQ(factorial(20), 2432902008176640000LL);
}

TEST(Factorial, RejectsOutOfRange) {
  EXPECT_THROW((void)factorial(-1), te::InvalidArgument);
  EXPECT_THROW((void)factorial(21), te::InvalidArgument);
}

TEST(Binomial, BasicIdentities) {
  EXPECT_EQ(binomial(0, 0), 1);
  EXPECT_EQ(binomial(5, 0), 1);
  EXPECT_EQ(binomial(5, 5), 1);
  EXPECT_EQ(binomial(5, 2), 10);
  EXPECT_EQ(binomial(10, 3), 120);
  EXPECT_EQ(binomial(52, 5), 2598960);
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_EQ(binomial(5, -1), 0);
  EXPECT_EQ(binomial(5, 6), 0);
}

TEST(Binomial, PascalRule) {
  for (int n = 1; n <= 30; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(NumUnique, MatchesPaperExamples) {
  // Paper Sec. V-A: order 4, dim 3 tensors have 81 entries, 15 unique.
  EXPECT_EQ(num_unique_entries(4, 3), 15);
  // Table I: m = 3, n = 4 has 20 classes.
  EXPECT_EQ(num_unique_entries(3, 4), 20);
  // Matrix case: C(n+1, 2) = n(n+1)/2.
  EXPECT_EQ(num_unique_entries(2, 5), 15);
  // Trivial cases.
  EXPECT_EQ(num_unique_entries(1, 7), 7);
  EXPECT_EQ(num_unique_entries(3, 1), 1);
}

TEST(Multinomial, FromMonomial) {
  // C(3; 2,1) = 3, the paper's [1,1,2] example.
  std::vector<index_t> k = {2, 1};
  EXPECT_EQ(multinomial_from_monomial({k.data(), k.size()}), 3);
  k = {3, 0, 0, 0};
  EXPECT_EQ(multinomial_from_monomial({k.data(), k.size()}), 1);
  k = {1, 1, 1};
  EXPECT_EQ(multinomial_from_monomial({k.data(), k.size()}), 6);
  k = {2, 2};
  EXPECT_EQ(multinomial_from_monomial({k.data(), k.size()}), 6);
}

TEST(Multinomial, FromIndexMatchesFromMonomial) {
  // Every class of a few shapes: the two computation paths must agree.
  for (const auto& [m, n] : {std::pair{3, 2}, {3, 4}, {4, 3}, {5, 4}, {2, 6}}) {
    for (IndexClassIterator it(m, n); !it.done(); it.next()) {
      const auto mono = index_to_monomial(it.index(), n);
      EXPECT_EQ(multinomial_from_index(it.index()),
                multinomial_from_monomial({mono.data(), mono.size()}))
          << "m=" << m << " n=" << n << " rank=" << it.rank();
    }
  }
}

TEST(Multinomial, PaperWorkedExample) {
  // Paper Sec. III-B.4: index representation [1,2,2,5,5,5,5] (1-based)
  // gives divisor 1! 2! 4!; 0-based here.
  std::vector<index_t> idx = {0, 1, 1, 4, 4, 4, 4};
  EXPECT_EQ(multinomial_from_index({idx.data(), idx.size()}),
            factorial(7) / (factorial(1) * factorial(2) * factorial(4)));
  // And MULTINOMIAL1 dropping one occurrence of index 5 (0-based 4):
  // divisor 1! 2! 3!.
  EXPECT_EQ(multinomial_drop_one({idx.data(), idx.size()}, 4),
            factorial(6) / (factorial(1) * factorial(2) * factorial(3)));
}

TEST(Multinomial, DropOneConsistency) {
  // sigma(j) = C(m-1; ..., k_j - 1, ...) = coeff0 * k_j / m for every class
  // and every distinct index (the identity the paper's Sec. V-C lookup
  // optimization relies on).
  for (const auto& [m, n] : {std::pair{3, 3}, {4, 3}, {4, 5}, {6, 2}}) {
    for (IndexClassIterator it(m, n); !it.done(); it.next()) {
      const auto idx = it.index();
      const auto mono = index_to_monomial(idx, n);
      const auto c0 = multinomial_from_index(idx);
      for (int j = 0; j < n; ++j) {
        if (mono[static_cast<std::size_t>(j)] == 0) continue;
        const auto sigma =
            multinomial_drop_one(idx, static_cast<index_t>(j));
        EXPECT_EQ(sigma * m, c0 * mono[static_cast<std::size_t>(j)])
            << "m=" << m << " n=" << n << " rank=" << it.rank() << " j=" << j;
      }
    }
  }
}

TEST(Multinomial, DropOneRequiresPresence) {
  std::vector<index_t> idx = {0, 0, 2};
  EXPECT_THROW((void)multinomial_drop_one({idx.data(), idx.size()}, 1),
               te::InvalidArgument);
}

TEST(IndexClassIterator, ReproducesPaperTableI) {
  // Table I: the 20 index classes of [m=3, n=4] in lexicographic order,
  // given in both representations (converted to 0-based indices).
  const std::vector<std::vector<index_t>> index_reps = {
      {0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 1, 1},
      {0, 1, 2}, {0, 1, 3}, {0, 2, 2}, {0, 2, 3}, {0, 3, 3},
      {1, 1, 1}, {1, 1, 2}, {1, 1, 3}, {1, 2, 2}, {1, 2, 3},
      {1, 3, 3}, {2, 2, 2}, {2, 2, 3}, {2, 3, 3}, {3, 3, 3}};
  const std::vector<std::vector<index_t>> monomial_reps = {
      {3, 0, 0, 0}, {2, 1, 0, 0}, {2, 0, 1, 0}, {2, 0, 0, 1}, {1, 2, 0, 0},
      {1, 1, 1, 0}, {1, 1, 0, 1}, {1, 0, 2, 0}, {1, 0, 1, 1}, {1, 0, 0, 2},
      {0, 3, 0, 0}, {0, 2, 1, 0}, {0, 2, 0, 1}, {0, 1, 2, 0}, {0, 1, 1, 1},
      {0, 1, 0, 2}, {0, 0, 3, 0}, {0, 0, 2, 1}, {0, 0, 1, 2}, {0, 0, 0, 3}};

  IndexClassIterator it(3, 4);
  for (std::size_t r = 0; r < index_reps.size(); ++r) {
    ASSERT_FALSE(it.done());
    EXPECT_EQ(std::vector<index_t>(it.index().begin(), it.index().end()),
              index_reps[r])
        << "row " << r;
    EXPECT_EQ(index_to_monomial(it.index(), 4), monomial_reps[r])
        << "row " << r;
    EXPECT_EQ(it.rank(), static_cast<offset_t>(r));
    it.next();
  }
  EXPECT_TRUE(it.done());
}

TEST(IndexClassIterator, PaperSuccessorExamples) {
  // Paper Sec. III-B.3: successor of [1,1,1] is [1,1,2]; successor of
  // [2,4,4] is [3,3,3] (1-based; 0-based below).
  IndexClassIterator it(3, 4);
  EXPECT_EQ(std::vector<index_t>(it.index().begin(), it.index().end()),
            (std::vector<index_t>{0, 0, 0}));
  it.next();
  EXPECT_EQ(std::vector<index_t>(it.index().begin(), it.index().end()),
            (std::vector<index_t>{0, 0, 1}));
  while (std::vector<index_t>(it.index().begin(), it.index().end()) !=
         std::vector<index_t>{1, 3, 3}) {
    it.next();
    ASSERT_FALSE(it.done());
  }
  it.next();
  EXPECT_EQ(std::vector<index_t>(it.index().begin(), it.index().end()),
            (std::vector<index_t>{2, 2, 2}));
}

TEST(IndexClassIterator, CountMatchesProperty1) {
  for (int m = 1; m <= 6; ++m) {
    for (int n = 1; n <= 6; ++n) {
      offset_t count = 0;
      for (IndexClassIterator it(m, n); !it.done(); it.next()) ++count;
      EXPECT_EQ(count, num_unique_entries(m, n)) << "m=" << m << " n=" << n;
    }
  }
}

TEST(IndexClassIterator, ClassSizesSumToDenseCount) {
  // Sum over classes of the Property-2 multiplicity must equal n^m.
  for (const auto& [m, n] : {std::pair{3, 2}, {3, 4}, {4, 3}, {5, 2}, {2, 7}}) {
    std::int64_t total = 0;
    for (IndexClassIterator it(m, n); !it.done(); it.next()) {
      total += multinomial_from_index(it.index());
    }
    std::int64_t dense = 1;
    for (int i = 0; i < m; ++i) dense *= n;
    EXPECT_EQ(total, dense) << "m=" << m << " n=" << n;
  }
}

TEST(IndexClassIterator, ResetRestarts) {
  IndexClassIterator it(3, 3);
  it.next();
  it.next();
  it.reset();
  EXPECT_EQ(it.rank(), 0);
  EXPECT_FALSE(it.done());
  EXPECT_EQ(std::vector<index_t>(it.index().begin(), it.index().end()),
            (std::vector<index_t>{0, 0, 0}));
}

TEST(Rank, RoundTripsWithIterator) {
  for (const auto& [m, n] : {std::pair{1, 5}, {3, 4}, {4, 3}, {5, 2}, {2, 8},
                            {6, 4}}) {
    for (IndexClassIterator it(m, n); !it.done(); it.next()) {
      EXPECT_EQ(index_class_rank(it.index(), n), it.rank())
          << "m=" << m << " n=" << n;
      EXPECT_EQ(index_class_unrank(it.rank(), m, n),
                std::vector<index_t>(it.index().begin(), it.index().end()))
          << "m=" << m << " n=" << n << " rank=" << it.rank();
    }
  }
}

TEST(Rank, RejectsInvalidInput) {
  std::vector<index_t> decreasing = {2, 1, 0};
  EXPECT_THROW((void)index_class_rank({decreasing.data(), decreasing.size()}, 3),
               te::InvalidArgument);
  std::vector<index_t> oob = {0, 0, 5};
  EXPECT_THROW((void)index_class_rank({oob.data(), oob.size()}, 3),
               te::InvalidArgument);
  EXPECT_THROW(index_class_unrank(-1, 3, 3), te::InvalidArgument);
  EXPECT_THROW(index_class_unrank(num_unique_entries(3, 3), 3, 3),
               te::InvalidArgument);
}

TEST(MonomialConversion, RoundTrips) {
  for (const auto& [m, n] : {std::pair{3, 4}, {4, 3}, {2, 2}}) {
    for (IndexClassIterator it(m, n); !it.done(); it.next()) {
      const auto mono = index_to_monomial(it.index(), n);
      EXPECT_EQ(std::accumulate(mono.begin(), mono.end(), 0), m);
      EXPECT_EQ(monomial_to_index({mono.data(), mono.size()}),
                std::vector<index_t>(it.index().begin(), it.index().end()));
    }
  }
}

TEST(AllIndexClasses, TableShapeAndContent) {
  const auto table = all_index_classes(4, 3);
  ASSERT_EQ(table.size(), 15u * 4u);
  // Row r must equal the unranked class r.
  for (offset_t r = 0; r < 15; ++r) {
    const auto expect = index_class_unrank(r, 4, 3);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(table[static_cast<std::size_t>(r) * 4 + t],
                expect[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(CountSuffixes, MatchesDefinition) {
  // count_suffixes(len, lo, dim) counts nondecreasing sequences; check by
  // brute force for small cases.
  for (int dim = 1; dim <= 4; ++dim) {
    for (index_t lo = 0; lo < dim; ++lo) {
      // len = 2 brute force.
      std::int64_t brute = 0;
      for (index_t a = lo; a < dim; ++a)
        for (index_t b = a; b < dim; ++b) ++brute, (void)b;
      EXPECT_EQ(count_suffixes(2, lo, dim), brute);
      EXPECT_EQ(count_suffixes(0, lo, dim), 1);
      EXPECT_EQ(count_suffixes(1, lo, dim), dim - lo);
    }
  }
}

// ---------------------------------------------------------------------------
// Capacity precheck (int64 overflow at large (m, n)).

TEST(ShapeFitsOffset, AcceptsPaperScaleAndLargeN) {
  EXPECT_TRUE(comb::shape_fits_offset(3, 3));
  EXPECT_TRUE(comb::shape_fits_offset(4, 6));
  EXPECT_TRUE(comb::shape_fits_offset(3, 1024));
  EXPECT_TRUE(comb::shape_fits_offset(20, 1));
  // n = 10^4: fine through order 5...
  EXPECT_TRUE(comb::shape_fits_offset(5, 10000));
  // ...but order 6 would wrap the int64 rank arithmetic mid-sum.
  EXPECT_FALSE(comb::shape_fits_offset(6, 10000));
}

TEST(ShapeFitsOffset, RejectsInvalidAndOversized) {
  EXPECT_FALSE(comb::shape_fits_offset(0, 5));
  EXPECT_FALSE(comb::shape_fits_offset(3, 0));
  EXPECT_FALSE(comb::shape_fits_offset(21, 2));  // past kMaxFactorialArg
  EXPECT_FALSE(comb::shape_fits_offset(8, 1000000));
}

TEST(CheckedBinomial, MatchesBinomialInRangeAndProbesOverflow) {
  EXPECT_EQ(comb::checked_binomial(10, 3).value(), comb::binomial(10, 3));
  EXPECT_EQ(comb::checked_binomial(5, 7).value(), 0);
  EXPECT_EQ(comb::checked_binomial(10004, 5).value(),
            comb::binomial(10004, 5));
  EXPECT_FALSE(comb::checked_binomial(10005, 6).has_value());
}

TEST(CapacityPrecheck, RankAndUnrankRejectOverflowShapesClearly) {
  std::vector<index_t> idx(6, 9999);
  EXPECT_THROW((void)comb::index_class_rank({idx.data(), idx.size()}, 10000),
               InvalidArgument);
  EXPECT_THROW((void)comb::index_class_unrank(0, 6, 10000), InvalidArgument);
}

TEST(CapacityPrecheck, TensorConstructionRejectsOverflowShape) {
  EXPECT_THROW((SymmetricTensor<double>(6, 10000)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Large-dim rank/unrank round trips.

TEST(LargeDimRank, RoundTripAtTenThousand) {
  const int n = 10000;
  for (const int m : {2, 3, 5}) {
    const offset_t u = comb::num_unique_entries(m, n);
    // First and last ranks.
    for (const offset_t r : {offset_t{0}, u - 1, u / 2, u / 3, offset_t{1}}) {
      const auto idx = comb::index_class_unrank(r, m, n);
      EXPECT_EQ(comb::index_class_rank({idx.data(), idx.size()}, n), r)
          << "m=" << m << " rank=" << r;
    }
    // First class is all-zero, last is all n-1.
    const auto first = comb::index_class_unrank(0, m, n);
    const auto last = comb::index_class_unrank(u - 1, m, n);
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(first[static_cast<std::size_t>(j)], 0);
      EXPECT_EQ(last[static_cast<std::size_t>(j)], n - 1);
    }
  }
}

}  // namespace
}  // namespace te::comb
