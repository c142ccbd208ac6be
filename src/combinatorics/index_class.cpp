#include "te/comb/index_class.hpp"

namespace te::comb {

std::vector<index_t> index_to_monomial(std::span<const index_t> index_rep,
                                       int dim) {
  TE_REQUIRE(is_index_rep(index_rep, dim), "invalid index representation");
  std::vector<index_t> mono(static_cast<std::size_t>(dim), 0);
  for (index_t i : index_rep) ++mono[static_cast<std::size_t>(i)];
  return mono;
}

std::vector<index_t> monomial_to_index(std::span<const index_t> monomial) {
  std::vector<index_t> idx;
  for (std::size_t i = 0; i < monomial.size(); ++i) {
    TE_REQUIRE(monomial[i] >= 0, "monomial entries must be nonnegative");
    for (index_t r = 0; r < monomial[i]; ++r)
      idx.push_back(static_cast<index_t>(i));
  }
  return idx;
}

bool is_index_rep(std::span<const index_t> index_rep, int dim) {
  index_t prev = 0;
  for (index_t i : index_rep) {
    if (i < prev || i >= dim) return false;
    prev = i;
  }
  return !index_rep.empty();
}

offset_t index_class_rank(std::span<const index_t> index_rep, int dim) {
  TE_REQUIRE(is_index_rep(index_rep, dim), "invalid index representation");
  const int m = static_cast<int>(index_rep.size());
  TE_REQUIRE(shape_fits_offset(m, dim),
             "index_class_rank: shape [order=" << m << ", dim=" << dim
                 << "] exceeds 64-bit offset capacity (rank arithmetic "
                    "would overflow); reduce order or dim");
  // Count classes strictly preceding index_rep: for each position j, classes
  // sharing the prefix index_rep[0..j) whose j-th index v is smaller. The
  // remaining m-j-1 positions may then be any nondecreasing sequence over
  // [v, dim).
  offset_t rank = 0;
  index_t lo = 0;
  for (int j = 0; j < m; ++j) {
    for (index_t v = lo; v < index_rep[j]; ++v) {
      rank += count_suffixes(m - j - 1, v, dim);
    }
    lo = index_rep[j];
  }
  return rank;
}

std::vector<index_t> index_class_unrank(offset_t rank, int order, int dim) {
  TE_REQUIRE(order >= 1 && dim >= 1, "order and dim must be positive");
  TE_REQUIRE(shape_fits_offset(order, dim),
             "index_class_unrank: shape [order=" << order << ", dim=" << dim
                 << "] exceeds 64-bit offset capacity (rank arithmetic "
                    "would overflow); reduce order or dim");
  TE_REQUIRE(rank >= 0 && rank < num_unique_entries(order, dim),
             "rank " << rank << " out of range");
  std::vector<index_t> idx(static_cast<std::size_t>(order));
  index_t lo = 0;
  for (int j = 0; j < order; ++j) {
    index_t v = lo;
    for (;;) {
      const offset_t block = count_suffixes(order - j - 1, v, dim);
      if (rank < block) break;
      rank -= block;
      ++v;
      TE_ASSERT(v < dim);
    }
    idx[static_cast<std::size_t>(j)] = v;
    lo = v;
  }
  return idx;
}

IndexClassIterator::IndexClassIterator(int order, int dim)
    : order_(order), dim_(dim) {
  TE_REQUIRE(order >= 1 && dim >= 1, "order and dim must be positive");
  TE_REQUIRE(order <= kMaxFactorialArg,
             "order exceeds the iterator's inline capacity");
  index_.fill(0);
}

void IndexClassIterator::next() {
  TE_ASSERT(!done_);
  // Paper Fig. 4: find the least significant index != n-1, increment it and
  // propagate its new value to all less significant positions.
  int j = order_ - 1;
  while (j >= 0 && index_[static_cast<std::size_t>(j)] == dim_ - 1) --j;
  if (j < 0) {
    done_ = true;  // was the last class [n-1, ..., n-1]
    return;
  }
  const index_t v = ++index_[static_cast<std::size_t>(j)];
  for (int k = j + 1; k < order_; ++k) index_[static_cast<std::size_t>(k)] = v;
  ++rank_;
}

void IndexClassIterator::reset() {
  index_.fill(0);
  rank_ = 0;
  done_ = false;
}

std::vector<index_t> all_index_classes(int order, int dim) {
  const offset_t u = num_unique_entries(order, dim);
  std::vector<index_t> table;
  table.reserve(static_cast<std::size_t>(u) * order);
  for (IndexClassIterator it(order, dim); !it.done(); it.next()) {
    const auto idx = it.index();
    table.insert(table.end(), idx.begin(), idx.end());
  }
  TE_ASSERT(static_cast<offset_t>(table.size()) == u * order);
  return table;
}

}  // namespace te::comb
