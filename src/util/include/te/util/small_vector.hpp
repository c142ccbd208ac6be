#pragma once
// A vector of trivially copyable values that keeps up to N of them inline.
//
// SS-HOPM's iterate lives in R^n with n = 3 for the paper's DW-MRI
// application, and a volume-scale batch holds one iterate per (tensor,
// start). A std::vector there costs a separate heap block per run; this
// type keeps short iterates inside the record and spills to the heap only
// above N. It offers the subset of the std::vector interface that the
// iterate's readers use: data/size/empty, indexing, contiguous iteration
// (so std::span binds to it), assign, resize and equality (with another
// SmallVector or any contiguous run of T).
//
// The record is the N entries plus a 32-bit length and nothing else: a
// vector is on the heap exactly when its length exceeds N, and then its
// inline bytes hold the heap block's address (through memcpy, so the type
// aligns as T). SmallVector<float, 4> is 20 bytes.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <type_traits>

#include "te/util/assert.hpp"

namespace te {

template <class T, std::size_t N>
  requires std::is_trivially_copyable_v<T> && (N > 0)
class SmallVector {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept {}
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~SmallVector() { release(); }

  /// Replace the contents with [first, last). Reuses the current storage
  /// when the length class is unchanged: inline stays inline, and a heap
  /// block is kept for a new contents of exactly its length.
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n <= N && !on_heap()) {
      // Element by element, so assigning a vector's own range is safe.
      T* out = inline_;
      for (; first != last; ++first, ++out) *out = *first;
    } else if (n > N && n == size_) {
      T* out = heap();
      for (; first != last; ++first, ++out) *out = *first;
    } else {
      // The length class or the heap length changes: build the new
      // contents before the old block (which may be the source) goes.
      T* fresh = n > N ? allocate(n) : nullptr;
      T* old = on_heap() ? heap() : nullptr;
      if (fresh != nullptr) {
        std::copy(first, last, fresh);
        set_heap(fresh);
      } else {
        std::copy(first, last, inline_);  // overwrites the old address
      }
      delete[] old;
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Grow or shrink to n entries; new entries are value-initialized.
  void resize(std::size_t n) {
    const std::size_t kept = std::min<std::size_t>(n, size_);
    if ((n > N) != on_heap() || (n > N && n != size_)) {
      T* fresh = n > N ? allocate(n) : inline_;
      T* old = on_heap() ? heap() : nullptr;
      if (old != nullptr) {
        std::copy(old, old + kept, fresh);
      } else if (fresh != inline_) {
        std::copy(inline_, inline_ + kept, fresh);
      }
      if (fresh != inline_) set_heap(fresh);
      delete[] old;
    }
    size_ = static_cast<std::uint32_t>(n);
    std::fill(data() + kept, data() + n, T());
  }

  [[nodiscard]] T* data() noexcept { return on_heap() ? heap() : inline_; }
  [[nodiscard]] const T* data() const noexcept {
    return on_heap() ? heap() : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Entries that fit without reallocating: N while inline, the length on
  /// the heap.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return on_heap() ? size_ : N;
  }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Against any contiguous run of T (a std::vector, an array, a span).
  friend bool operator==(const SmallVector& a, std::span<const T> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static_assert(sizeof(T[N]) >= sizeof(T*),
                "the inline entries must have room for the heap pointer");

  /// On the heap exactly when longer than N: no capacity is stored.
  [[nodiscard]] bool on_heap() const noexcept { return size_ > N; }

  /// The heap block's address, kept in the inline bytes.
  [[nodiscard]] T* heap() const noexcept {
    T* p;
    std::memcpy(&p, inline_, sizeof p);
    return p;
  }
  void set_heap(T* p) noexcept { std::memcpy(inline_, &p, sizeof p); }

  static T* allocate(std::size_t n) {
    TE_REQUIRE(n <= UINT32_MAX, "SmallVector length " << n << " too large");
    return new T[n];
  }

  void release() noexcept {
    if (on_heap()) delete[] heap();
    size_ = 0;
  }

  /// Move other's contents here (this must hold nothing) and leave other
  /// empty and inline. A heap block moves as its pointer bytes.
  void take(SmallVector& other) noexcept {
    const std::size_t bytes =
        other.on_heap() ? sizeof(T*) : other.size_ * sizeof(T);
    std::memcpy(inline_, other.inline_, bytes);
    size_ = other.size_;
    other.size_ = 0;
  }

  T inline_[N] = {};  ///< the entries, or the heap block's address
  std::uint32_t size_ = 0;
};

}  // namespace te
