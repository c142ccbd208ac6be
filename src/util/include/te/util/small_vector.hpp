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

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
  /// when it is large enough.
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > cap_) {
      T* fresh = allocate(n);
      std::copy(first, last, fresh);
      release();
      heap_ = fresh;
      cap_ = static_cast<std::uint32_t>(n);
    } else {
      // Element by element, so assigning a vector's own range is safe.
      T* out = data();
      for (; first != last; ++first, ++out) *out = *first;
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Grow or shrink to n entries; new entries are value-initialized.
  void resize(std::size_t n) {
    const std::size_t kept = std::min<std::size_t>(n, size_);
    if (n > cap_) {
      T* fresh = allocate(n);
      std::copy(begin(), begin() + kept, fresh);
      release();
      heap_ = fresh;
      cap_ = static_cast<std::uint32_t>(n);
    }
    std::fill(data() + kept, data() + n, T());
    size_ = static_cast<std::uint32_t>(n);
  }

  [[nodiscard]] T* data() noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const T* data() const noexcept {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Entries that fit without reallocating: N while inline.
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

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
  [[nodiscard]] bool on_heap() const noexcept { return cap_ > N; }

  static T* allocate(std::size_t n) {
    TE_REQUIRE(n <= UINT32_MAX, "SmallVector length " << n << " too large");
    return new T[n];
  }

  void release() noexcept {
    if (on_heap()) delete[] heap_;
    cap_ = static_cast<std::uint32_t>(N);
    size_ = 0;
  }

  /// Move other's contents here (this must hold nothing) and leave other
  /// empty and inline.
  void take(SmallVector& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      cap_ = other.cap_;
    } else {
      std::copy(other.inline_, other.inline_ + other.size_, inline_);
    }
    size_ = other.size_;
    other.cap_ = static_cast<std::uint32_t>(N);
    other.size_ = 0;
  }

  union {
    T inline_[N] = {};
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = static_cast<std::uint32_t>(N);
};

}  // namespace te
