// Fixed-capacity vector with inline storage, for small bounded collections
// on the packet hot path (e.g. a TCP segment's SACK blocks: real option
// space caps them at 3-4, so a heap-backed std::vector was pure overhead —
// and an allocation per ACK carrying SACK information).
//
// Restricted to trivially copyable element types so moves and clears are
// trivial; capacity overflow is a debug assert.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>

namespace mpr::sim {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(N > 0);
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "InlineVec is for small trivially-copyable records");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr InlineVec() = default;

  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() { return N; }

  constexpr void clear() { size_ = 0; }

  /// Appends `v`; overflowing the inline capacity is a programming error
  /// (debug assert).
  constexpr void push_back(const T& v) {
    assert(size_ < N && "InlineVec capacity overflow");
    if (size_ < N) data_[size_++] = v;
  }

  constexpr T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  constexpr const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  constexpr T& front() { return (*this)[0]; }
  constexpr const T& front() const { return (*this)[0]; }
  constexpr T& back() { return (*this)[size_ - 1]; }
  constexpr const T& back() const { return (*this)[size_ - 1]; }

  constexpr iterator begin() { return data_; }
  constexpr iterator end() { return data_ + size_; }
  constexpr const_iterator begin() const { return data_; }
  constexpr const_iterator end() const { return data_ + size_; }

  friend constexpr bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  T data_[N]{};
  std::size_t size_{0};
};

}  // namespace mpr::sim
