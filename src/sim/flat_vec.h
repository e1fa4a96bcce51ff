// Growable flat containers whose growth paths live out of line.
//
// The hot-path symbol audit (tools/mpr_analyze.py, pass `hotpath`) checks
// that the *emitted* code of the event-dispatch and packet-path functions
// contains no allocation calls. std::vector/std::deque/std::map break that
// property unpredictably: at -O2 the compiler sometimes inlines the whole
// reallocation path — operator new, copy, operator delete — straight into
// push_back's caller, dragging a cold slab of code into the hot function's
// icache footprint and making "allocation-free" depend on inliner mood.
//
// These containers pin the structure instead: the fast path is a bounds
// check plus a store, and every allocation lives in a
// [[gnu::noinline, gnu::cold]] grow() the caller merely *calls*. Amortized
// growth still happens (pools and queues size themselves to their
// high-water mark); it just can never be inlined back into audited code.
// One container per shape, shared by sim, net, tcp and core:
//
//   container      shape                              users
//   -------------  ---------------------------------  ----------------------
//   FlatVec<T>     contiguous vector of trivially     heap records, slot
//                  copyable records;                  metadata, free lists,
//                  push_back_unchecked for callers    OFO samples
//                  that keep a capacity invariant
//   FlatRing<T>    power-of-two FIFO ring of          queue disciplines
//                  move-only payloads                 holding PacketPtr
//   FlatDeque<T>   FlatVec window [head, size):       MPTCP reinjection and
//                  O(1) amortized pop_front with      duplicate queues
//                  lazy compaction, indexed access,
//                  interior insert/erase shift the
//                  tail
//   SeqFlatMap<T>  FlatDeque of (seq, value) records  TCP send window and
//                  sorted by seq: binary search,      out-of-order store,
//                  append at the back, retire from    MPTCP reorder buffer
//                  the front                          and reinjected DSNs
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace mpr::sim {

template <typename T>
class FlatVec {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "FlatVec is for flat records; use FlatRing for owning payloads");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  FlatVec() = default;
  FlatVec(FlatVec&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        size_{std::exchange(other.size_, 0)},
        cap_{std::exchange(other.cap_, 0)} {}
  FlatVec& operator=(FlatVec&& other) noexcept {
    if (this != &other) {
      dealloc();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  FlatVec(const FlatVec&) = delete;
  FlatVec& operator=(const FlatVec&) = delete;
  ~FlatVec() { dealloc(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) [[unlikely]] {
      grow(size_ + 1);
    }
    data_[size_++] = v;
  }

  /// Appends without the growth branch. The caller owns the proof that
  /// capacity suffices (debug-asserted): e.g. a freelist reserved to the
  /// size of the storage it indexes can never overflow.
  void push_back_unchecked(const T& v) {
    assert(size_ < cap_ && "FlatVec::push_back_unchecked: capacity invariant violated");
    data_[size_++] = v;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  /// Drops every element past the first `n` (n <= size).
  void truncate(std::size_t n) {
    assert(n <= size_);
    size_ = n;
  }

  /// Ensures capacity >= n (geometric, so repeated reserve(n+1) stays
  /// amortized-constant like push_back).
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  /// Ensures capacity >= n, allocating exactly n when it grows: for callers
  /// with their own growth policy (a capture's fixed chunks, a size hint).
  void reserve_exact(std::size_t n) {
    if (n > cap_) reallocate(n);
  }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  void swap(FlatVec& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(cap_, other.cap_);
  }

 private:
  // Growth is deliberately out of line and cold so it can never be inlined
  // into an audited hot function; reallocate() holds the class's only
  // allocation.
  [[gnu::noinline, gnu::cold]] void grow(std::size_t need) {
    std::size_t cap = cap_ == 0 ? kMinCapacity : cap_;
    while (cap < need) cap *= 2;
    reallocate(cap);
  }

  [[gnu::noinline, gnu::cold]] void reallocate(std::size_t cap) {
    T* data = std::allocator<T>().allocate(cap);
    if (size_ != 0) std::memcpy(data, data_, size_ * sizeof(T));
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
    data_ = data;
    cap_ = cap;
  }

  void dealloc() {
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
  }

  static constexpr std::size_t kMinCapacity = 16;

  T* data_{nullptr};
  std::size_t size_{0};
  std::size_t cap_{0};
};

template <typename T>
class FlatRing {
 public:
  FlatRing() = default;
  FlatRing(FlatRing&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        head_{std::exchange(other.head_, 0)},
        size_{std::exchange(other.size_, 0)},
        cap_{std::exchange(other.cap_, 0)} {}
  FlatRing& operator=(FlatRing&& other) noexcept {
    if (this != &other) {
      destroy_all();
      data_ = std::exchange(other.data_, nullptr);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  FlatRing(const FlatRing&) = delete;
  FlatRing& operator=(const FlatRing&) = delete;
  ~FlatRing() { destroy_all(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push_back(T v) {
    if (size_ == cap_) [[unlikely]] {
      grow();
    }
    ::new (static_cast<void*>(slot(head_ + size_))) T(std::move(v));
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return *slot(head_);
  }

  T pop_front() {
    assert(size_ > 0);
    T* p = slot(head_);
    T v = std::move(*p);
    p->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return v;
  }

  void clear() { destroy_elements(); }

 private:
  [[nodiscard]] T* slot(std::size_t logical) {
    return data_ + (logical & (cap_ - 1));
  }

  // The only allocation, out of line and cold (see FlatVec::grow). Elements
  // are compacted to the front of the new buffer, preserving FIFO order.
  [[gnu::noinline, gnu::cold]] void grow() {
    const std::size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* data = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* p = slot(head_ + i);
      ::new (static_cast<void*>(data + i)) T(std::move(*p));
      p->~T();
    }
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
    data_ = data;
    head_ = 0;
    cap_ = cap;
  }

  void destroy_elements() {
    for (std::size_t i = 0; i < size_; ++i) {
      slot(head_ + i)->~T();
    }
    head_ = 0;
    size_ = 0;
  }

  void destroy_all() {
    destroy_elements();
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
  }

  static constexpr std::size_t kMinCapacity = 16;  // power of two (ring mask)

  T* data_{nullptr};
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t cap_{0};
};

template <typename T>
class FlatDeque {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "FlatDeque is for flat records");

 public:
  using iterator = T*;

  [[nodiscard]] std::size_t size() const { return vec_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == vec_.size(); }

  [[nodiscard]] T& operator[](std::size_t i) { return vec_[head_ + i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return vec_[head_ + i]; }
  [[nodiscard]] T& front() { return vec_[head_]; }
  [[nodiscard]] const T& front() const { return vec_[head_]; }
  [[nodiscard]] T& back() { return vec_.back(); }

  void push_back(const T& v) { vec_.push_back(v); }

  /// Inserts `v` before the i-th element (i <= size()), shifting the tail.
  /// By value: `v` may alias an element the growth path would free.
  void insert_at(std::size_t i, T v) {
    assert(i <= size());
    vec_.push_back(v);  // the only growth point, out of line in FlatVec
    T* pos = begin() + i;
    std::copy_backward(pos, end() - 1, end());
    *pos = v;
  }

  void pop_front() { pop_front(1); }

  /// Drops the first `n` elements (n <= size()).
  void pop_front(std::size_t n) {
    assert(n <= size());
    head_ += n;
    if (head_ == vec_.size()) {
      clear();
    } else if (head_ >= kCompactAt && head_ * 2 >= vec_.size()) {
      // Lazy compaction keeps memory bounded at 2x the live window while
      // staying amortized O(1): a compact moves at most as many elements
      // as the pops since the last one. A memmove, never an allocation.
      std::copy(vec_.begin() + head_, vec_.end(), vec_.begin());
      vec_.truncate(vec_.size() - head_);
      head_ = 0;
    }
  }

  iterator begin() { return vec_.begin() + head_; }
  iterator end() { return vec_.end(); }

  /// Removes *it; returns an iterator to the element after it. Shifts the
  /// tail left (the windows here hold a handful of records).
  iterator erase(iterator it) {
    assert(begin() <= it && it < end());
    std::copy(it + 1, end(), it);
    vec_.pop_back();
    return it;
  }

  void clear() {
    vec_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 16;

  FlatVec<T> vec_;
  std::size_t head_{0};
};

/// Records sorted by strictly increasing seq. Sequence tables grow at the
/// back (the send window at snd_nxt, arrivals past the newest hole) and
/// shrink from the front (cumulative acks, in-order drains), so both ends
/// are O(1); a sparse interior insert shifts the tail.
template <typename T>
class SeqFlatMap {
 public:
  struct Rec {
    std::uint64_t seq{0};
    T val{};
  };

  [[nodiscard]] bool empty() const { return recs_.empty(); }
  [[nodiscard]] std::size_t size() const { return recs_.size(); }

  /// i-th record in sequence order (0 = lowest seq).
  [[nodiscard]] Rec& at(std::size_t i) {
    assert(i < size());
    return recs_[i];
  }
  [[nodiscard]] const Rec& at(std::size_t i) const {
    assert(i < size());
    return recs_[i];
  }
  [[nodiscard]] Rec& front() { return recs_.front(); }
  [[nodiscard]] Rec& back() { return recs_.back(); }

  /// Appends a record; `seq` must exceed every stored seq.
  void push_back(std::uint64_t seq, const T& val) {
    assert(empty() || seq > back().seq);
    recs_.push_back(Rec{seq, val});
  }

  /// Inserts (seq -> val); keeps the existing entry if `seq` is present.
  void insert(std::uint64_t seq, const T& val) {
    const std::size_t i = lower_bound(seq);
    if (i < size() && recs_[i].seq == seq) return;
    recs_.insert_at(i, Rec{seq, val});
  }

  /// Removes the lowest-seq record.
  void pop_front() { recs_.pop_front(); }

  /// Removes every record with rec.seq < seq (cumulative-ack sweep).
  void erase_below(std::uint64_t seq) { recs_.pop_front(lower_bound(seq)); }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const std::size_t i = lower_bound(seq);
    return i < size() && recs_[i].seq == seq;
  }

  /// Value stored at exactly `seq`; nullptr if absent.
  [[nodiscard]] T* find(std::uint64_t seq) {
    const std::size_t i = lower_bound(seq);
    if (i == size() || recs_[i].seq != seq) return nullptr;
    return &recs_[i].val;
  }

  /// Index of the first record with rec.seq >= seq (size() if none).
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    std::size_t lo = 0;
    std::size_t hi = size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (recs_[mid].seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  FlatDeque<Rec> recs_;
};

}  // namespace mpr::sim
