// Fixed-capacity FIFO ring queue.
//
// Models every hardware queue in FireGuard: the filter's paired FIFOs, the
// CDC FIFOs, the µcores' message queues, the ROB-side structures. Capacity is
// a run-time parameter because the paper sweeps queue sizes.
#pragma once

#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace fg {

template <typename T>
class RingQueue {
 public:
  explicit RingQueue(size_t capacity) : buf_(capacity) { FG_CHECK(capacity > 0); }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buf_.size(); }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  size_t free_slots() const { return buf_.size() - size_; }

  /// Push to the tail. Caller must check !full() (hardware would stall).
  void push(const T& v) {
    FG_CHECK(!full());
    buf_[tail_] = v;
    tail_ = advance(tail_);
    ++size_;
  }

  /// Allocate the tail slot in place and return it (avoids copying large
  /// elements through push). The slot holds the stale previous occupant;
  /// the caller must assign every field. Caller must check !full().
  T& push_slot() {
    FG_CHECK(!full());
    T& slot = buf_[tail_];
    tail_ = advance(tail_);
    ++size_;
    return slot;
  }

  /// Pop from the head.
  T pop() {
    FG_CHECK(!empty());
    T v = buf_[head_];
    head_ = advance(head_);
    --size_;
    return v;
  }

  const T& front() const {
    FG_CHECK(!empty());
    return buf_[head_];
  }

  T& front() {
    FG_CHECK(!empty());
    return buf_[head_];
  }

  /// Element i positions behind the head (0 == front).
  const T& at(size_t i) const {
    FG_CHECK(i < size_);
    const size_t j = head_ + i;  // < 2 * capacity: one compare wraps it
    return buf_[j < buf_.size() ? j : j - buf_.size()];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  size_t advance(size_t p) const { return (p + 1 == buf_.size()) ? 0 : p + 1; }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
};

}  // namespace fg
