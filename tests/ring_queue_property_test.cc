// Model-based property tests for the RingQueue: randomized operation
// sequences checked against a std::deque reference, with explicit coverage
// of wrap-around at capacity and of the push_slot / clear paths the PR-3
// hot-loop rewrite leaned on.
#include <gtest/gtest.h>

#include <deque>

#include "src/common/ring_queue.h"
#include "src/common/rng.h"

namespace fg {
namespace {

TEST(RingQueueProperty, RandomOpsMatchDequeModel) {
  for (const size_t cap : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                           size_t{16}, size_t{64}}) {
    RingQueue<u64> q(cap);
    std::deque<u64> model;
    Rng rng(0xfeed0000 + cap);
    u64 next_val = 1;
    for (int step = 0; step < 20'000; ++step) {
      const u64 op = rng.below(100);
      if (op < 45) {  // push (via push or push_slot, both must model-match)
        ASSERT_EQ(q.full(), model.size() == cap);
        if (!q.full()) {
          if (rng.chance(0.5)) {
            q.push(next_val);
          } else {
            q.push_slot() = next_val;
          }
          model.push_back(next_val++);
        }
      } else if (op < 85) {  // pop
        ASSERT_EQ(q.empty(), model.empty());
        if (!q.empty()) {
          ASSERT_EQ(q.pop(), model.front());
          model.pop_front();
        }
      } else if (op < 90) {  // front
        if (!q.empty()) {
          ASSERT_EQ(q.front(), model.front());
        }
      } else if (op < 98) {  // random at()
        if (!q.empty()) {
          const size_t i = rng.below(model.size());
          ASSERT_EQ(q.at(i), model[i]);
        }
      } else {  // occasional clear
        q.clear();
        model.clear();
      }
      // O(1) occupancy counters stay exact through every operation mix.
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.capacity(), cap);
      ASSERT_EQ(q.free_slots(), cap - model.size());
      ASSERT_EQ(q.empty(), model.empty());
      ASSERT_EQ(q.full(), model.size() == cap);
    }
  }
}

/// Drive head/tail through many full wrap-arounds at exact capacity: fill
/// completely, drain completely, repeatedly, with the boundary offset by one
/// each round so every physical slot plays head and tail.
TEST(RingQueueProperty, WrapAroundAtCapacityPreservesFifoOrder) {
  constexpr size_t kCap = 5;
  RingQueue<u64> q(kCap);
  u64 in = 0;
  u64 out = 0;
  for (int round = 0; round < 50; ++round) {
    // Offset the ring pointers by one half-push/pop per round.
    q.push(in++);
    ASSERT_EQ(q.pop(), out++);
    while (!q.full()) q.push(in++);
    ASSERT_EQ(q.size(), kCap);
    ASSERT_EQ(q.free_slots(), 0u);
    // at() must see the same order a full drain produces.
    for (size_t i = 0; i < kCap; ++i) ASSERT_EQ(q.at(i), out + i);
    while (!q.empty()) ASSERT_EQ(q.pop(), out++);
    ASSERT_EQ(q.free_slots(), kCap);
  }
  ASSERT_EQ(in, out);
}

/// push_slot hands back the stale slot for in-place assignment; after a full
/// wrap the slot recycles an old element and the caller's overwrite must be
/// what pop returns.
TEST(RingQueueProperty, PushSlotRecyclesStaleSlotsAfterWrap) {
  RingQueue<u64> q(3);
  q.push(10);
  q.push(11);
  q.push(12);
  ASSERT_EQ(q.pop(), 10u);
  u64& slot = q.push_slot();  // physically the slot `10` lived in
  slot = 99;
  ASSERT_EQ(q.pop(), 11u);
  ASSERT_EQ(q.pop(), 12u);
  ASSERT_EQ(q.pop(), 99u);
  ASSERT_TRUE(q.empty());
}

TEST(RingQueueProperty, ClearResetsToPristine) {
  RingQueue<u64> q(4);
  q.push(1);
  q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.free_slots(), 4u);
  // Still fully usable after clear, across the old head/tail positions.
  for (u64 v = 0; v < 4; ++v) q.push(v);
  EXPECT_TRUE(q.full());
  for (u64 v = 0; v < 4; ++v) EXPECT_EQ(q.pop(), v);
}

/// at(i) wraps with a compare: every index of a queue whose contents
/// straddle the end of the buffer must read the right element, for every
/// head position.
TEST(RingQueueProperty, AtIndexesAcrossWraparound) {
  for (const size_t cap : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    for (size_t head = 0; head < cap; ++head) {
      RingQueue<u64> q(cap);
      for (size_t i = 0; i < head; ++i) q.push(0);
      for (size_t i = 0; i < head; ++i) q.pop();  // head and tail at `head`
      for (size_t i = 0; i < cap; ++i) q.push(100 + i);
      for (size_t i = 0; i < cap; ++i) {
        ASSERT_EQ(q.at(i), 100 + i) << "cap " << cap << " head " << head;
      }
    }
  }
}

}  // namespace
}  // namespace fg
