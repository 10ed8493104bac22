// Global simulation-scheduling controls.
//
// The SoC main loop and the bare-core `run_to_end` default to the
// event-driven scheduler (skip provably dead cycles in bulk, bit-identical
// results). `FG_CYCLE_EXACT=1` in the environment — or set_cycle_exact(true)
// from a test — forces the historical one-cycle-at-a-time loop, which is the
// reference the differential suite compares the event-driven path against.
#pragma once

#include <atomic>
#include <cstdlib>

#include "src/common/types.h"

namespace fg {

/// Horizon sentinel: no event will ever occur on this component again.
inline constexpr Cycle kNoEvent = ~Cycle{0};

namespace detail {
inline std::atomic<int>& cycle_exact_flag() {
  // -1 = uninitialised (read FG_CYCLE_EXACT on first use), 0/1 = forced.
  static std::atomic<int> flag{-1};
  return flag;
}
}  // namespace detail

/// True when the one-cycle-at-a-time reference loop is forced.
inline bool cycle_exact() {
  int v = detail::cycle_exact_flag().load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("FG_CYCLE_EXACT");
    v = (e != nullptr && *e != '\0' && *e != '0') ? 1 : 0;
    detail::cycle_exact_flag().store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

/// Test hook: force or release the cycle-exact reference loop.
inline void set_cycle_exact(bool exact) {
  detail::cycle_exact_flag().store(exact ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace fg
