// Deterministic data-parallel loops on top of the shared thread pool.
//
// parallel_for(begin, end, body) runs body(i) for every index exactly once,
// with the calling thread participating alongside the pool workers. Because
// each index writes only to its own output slot, the result of a
// parallel_for is a pure function of the per-index computation — identical
// for any thread count or schedule. This is the property the determinism
// suite (tests/runtime/test_determinism.cpp) pins down.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace rfmix::runtime {

/// Run body(i) for i in [begin, end) on ThreadPool::current(); blocks until
/// every index completed. Lanes claim one index at a time from a shared
/// counter. Safe to call from inside a pool worker (the caller claims
/// indices too, so nesting cannot deadlock) and equivalent to a plain serial
/// loop when the pool has no workers. If any body throws, the loop drains
/// and the first captured exception is rethrown here.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Ordered map: out[i] = fn(i). The output type must be default- and
/// move-constructible; slots are written in place, so the result is
/// bit-identical to the serial loop at any thread count.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace rfmix::runtime
