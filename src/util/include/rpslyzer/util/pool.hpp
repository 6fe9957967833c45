#pragma once
// The one spawn/join loop. The IRR loader's read-ahead and shard parse and
// the route verifier's prefix groups all run on it: the calling thread is
// one of the workers, and every worker pulls its items off a shared cursor
// that the caller owns.

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace rpslyzer::util {

/// `threads`, or the hardware concurrency (at least 1) when it is 0.
inline unsigned resolve_threads(unsigned threads) {
  return threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads;
}

/// Run `work(t)` for every t in [0, workers) on `workers` threads, the
/// calling thread being worker 0 (it also runs alone when `workers` is 0).
/// `work` keeps each item's failure in that item's result slot; the
/// jthreads join even if the calling thread's share throws.
template <typename Work>
void run_on_pool(std::size_t workers, const Work& work) {
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work, t);
  work(std::size_t{0});
}

}  // namespace rpslyzer::util
