#pragma once
// The one retry ladder: capped exponential backoff with deterministic
// jitter. The server's reload retries and the replication edge's
// reconnects both schedule by it; the edge perturbs its seed with
// kReconnectStream so an edge daemon running both never retries its origin
// and its local reload in phase.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "rpslyzer/util/rand.hpp"

namespace rpslyzer::util {

/// Seed perturbation of the edge's reconnect ladder ("repl.req").
inline constexpr std::uint64_t kReconnectStream = 0x7265706c2e726571ULL;

/// Deterministic capped exponential backoff with multiplicative jitter in
/// [0.75, 1.25]·step: attempt 0 ≈ initial, doubling up to `max_backoff`,
/// never below 1ms. Pure in (attempt, initial, max_backoff, seed), so a
/// whole retry schedule is unit-testable without a clock.
inline std::chrono::milliseconds backoff(unsigned attempt,
                                         std::chrono::milliseconds initial,
                                         std::chrono::milliseconds max_backoff,
                                         std::uint64_t seed) noexcept {
  if (initial.count() <= 0) initial = std::chrono::milliseconds(1);
  if (max_backoff < initial) max_backoff = initial;
  const std::uint64_t cap = static_cast<std::uint64_t>(max_backoff.count());
  std::uint64_t base = static_cast<std::uint64_t>(initial.count());
  for (unsigned i = 0; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  const std::uint64_t z = splitmix64_at(seed, static_cast<std::uint64_t>(attempt));
  const std::uint64_t jittered = base * (750 + z % 501) / 1000;
  return std::chrono::milliseconds(std::clamp<std::uint64_t>(jittered, 1, cap));
}

}  // namespace rpslyzer::util
