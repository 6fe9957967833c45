#pragma once
// Multi-threaded route verification. The paper verifies 779M routes on a
// dual-64-core machine (§5). Routes from different vantage points to one
// prefix share their tails toward the origin, so most hop checks repeat: a
// hop's verdict is a pure function of (prefix, path suffix from the
// importer to the origin). The engine groups the routes by prefix, builds
// each group's reversed-path trie, checks each trie node's hop once, and
// copies the verdicts to every route through the node. Workers claim runs
// of prefix groups; one thread is the same code with one worker.
//
// The grouping holds only while Verifier::check reads nothing of a route
// but its prefix and the announced path (see verifier.hpp). A check that
// reads more of bgp::Route silently gives routes a sibling's verdict.
//
// All workers share one const Verifier over a CompiledPolicySnapshot: the
// snapshot is immutable, so there is no prewarm step and no per-thread
// cache. A caller holding an Rpslyzer passes lyzer.snapshot().

#include <memory>
#include <vector>

#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer::verify {

/// Verify `routes[i]` for every i, in order, against `snapshot`;
/// results[i] matches what a serial Verifier::verify_route(routes[i])
/// returns. `threads` = 0 uses the hardware concurrency.
std::vector<std::vector<HopCheck>> verify_routes_parallel(
    std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot,
    const std::vector<bgp::Route>& routes, VerifyOptions options = {},
    unsigned threads = 0);

}  // namespace rpslyzer::verify
