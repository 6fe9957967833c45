#pragma once
// The paper's symbolic Cartesian-product AS-path matcher (Appendix B),
// kept beside the benches: bench/ablation_matching times it against the
// predicate-NFA engine, and tests/aspath_engine_test and
// tests/aspath_fuzz_test hold the three engines to one verdict. Built into
// those binaries from this directory, not into rpslyzer_aspath.

#include <cstddef>

#include "rpslyzer/aspath/engine.hpp"

namespace rpslyzer::aspath {

/// Replace each AS token with a symbol, convert each path ASN to its set of
/// matching symbols, enumerate the Cartesian product of symbol strings, and
/// match each string. Exponential in the worst case: `budget` caps the
/// number of symbol strings enumerated; kUnsupported when exceeded.
RegexMatch match_symbolic(const ir::AsPathRegex& regex, const MatchEnv& env,
                          std::size_t budget = 1u << 16);

}  // namespace rpslyzer::aspath
