#pragma once
// AS-path regex evaluation (paper Appendix B, "AS-Path Regex Matching").
//
// Two interchangeable engines are provided:
//
//  * NFA engine (the default): compiles the token regex into a Thompson NFA
//    whose edges carry AS predicates. Equivalent to the paper's symbolic
//    construction but never materializes symbol strings, so matching is
//    O(path × states).
//  * Backtracking engine: a direct AST interpreter. Slower, but supports
//    the "same pattern" unary postfix operators (~*, ~+) that no finite
//    NFA over AS predicates can express; also serves as the reference in
//    engine-equivalence property tests.
//
// The paper's literal symbolic construction (Cartesian product of symbol
// strings) lives in bench/symbolic.hpp: only the matching ablation and the
// engine-equivalence tests use it.
//
// Matching semantics: POSIX-style *search* — the regex may match any
// substring of the AS path unless anchored with '^' (path start: the
// neighbor the route was received from) and '$' (path end: the origin AS).

#include <memory>
#include <span>
#include <string_view>

#include "rpslyzer/ir/aspath_regex.hpp"

namespace rpslyzer::aspath {

using ir::Asn;

/// Resolves as-set membership for regex tokens that name sets. Implemented
/// by the IRR index; a null membership treats every set as empty/unknown.
class AsSetMembership {
 public:
  virtual ~AsSetMembership() = default;
  /// Does the (recursively flattened) as-set contain `asn`?
  virtual bool contains(std::string_view as_set, Asn asn) const = 0;
  /// Is the as-set defined at all? (Unknown sets make a rule Unrecorded.)
  virtual bool is_known(std::string_view as_set) const = 0;
};

/// Evaluation environment for one match.
struct MatchEnv {
  /// AS path in BGP order: element 0 is the most recent hop (the neighbor
  /// announcing the route), the last element is the origin AS.
  std::span<const Asn> path;
  /// Binding for the PeerAS keyword.
  Asn peer_asn = 0;
  /// Set membership oracle; may be null.
  const AsSetMembership* membership = nullptr;
};

enum class RegexMatch {
  kMatch,
  kNoMatch,
  kUnsupported,  // construct outside the engine's language (or budget)
};

/// Does a single token match one AS under `env`?
bool token_matches(const ir::ReToken& token, Asn asn, const MatchEnv& env);

/// Primary engine: predicate NFA. kUnsupported for same-pattern operators
/// and repetition counts above kMaxRepeatExpansion.
RegexMatch match_nfa(const ir::AsPathRegex& regex, const MatchEnv& env);

/// A compiled NFA flattened to plain tables, the serialization surface the
/// snapshot persistence layer writes into its arena file. Offsets replace
/// pointers: the edges of state `s` are `edges[state_offsets[s]` ..
/// `state_offsets[s + 1])`. Kinds mirror the engine's internal edge kinds
/// (0 = epsilon, 1 = assert-begin, 2 = assert-end, 3 = token, 4 = any).
struct NfaImage {
  struct Edge {
    std::uint8_t kind = 0;
    std::int32_t token = -1;  // index into `tokens` for kind 3
    std::int32_t to = -1;
  };

  std::vector<std::uint32_t> state_offsets;  // size = states + 1
  std::vector<Edge> edges;
  std::vector<ir::ReToken> tokens;
  std::int32_t start = -1;
  std::int32_t accept = -1;
  bool unsupported = false;
};

/// A regex pre-lowered to its predicate NFA. match_nfa() rebuilds the
/// Thompson automaton on every call; compiling once and matching many times
/// is what the §5-scale hot loop (and the compiled policy snapshot) wants.
/// match() is const and allocates only local frontier vectors, so one
/// CompiledRegex is safely shared across threads.
class CompiledRegex {
 public:
  explicit CompiledRegex(const ir::AsPathRegex& regex);
  /// Rehydrate from a previously exported image (snapshot load path).
  /// Throws std::invalid_argument when the image's indices are out of
  /// bounds or an edge kind is unknown.
  explicit CompiledRegex(const NfaImage& image);
  CompiledRegex(CompiledRegex&&) noexcept;
  CompiledRegex& operator=(CompiledRegex&&) noexcept;
  CompiledRegex(const CompiledRegex&) = delete;
  CompiledRegex& operator=(const CompiledRegex&) = delete;
  ~CompiledRegex();

  /// False when the regex uses constructs outside the NFA language
  /// (same-pattern operators, oversized repeats); match() then returns
  /// kUnsupported and the caller should fall back to match_backtrack.
  bool supported() const noexcept;

  /// Export the automaton as flat relocatable tables; image() followed by
  /// CompiledRegex(image) reproduces identical match behaviour.
  NfaImage image() const;

  RegexMatch match(const MatchEnv& env) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reference engine: memoized backtracking over the AST. Supports the full
/// language including same-pattern operators.
RegexMatch match_backtrack(const ir::AsPathRegex& regex, const MatchEnv& env);

/// Bounded repeat expansion in the NFA ({m,n} with n beyond this is
/// refused rather than exploding the automaton).
inline constexpr std::uint32_t kMaxRepeatExpansion = 64;

}  // namespace rpslyzer::aspath
