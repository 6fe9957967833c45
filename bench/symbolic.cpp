// The paper's symbolic Cartesian-product matcher (Appendix B):
//
//   "we first replace each AS token t_i in R with a symbol σ(t_i), and
//    generate a symbolic regex R'. We convert each ASN n_j in A to the set
//    N_j of all symbols that n_j can match ... We then generate a set of
//    symbol strings from the original AS-path A by taking the Cartesian
//    product of N_j for all n_j in A. Finally, if any symbol string matches
//    the symbolic regex R', we consider the AS-path A a match."
//
// Kept as a literal implementation for the ablation benchmark against the
// predicate-NFA engine; a budget guard bounds the exponential product.

#include "symbolic.hpp"

#include <vector>

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::aspath {

namespace {

using ir::AsPathRegexNode;

/// A reserved symbol meaning "matched by no token" — needed so path
/// elements outside the (searched) match region still yield symbol strings.
constexpr int kOtherSymbol = -1;

void collect_tokens(const AsPathRegexNode& node, std::vector<const ir::ReToken*>& tokens,
                    bool& unsupported) {
  std::visit(util::overloaded{
                 [&](const ir::ReEmpty&) {},
                 [&](const ir::ReBeginAnchor&) {},
                 [&](const ir::ReEndAnchor&) {},
                 [&](const ir::ReTokenNode& t) { tokens.push_back(&t.token); },
                 [&](const ir::ReConcat& c) {
                   for (const auto& p : c.parts) collect_tokens(*p, tokens, unsupported);
                 },
                 [&](const ir::ReAlt& a) {
                   for (const auto& o : a.options) collect_tokens(*o, tokens, unsupported);
                 },
                 [&](const ir::ReRepeatNode& r) {
                   if (r.repeat.same_pattern) unsupported = true;
                   collect_tokens(*r.inner, tokens, unsupported);
                 },
             },
             node.node);
}

/// Matches the symbolic regex against one symbol string. Minimal recursive
/// evaluator: a token matches symbol s iff s is that token's symbol id.
class SymbolMatcher {
 public:
  SymbolMatcher(const std::vector<int>& symbols,
                const std::vector<const ir::ReToken*>& tokens)
      : symbols_(symbols), tokens_(tokens) {}

  bool search(const AsPathRegexNode& root) {
    for (std::size_t start = 0; start <= symbols_.size(); ++start) {
      if (!ends(root, start).empty()) return true;
    }
    return false;
  }

 private:
  const std::vector<int>& symbols_;
  const std::vector<const ir::ReToken*>& tokens_;

  int symbol_of(const ir::ReToken& token) const {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == &token) return static_cast<int>(i);
    }
    return kOtherSymbol;
  }

  static void add_unique(std::vector<std::size_t>& v, std::size_t e) {
    for (std::size_t x : v) {
      if (x == e) return;
    }
    v.push_back(e);
  }

  std::vector<std::size_t> ends(const AsPathRegexNode& node, std::size_t pos) {
    return std::visit(
        util::overloaded{
            [&](const ir::ReEmpty&) { return std::vector<std::size_t>{pos}; },
            [&](const ir::ReBeginAnchor&) {
              return pos == 0 ? std::vector<std::size_t>{pos} : std::vector<std::size_t>{};
            },
            [&](const ir::ReEndAnchor&) {
              return pos == symbols_.size() ? std::vector<std::size_t>{pos}
                                            : std::vector<std::size_t>{};
            },
            [&](const ir::ReTokenNode& t) {
              if (pos < symbols_.size() && symbols_[pos] == symbol_of(t.token)) {
                return std::vector<std::size_t>{pos + 1};
              }
              return std::vector<std::size_t>{};
            },
            [&](const ir::ReConcat& c) {
              std::vector<std::size_t> current{pos};
              for (const auto& part : c.parts) {
                std::vector<std::size_t> next;
                for (std::size_t p : current) {
                  for (std::size_t e : ends(*part, p)) add_unique(next, e);
                }
                current = std::move(next);
                if (current.empty()) break;
              }
              return current;
            },
            [&](const ir::ReAlt& a) {
              std::vector<std::size_t> out;
              for (const auto& option : a.options) {
                for (std::size_t e : ends(*option, pos)) add_unique(out, e);
              }
              return out;
            },
            [&](const ir::ReRepeatNode& r) {
              std::vector<std::size_t> out;
              std::vector<std::size_t> current{pos};
              std::vector<bool> visited(symbols_.size() + 1, false);
              visited[pos] = true;
              std::uint32_t iteration = 0;
              while (!current.empty() && iteration <= symbols_.size() + r.repeat.min + 1) {
                if (iteration >= r.repeat.min &&
                    (!r.repeat.max || iteration <= *r.repeat.max)) {
                  for (std::size_t p : current) add_unique(out, p);
                }
                if (r.repeat.max && iteration == *r.repeat.max) break;
                std::vector<std::size_t> next;
                for (std::size_t p : current) {
                  for (std::size_t e : ends(*r.inner, p)) {
                    if (e == p) {
                      // Zero-width inner match: pumpable to any count.
                      add_unique(out, p);
                      continue;
                    }
                    if (!visited[e]) {
                      visited[e] = true;
                      next.push_back(e);
                    }
                  }
                }
                current = std::move(next);
                ++iteration;
              }
              return out;
            },
        },
        node.node);
  }
};

}  // namespace

RegexMatch match_symbolic(const ir::AsPathRegex& regex, const MatchEnv& env,
                          std::size_t budget) {
  std::vector<const ir::ReToken*> tokens;
  bool unsupported = false;
  collect_tokens(*regex.root, tokens, unsupported);
  if (unsupported) return RegexMatch::kUnsupported;

  // N_j: the symbols each path element can take (always including ⊥).
  std::vector<std::vector<int>> candidates(env.path.size());
  std::size_t total = 1;
  for (std::size_t j = 0; j < env.path.size(); ++j) {
    candidates[j].push_back(kOtherSymbol);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (token_matches(*tokens[i], env.path[j], env)) {
        candidates[j].push_back(static_cast<int>(i));
      }
    }
    if (total > budget / candidates[j].size()) return RegexMatch::kUnsupported;
    total *= candidates[j].size();
  }

  // Enumerate the Cartesian product.
  std::vector<std::size_t> index(env.path.size(), 0);
  std::vector<int> symbols(env.path.size(), kOtherSymbol);
  SymbolMatcher matcher(symbols, tokens);
  for (std::size_t n = 0; n < total; ++n) {
    std::size_t rest = n;
    for (std::size_t j = 0; j < env.path.size(); ++j) {
      symbols[j] = candidates[j][rest % candidates[j].size()];
      rest /= candidates[j].size();
    }
    if (matcher.search(*regex.root)) return RegexMatch::kMatch;
  }
  // The empty path has exactly one (empty) symbol string.
  if (env.path.empty() && matcher.search(*regex.root)) return RegexMatch::kMatch;
  return RegexMatch::kNoMatch;
}

}  // namespace rpslyzer::aspath
