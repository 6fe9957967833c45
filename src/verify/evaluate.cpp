#include "evaluate.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/net/martians.hpp"
#include "rpslyzer/util/rand.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::verify::internal {

aspath::RegexMatch InterpretedCorpus::match_as_path(const ir::FilterAsPath& filter,
                                                    std::span<const Asn> path,
                                                    Asn peer) const {
  aspath::MatchEnv env{path, peer, &index};
  aspath::RegexMatch result = aspath::match_nfa(filter.regex, env);
  if (result == aspath::RegexMatch::kUnsupported) {
    result = aspath::match_backtrack(filter.regex, env);
  }
  return result;
}

bool InterpretedCorpus::as_path_skipped(const ir::FilterAsPath& filter) const {
  return ir::uses_skipped_constructs(filter.regex);
}

// ---------------------------------------------------------------------------
// Item lists and the rule merge
// ---------------------------------------------------------------------------

namespace {

// Up to this many items a membership test scans the list; past it the list
// is indexed. Most lists never get there.
constexpr std::size_t kScanMax = 16;

std::uint64_t item_hash(const ReportItem& item) noexcept {
  return util::mix64((std::uint64_t{item.name.id()} << 32 | item.asn) +
                     static_cast<std::uint64_t>(item.reason) * util::kSplitMix64Gamma);
}

// An unnamed MatchRemoteAsNum, the only item a fast-rejected rule adds.
bool is_peer_miss(const ReportItem& item) noexcept {
  return item.reason == Reason::kMatchRemoteAsNum && item.name.empty();
}

}  // namespace

struct ItemList::Buffers {
  std::vector<ReportItem> items;
  std::vector<ReportItem> displaced;  // RuleMerge: the list being overtaken
  std::vector<std::uint32_t> slots;   // item position + 1 per cell, 0 = empty
  bool indexed = false;               // slots cover items[0, hashed)
  std::size_t hashed = 0;
  // RuleMerge's plan fold: the plan ranges of evaluated rules, ascending,
  // and whether an evaluated outcome put a peer miss into the list.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> evaluated;
  bool evaluated_misses = false;

  // This thread's buffers; frames[0, depth) are leased, innermost last.
  struct Stack {
    std::vector<std::unique_ptr<Buffers>> frames;
    std::size_t depth = 0;
  };
  static Stack& stack() {
    thread_local Stack stack;
    return stack;
  }

  void clear() {
    items.clear();
    indexed = false;
  }

  // The cell holding `item`, or the empty cell where it would go.
  std::size_t probe(const ReportItem& item) const {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = item_hash(item) & mask;
    while (slots[i] != 0 && !(items[slots[i] - 1] == item)) i = (i + 1) & mask;
    return i;
  }

  // Index items[pos] unless an equal item is indexed already.
  void place(std::size_t pos) {
    const std::size_t i = probe(items[pos]);
    if (slots[i] == 0) slots[i] = static_cast<std::uint32_t>(pos + 1);
  }

  void reindex() {
    std::size_t capacity = 64;
    while (capacity < 4 * items.size()) capacity *= 2;
    slots.assign(capacity, 0);
    for (std::size_t pos = 0; pos < items.size(); ++pos) place(pos);
    hashed = items.size();
    indexed = true;
  }

  // Brings the index up to date with items appended unhashed; false while
  // the list is short enough to scan instead.
  bool sync() {
    if (!indexed) {
      if (items.size() < kScanMax) return false;
      reindex();
    } else if (2 * items.size() > slots.size()) {
      reindex();
    } else {
      for (; hashed < items.size(); ++hashed) place(hashed);
    }
    return true;
  }

  bool contains(const ReportItem& item) {
    if (!sync()) return std::find(items.begin(), items.end(), item) != items.end();
    return slots[probe(item)] != 0;
  }

  void push_unique(const ReportItem& item) {
    if (!sync()) {
      if (std::find(items.begin(), items.end(), item) == items.end()) items.push_back(item);
      return;
    }
    const std::size_t i = probe(item);
    if (slots[i] != 0) return;
    items.push_back(item);
    slots[i] = static_cast<std::uint32_t>(items.size());
    hashed = items.size();
  }

  // Whether an earlier fast-rejected rule pushed the ASN of plan entry
  // `at`: its chain of links reaches an entry outside every evaluated range.
  bool pushed_earlier(std::span<const std::uint32_t> plan, std::size_t at) const {
    constexpr std::uint32_t kNoPrev = compile::RejectAll::kNoPrev;
    for (std::uint32_t p = plan[at]; p != kNoPrev; p = plan[p]) {
      const auto range = std::upper_bound(evaluated.begin(), evaluated.end(), p,
                                          [](std::uint32_t pos, const auto& r) {
                                            return pos < r.second;
                                          });
      if (range == evaluated.end() || p < range->first) return true;
    }
    return false;
  }
};

ItemList::ItemList() {
  auto& stack = Buffers::stack();
  if (stack.depth == stack.frames.size()) stack.frames.push_back(std::make_unique<Buffers>());
  buf_ = stack.frames[stack.depth++].get();
  buf_->clear();
  buf_->evaluated.clear();
  buf_->evaluated_misses = false;
}

ItemList::~ItemList() {
  auto& stack = Buffers::stack();
  assert(stack.depth > 0 && stack.frames[stack.depth - 1].get() == buf_);
  --stack.depth;
}

void ItemList::assign(std::span<const ReportItem> items) {
  buf_->clear();
  buf_->items.assign(items.begin(), items.end());
}

void ItemList::append(std::span<const ReportItem> items) {
  for (const ReportItem& item : items) buf_->push_unique(item);
}

std::span<const ReportItem> ItemList::items() const noexcept { return buf_->items; }

std::vector<ReportItem> ItemList::to_vector() const {
  return {buf_->items.begin(), buf_->items.end()};
}

void RuleMerge::add(EvalClass cls, std::span<const ReportItem> items) {
  auto mismatch = [](EvalClass c) {
    return c == EvalClass::kNoMatchFilter || c == EvalClass::kNoMatchPeering;
  };
  ItemList::Buffers& buf = *list_.buf_;
  // EvalClass enumerators are in §5 priority order: lower is better.
  if (cls_ <= cls) {
    if (!mismatch(cls_) || !mismatch(cls)) return;
    for (const ReportItem& item : items) buf.push_unique(item);
  } else {
    const bool keep_old =
        cls == EvalClass::kNoMatchFilter && cls_ == EvalClass::kNoMatchPeering;
    if (keep_old) buf.displaced.swap(buf.items);
    buf.clear();
    buf.items.assign(items.begin(), items.end());
    if (keep_old) {
      for (const ReportItem& item : buf.displaced) buf.push_unique(item);
      buf.displaced.clear();
    }
    cls_ = cls;
  }
  buf.evaluated_misses =
      buf.evaluated_misses || std::any_of(items.begin(), items.end(), is_peer_miss);
}

void RuleMerge::add_planned_misses(std::span<const Asn> asns,
                                   std::span<const std::uint32_t> plan, std::size_t begin) {
  // Match, Skip and Unrecorded drop a NoMatchPeering newcomer's items, and
  // no later rule can take their place.
  if (cls_ < EvalClass::kNoMatchFilter) return;
  ItemList::Buffers& buf = *list_.buf_;
  if (cls_ == EvalClass::kNotApplicable) {
    // Overtaken; nothing was merged before, so the list is empty.
    cls_ = EvalClass::kNoMatchPeering;
    buf.clear();
  }
  for (std::size_t i = 0; i < asns.size(); ++i) {
    const ReportItem item{Reason::kMatchRemoteAsNum, asns[i], {}};
    const bool present = buf.pushed_earlier(plan, begin + i) ||
                         (buf.evaluated_misses && buf.contains(item));
    if (!present) buf.items.push_back(item);
  }
}

void RuleMerge::skip_planned(std::size_t begin, std::size_t end) {
  if (begin == end) return;
  auto& evaluated = list_.buf_->evaluated;
  // One allocation per thread instead of a doubling series: few checks
  // evaluate more than 16 simple rules.
  if (evaluated.capacity() == 0) evaluated.reserve(16);
  evaluated.emplace_back(static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(end));
}

namespace {

using util::overloaded;

/// The items of `a` then of `b`, each once, in first-seen order.
std::vector<ReportItem> unique_concat(std::span<const ReportItem> a,
                                      std::span<const ReportItem> b = {}) {
  ItemList list;
  list.append(a);
  list.append(b);
  return list.to_vector();
}

// ---------------------------------------------------------------------------
// Peerings: {match, no-match, unrecorded}
// ---------------------------------------------------------------------------

enum class PeeringEvalClass : std::uint8_t { kMatch, kNoMatch, kUnrecorded };

struct PeeringEval {
  PeeringEvalClass cls = PeeringEvalClass::kNoMatch;
  std::vector<ReportItem> items;
};

template <typename Corpus>
PeeringEval eval_as_expr(const ir::AsExpr& expr, const EvalContextT<Corpus>& ctx) {
  return std::visit(
      overloaded{
          [&](const ir::AsExprAsn& a) -> PeeringEval {
            if (a.asn == ctx.peer) return {PeeringEvalClass::kMatch, {}};
            return {PeeringEvalClass::kNoMatch, {{Reason::kMatchRemoteAsNum, a.asn, {}}}};
          },
          [&](const ir::AsExprSet& s) -> PeeringEval {
            const auto* flat = ctx.corpus.flattened(s.name);
            if (flat == nullptr) {
              return {PeeringEvalClass::kUnrecorded, {{Reason::kUnrecordedAsSet, 0, s.name}}};
            }
            if (flat->contains_any || flat->contains(ctx.peer)) {
              return {PeeringEvalClass::kMatch, {}};
            }
            return {PeeringEvalClass::kNoMatch, {{Reason::kMatchRemoteAsSet, 0, s.name}}};
          },
          [&](const ir::AsExprAny&) -> PeeringEval { return {PeeringEvalClass::kMatch, {}}; },
          [&](const ir::AsExprAnd& n) -> PeeringEval {
            PeeringEval l = eval_as_expr(*n.left, ctx);
            PeeringEval r = eval_as_expr(*n.right, ctx);
            PeeringEval out;
            if (l.cls == PeeringEvalClass::kNoMatch || r.cls == PeeringEvalClass::kNoMatch) {
              out.cls = PeeringEvalClass::kNoMatch;
            } else if (l.cls == PeeringEvalClass::kUnrecorded ||
                       r.cls == PeeringEvalClass::kUnrecorded) {
              out.cls = PeeringEvalClass::kUnrecorded;
            } else {
              out.cls = PeeringEvalClass::kMatch;
            }
            out.items = unique_concat(l.items, r.items);
            return out;
          },
          [&](const ir::AsExprOr& n) -> PeeringEval {
            PeeringEval l = eval_as_expr(*n.left, ctx);
            if (l.cls == PeeringEvalClass::kMatch) return l;
            PeeringEval r = eval_as_expr(*n.right, ctx);
            if (r.cls == PeeringEvalClass::kMatch) return r;
            PeeringEval out;
            out.cls = (l.cls == PeeringEvalClass::kUnrecorded ||
                       r.cls == PeeringEvalClass::kUnrecorded)
                          ? PeeringEvalClass::kUnrecorded
                          : PeeringEvalClass::kNoMatch;
            out.items = unique_concat(l.items, r.items);
            return out;
          },
          [&](const ir::AsExprExcept& n) -> PeeringEval {
            PeeringEval l = eval_as_expr(*n.left, ctx);
            PeeringEval r = eval_as_expr(*n.right, ctx);
            // left AND NOT right.
            if (l.cls == PeeringEvalClass::kNoMatch) return l;
            if (r.cls == PeeringEvalClass::kMatch) {
              return {PeeringEvalClass::kNoMatch, unique_concat(l.items)};
            }
            if (l.cls == PeeringEvalClass::kUnrecorded ||
                r.cls == PeeringEvalClass::kUnrecorded) {
              return {PeeringEvalClass::kUnrecorded, unique_concat(l.items, r.items)};
            }
            return {PeeringEvalClass::kMatch, {}};
          },
      },
      expr.node);
}

template <typename Corpus>
PeeringEval eval_peering(const ir::Peering& peering, const EvalContextT<Corpus>& ctx,
                         int depth = 0);

template <typename Corpus>
PeeringEval eval_peering_set(std::string_view name, const EvalContextT<Corpus>& ctx,
                             int depth) {
  // Peering-sets may (pathologically) reference peering-sets; bound the
  // recursion like the set-flattening cycle guards elsewhere.
  if (depth > 8) {
    return {PeeringEvalClass::kNoMatch, {{Reason::kMatchRemotePeeringSet, 0, name}}};
  }
  const ir::PeeringSet* set = ctx.corpus.peering_set(name);
  if (set == nullptr) {
    return {PeeringEvalClass::kUnrecorded, {{Reason::kUnrecordedPeeringSet, 0, name}}};
  }
  ItemList items;
  bool unrecorded = false;
  for (const auto* list : {&set->peerings, &set->mp_peerings}) {
    for (const auto& p : *list) {
      PeeringEval sub = eval_peering(p, ctx, depth + 1);
      if (sub.cls == PeeringEvalClass::kMatch) return sub;
      if (sub.cls == PeeringEvalClass::kUnrecorded) unrecorded = true;
      items.append(sub.items);
    }
  }
  if (unrecorded) return {PeeringEvalClass::kUnrecorded, items.to_vector()};
  if (items.items().empty()) {
    return {PeeringEvalClass::kNoMatch, {{Reason::kMatchRemotePeeringSet, 0, name}}};
  }
  return {PeeringEvalClass::kNoMatch, items.to_vector()};
}

template <typename Corpus>
PeeringEval eval_peering(const ir::Peering& peering, const EvalContextT<Corpus>& ctx,
                         int depth) {
  return std::visit(
      overloaded{
          [&](const ir::PeeringSpec& spec) { return eval_as_expr(spec.as_expr, ctx); },
          [&](const ir::PeeringSetRef& ref) {
            return eval_peering_set(ref.name, ctx, depth);
          },
      },
      peering.node);
}

// ---------------------------------------------------------------------------
// Filters: {match, no-match, unrecorded, skip}
// ---------------------------------------------------------------------------

enum class FilterEvalClass : std::uint8_t { kMatch, kNoMatch, kUnrecorded, kSkip };

struct FilterEval {
  FilterEvalClass cls = FilterEvalClass::kNoMatch;
  std::vector<ReportItem> items;
};

FilterEval from_lookup(irr::Lookup lookup, ReportItem on_fail, ReportItem on_unknown) {
  switch (lookup) {
    case irr::Lookup::kMatch:
      return {FilterEvalClass::kMatch, {}};
    case irr::Lookup::kNoMatch:
      return {FilterEvalClass::kNoMatch, {std::move(on_fail)}};
    case irr::Lookup::kUnknown:
      return {FilterEvalClass::kUnrecorded, {std::move(on_unknown)}};
  }
  return {FilterEvalClass::kNoMatch, {}};
}

/// `positive` tracks boolean polarity: failed-term report items are only
/// recorded in positive positions, where they are relaxation candidates.
/// `depth` bounds filter-set reference chains (which may cycle in the wild).
template <typename Corpus>
FilterEval eval_filter(const ir::Filter& filter, const EvalContextT<Corpus>& ctx,
                       bool positive, int depth = 0) {
  return std::visit(
      overloaded{
          [&](const ir::FilterAny&) -> FilterEval { return {FilterEvalClass::kMatch, {}}; },
          [&](const ir::FilterPeerAs&) -> FilterEval {
            // PeerAS stands for the remote AS's number (RFC 2622 §5.6):
            // routes whose prefix has a matching route object with that
            // origin. Report failures as MatchFilterAsNum(peer) so the
            // import-customer relaxation sees them.
            return from_lookup(ctx.corpus.origin_matches(ctx.peer, net::RangeOp::none(),
                                                         ctx.prefix),
                               {Reason::kMatchFilterAsNum, ctx.peer, {}},
                               {Reason::kUnrecordedZeroRouteAs, ctx.peer, {}});
          },
          [&](const ir::FilterFltrMartian&) -> FilterEval {
            return {net::is_martian(ctx.prefix) ? FilterEvalClass::kMatch
                                                : FilterEvalClass::kNoMatch,
                    {}};
          },
          [&](const ir::FilterAsNum& f) -> FilterEval {
            FilterEval out = from_lookup(ctx.corpus.origin_matches(f.asn, f.op, ctx.prefix),
                                         {Reason::kMatchFilterAsNum, f.asn, {}},
                                         {Reason::kUnrecordedZeroRouteAs, f.asn, {}});
            if (!positive) out.items.clear();
            return out;
          },
          [&](const ir::FilterAsSet& f) -> FilterEval {
            FilterEval out = from_lookup(
                ctx.corpus.as_set_originates(f.name, f.op, ctx.prefix),
                {Reason::kMatchFilterAsSet, 0, f.name},
                ctx.corpus.is_known(f.name)
                    ? ReportItem{Reason::kUnrecordedZeroRouteAs, 0, f.name}
                    : ReportItem{Reason::kUnrecordedAsSet, 0, f.name});
            if (!positive) out.items.clear();
            return out;
          },
          [&](const ir::FilterRouteSet& f) -> FilterEval {
            return from_lookup(ctx.corpus.route_set_matches(f.name, f.op, ctx.prefix),
                               {Reason::kMatchFilterRouteSet, 0, f.name},
                               {Reason::kUnrecordedRouteSet, 0, f.name});
          },
          [&](const ir::FilterFilterSet& f) -> FilterEval {
            if (depth > 16) {
              // A filter-set reference cycle can never be resolved.
              return {FilterEvalClass::kSkip, {{Reason::kSkipUnparsedFilter, 0, f.name}}};
            }
            const ir::FilterSet* set = ctx.corpus.filter_set(f.name);
            if (set == nullptr) {
              return {FilterEvalClass::kUnrecorded, {{Reason::kUnrecordedFilterSet, 0, f.name}}};
            }
            // Prefer the family-appropriate filter; fall back to the other.
            const bool v6 = !ctx.prefix.is_v4();
            const ir::Filter* chosen = nullptr;
            if (v6 && set->has_mp_filter) {
              chosen = &set->mp_filter;
            } else if (set->has_filter) {
              chosen = &set->filter;
            } else if (set->has_mp_filter) {
              chosen = &set->mp_filter;
            }
            if (chosen == nullptr) {
              return {FilterEvalClass::kUnrecorded, {{Reason::kUnrecordedFilterSet, 0, f.name}}};
            }
            return eval_filter(*chosen, ctx, positive, depth + 1);
          },
          [&](const ir::FilterPrefixes& f) -> FilterEval {
            if (!f.op.is_none() && ctx.options.paper_faithful_skips) {
              // "We also do not handle two rules containing inline prefix
              // sets followed by range operators" (Appendix B).
              return {FilterEvalClass::kSkip, {{Reason::kSkipPrefixSetOp, 0, {}}}};
            }
            const bool hit = f.op.is_none() ? f.prefixes.matches(ctx.prefix)
                                            : f.prefixes.matches_with(f.op, ctx.prefix);
            if (hit) return {FilterEvalClass::kMatch, {}};
            FilterEval out{FilterEvalClass::kNoMatch, {}};
            if (positive) out.items.push_back({Reason::kMatchFilterPrefixes, 0, {}});
            return out;
          },
          [&](const ir::FilterAsPath& f) -> FilterEval {
            if (ctx.options.paper_faithful_skips && ctx.corpus.as_path_skipped(f)) {
              return {FilterEvalClass::kSkip, {{Reason::kSkipRegexConstruct, 0, {}}}};
            }
            switch (ctx.corpus.match_as_path(f, ctx.path, ctx.peer)) {
              case aspath::RegexMatch::kMatch:
                return {FilterEvalClass::kMatch, {}};
              case aspath::RegexMatch::kNoMatch: {
                FilterEval out{FilterEvalClass::kNoMatch, {}};
                if (positive) out.items.push_back({Reason::kMatchFilterAsPath, 0, {}});
                return out;
              }
              case aspath::RegexMatch::kUnsupported:
                return {FilterEvalClass::kSkip, {{Reason::kSkipRegexConstruct, 0, {}}}};
            }
            return {FilterEvalClass::kSkip, {}};
          },
          [&](const ir::FilterCommunity&) -> FilterEval {
            // Communities may be stripped in flight and are not visible in
            // table dumps; the paper conservatively ignores such rules.
            return {FilterEvalClass::kSkip, {{Reason::kSkipCommunityFilter, 0, {}}}};
          },
          [&](const ir::FilterAnd& f) -> FilterEval {
            FilterEval l = eval_filter(*f.left, ctx, positive, depth);
            FilterEval r = eval_filter(*f.right, ctx, positive, depth);
            FilterEval out;
            if (l.cls == FilterEvalClass::kNoMatch || r.cls == FilterEvalClass::kNoMatch) {
              out.cls = FilterEvalClass::kNoMatch;
            } else if (l.cls == FilterEvalClass::kSkip || r.cls == FilterEvalClass::kSkip) {
              out.cls = FilterEvalClass::kSkip;
            } else if (l.cls == FilterEvalClass::kUnrecorded ||
                       r.cls == FilterEvalClass::kUnrecorded) {
              out.cls = FilterEvalClass::kUnrecorded;
            } else {
              out.cls = FilterEvalClass::kMatch;
            }
            if (out.cls != FilterEvalClass::kMatch) out.items = unique_concat(l.items, r.items);
            return out;
          },
          [&](const ir::FilterOr& f) -> FilterEval {
            FilterEval l = eval_filter(*f.left, ctx, positive, depth);
            if (l.cls == FilterEvalClass::kMatch) return l;
            FilterEval r = eval_filter(*f.right, ctx, positive, depth);
            if (r.cls == FilterEvalClass::kMatch) return r;
            FilterEval out;
            if (l.cls == FilterEvalClass::kSkip || r.cls == FilterEvalClass::kSkip) {
              out.cls = FilterEvalClass::kSkip;
            } else if (l.cls == FilterEvalClass::kUnrecorded ||
                       r.cls == FilterEvalClass::kUnrecorded) {
              out.cls = FilterEvalClass::kUnrecorded;
            } else {
              out.cls = FilterEvalClass::kNoMatch;
            }
            out.items = unique_concat(l.items, r.items);
            return out;
          },
          [&](const ir::FilterNot& f) -> FilterEval {
            FilterEval inner = eval_filter(*f.inner, ctx, !positive, depth);
            FilterEval out;
            switch (inner.cls) {
              case FilterEvalClass::kMatch:
                out.cls = FilterEvalClass::kNoMatch;
                break;
              case FilterEvalClass::kNoMatch:
                out.cls = FilterEvalClass::kMatch;
                break;
              default:
                out.cls = inner.cls;
                out.items = unique_concat(inner.items);
            }
            return out;
          },
          [&](const ir::FilterUnknown&) -> FilterEval {
            return {FilterEvalClass::kSkip, {{Reason::kSkipUnparsedFilter, 0, {}}}};
          },
      },
      filter.node);
}

// ---------------------------------------------------------------------------
// Entries (rules, possibly structured)
// ---------------------------------------------------------------------------

template <typename Corpus>
RuleOutcome eval_factor(const ir::PolicyFactor& factor, const EvalContextT<Corpus>& ctx) {
  // (1) Any of the factor's peerings must cover the remote AS.
  PeeringEvalClass peering = PeeringEvalClass::kNoMatch;
  ItemList peering_items;
  for (const auto& pa : factor.peerings) {
    PeeringEval p = eval_peering(pa.peering, ctx);
    if (p.cls == PeeringEvalClass::kMatch) {
      peering = PeeringEvalClass::kMatch;
      break;
    }
    if (p.cls == PeeringEvalClass::kUnrecorded) peering = PeeringEvalClass::kUnrecorded;
    peering_items.append(p.items);
  }
  if (peering == PeeringEvalClass::kUnrecorded) {
    return {EvalClass::kUnrecorded, peering_items.to_vector()};
  }
  if (peering == PeeringEvalClass::kNoMatch) {
    return {EvalClass::kNoMatchPeering, peering_items.to_vector()};
  }

  // (2) The filter must cover <P, A>.
  FilterEval f = eval_filter(factor.filter, ctx, /*positive=*/true);
  switch (f.cls) {
    case FilterEvalClass::kMatch:
      return {EvalClass::kMatch, {}};
    case FilterEvalClass::kSkip:
      return {EvalClass::kSkip, std::move(f.items)};
    case FilterEvalClass::kUnrecorded:
      return {EvalClass::kUnrecorded, std::move(f.items)};
    case FilterEvalClass::kNoMatch: {
      std::vector<ReportItem> items = std::move(f.items);
      items.push_back({Reason::kMatchFilter, 0, {}});
      return {EvalClass::kNoMatchFilter, std::move(items)};
    }
  }
  return {EvalClass::kNoMatchFilter, {}};
}

template <typename Corpus>
RuleOutcome eval_entry(const ir::Entry& entry, bool mp, const EvalContextT<Corpus>& ctx) {
  if (!entry.covers_unicast(ctx.prefix.family(), mp)) {
    return {EvalClass::kNotApplicable, {}};
  }
  return std::visit(
      overloaded{
          [&](const ir::EntryTerm& term) -> RuleOutcome {
            RuleMerge merge;
            for (const auto& factor : term.factors) {
              merge.add(eval_factor(factor, ctx));
              if (merge.cls() == EvalClass::kMatch) break;
            }
            return merge.take();
          },
          [&](const ir::EntryExcept& e) -> RuleOutcome {
            // Exceptions take precedence: a route matching the RHS uses the
            // RHS policy; an undetermined RHS leaves the whole rule
            // undetermined; otherwise the LHS applies.
            RuleOutcome rhs = eval_entry(*e.right, mp, ctx);
            if (rhs.cls == EvalClass::kMatch || rhs.cls == EvalClass::kSkip ||
                rhs.cls == EvalClass::kUnrecorded) {
              return rhs;
            }
            return eval_entry(*e.left, mp, ctx);
          },
          [&](const ir::EntryRefine& e) -> RuleOutcome {
            // A refinement matches only when both sides match; a definite
            // non-match on either side decides, then skip/unrecorded.
            RuleOutcome l = eval_entry(*e.left, mp, ctx);
            RuleOutcome r = eval_entry(*e.right, mp, ctx);
            auto rank = [](EvalClass c) {
              switch (c) {
                case EvalClass::kNotApplicable:
                  return 0;
                case EvalClass::kNoMatchPeering:
                  return 1;
                case EvalClass::kNoMatchFilter:
                  return 2;
                case EvalClass::kSkip:
                  return 3;
                case EvalClass::kUnrecorded:
                  return 4;
                case EvalClass::kMatch:
                  return 5;
              }
              return 0;
            };
            RuleOutcome& weaker = rank(l.cls) <= rank(r.cls) ? l : r;
            RuleOutcome& stronger = rank(l.cls) <= rank(r.cls) ? r : l;
            if (weaker.cls == EvalClass::kMatch) return weaker;  // both match
            ItemList items;
            items.assign(weaker.items);
            items.append(stronger.items);
            return {weaker.cls, items.to_vector()};
          },
      },
      entry.node);
}

}  // namespace

template <typename Corpus>
RuleOutcome evaluate_rule(const ir::Rule& rule, const EvalContextT<Corpus>& ctx) {
  return eval_entry(rule.entry, rule.mp, ctx);
}

template RuleOutcome evaluate_rule<InterpretedCorpus>(
    const ir::Rule&, const EvalContextT<InterpretedCorpus>&);
template RuleOutcome evaluate_rule<compile::CompiledPolicySnapshot>(
    const ir::Rule&, const EvalContextT<compile::CompiledPolicySnapshot>&);

}  // namespace rpslyzer::verify::internal
