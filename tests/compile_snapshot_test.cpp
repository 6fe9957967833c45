// The compiled policy snapshot must be a pure optimization: for every
// route of the synthetic 13-IRR corpus, the snapshot-backed verifier has
// to produce the exact HopCheck sequence of the interpreted evaluator —
// same statuses, same report items, same order. The same contract holds
// for the query engine, and the server must quarantine itself on the
// last-good snapshot when a rebuild fails at the compile.build failpoint.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/persist/snapshot_io.hpp"
#include "rpslyzer/query/query.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/server/client.hpp"
#include "rpslyzer/server/server.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer {
namespace {

namespace fp = util::failpoint;

// ---------------------------------------------------------------------------
// Differential verification over the synthesized corpus
// ---------------------------------------------------------------------------

struct Pipeline {
  synth::InternetGenerator generator;
  Rpslyzer lyzer;
  std::vector<bgp::Route> routes;

  Pipeline()
      : generator([] {
          synth::SynthConfig config;
          config.seed = 21;
          config.tier1_count = 4;
          config.tier2_count = 10;
          config.tier3_count = 30;
          config.stub_count = 150;
          config.collectors = 6;
          return config;
        }()),
        lyzer([&] {
          std::vector<std::pair<std::string, std::string>> ordered;
          for (const auto& name : synth::irr_names()) {
            ordered.emplace_back(name, generator.irr_dumps().at(name));
          }
          return Rpslyzer::from_texts(ordered, generator.caida_serial1());
        }()) {
    for (const auto& dump : generator.bgp_dumps()) {
      for (auto& route : bgp::parse_table_dump(dump)) routes.push_back(std::move(route));
    }
  }
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

void expect_same_hops(const std::vector<verify::HopCheck>& got,
                      const std::vector<verify::HopCheck>& want, std::size_t route) {
  ASSERT_EQ(got.size(), want.size()) << "route " << route;
  for (std::size_t h = 0; h < want.size(); ++h) {
    EXPECT_EQ(got[h].from, want[h].from) << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].to, want[h].to) << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].export_result.status, want[h].export_result.status)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].export_result.items, want[h].export_result.items)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].import_result.status, want[h].import_result.status)
        << "route " << route << " hop " << h;
    EXPECT_EQ(got[h].import_result.items, want[h].import_result.items)
        << "route " << route << " hop " << h;
  }
}

TEST(CompiledSnapshot, VerdictsMatchInterpretedForEveryRoute) {
  auto& p = pipeline();
  ASSERT_GT(p.routes.size(), 1000u);

  verify::Verifier interpreted(p.lyzer.index(), p.lyzer.relations());
  verify::Verifier compiled(p.lyzer.snapshot());
  for (std::size_t i = 0; i < p.routes.size(); ++i) {
    expect_same_hops(compiled.verify_route(p.routes[i]),
                     interpreted.verify_route(p.routes[i]), i);
    if (::testing::Test::HasFailure()) break;  // one detailed mismatch is enough
  }
}

TEST(CompiledSnapshot, VerdictsMatchUnderStrictAndPaperOptions) {
  auto& p = pipeline();
  for (const bool relax : {false, true}) {
    verify::VerifyOptions options;
    options.relaxations = relax;
    options.safelists = relax;
    verify::Verifier interpreted(p.lyzer.index(), p.lyzer.relations(), options);
    verify::Verifier compiled(p.lyzer.snapshot(), options);
    // A sample is enough here; the full sweep runs in the default-options test.
    const std::size_t step = std::max<std::size_t>(1, p.routes.size() / 400);
    for (std::size_t i = 0; i < p.routes.size(); i += step) {
      expect_same_hops(compiled.verify_route(p.routes[i]),
                       interpreted.verify_route(p.routes[i]), i);
      if (::testing::Test::HasFailure()) break;
    }
  }
}

TEST(CompiledSnapshot, ReportsBuildMetadata) {
  auto& p = pipeline();
  auto snapshot = p.lyzer.snapshot();
  EXPECT_GT(snapshot->build_id(), 0u);
  EXPECT_GT(snapshot->interned_symbols(), 0u);
  EXPECT_GT(snapshot->trie_nodes(), 0u);
  // Memoized: the same Rpslyzer hands out one snapshot.
  EXPECT_EQ(snapshot.get(), p.lyzer.snapshot().get());
}

/// The framed `!i<set>,1` answer computed straight from the index's own
/// flattening (irr::Index::flattened), independent of the snapshot's.
std::string index_members(const irr::Index& index, const std::string& name) {
  const irr::FlattenedAsSet* flat = index.flattened(name);
  if (flat == nullptr) return "D\n";
  std::string payload;
  for (const ir::Asn asn : flat->asns) {
    payload += (payload.empty() ? "AS" : " AS") + std::to_string(asn);
  }
  return query::frame_response(payload);
}

/// The framed `!a<set>` answer (both families, or only v4/v6) from the
/// index: every flattened member's route objects, sorted and deduplicated.
std::string index_prefixes(const irr::Index& index, const std::string& name, bool v4,
                           bool v6) {
  const irr::FlattenedAsSet* flat = index.flattened(name);
  if (flat == nullptr) return "D\n";
  std::set<std::string> prefixes;
  for (const ir::Asn asn : flat->asns) {
    for (const net::Prefix& prefix : index.origins_of(asn)) {
      if (prefix.is_v4() ? v4 : v6) prefixes.insert(prefix.to_string());
    }
  }
  std::string payload;
  for (const std::string& prefix : prefixes) payload += (payload.empty() ? "" : " ") + prefix;
  return query::frame_response(payload);
}

/// The framed `!gAS<asn>` answer from the index's route objects.
std::string index_origins(const irr::Index& index, ir::Asn asn) {
  const std::span<const net::Prefix> prefixes = index.origins_of(asn);
  if (prefixes.empty()) return "D\n";
  std::string payload;
  for (const net::Prefix& prefix : prefixes) {
    if (prefix.is_v4()) payload += (payload.empty() ? "" : " ") + prefix.to_string();
  }
  return query::frame_response(payload);
}

TEST(CompiledSnapshot, QueryEngineBackendsAgreeByteForByte) {
  // The query engine reads as-set flattening from the snapshot's compiled
  // tables; the expected answers come from the index's flattening.
  auto& p = pipeline();
  const irr::Index& index = p.lyzer.index();
  query::QueryEngine on_snapshot(*p.lyzer.snapshot());
  std::size_t compared = 0;
  for (const auto& [name, set] : p.lyzer.ir().as_sets) {
    EXPECT_EQ(on_snapshot.evaluate("!i" + name + ",1"), index_members(index, name)) << name;
    EXPECT_EQ(on_snapshot.evaluate("!a" + name), index_prefixes(index, name, true, true))
        << name;
    EXPECT_EQ(on_snapshot.evaluate("!a4" + name), index_prefixes(index, name, true, false))
        << name;
    EXPECT_EQ(on_snapshot.evaluate("!a6" + name), index_prefixes(index, name, false, true))
        << name;
    if (++compared >= 64) break;
  }
  for (const auto& [asn, an] : p.lyzer.ir().aut_nums) {
    EXPECT_EQ(on_snapshot.evaluate("!gAS" + std::to_string(asn)), index_origins(index, asn))
        << asn;
    if (++compared >= 128) break;
  }
  EXPECT_GT(compared, 64u);
  // Every as-set's compiled flattening, not only the queried sample.
  for (const auto& [name, set] : p.lyzer.ir().as_sets) {
    const compile::CompiledAsSet* compiled = p.lyzer.snapshot()->flattened(name);
    const irr::FlattenedAsSet* flat = index.flattened(name);
    ASSERT_EQ(compiled == nullptr, flat == nullptr) << name;
    if (flat == nullptr) continue;
    EXPECT_TRUE(std::equal(compiled->asns.begin(), compiled->asns.end(), flat->asns.begin(),
                           flat->asns.end()))
        << name;
  }
}

// ---------------------------------------------------------------------------
// Hand-written corpora
// ---------------------------------------------------------------------------

struct OwnedCorpus {
  util::Diagnostics diag;
  ir::Ir ir;
  irr::Index index;
  relations::AsRelations relations;

  explicit OwnedCorpus(std::string_view text, std::string_view serial1 = {})
      : ir(irr::parse_dump(text, "TEST", diag)),
        index(ir),
        relations(relations::AsRelations::parse(serial1, diag)) {}
};

// Aliasing pointers: the snapshot keeps the whole corpus alive.
std::shared_ptr<const irr::Index> index_of(const std::shared_ptr<OwnedCorpus>& corpus) {
  return {corpus, &corpus->index};
}
std::shared_ptr<const relations::AsRelations> relations_of(
    const std::shared_ptr<OwnedCorpus>& corpus) {
  return {corpus, &corpus->relations};
}

std::shared_ptr<const compile::CompiledPolicySnapshot> make_corpus(
    std::string_view text, std::string_view serial1 = {}) {
  auto owned = std::make_shared<OwnedCorpus>(text, serial1);
  return compile::CompiledPolicySnapshot::build(index_of(owned), relations_of(owned));
}

// ---------------------------------------------------------------------------
// The precomputed reject-all outcome
// ---------------------------------------------------------------------------

// AS100's rules cover the cases the RejectAll derivation must merge: an ASN
// named by several rules, v4-only and v6-only rules, a rule for both
// families, and an empty term. AS200 (an as-set peering) and AS300 (a
// peering-set) turn the fast path off; AS400 has only an empty term.
constexpr const char* kRejectCorpus =
    "aut-num: AS100\n"
    "import: from AS2 accept ANY\n"
    "import: from AS2 accept AS2\n"
    "import: from AS3 accept AS3\n"
    "mp-import: afi ipv6.unicast from AS4 from AS2 accept ANY\n"
    "mp-import: afi ipv4.unicast from AS6 accept AS6\n"
    "import: {}\n"
    "mp-import: { from AS7 accept ANY; from AS2 accept AS2 }\n"
    "export: to AS2 announce AS100\n"
    "export: to AS5 announce AS100\n"
    "export: to AS2 announce ANY\n"
    "mp-export: afi ipv6.unicast to AS8 announce AS100\n\n"
    "aut-num: AS200\n"
    "import: from AS-PEERS accept ANY\n"
    "import: from AS9 accept ANY\n"
    "export: to AS9 announce AS200\n\n"
    "aut-num: AS300\n"
    "import: from prng-test accept ANY\n"
    "export: to AS11 announce AS300\n\n"
    "aut-num: AS400\n"
    "import: {}\n\n"
    "as-set: AS-PEERS\nmembers: AS9, AS10\n\n"
    "peering-set: prng-test\npeering: AS11\n\n"
    "route: 10.100.0.0/16\norigin: AS100\n\n"
    "route6: 2001:db8::/32\norigin: AS100\n\n"
    "route: 10.3.0.0/16\norigin: AS3\n";

// AS100 provides for AS3 (import-customer relaxation) and AS9 (an uphill
// import the fast path must safelist); AS50 provides for AS100.
constexpr const char* kRejectRelations = "50|100|-1\n100|3|-1\n100|9|-1\n2|100|0\n";

std::vector<ir::Asn> asns(std::span<const ir::Asn> span) { return {span.begin(), span.end()}; }

using Plan = std::vector<std::uint32_t>;
Plan plan_of(std::span<const std::uint32_t> span) { return {span.begin(), span.end()}; }

const compile::RejectAll& reject_entry(const compile::CompiledPolicySnapshot& snap, ir::Asn asn,
                                       bool is_import, bool v4) {
  const compile::CompiledAutNum* can = snap.compiled_aut_num(asn);
  EXPECT_NE(can, nullptr) << asn;
  return can->reject_all_for(is_import, v4);
}

/// Every aut-num's four entries, fold plans included, equal between two
/// snapshots of one corpus.
void expect_same_reject_all(const compile::CompiledPolicySnapshot& got,
                            const compile::CompiledPolicySnapshot& want) {
  for (const auto& [asn, an] : want.index().ir().aut_nums) {
    const compile::CompiledAutNum* g = got.compiled_aut_num(asn);
    const compile::CompiledAutNum* w = want.compiled_aut_num(asn);
    ASSERT_NE(g, nullptr) << asn;
    ASSERT_NE(w, nullptr) << asn;
    for (std::size_t i = 0; i < w->reject_all.size(); ++i) {
      EXPECT_TRUE(g->reject_all[i] == w->reject_all[i]) << "AS" << asn << " entry " << i;
    }
  }
}

/// Every directed pair over `ases`, in both families and with a transit
/// hop through AS100, checked against the interpreted backend.
void expect_matches_interpreted(std::shared_ptr<const compile::CompiledPolicySnapshot> snap,
                                const std::vector<ir::Asn>& ases) {
  for (const bool relax : {false, true}) {
    verify::VerifyOptions options;
    options.relaxations = relax;
    options.safelists = relax;
    verify::Verifier interpreted(snap->index(), snap->relations(), options);
    verify::Verifier compiled(snap, options);
    std::size_t n = 0;
    for (const char* prefix : {"10.100.0.0/16", "10.3.0.0/16", "2001:db8::/32"}) {
      for (ir::Asn x : ases) {
        for (ir::Asn y : ases) {
          if (x == y) continue;
          for (std::vector<bgp::Asn> path :
               {std::vector<bgp::Asn>{x, y}, std::vector<bgp::Asn>{x, 100, y}}) {
            if (path.size() == 3 && (x == 100 || y == 100)) continue;
            const bgp::Route route{*net::Prefix::parse(prefix), path};
            expect_same_hops(compiled.verify_route(route), interpreted.verify_route(route), n);
            EXPECT_EQ(compiled.report(route), interpreted.report(route)) << n;
            ++n;
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

const std::vector<ir::Asn> kRejectAses = {2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 50, 100, 200, 300, 400};

TEST(RejectAll, MergesCoveringRulesPerDirectionAndFamily) {
  auto snap = make_corpus(kRejectCorpus, kRejectRelations);

  // Imports, v4: AS2 repeats across rules, right away and again at the end
  // (first occurrence kept), the v6-only rule is skipped, the empty term
  // adds nothing.
  const compile::RejectAll& in4 = reject_entry(*snap, 100, true, true);
  EXPECT_TRUE(in4.simple);
  EXPECT_TRUE(in4.no_match);
  EXPECT_EQ(asns(in4.peers), (std::vector<ir::Asn>{2, 3, 6, 7}));
  EXPECT_EQ(asns(in4.no_match_asns), (std::vector<ir::Asn>{2, 3, 6, 7}));
  // Imports, v6: only the v6-only rule and the both-families rule cover.
  const compile::RejectAll& in6 = reject_entry(*snap, 100, true, false);
  EXPECT_TRUE(in6.simple);
  EXPECT_EQ(asns(in6.peers), (std::vector<ir::Asn>{2, 4, 7}));
  EXPECT_EQ(asns(in6.no_match_asns), (std::vector<ir::Asn>{4, 2, 7}));
  // Exports: plain export is v4 only, the mp-export v6 only.
  EXPECT_EQ(asns(reject_entry(*snap, 100, false, true).no_match_asns),
            (std::vector<ir::Asn>{2, 5}));
  EXPECT_EQ(asns(reject_entry(*snap, 100, false, false).no_match_asns),
            (std::vector<ir::Asn>{8}));

  // The fold plans: every covering simple rule's ASNs in rule order
  // (v4: 2 | 2 3 | 6 7 2; v6: 4 | 2 7 2), each linked to the position of the
  // ASN's previous entry.
  constexpr std::uint32_t kNone = compile::RejectAll::kNoPrev;
  EXPECT_EQ(plan_of(in4.plan), (Plan{kNone, 0, kNone, kNone, kNone, 1}));
  EXPECT_EQ(plan_of(in6.plan), (Plan{kNone, kNone, kNone, 1}));
  // Without the fast path the plan still lists the simple rules (9).
  EXPECT_EQ(plan_of(reject_entry(*snap, 200, true, true).plan), (Plan{kNone}));

  // A set or peering-set peering turns the fast path off for its family.
  EXPECT_FALSE(reject_entry(*snap, 200, true, true).simple);
  EXPECT_FALSE(reject_entry(*snap, 300, true, true).simple);
  EXPECT_TRUE(reject_entry(*snap, 200, false, true).simple);
  // Plain import is v4 only: nothing covers v6, so it stays on.
  EXPECT_TRUE(reject_entry(*snap, 200, true, false).simple);

  // Only an empty term: NotApplicable, no items.
  const compile::RejectAll& empty = reject_entry(*snap, 400, true, true);
  EXPECT_TRUE(empty.simple);
  EXPECT_FALSE(empty.no_match);
  EXPECT_TRUE(empty.peers.empty());
  EXPECT_TRUE(empty.no_match_asns.empty());
}

TEST(RejectAll, FastPathMatchesInterpretedBackend) {
  auto snap = make_corpus(kRejectCorpus, kRejectRelations);
  expect_matches_interpreted(snap, kRejectAses);

  verify::Verifier compiled(snap);
  const bgp::Route v4{*net::Prefix::parse("10.100.0.0/16"), {100, 9}};
  // AS9 is named by no rule: the merged list, then the uphill safelist item.
  const verify::CheckResult uphill = compiled.check_import(100, 9, v4, {});
  EXPECT_EQ(uphill.status, verify::Status::kSafelisted);
  ASSERT_EQ(uphill.items.size(), 5u);
  EXPECT_EQ(uphill.items[0], (verify::ReportItem{verify::Reason::kMatchRemoteAsNum, 2, {}}));
  EXPECT_EQ(uphill.items[3], (verify::ReportItem{verify::Reason::kMatchRemoteAsNum, 7, {}}));
  EXPECT_EQ(uphill.items[4].reason, verify::Reason::kSpecUphill);
  // AS3 is named by exactly one rule: the per-rule loop evaluates its filter.
  const bgp::Route customer{*net::Prefix::parse("10.99.0.0/16"), {100, 3}};
  const verify::CheckResult relaxed = compiled.check_import(100, 3, customer, {});
  EXPECT_EQ(relaxed.status, verify::Status::kRelaxed);
  EXPECT_EQ(relaxed.items.back().reason, verify::Reason::kRelaxedImportCustomer);
  // Only an empty term covers: unverified with no items at all.
  const verify::CheckResult none = compiled.check_import(400, 100, v4, {});
  EXPECT_EQ(none.status, verify::Status::kUnverified);
  EXPECT_TRUE(none.items.empty());
}

TEST(RejectAll, SurvivesPersistRoundTrip) {
  auto snap = make_corpus(kRejectCorpus, kRejectRelations);
  const auto path = std::filesystem::temp_directory_path() /
                    ("rpslyzer-reject-all-" + std::to_string(::getpid()) + ".rps");
  persist::write_snapshot(*snap, path);
  auto restored = persist::open_snapshot(path);
  std::filesystem::remove(path);
  expect_same_reject_all(*restored, *snap);
  expect_matches_interpreted(restored, kRejectAses);
}

TEST(RejectAll, IncrementalBuildCarriesCleanAndRederivesDirty) {
  auto old_corpus = std::make_shared<OwnedCorpus>(kRejectCorpus, kRejectRelations);
  auto previous =
      compile::CompiledPolicySnapshot::build(index_of(old_corpus), relations_of(old_corpus));
  auto rebuild = [&](const std::string& text, std::set<ir::Asn> dirty_asns) {
    auto corpus = std::make_shared<OwnedCorpus>(text, kRejectRelations);
    compile::DirtySet dirty;
    dirty.aut_nums = std::move(dirty_asns);
    auto incremental = compile::CompiledPolicySnapshot::build_incremental(
        index_of(corpus), relations_of(corpus), *previous, dirty);
    auto scratch = make_corpus(text, kRejectRelations);
    expect_same_reject_all(*incremental, *scratch);
    expect_matches_interpreted(incremental, kRejectAses);
    return incremental;
  };

  // AS400 changes; AS100's entries are carried over from `previous`.
  std::string text = kRejectCorpus;
  const std::string as400 = "aut-num: AS400\nimport: {}\n";
  text.replace(text.find(as400), as400.size(),
               "aut-num: AS400\nimport: {}\nimport: from AS100 accept ANY\n");
  auto clean = rebuild(text, {400});
  EXPECT_TRUE(reject_entry(*clean, 100, true, true) == reject_entry(*previous, 100, true, true));
  EXPECT_EQ(asns(reject_entry(*clean, 400, true, true).peers), (std::vector<ir::Asn>{100}));
  // A changed aut-num missing from the dirty set is re-derived, not carried.
  auto missed = rebuild(text, {});
  EXPECT_EQ(asns(reject_entry(*missed, 400, true, true).peers), (std::vector<ir::Asn>{100}));

  // AS100 gains a both-families rule naming AS12: its entries are re-derived.
  text = kRejectCorpus;
  const std::string as100 = "aut-num: AS100\n";
  text.replace(text.find(as100), as100.size(),
               "aut-num: AS100\nmp-import: from AS12 from AS3 accept ANY\n");
  auto dirty = rebuild(text, {100});
  EXPECT_EQ(asns(reject_entry(*dirty, 100, true, true).no_match_asns),
            (std::vector<ir::Asn>{12, 3, 2, 6, 7}));
  EXPECT_EQ(asns(reject_entry(*dirty, 100, true, false).no_match_asns),
            (std::vector<ir::Asn>{12, 3, 4, 2, 7}));
}

// ---------------------------------------------------------------------------
// The AS-path visit order
// ---------------------------------------------------------------------------

// Each regex names one ASN so the visit order reads off as a list. AS5 is
// written last but ordered first; fltr-alpha sorts before fltr-both, and
// fltr-mp-only has an mp-filter alone.
constexpr const char* kAsPathOrderCorpus =
    "aut-num: AS10\n"
    "import: from AS1 accept <^AS101$> AND (<^AS102$> OR NOT <^AS103$>)\n"
    "import: from AS1 accept <^AS104$>; EXCEPT from AS2 accept NOT (<^AS105$> AND "
    "<^AS106$>)\n"
    "mp-import: afi any.unicast { from AS1 accept <^AS107$>; from AS2 accept <^AS108$> OR "
    "<^AS109$>; } REFINE afi ipv4.unicast { from AS3 accept <^AS110$>; } REFINE afi any "
    "{ from AS-ANY accept NOT <^AS111$>; }\n"
    "export: to AS1 announce <^AS112$> OR ANY\n"
    "export: to AS1 announce AS10\n\n"
    "aut-num: AS20\n"
    "import: from AS1 accept ANY\n"
    "export: to AS1 announce NOT (<^AS201$> OR <^AS202$>) AND fltr-both\n\n"
    "aut-num: AS5\n"
    "import: from AS1 accept <^AS51$>\n\n"
    "filter-set: fltr-both\n"
    "filter: <^AS301$> OR <^AS302$>\n"
    "mp-filter: NOT <^AS303$> AND <^AS304$>\n\n"
    "filter-set: fltr-alpha\n"
    "filter: <^AS401$>\n"
    "mp-filter: <^AS402$>\n\n"
    "filter-set: fltr-mp-only\n"
    "mp-filter: <^AS501$>\n";

std::vector<std::string> as_path_texts(const compile::CompiledPolicySnapshot& snap) {
  std::vector<std::string> out;
  for (const ir::FilterAsPath* path : snap.as_path_order()) {
    out.push_back(ir::to_string(path->regex));
  }
  return out;
}

// The persisted NFA section binds its images to as_path_order() by
// position, so the order is part of the snapshot format: aut-nums in ASN
// order, imports then exports, a term's factors in order, except and
// refine left before right, and/or left before right, not's operand; then
// filter-sets in name order, filter before mp-filter.
TEST(AsPathOrder, PinsTheWalkOverNestedFiltersAndStructuredEntries) {
  auto owned = std::make_shared<OwnedCorpus>(kAsPathOrderCorpus);
  ASSERT_TRUE(owned->diag.empty()) << owned->diag.all().front().message;
  auto snap = compile::CompiledPolicySnapshot::build(index_of(owned), relations_of(owned));
  const std::vector<std::string> want = {
      "<^AS51$>",  "<^AS101$>", "<^AS102$>", "<^AS103$>", "<^AS104$>", "<^AS105$>",
      "<^AS106$>", "<^AS107$>", "<^AS108$>", "<^AS109$>", "<^AS110$>", "<^AS111$>",
      "<^AS112$>", "<^AS201$>", "<^AS202$>", "<^AS401$>", "<^AS402$>", "<^AS301$>",
      "<^AS302$>", "<^AS303$>", "<^AS304$>", "<^AS501$>"};
  EXPECT_EQ(as_path_texts(*snap), want);

  const auto path = std::filesystem::temp_directory_path() /
                    ("rpslyzer-as-path-order-" + std::to_string(::getpid()) + ".rps");
  persist::write_snapshot(*snap, path);
  auto restored = persist::open_snapshot(path);
  std::filesystem::remove(path);
  EXPECT_EQ(as_path_texts(*restored), want);
}

// ---------------------------------------------------------------------------
// Server integration: the !v verb and compile.build quarantine
// ---------------------------------------------------------------------------

constexpr const char* kServerCorpus =
    "aut-num: AS64500\n"
    "import: from AS64501 accept ANY\n"
    "export: to AS64501 announce AS64500\n\n"
    "aut-num: AS64501\n"
    "import: from AS64500 accept AS64500\n"
    "export: to AS64500 announce ANY\n\n"
    "route: 10.0.0.0/8\norigin: AS64500\n\n"
    "route: 198.51.100.0/24\norigin: AS64502\n";

server::ServerConfig test_config() {
  server::ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.cache_capacity = 64;
  config.idle_timeout = std::chrono::milliseconds(0);
  return config;
}

class CompiledSnapshotFault : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

TEST_F(CompiledSnapshotFault, VerifyVerbMatchesLocalReport) {
  server::Server daemon(test_config(), [] { return make_corpus(kServerCorpus); });
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  auto client = server::Client::connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.has_value());

  // Ground truth: the same snapshot-backed verifier the daemon consults.
  auto snapshot = make_corpus(kServerCorpus);
  verify::Verifier verifier(snapshot);
  bgp::Route route;
  route.prefix = *net::Prefix::parse("10.0.0.0/8");
  route.path = {64501, 64500};
  const std::string want = query::frame_response(verifier.report(route));

  ASSERT_TRUE(client->send_line("!v 10.0.0.0/8 AS64501 AS64500"));
  EXPECT_EQ(client->read_response(), want);
  // Cached on the second ask (same generation, same normalized key).
  ASSERT_TRUE(client->send_line("!v 10.0.0.0/8 AS64501 AS64500"));
  EXPECT_EQ(client->read_response(), want);
  EXPECT_GE(daemon.cache_stats().hits, 1u);

  // Malformed inputs answer F without killing the connection.
  ASSERT_TRUE(client->send_line("!v nonsense AS1 AS2"));
  auto bad_prefix = client->read_response();
  ASSERT_TRUE(bad_prefix.has_value());
  EXPECT_EQ(bad_prefix->front(), 'F');
  ASSERT_TRUE(client->send_line("!v 10.0.0.0/8 AS64500"));
  auto short_path = client->read_response();
  ASSERT_TRUE(short_path.has_value());
  EXPECT_EQ(short_path->front(), 'F');

  client->send_line("!q");
  daemon.stop();
}

TEST_F(CompiledSnapshotFault, CompileFailpointQuarantinesServerOnLastGoodSnapshot) {
  server::Server daemon(test_config(), [] { return make_corpus(kServerCorpus); });
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  auto client = server::Client::connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.has_value());

  ASSERT_TRUE(client->send_line("!gAS64500"));
  auto first = client->read_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->front(), 'A');

  // Arm the snapshot-build failpoint: the reload's loader throws inside
  // CompiledPolicySnapshot::build, so the daemon must keep generation 1.
  ASSERT_TRUE(fp::set("compile.build", "error"));
  ASSERT_TRUE(client->send_line("!reload"));
  auto refused = client->read_response();
  ASSERT_TRUE(refused.has_value());
  EXPECT_NE(refused->find("F reload failed"), std::string::npos) << *refused;
  EXPECT_NE(refused->find("compile.build"), std::string::npos) << *refused;
  EXPECT_EQ(daemon.generation(), 1u);
  EXPECT_EQ(daemon.health().state, server::Health::kDegraded);

  // Still serving the last-good snapshot, queries and !v included.
  ASSERT_TRUE(client->send_line("!gAS64500"));
  EXPECT_EQ(client->read_response(), first);
  ASSERT_TRUE(client->send_line("!v 10.0.0.0/8 AS64501 AS64500"));
  auto verdict = client->read_response();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->front(), 'A');

  // Disarm and reload: a fresh snapshot publishes and health recovers.
  fp::clear_all();
  ASSERT_TRUE(client->send_line("!reload"));
  EXPECT_EQ(client->read_response(), "C\n");
  EXPECT_EQ(daemon.generation(), 2u);
  EXPECT_EQ(daemon.health().state, server::Health::kHealthy);

  // !stats carries the published snapshot's identity.
  ASSERT_TRUE(client->send_line("!stats"));
  auto stats = client->read_response();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("snapshot: build-id="), std::string::npos) << *stats;

  client->send_line("!q");
  daemon.stop();
}

}  // namespace
}  // namespace rpslyzer
