// Incremental delta pipeline: journal semantics, dirty-set rebuilds, and the
// differential-equivalence spine.
//
// The central property under test is byte equality: after every applied
// churn batch, the incrementally rebuilt CompiledPolicySnapshot must answer
// every probe — set expansions, origin queries, Appendix-C verification
// reports — byte-for-byte identically to a from-scratch compile of the
// mutated corpus. Seeded churn sequences exercise add/del/modify of policy
// and set objects, serial gaps, duplicate serials (replay), and DELs of
// nonexistent objects; failpoint runs prove the same equality under
// delta.apply refusals and delta.dirty degradation.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rpslyzer/delta/corpus_store.hpp"
#include "rpslyzer/delta/equiv.hpp"
#include "rpslyzer/delta/journal.hpp"
#include "rpslyzer/delta/pipeline.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/rpsl/object_lexer.hpp"
#include "rpslyzer/rpsl/object_parser.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/churn.hpp"
#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"

namespace rpslyzer::delta {
namespace {

namespace fp = util::failpoint;

std::uint32_t seed_from_env() {
  if (const char* env = std::getenv("RPSLYZER_FUZZ_SEED")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 20260806u;
}

/// One small synthetic corpus shared by every test in the binary: the
/// generator is deterministic, and the pipelines under test copy the texts.
struct Corpus {
  std::vector<std::pair<std::string, std::string>> dumps;  // priority order
  std::map<std::string, std::string> dump_map;             // churn catalog
  std::string relationships;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    synth::SynthConfig config;
    config.scale = 0.05;
    config.seed = 11;
    synth::InternetGenerator generator(config);
    Corpus built;
    built.dump_map = generator.irr_dumps();
    for (const auto& name : synth::irr_names()) {
      built.dumps.emplace_back(name, generator.irr_dumps().at(name));
    }
    built.relationships = generator.caida_serial1();
    return built;
  }();
  return c;
}

/// Probe caps sized for test runtime; equality over a capped probe set is
/// still equality over every surface class (queries, tries, reports).
EquivalenceOptions test_equiv_options() {
  EquivalenceOptions options;
  options.max_sets = 60;
  options.max_asns = 60;
  options.max_routes = 40;
  return options;
}

void expect_equivalent(const DeltaPipeline& incremental, const DeltaPipeline& full,
                       const std::string& context) {
  const EquivalenceResult eq = compare_snapshots(
      incremental.current_snapshot(), full.current_snapshot(), test_equiv_options());
  EXPECT_TRUE(eq.equal) << context << ": " << eq.mismatches << "/" << eq.probes
                        << " probes mismatched\n"
                        << eq.first_mismatch;
  EXPECT_EQ(eq.digest_left, eq.digest_right) << context;
}

JournalBatch single_op_batch(std::uint64_t serial, JournalOp::Kind kind,
                             std::string source, std::string paragraph) {
  JournalBatch batch;
  batch.first_serial = batch.last_serial = serial;
  batch.ops.push_back({kind, serial, std::move(source), std::move(paragraph)});
  return batch;
}

class DeltaTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

// ---------------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------------

TEST(JournalFormat, RenderParseRoundTrip) {
  JournalBatch batch;
  batch.first_serial = 7;
  batch.last_serial = 12;
  batch.ops.push_back({JournalOp::Kind::kAdd, 7, "RADB",
                       "aut-num: AS64500\nimport: from AS64501 accept ANY\n"});
  batch.ops.push_back(
      {JournalOp::Kind::kDel, 12, "RIPE", "route: 192.0.2.0/24\norigin: AS64500\n"});
  std::string error;
  const auto parsed = parse_journal(render_journal(batch), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, batch);
}

TEST(JournalFormat, RefusalsAreAtomicWithReasons) {
  const std::string valid =
      "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\n%END 3\n";
  ASSERT_TRUE(parse_journal(valid).has_value());

  const std::pair<std::string, std::string> cases[] = {
      {"missing %START", "ADD 3 RADB\n\naut-num: AS1\n\n%END 3\n"},
      {"truncated (no %END)", "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n"},
      {"CRLF endings", "%START 3\r\n\r\nADD 3 RADB\r\n\r\naut-num: AS1\r\n\r\n%END 3\r\n"},
      {"trailing content", valid + "leftover\n"},
      {"empty batch", "%START 3\n\n%END 3\n"},
      {"non-increasing serials",
       "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\nADD 3 RADB\n\naut-num: AS2\n\n%END 3\n"},
      {"%END serial mismatch", "%START 3\n\nADD 3 RADB\n\naut-num: AS1\n\n%END 9\n"},
      {"garbage paragraph", "%START 3\n\nADD 3 RADB\n\nnot an rpsl object\n\n%END 3\n"},
  };
  for (const auto& [label, text] : cases) {
    std::string error;
    EXPECT_FALSE(parse_journal(text, &error).has_value()) << label;
    EXPECT_FALSE(error.empty()) << label;
  }
}

TEST(JournalFormat, FileNamesSortInSerialOrder) {
  EXPECT_EQ(journal_file_name(42), "batch-000000042.nrtm");
  EXPECT_LT(journal_file_name(999), journal_file_name(1000));
}

// ---------------------------------------------------------------------------
// Differential equivalence under seeded churn
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, ChurnBatchesStayByteIdenticalToFullCompile) {
  DeltaPipeline incremental(corpus().dumps, corpus().relationships);
  PipelineOptions full_options;
  full_options.always_full = true;
  DeltaPipeline full(corpus().dumps, corpus().relationships, full_options);

  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env();
  churn_config.ops_per_batch = 12;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  for (int b = 0; b < 40; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    const ApplyResult inc_result = incremental.apply(batch);
    const ApplyResult full_result = full.apply(batch);
    ASSERT_FALSE(inc_result.refused) << inc_result.error;
    ASSERT_FALSE(full_result.refused) << full_result.error;
    EXPECT_EQ(inc_result.ops_applied, full_result.ops_applied);
    EXPECT_EQ(inc_result.ops_skipped, full_result.ops_skipped);
    expect_equivalent(incremental, full, "batch " + std::to_string(b));
  }
  // The incremental side must actually be incremental: across 40 batches of
  // 12-op churn, at least one apply reused previous-generation tables.
  EXPECT_FALSE(incremental.current()->stats.full_rebuild);
  EXPECT_GT(incremental.current()->stats.as_sets_seeded +
                incremental.current()->stats.route_sets_reused +
                incremental.current()->stats.regexes_reused,
            0u);
}

TEST_F(DeltaTest, IncrementalMatchesLoaderFromScratchCompile) {
  DeltaPipeline incremental(corpus().dumps, corpus().relationships);
  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x5bd1e995u;
  churn_config.ops_per_batch = 10;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);
  for (int b = 0; b < 5; ++b) {
    const ApplyResult result = incremental.apply(churn.next_batch());
    ASSERT_FALSE(result.refused) << result.error;
  }
  // Reference side through the ordinary batch loader, not the pipeline: the
  // store's canonical texts must round-trip to the same compiled artifact.
  auto lyzer = std::make_shared<Rpslyzer>(Rpslyzer::from_texts(
      incremental.store().source_texts(), corpus().relationships));
  auto snapshot = lyzer->snapshot();
  const std::shared_ptr<const compile::CompiledPolicySnapshot> reference{
      std::move(lyzer), snapshot.get()};
  const EquivalenceResult eq = compare_snapshots(incremental.current_snapshot(),
                                                 reference, test_equiv_options());
  EXPECT_TRUE(eq.equal) << eq.mismatches << "/" << eq.probes
                        << " probes mismatched\n"
                        << eq.first_mismatch;
}

// ---------------------------------------------------------------------------
// Journal semantics: replay, gaps, nonexistent DELs
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, DuplicateSerialsAreSkippedIdempotently) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto batch = single_op_batch(5, JournalOp::Kind::kAdd, "RADB",
                                     "as-set: AS-DELTATEST\nmembers: AS64500\n");
  const ApplyResult first = pipeline.apply(batch);
  ASSERT_TRUE(first.applied);
  EXPECT_EQ(first.ops_applied, 1u);
  const std::uint64_t generation = pipeline.current()->number;

  // Same batch again: pure replay. Success, no new generation published.
  const ApplyResult again = pipeline.apply(batch);
  EXPECT_FALSE(again.applied);
  EXPECT_FALSE(again.refused);
  EXPECT_EQ(again.ops_skipped, 1u);
  EXPECT_EQ(pipeline.current()->number, generation);
  EXPECT_EQ(pipeline.applied_serial(), 5u);
}

TEST_F(DeltaTest, SerialGapsBetweenBatchesAreLegal) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(10, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-GAP-A\nmembers: AS64500\n"))
                  .applied);
  // Serial jumps from 10 to 1000: NRTM serials are sparse in the wild.
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(1000, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-GAP-B\nmembers: AS-GAP-A\n"))
                  .applied);
  EXPECT_EQ(pipeline.applied_serial(), 1000u);
}

TEST_F(DeltaTest, DelOfNonexistentObjectIsANoOpNotARefusal) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const std::uint64_t generation = pipeline.current()->number;
  const ApplyResult result = pipeline.apply(single_op_batch(
      3, JournalOp::Kind::kDel, "RADB", "as-set: AS-NEVER-EXISTED\n"));
  ASSERT_FALSE(result.refused) << result.error;
  EXPECT_TRUE(result.applied);
  // The object was absent before and after: the merged-view diff finds no
  // change, so nothing recompiles.
  EXPECT_EQ(result.dirty_objects, 0u);
  EXPECT_GT(pipeline.current()->number, generation);
}

TEST_F(DeltaTest, UnknownSourceRefusesAtomically) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto before = pipeline.current();
  const ApplyResult result = pipeline.apply(single_op_batch(
      4, JournalOp::Kind::kAdd, "NO-SUCH-IRR", "as-set: AS-X\nmembers: AS1\n"));
  EXPECT_TRUE(result.refused);
  EXPECT_FALSE(result.error.empty());
  // Last-good generation still serving, store untouched, serial unchanged.
  EXPECT_EQ(pipeline.current().get(), before.get());
  EXPECT_EQ(pipeline.applied_serial(), 0u);

  // The pipeline is not poisoned: a valid batch still applies.
  EXPECT_TRUE(pipeline
                  .apply(single_op_batch(4, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-X\nmembers: AS64500\n"))
                  .applied);
}

// ---------------------------------------------------------------------------
// Failpoints: delta.apply refusal, delta.dirty degradation
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, ApplyFailpointRefusesBeforeAnyMutation) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto before = pipeline.current();
  ASSERT_TRUE(fp::set("delta.apply", "1*error(injected apply fault)"));
  const auto batch = single_op_batch(6, JournalOp::Kind::kAdd, "RADB",
                                     "as-set: AS-FAULTED\nmembers: AS64500\n");
  const ApplyResult faulted = pipeline.apply(batch);
  EXPECT_TRUE(faulted.refused);
  EXPECT_EQ(faulted.error, "injected apply fault");
  EXPECT_EQ(pipeline.current().get(), before.get());

  // The refusal is transient: the identical batch applies once the fault
  // clears (the 1* budget above is already spent).
  const ApplyResult retried = pipeline.apply(batch);
  EXPECT_TRUE(retried.applied) << retried.error;
  EXPECT_EQ(pipeline.applied_serial(), 6u);
}

TEST_F(DeltaTest, DirtyFailpointDegradesToFullRebuildStillEquivalent) {
  DeltaPipeline incremental(corpus().dumps, corpus().relationships);
  PipelineOptions full_options;
  full_options.always_full = true;
  DeltaPipeline full(corpus().dumps, corpus().relationships, full_options);

  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x27d4eb2fu;
  churn_config.ops_per_batch = 8;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  ASSERT_TRUE(fp::set("delta.dirty", "error"));
  for (int b = 0; b < 3; ++b) {
    SCOPED_TRACE("degraded batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    const ApplyResult result = incremental.apply(batch);
    ASSERT_TRUE(result.applied) << result.error;
    // Degraded dirty computation = full, still-correct rebuild.
    EXPECT_TRUE(incremental.current()->stats.full_rebuild);
    ASSERT_TRUE(full.apply(batch).applied);
    expect_equivalent(incremental, full, "degraded batch " + std::to_string(b));
  }
  fp::clear("delta.dirty");

  // Back to incremental service after the fault clears, equivalence intact.
  for (int b = 0; b < 3; ++b) {
    SCOPED_TRACE("recovered batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    ASSERT_TRUE(incremental.apply(batch).applied);
    ASSERT_TRUE(full.apply(batch).applied);
    EXPECT_FALSE(incremental.current()->stats.full_rebuild);
    expect_equivalent(incremental, full, "recovered batch " + std::to_string(b));
  }
}

TEST_F(DeltaTest, ChurnUnderIntermittentFaultsStaysEquivalent) {
  DeltaPipeline incremental(corpus().dumps, corpus().relationships);
  PipelineOptions full_options;
  full_options.always_full = true;
  DeltaPipeline full(corpus().dumps, corpus().relationships, full_options);

  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x165667b1u;
  churn_config.ops_per_batch = 10;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  for (int b = 0; b < 20; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const JournalBatch batch = churn.next_batch();
    if (b % 5 == 1) {
      // A one-shot apply fault: the batch refuses, then the retry applies.
      ASSERT_TRUE(fp::set("delta.apply", "1*error"));
      EXPECT_TRUE(incremental.apply(batch).refused);
    }
    if (b % 7 == 3) {
      ASSERT_TRUE(fp::set("delta.dirty", "1*error"));
    }
    ASSERT_TRUE(incremental.apply(batch).applied);
    ASSERT_TRUE(full.apply(batch).applied);
    expect_equivalent(incremental, full, "batch " + std::to_string(b));
  }
}

// ---------------------------------------------------------------------------
// Store and stats surfaces
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, StatsLineCarriesSerialAndDirtySize) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  EXPECT_NE(pipeline.stats_line().find("serial=0"), std::string::npos);
  ASSERT_TRUE(pipeline
                  .apply(single_op_batch(9, JournalOp::Kind::kAdd, "RADB",
                                         "as-set: AS-STATS\nmembers: AS64500\n"))
                  .applied);
  const std::string line = pipeline.stats_line();
  EXPECT_NE(line.find("serial=9"), std::string::npos) << line;
  EXPECT_NE(line.find("batches=1"), std::string::npos) << line;
  EXPECT_NE(line.find("dirty="), std::string::npos) << line;
}

TEST_F(DeltaTest, StoreRoundTripsModifyAndDelete) {
  CorpusStore store;
  store.init({{"RADB", "as-set: AS-ONE\nmembers: AS1\n\naut-num: AS1\n"},
              {"RIPE", "as-set: AS-ONE\nmembers: AS2\n"}});
  // Priority: RADB's definition shadows RIPE's.
  ASSERT_NE(store.merged_as_set("AS-ONE"), nullptr);
  ASSERT_EQ(store.merged_as_set("AS-ONE")->members.size(), 1u);
  EXPECT_EQ(store.merged_as_set("AS-ONE")->members[0].asn, 1u);

  // DEL the RADB copy: the RIPE definition becomes the merged view.
  JournalBatch del = single_op_batch(1, JournalOp::Kind::kDel, "RADB",
                                     "as-set: AS-ONE\n");
  std::size_t skipped = 0;
  std::string error;
  auto prepared = store.prepare(del, 0, &skipped, &error);
  ASSERT_TRUE(prepared.has_value()) << error;
  auto undo = store.apply(*prepared);
  ASSERT_NE(store.merged_as_set("AS-ONE"), nullptr);
  EXPECT_EQ(store.merged_as_set("AS-ONE")->members[0].asn, 2u);

  // revert() restores the pre-batch world exactly.
  store.revert(std::move(undo));
  ASSERT_NE(store.merged_as_set("AS-ONE"), nullptr);
  EXPECT_EQ(store.merged_as_set("AS-ONE")->members[0].asn, 1u);
}


// ---------------------------------------------------------------------------
// Shared rule lists: an apply keeps every unedited aut-num's rules
// ---------------------------------------------------------------------------

/// The first aut-num of `ir` with import rules: the one the tests edit.
const ir::AutNum& edit_target(const ir::Ir& ir) {
  for (const auto& [asn, an] : ir.aut_nums) {
    if (!an.imports.empty()) return an;
  }
  throw std::runtime_error("corpus has no aut-num with imports");
}

/// An ADD that replaces `an` in its own source with one different rule.
JournalBatch edit_batch(std::uint64_t serial, const ir::AutNum& an) {
  return single_op_batch(serial, JournalOp::Kind::kAdd, ir::to_string(an.source),
                         "aut-num: AS" + std::to_string(an.asn) +
                             "\nimport: from AS64999 accept ANY\nexport: to AS64999 "
                             "announce AS" +
                             std::to_string(an.asn) + "\n");
}

/// The store's merged rule lists per aut-num (copies hold the storage, so
/// an address cannot be reused while the map lives).
std::map<ir::Asn, std::pair<ir::RuleList, ir::RuleList>> store_lists(
    const DeltaPipeline& pipeline) {
  std::map<ir::Asn, std::pair<ir::RuleList, ir::RuleList>> out;
  for (const auto& [asn, an] : pipeline.current()->ir->aut_nums) {
    const ir::AutNum* stored = pipeline.store().merged_aut_num(asn);
    EXPECT_NE(stored, nullptr) << asn;
    if (stored != nullptr) out.emplace(asn, std::pair{stored->imports, stored->exports});
  }
  return out;
}

void expect_store_keeps(const DeltaPipeline& pipeline,
                        const std::map<ir::Asn, std::pair<ir::RuleList, ir::RuleList>>& lists,
                        const std::string& context) {
  for (const auto& [asn, rules] : lists) {
    const ir::AutNum* stored = pipeline.store().merged_aut_num(asn);
    ASSERT_NE(stored, nullptr) << context << " AS" << asn;
    EXPECT_TRUE(stored->imports.shares(rules.first)) << context << " AS" << asn;
    EXPECT_TRUE(stored->exports.shares(rules.second)) << context << " AS" << asn;
  }
}

TEST_F(DeltaTest, ApplySharesEveryUneditedAutNumsRuleLists) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto previous = pipeline.current();
  const ir::AutNum& target = edit_target(*previous->ir);
  const ApplyResult result = pipeline.apply(edit_batch(1, target));
  ASSERT_TRUE(result.applied) << result.error;
  const auto next = pipeline.current();
  ASSERT_NE(next.get(), previous.get());
  ASSERT_EQ(next->ir->aut_nums.size(), previous->ir->aut_nums.size());

  std::size_t shared = 0;
  for (const auto& [asn, an] : next->ir->aut_nums) {
    const ir::AutNum& before = previous->ir->aut_nums.at(asn);
    if (asn == target.asn) {
      EXPECT_FALSE(an.imports.shares(before.imports));
      EXPECT_FALSE(an.exports.shares(before.exports));
      EXPECT_NE(an, before);
      continue;
    }
    EXPECT_TRUE(an.imports.shares(before.imports)) << "AS" << asn;
    EXPECT_TRUE(an.exports.shares(before.exports)) << "AS" << asn;
    if (!an.imports.empty()) {
      EXPECT_EQ(&an.imports[0], &before.imports[0]) << "AS" << asn;
    }
    ++shared;
  }
  EXPECT_EQ(shared, next->ir->aut_nums.size() - 1);
  EXPECT_FALSE(next->stats.full_rebuild);
  // The edited aut-num's cone and relations are unchanged, but its rules
  // are new: every other aut-num carries its compiled rules forward.
  EXPECT_EQ(next->stats.aut_nums_reused, shared);

  // Still byte-identical to a from-scratch build of the edited corpus.
  auto lyzer = std::make_shared<Rpslyzer>(Rpslyzer::from_texts(
      pipeline.store().source_texts(), corpus().relationships));
  auto snapshot = lyzer->snapshot();
  const std::shared_ptr<const compile::CompiledPolicySnapshot> reference{
      std::move(lyzer), snapshot.get()};
  const EquivalenceResult eq =
      compare_snapshots(pipeline.current_snapshot(), reference, test_equiv_options());
  EXPECT_TRUE(eq.equal) << eq.mismatches << "/" << eq.probes << " probes mismatched\n"
                        << eq.first_mismatch;
}

TEST_F(DeltaTest, RefusedApplyKeepsTheStoresRuleListsShared) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto previous = pipeline.current();
  const auto lists = store_lists(pipeline);
  const JournalBatch batch = edit_batch(1, edit_target(*previous->ir));

  // Refused before the store is touched.
  ASSERT_TRUE(fp::set("delta.apply", "1*error"));
  EXPECT_TRUE(pipeline.apply(batch).refused);
  EXPECT_EQ(pipeline.current().get(), previous.get());
  expect_store_keeps(pipeline, lists, "delta.apply");

  // Refused after the store was mutated: the degraded full rebuild fails,
  // and revert() puts back the very lists the batch replaced.
  ASSERT_TRUE(fp::set("delta.dirty", "1*error"));
  ASSERT_TRUE(fp::set("compile.build", "1*error"));
  EXPECT_TRUE(pipeline.apply(batch).refused);
  EXPECT_EQ(pipeline.current().get(), previous.get());
  expect_store_keeps(pipeline, lists, "delta.dirty revert");

  // A degraded batch that applies rebuilds in full from the same lists.
  ASSERT_TRUE(fp::set("delta.dirty", "1*error"));
  const ApplyResult applied = pipeline.apply(batch);
  ASSERT_TRUE(applied.applied) << applied.error;
  EXPECT_TRUE(pipeline.current()->stats.full_rebuild);
  EXPECT_EQ(pipeline.current()->stats.aut_nums_reused, 0u);
  auto unedited = lists;
  unedited.erase(edit_target(*previous->ir).asn);
  expect_store_keeps(pipeline, unedited, "delta.dirty full rebuild");
  for (const auto& [asn, rules] : unedited) {
    EXPECT_TRUE(pipeline.current()->ir->aut_nums.at(asn).imports.shares(rules.first));
  }
}

TEST(CorpusStoreMerge, MaterializeMatchesTheLoaderAfterEdits) {
  CorpusStore store;
  store.init({{"RADB", "as-set: AS-Case\nmembers: AS1\n\naut-num: AS1\n"
                       "import: from AS2 accept ANY\n\nroute: 192.0.2.0/24\norigin: AS1\n"},
              {"RIPE", "as-set: AS-CASE\nmembers: AS2\n\naut-num: AS1\n\n"
                       "route: 192.0.2.0/24\norigin: AS1\n\nroute: 198.51.100.0/24\n"
                       "origin: AS2\n"}});
  const auto expect_loader_view = [&](const std::string& context) {
    const ir::Ir got = store.materialize();
    const ir::Ir want = irr::load_irrs(store.source_texts()).ir;
    EXPECT_EQ(got.aut_nums, want.aut_nums) << context;
    ASSERT_EQ(got.as_sets.size(), want.as_sets.size()) << context;
    for (auto g = got.as_sets.begin(), w = want.as_sets.begin(); g != got.as_sets.end();
         ++g, ++w) {
      EXPECT_EQ(g->first, w->first) << context;  // the winning source's spelling
      EXPECT_EQ(g->second, w->second) << context;
    }
    std::set<std::pair<std::string, ir::Asn>> got_routes, want_routes;
    for (const auto& r : got.routes) got_routes.emplace(r.prefix.to_string(), r.origin);
    for (const auto& r : want.routes) want_routes.emplace(r.prefix.to_string(), r.origin);
    EXPECT_EQ(got_routes, want_routes) << context;
    EXPECT_EQ(got.routes.size(), want.routes.size()) << context;
  };
  expect_loader_view("initial");

  const auto apply = [&](std::uint64_t serial, JournalOp::Kind kind, const char* source,
                         const char* paragraph) {
    std::size_t skipped = 0;
    std::string error;
    auto prepared =
        store.prepare(single_op_batch(serial, kind, source, paragraph), 0, &skipped, &error);
    EXPECT_TRUE(prepared.has_value()) << error;
    return prepared ? store.apply(*prepared) : CorpusStore::UndoLog{};
  };
  // Drop the shadowing RADB definitions: RIPE's spelling and objects win.
  apply(1, JournalOp::Kind::kDel, "RADB", "as-set: AS-Case\n");
  apply(2, JournalOp::Kind::kDel, "RADB", "aut-num: AS1\n");
  apply(3, JournalOp::Kind::kDel, "RADB", "route: 192.0.2.0/24\norigin: AS1\n");
  expect_loader_view("after DELs");
  // Shadow them again, then revert: the RIPE view comes back.
  auto undo = apply(4, JournalOp::Kind::kAdd, "RADB", "as-set: AS-Case\nmembers: AS3\n");
  expect_loader_view("after re-ADD");
  store.revert(std::move(undo));
  expect_loader_view("after revert");
  ASSERT_NE(store.merged_as_set("as-case"), nullptr);
  EXPECT_EQ(store.merged_as_set("as-case")->members.at(0).asn, 2u);
}

// ---------------------------------------------------------------------------
// Shared compiled pieces: clean aut-nums and the origin table carry forward
// ---------------------------------------------------------------------------

TEST_F(DeltaTest, CleanAutNumPiecesArePointerIdenticalAcrossAnApply) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  const auto previous = pipeline.current();
  const ir::AutNum& target = edit_target(*previous->ir);
  ASSERT_TRUE(pipeline.apply(edit_batch(1, target)).applied);
  const auto next = pipeline.current();

  std::size_t carried = 0;
  for (const auto& [asn, an] : next->ir->aut_nums) {
    const compile::CompiledAutNum* before = previous->snapshot->compiled_aut_num(asn);
    const compile::CompiledAutNum* after = next->snapshot->compiled_aut_num(asn);
    ASSERT_NE(before, nullptr) << "AS" << asn;
    ASSERT_NE(after, nullptr) << "AS" << asn;
    ASSERT_NE(after->storage, nullptr) << "AS" << asn;
    if (asn == target.asn) {
      EXPECT_NE(after->storage.get(), before->storage.get());
      EXPECT_NE(after->imports.data(), before->imports.data());
      continue;
    }
    EXPECT_EQ(after->storage.get(), before->storage.get()) << "AS" << asn;
    EXPECT_EQ(after->imports.data(), before->imports.data()) << "AS" << asn;
    EXPECT_EQ(after->exports.data(), before->exports.data()) << "AS" << asn;
    EXPECT_EQ(after->customer_cone.data(), before->customer_cone.data()) << "AS" << asn;
    for (std::size_t i = 0; i < after->reject_all.size(); ++i) {
      EXPECT_EQ(after->reject_all[i].plan.data(), before->reject_all[i].plan.data());
    }
    ++carried;
  }
  EXPECT_EQ(carried, next->ir->aut_nums.size() - 1);
  EXPECT_EQ(next->stats.aut_nums_reused, carried);
  EXPECT_EQ(next->stats.aut_nums_skipped + next->stats.aut_nums_rehydrated, carried);
  // No route changed: the next generation holds the very same origin table.
  EXPECT_EQ(&next->snapshot->origin_table(), &previous->snapshot->origin_table());
}

/// Every (prefix, origins) entry of a table, in prefix order: what the
/// persisted origin section is written from.
std::vector<std::pair<net::Prefix, std::vector<ir::Asn>>> origin_entries(
    const compile::OriginTable& table) {
  std::vector<std::pair<net::Prefix, std::vector<ir::Asn>>> out;
  table.for_each([&](const net::Prefix& prefix, std::span<const ir::Asn> origins) {
    out.emplace_back(prefix, std::vector<ir::Asn>(origins.begin(), origins.end()));
  });
  return out;
}

void expect_same_origin_table(const DeltaPipeline& incremental, const DeltaPipeline& full,
                              const std::string& context) {
  const auto inc = incremental.current_snapshot();
  const auto ref = full.current_snapshot();
  EXPECT_FALSE(incremental.current()->stats.full_rebuild) << context;
  EXPECT_EQ(origin_entries(inc->origin_table()), origin_entries(ref->origin_table())) << context;
  EXPECT_EQ(inc->trie_nodes(), ref->trie_nodes()) << context;
  EXPECT_EQ(inc->origin_table().node_count(), ref->origin_table().node_count()) << context;
  expect_equivalent(incremental, full, context);
}

TEST_F(DeltaTest, OriginTablePatchMatchesFromScratchBuild) {
  const std::vector<std::pair<std::string, std::string>> dumps{
      {"RADB",
       "aut-num: AS1\nimport: from AS2 accept ANY\nexport: to AS2 announce AS1\n\n"
       "aut-num: AS2\nimport: from AS1 accept AS1\nexport: to AS1 announce ANY\n\n"
       "aut-num: AS3\nimport: from AS2 accept ANY\n\n"
       "route: 10.0.0.0/8\norigin: AS1\n\nroute: 10.0.0.0/8\norigin: AS2\n\n"
       "route: 10.0.0.0/8\norigin: AS3\n\nroute: 10.1.0.0/16\norigin: AS1\n\n"
       "route6: a00::/8\norigin: AS1\n\nroute: 0.0.0.0/0\norigin: AS3\n\n"
       "route6: ::/0\norigin: AS2\n"}};
  const std::string relationships = "2|1|-1\n2|3|-1\n";
  DeltaPipeline incremental(dumps, relationships);
  PipelineOptions full_options;
  full_options.always_full = true;
  DeltaPipeline full(dumps, relationships, full_options);

  std::uint64_t serial = 0;
  const auto step = [&](const std::string& context,
                        std::vector<std::pair<JournalOp::Kind, std::string>> ops) {
    JournalBatch batch;
    batch.first_serial = serial + 1;
    for (auto& [kind, paragraph] : ops) batch.ops.push_back({kind, ++serial, "RADB", paragraph});
    batch.last_serial = serial;
    const ApplyResult inc = incremental.apply(batch);
    ASSERT_TRUE(inc.applied) << context << ": " << inc.error;
    ASSERT_TRUE(full.apply(batch).applied) << context;
    expect_same_origin_table(incremental, full, context);
  };
  constexpr auto kAdd = JournalOp::Kind::kAdd;
  constexpr auto kDel = JournalOp::Kind::kDel;
  const auto route = [](const char* prefix, int asn) {
    return std::string(std::string_view(prefix).find(':') != std::string_view::npos ? "route6: "
                                                                                     : "route: ") +
           prefix + "\norigin: AS" + std::to_string(asn) + "\n";
  };

  step("a shared prefix loses a middle origin", {{kDel, route("10.0.0.0/8", 2)}});
  step("the shared prefix loses its last origins",
       {{kDel, route("10.0.0.0/8", 1)}, {kDel, route("10.0.0.0/8", 3)}});
  step("the emptied prefix is re-added", {{kAdd, route("10.0.0.0/8", 3)}});
  step("v6 twin goes while the v4 one stays, /0 gains an origin",
       {{kDel, route("a00::/8", 1)}, {kAdd, route("0.0.0.0/0", 1)}});
  step("both /0s are emptied",
       {{kDel, route("0.0.0.0/0", 3)}, {kDel, route("0.0.0.0/0", 1)}, {kDel, route("::/0", 2)}});
  step("a deep branch is pruned", {{kDel, route("10.1.0.0/16", 1)}});
  step("twins and the /0 come back", {{kAdd, route("::/0", 2)},
                                      {kAdd, route("a00::/8", 1)},
                                      {kAdd, route("0.0.0.0/0", 2)},
                                      {kAdd, route("10.1.0.0/16", 3)}});
  EXPECT_EQ(incremental.current_snapshot()->exact_origins(*net::Prefix::parse("10.0.0.0/8")).size(),
            1u);
}

TEST_F(DeltaTest, OriginTableStaysBoundedOverChurnSoak) {
  DeltaPipeline pipeline(corpus().dumps, corpus().relationships);
  synth::ChurnConfig churn_config;
  churn_config.seed = seed_from_env() ^ 0x9e3779b9u;
  churn_config.ops_per_batch = 12;
  synth::ChurnGenerator churn(corpus().dump_map, churn_config);

  std::size_t patched = 0;
  for (int b = 0; b < 500; ++b) {
    const compile::OriginTable* before = &pipeline.current_snapshot()->origin_table();
    const ApplyResult result = pipeline.apply(churn.next_batch());
    ASSERT_FALSE(result.refused) << "batch " << b << ": " << result.error;
    const compile::OriginTable& table = pipeline.current_snapshot()->origin_table();
    if (&table != before) ++patched;
    ASSERT_LE(table.pool_size(), 2 * table.live_origins()) << "batch " << b;
    ASSERT_LE(table.node_slots(), 2 * table.node_count()) << "batch " << b;
  }
  EXPECT_GT(patched, 100u);

  auto lyzer = std::make_shared<Rpslyzer>(Rpslyzer::from_texts(
      pipeline.store().source_texts(), corpus().relationships));
  auto snapshot = lyzer->snapshot();
  const std::shared_ptr<const compile::CompiledPolicySnapshot> reference{
      std::move(lyzer), snapshot.get()};
  EXPECT_EQ(origin_entries(pipeline.current_snapshot()->origin_table()),
            origin_entries(reference->origin_table()));
  EXPECT_EQ(pipeline.current_snapshot()->trie_nodes(), reference->trie_nodes());
  const EquivalenceResult eq =
      compare_snapshots(pipeline.current_snapshot(), reference, test_equiv_options());
  EXPECT_TRUE(eq.equal) << eq.mismatches << "/" << eq.probes << " probes mismatched\n"
                        << eq.first_mismatch;
}

// ---------------------------------------------------------------------------
// Pooled init: the sharded initial load equals the serial loop it replaced
// ---------------------------------------------------------------------------

/// The store's initial load as it was before it ran on the loader's shard
/// primitives, kept as the reference: each dump is lexed whole with the
/// owning lexer, every object parsed, classified and rendered, and the
/// first definition of an identity within a source wins.
class SerialInitReference {
 public:
  enum class ObjectClass : std::uint8_t {
    kAutNum,
    kAsSet,
    kRouteSet,
    kPeeringSet,
    kFilterSet,
    kRoute,
    kOther,
  };

  struct SourceState {
    std::string name;
    std::map<ir::Asn, ir::AutNum> aut_nums;
    ir::NameMap<ir::AsSet> as_sets;
    ir::NameMap<ir::RouteSet> route_sets;
    ir::NameMap<ir::PeeringSet> peering_sets;
    ir::NameMap<ir::FilterSet> filter_sets;
    std::map<std::pair<net::Prefix, ir::Asn>, ir::RouteObject> routes;
    ir::NameMap<std::string> texts;  // identity -> canonical paragraph
  };

  explicit SerialInitReference(const std::vector<std::pair<std::string, std::string>>& dumps) {
    for (const auto& [name, text] : dumps) {
      SourceState src;
      src.name = name;
      util::Diagnostics diags;
      for (const rpsl::RawObject& raw : rpsl::lex_objects(text, name, diags)) {
        util::Diagnostics object_diags;
        rpsl::ParsedObject object = rpsl::parse_object(raw, object_diags);
        Classified c = classify(object, raw);
        if (src.texts.contains(c.identity)) continue;  // first definition wins
        src.texts.insert_or_assign(c.identity, render_paragraph(raw));
        switch (c.cls) {
          case ObjectClass::kAutNum:
            src.aut_nums.insert_or_assign(c.asn, std::get<ir::AutNum>(object));
            break;
          case ObjectClass::kAsSet:
            src.as_sets.insert_or_assign(c.name, std::get<ir::AsSet>(object));
            break;
          case ObjectClass::kRouteSet:
            src.route_sets.insert_or_assign(c.name, std::get<ir::RouteSet>(object));
            break;
          case ObjectClass::kPeeringSet:
            src.peering_sets.insert_or_assign(c.name, std::get<ir::PeeringSet>(object));
            break;
          case ObjectClass::kFilterSet:
            src.filter_sets.insert_or_assign(c.name, std::get<ir::FilterSet>(object));
            break;
          case ObjectClass::kRoute:
            src.routes.insert_or_assign(c.route_key, std::get<ir::RouteObject>(object));
            break;
          case ObjectClass::kOther:
            break;
        }
      }
      sources_.push_back(std::move(src));
    }
    for (const SourceState& src : sources_) {
      insert_absent(merged_.aut_nums, src.aut_nums);
      insert_absent(merged_.as_sets, src.as_sets);
      insert_absent(merged_.route_sets, src.route_sets);
      insert_absent(merged_.peering_sets, src.peering_sets);
      insert_absent(merged_.filter_sets, src.filter_sets);
      insert_absent(merged_.routes, src.routes);
    }
  }

  std::vector<std::pair<std::string, std::string>> source_texts() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const SourceState& src : sources_) {
      std::string text;
      for (const auto& [identity, paragraph] : src.texts) {
        text += paragraph;
        text += '\n';
      }
      out.emplace_back(src.name, std::move(text));
    }
    return out;
  }

  std::size_t object_count() const {
    std::size_t total = 0;
    for (const SourceState& src : sources_) total += src.texts.size();
    return total;
  }

  const SourceState& merged() const { return merged_; }

 private:
  struct Classified {
    ObjectClass cls = ObjectClass::kOther;
    std::string identity;
    ir::Asn asn = 0;
    std::string name;
    std::pair<net::Prefix, ir::Asn> route_key{};
  };

  static std::string render_paragraph(const rpsl::RawObject& raw) {
    std::string out;
    for (const rpsl::RawAttribute& attr : raw.attributes) {
      out += attr.name;
      out += ':';
      if (!attr.value.empty()) {
        out += ' ';
        out += attr.value;
      }
      out += '\n';
    }
    return out;
  }

  static Classified classify(const rpsl::ParsedObject& object, const rpsl::RawObject& raw) {
    Classified c;
    if (const auto* an = std::get_if<ir::AutNum>(&object)) {
      c.cls = ObjectClass::kAutNum;
      c.asn = an->asn;
      c.identity = "aut-num:AS" + std::to_string(an->asn);
    } else if (const auto* as = std::get_if<ir::AsSet>(&object)) {
      c.cls = ObjectClass::kAsSet;
      c.name = ir::to_string(as->name);
      c.identity = "as-set:" + c.name;
    } else if (const auto* rs = std::get_if<ir::RouteSet>(&object)) {
      c.cls = ObjectClass::kRouteSet;
      c.name = ir::to_string(rs->name);
      c.identity = "route-set:" + c.name;
    } else if (const auto* ps = std::get_if<ir::PeeringSet>(&object)) {
      c.cls = ObjectClass::kPeeringSet;
      c.name = ir::to_string(ps->name);
      c.identity = "peering-set:" + c.name;
    } else if (const auto* fs = std::get_if<ir::FilterSet>(&object)) {
      c.cls = ObjectClass::kFilterSet;
      c.name = ir::to_string(fs->name);
      c.identity = "filter-set:" + c.name;
    } else if (const auto* route = std::get_if<ir::RouteObject>(&object)) {
      c.cls = ObjectClass::kRoute;
      c.route_key = {route->prefix, route->origin};
      c.identity =
          "route:" + route->prefix.to_string() + ":AS" + std::to_string(route->origin);
    } else {
      c.cls = ObjectClass::kOther;
      c.identity = raw.class_name + ":" + raw.key;
    }
    return c;
  }

  template <typename Map>
  static void insert_absent(Map& into, const Map& from) {
    for (const auto& [key, object] : from) into.try_emplace(key, object);
  }

  std::vector<SourceState> sources_;
  SourceState merged_;
};

/// A dump of several loader shards. Its first shard defines one object of
/// every keyed class (and one unmodeled object) that its last shard defines
/// again with other content and, for the set, another spelling; the filler
/// between them mixes unmodeled objects with aut-nums, routes, continuation
/// lines and upper-case attribute names.
std::string multi_shard_dump() {
  const std::string first =
      "as-set: AS-SHARDDUP\nmembers: AS64500\n\n"
      "aut-num: AS4200000001\nimport: from AS64500 accept ANY\n\n"
      "route: 203.0.113.0/24\norigin: AS4200000001\nmember-of: RS-SHARD\n\n"
      "route-set: RS-SHARD\nmembers: 203.0.113.0/24\n\n"
      "person: Shard Duplicate\nnic-hdl: SD1-TEST\n\n";
  const std::string last =
      "as-set: as-sharddup\nmembers: AS64501\n\n"
      "aut-num: AS4200000001\nimport: from AS64501 accept ANY\n\n"
      "route: 203.0.113.0/24\norigin: AS4200000001\n\n"
      "route-set: rs-shard\nmembers: 198.51.100.0/24\n\n"
      "person: Shard Duplicate\nnic-hdl: SD2-TEST\n";
  std::string text = first;
  for (std::uint32_t i = 0; text.size() < (3u << 20); ++i) {
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0:
        text += "person: Filler " + n + "\nnic-hdl: F" + n +
                "-TEST\naddress: 1 Example Road,\n  Example City # joined\n\n";
        break;
      case 1:
        text += "aut-num: AS" + std::to_string(4210000000u + i) +
                "\nIMPORT: from AS64500 accept ANY\nexport: to AS64500\n  announce AS" +
                std::to_string(4210000000u + i) + "\n\n";
        break;
      case 2:
        text += "route: 10." + std::to_string((i >> 8) & 255) + "." + std::to_string(i & 255) +
                ".0/24\norigin: AS" + std::to_string(4210000000u + i - 1) + "\n\n";
        break;
      default:
        text += "mntner: MAINT-F" + n + "\nauth: CRYPT-PW x\n\n";
        break;
    }
  }
  return text + last;
}

/// Where two lists of dump texts first differ, or "" when they are equal:
/// a mismatch of multi-megabyte texts reports a position and a snippet, not
/// both texts.
std::string first_difference(const std::vector<std::pair<std::string, std::string>>& got,
                             const std::vector<std::pair<std::string, std::string>>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " sources, want " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first) return "source " + got[i].first + " at " + want[i].first;
    const std::string& a = got[i].second;
    const std::string& b = want[i].second;
    const auto [x, y] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    if (x != a.end() || y != b.end()) {
      const auto at = static_cast<std::size_t>(x - a.begin());
      return got[i].first + " differs at byte " + std::to_string(at) + ": \"" +
             a.substr(at, 60) + "\" vs \"" + b.substr(at, 60) + "\"";
    }
  }
  return "";
}

TEST_F(DeltaTest, ShardedInitMatchesTheSerialInit) {
  std::vector<std::pair<std::string, std::string>> dumps = corpus().dumps;
  const std::string big = multi_shard_dump();
  ASSERT_GT(rpsl::shard_objects(big, irr::LoadOptions{}.shard_target_bytes).size(), 2u);
  dumps.insert(dumps.begin() + 1, {"SHARDED", big});
  // The last source redefines the first shard's as-set under a third
  // spelling; the SHARDED source's winning spelling must shadow it.
  dumps.back().second += "\nas-set: As-ShardDup\nmembers: AS64502\n";

  CorpusStore store;
  store.init(dumps);
  const SerialInitReference reference(dumps);

  // Comparisons print keys, not values: the corpus is megabytes.
  EXPECT_EQ(first_difference(store.source_texts(), reference.source_texts()), "");
  EXPECT_EQ(store.object_count(), reference.object_count());

  const auto& merged = reference.merged();
  for (const auto& [asn, an] : merged.aut_nums) {
    const ir::AutNum* got = store.merged_aut_num(asn);
    ASSERT_NE(got, nullptr) << asn;
    EXPECT_TRUE(*got == an) << asn;
  }
  for (const auto& [name, set] : merged.as_sets) {
    const ir::AsSet* got = store.merged_as_set(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_TRUE(*got == set) << name;
  }
  for (const auto& [name, set] : merged.route_sets) {
    const ir::RouteSet* got = store.merged_route_set(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_TRUE(*got == set) << name;
  }
  for (const auto& [name, set] : merged.peering_sets) {
    const ir::PeeringSet* got = store.merged_peering_set(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_TRUE(*got == set) << name;
  }
  for (const auto& [name, set] : merged.filter_sets) {
    const ir::FilterSet* got = store.merged_filter_set(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_TRUE(*got == set) << name;
  }
  for (const auto& [key, route] : merged.routes) {
    const ir::RouteObject* got = store.merged_route(key);
    ASSERT_NE(got, nullptr) << key.first.to_string();
    EXPECT_TRUE(*got == route) << key.first.to_string();
  }
  // The first shard's definitions won over the last shard's.
  ASSERT_NE(store.merged_as_set("AS-SHARDDUP"), nullptr);
  EXPECT_EQ(store.merged_as_set("AS-SHARDDUP")->members.at(0).asn, 64500u);

  // The merged view is the loader's, name spellings included.
  const ir::Ir got = store.materialize();
  const ir::Ir want = irr::load_irrs(dumps).ir;
  EXPECT_EQ(got.aut_nums.size(), merged.aut_nums.size());
  EXPECT_EQ(got.as_sets.size(), merged.as_sets.size());
  EXPECT_EQ(got.routes.size(), merged.routes.size());
  EXPECT_TRUE(got.aut_nums == want.aut_nums);
  EXPECT_TRUE(got.as_sets == want.as_sets);
  EXPECT_TRUE(got.route_sets == want.route_sets);
  EXPECT_TRUE(got.peering_sets == want.peering_sets);
  EXPECT_TRUE(got.filter_sets == want.filter_sets);
  const auto by_key = [](std::vector<ir::RouteObject> routes) {
    std::sort(routes.begin(), routes.end(), [](const auto& a, const auto& b) {
      return std::pair{a.prefix, a.origin} < std::pair{b.prefix, b.origin};
    });
    return routes;
  };
  EXPECT_TRUE(by_key(got.routes) == by_key(want.routes));
}

}  // namespace
}  // namespace rpslyzer::delta
