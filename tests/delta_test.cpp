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

}  // namespace
}  // namespace rpslyzer::delta
