#include "rpslyzer/rpslyzer.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "rpslyzer/synth/generator.hpp"
#include "rpslyzer/util/failpoint.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer {
namespace {

TEST(CoreApi, FromTextsMergesInGivenPriorityOrder) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {
          {"FIRST", "aut-num: AS1\nas-name: WINNER\n"},
          {"SECOND", "aut-num: AS1\nas-name: LOSER\n\nroute: 10.0.0.0/8\norigin: AS1\n"},
      },
      "1|2|-1\n");
  EXPECT_EQ(rpslyzer::ir::sym_view(lyzer.ir().aut_nums.at(1).as_name), "WINNER");
  EXPECT_EQ(lyzer.ir().routes.size(), 1u);
  EXPECT_EQ(lyzer.relations().between(1, 2), relations::Relationship::kProvider);
  ASSERT_EQ(lyzer.irr_counts().size(), 2u);
  EXPECT_EQ(lyzer.irr_counts()[0].name, "FIRST");
}

TEST(CoreApi, DiagnosticsAccumulateAcrossSources) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {
          {"A", "aut-num: AS1\nimport: fron AS2 accept ANY\n"},
          {"B", "as-set: BAD-NAME\n"},
      },
      "x|y|z\n");
  EXPECT_GE(lyzer.diagnostics().count(util::DiagnosticKind::kSyntaxError), 2u);
  EXPECT_GE(lyzer.diagnostics().count(util::DiagnosticKind::kInvalidSetName), 1u);
}

TEST(CoreApi, VerifierOptionsPropagate) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {{"A", "aut-num: AS1\nimport: from AS3 accept AS4\n\nroute: 10.4.0.0/16\norigin: AS4\n"}},
      "");
  bgp::Route r{*net::Prefix::parse("10.99.0.0/16"), {1, 3, 4}};

  verify::Verifier relaxed = lyzer.verifier();
  EXPECT_EQ(relaxed.verify_route(r)[1].import_result.status, verify::Status::kRelaxed);

  verify::VerifyOptions strict;
  strict.relaxations = false;
  strict.safelists = false;
  verify::Verifier strict_verifier = lyzer.verifier(strict);
  EXPECT_EQ(strict_verifier.verify_route(r)[1].import_result.status,
            verify::Status::kUnverified);
}

TEST(CoreApi, ExportIrShape) {
  Rpslyzer lyzer = Rpslyzer::from_texts(
      {{"A", "aut-num: AS1\nimport: from AS2 accept ANY\n\nroute: 10.0.0.0/8\norigin: AS1\n"}},
      "");
  json::Value v = lyzer.export_ir();
  EXPECT_EQ(v.at("aut-nums").as_object().size(), 1u);
  EXPECT_EQ(v.at("routes").as_array().size(), 1u);
  // And it reconstructs the identical corpus.
  EXPECT_EQ(ir::ir_from_json(v), lyzer.ir());
}

TEST(CoreApi, EmptyInputs) {
  Rpslyzer lyzer = Rpslyzer::from_texts({}, "");
  EXPECT_EQ(lyzer.ir().object_count(), 0u);
  EXPECT_TRUE(lyzer.relations().tier1().empty());
  // Verifying against an empty corpus classifies everything unrecorded.
  bgp::Route r{*net::Prefix::parse("10.0.0.0/8"), {1, 2}};
  auto hops = lyzer.verifier().verify_route(r);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].import_result.status, verify::Status::kUnrecorded);
  EXPECT_EQ(hops[0].export_result.status, verify::Status::kUnrecorded);
}


// from_texts runs the same ingestion pipeline as from_files, minus the file
// read: the 13 synthetic dumps, in memory and on disk, load identically.
class FromTexts : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::SynthConfig config;
    config.scale = 0.05;
    config.seed = 11;
    config.syntax_error_objects = 8;
    synth::InternetGenerator generator(config);
    dir_ = std::filesystem::temp_directory_path() /
           ("rpslyzer-core-api-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    for (const irr::IrrSource& source : irr::table1_sources(dir_)) {
      const std::string& text = generator.irr_dumps().at(source.name);
      dumps_.emplace_back(source.name, text);
      std::ofstream(source.path, std::ios::binary) << text;
    }
    relationships_ = generator.caida_serial1();
    std::ofstream(dir_ / "relationships.txt", std::ios::binary) << relationships_;
  }
  void TearDown() override {
    util::failpoint::clear_all();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::vector<std::pair<std::string, std::string>> dumps_;
  std::string relationships_;
};

TEST_F(FromTexts, EqualsFromFilesOnTheSameCorpus) {
  const Rpslyzer texts = Rpslyzer::from_texts(dumps_, relationships_);
  const Rpslyzer files = Rpslyzer::from_files(dir_, dir_ / "relationships.txt");
  EXPECT_TRUE(texts.ir() == files.ir());
  EXPECT_EQ(texts.raw_route_objects(), files.raw_route_objects());

  ASSERT_EQ(texts.irr_counts().size(), 13u);
  ASSERT_EQ(texts.irr_counts().size(), files.irr_counts().size());
  for (std::size_t i = 0; i < texts.irr_counts().size(); ++i) {
    const irr::IrrCounts& a = texts.irr_counts()[i];
    const irr::IrrCounts& b = files.irr_counts()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.objects, b.objects);
    EXPECT_EQ(a.aut_nums, b.aut_nums);
    EXPECT_EQ(a.routes, b.routes);
    EXPECT_EQ(a.imports, b.imports);
    EXPECT_EQ(a.exports, b.exports);
    EXPECT_EQ(a.as_sets, b.as_sets);
    EXPECT_EQ(a.route_sets, b.route_sets);
    EXPECT_EQ(a.peering_sets, b.peering_sets);
    EXPECT_EQ(a.filter_sets, b.filter_sets);
  }

  ASSERT_EQ(texts.source_outcomes().size(), files.source_outcomes().size());
  for (std::size_t i = 0; i < texts.source_outcomes().size(); ++i) {
    EXPECT_EQ(texts.source_outcomes()[i].name, files.source_outcomes()[i].name);
    EXPECT_EQ(texts.source_outcomes()[i].status, irr::SourceStatus::kOk);
    EXPECT_EQ(files.source_outcomes()[i].status, irr::SourceStatus::kOk);
  }

  const auto& a = texts.diagnostics().all();
  const auto& b = files.diagnostics().all();
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].severity, b[i].severity) << "diagnostic " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "diagnostic " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "diagnostic " << i;
    EXPECT_EQ(a[i].object_key, b[i].object_key) << "diagnostic " << i;
    EXPECT_EQ(a[i].location, b[i].location) << "diagnostic " << i;
  }
}

TEST_F(FromTexts, ParserExceptionQuarantinesOnlyItsSource) {
  ASSERT_TRUE(util::failpoint::set("irr.parse", "1*error(lexer blew up)"));
  const Rpslyzer lyzer = Rpslyzer::from_texts(dumps_, relationships_);
  const auto& outcomes = lyzer.source_outcomes();
  ASSERT_EQ(outcomes.size(), 13u);
  EXPECT_EQ(outcomes[0].name, "APNIC");
  EXPECT_EQ(outcomes[0].status, irr::SourceStatus::kQuarantined);
  EXPECT_NE(outcomes[0].detail.find("lexer blew up"), std::string::npos);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, irr::SourceStatus::kOk) << outcomes[i].name;
  }
  EXPECT_EQ(lyzer.irr_counts()[0].objects, 0u);
  EXPECT_GT(lyzer.irr_counts()[1].objects, 0u);
  EXPECT_GE(lyzer.diagnostics().error_count(), 1u);

  // Nothing of the quarantined dump was merged: the corpus equals a load
  // of the other twelve.
  const std::vector<std::pair<std::string, std::string>> others(dumps_.begin() + 1,
                                                                dumps_.end());
  EXPECT_TRUE(lyzer.ir() == Rpslyzer::from_texts(others, relationships_).ir());
}

TEST(CoreApi, OverLimitObjectQuarantinesInMemorySource) {
  std::string corrupt = "aut-num: AS3\n";
  for (int i = 0; i < 100; ++i) corrupt += "remarks: filler filler filler\n";
  irr::LoadOptions options;
  options.max_object_bytes = 256;
  const Rpslyzer lyzer = Rpslyzer::from_texts(
      {{"GOOD", "aut-num: AS1\n\naut-num: AS2\n"}, {"CORRUPT", corrupt}}, "", options);
  ASSERT_EQ(lyzer.source_outcomes().size(), 2u);
  EXPECT_EQ(lyzer.source_outcomes()[0].status, irr::SourceStatus::kOk);
  EXPECT_EQ(lyzer.source_outcomes()[1].status, irr::SourceStatus::kQuarantined);
  EXPECT_NE(lyzer.source_outcomes()[1].detail.find("pathological object"),
            std::string::npos);
  EXPECT_EQ(lyzer.ir().aut_nums.size(), 2u);
  EXPECT_EQ(lyzer.ir().aut_nums.count(3), 0u);
}

}  // namespace
}  // namespace rpslyzer
