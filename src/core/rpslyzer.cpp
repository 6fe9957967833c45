#include "rpslyzer/rpslyzer.hpp"

#include <fstream>
#include <sstream>

#include "rpslyzer/obs/trace.hpp"

namespace rpslyzer {

Rpslyzer::Rpslyzer(irr::LoadResult&& loaded)
    : ir_(std::make_unique<ir::Ir>(std::move(loaded.ir))),
      diagnostics_(std::move(loaded.diagnostics)),
      irr_counts_(std::move(loaded.counts)),
      source_outcomes_(std::move(loaded.outcomes)),
      raw_route_objects_(loaded.raw_route_objects) {}

Rpslyzer Rpslyzer::from_texts(const std::vector<std::pair<std::string, std::string>>& dumps,
                              const std::string& caida_serial1,
                              const irr::LoadOptions& options) {
  Rpslyzer lyzer(irr::load_irrs(dumps, options));
  {
    obs::Span span("relations.parse");
    lyzer.relations_ = relations::AsRelations::parse(caida_serial1, lyzer.diagnostics_);
  }
  lyzer.index_ = std::make_unique<irr::Index>(*lyzer.ir_);
  return lyzer;
}

Rpslyzer Rpslyzer::from_files(const std::filesystem::path& irr_directory,
                              const std::filesystem::path& relationships,
                              const irr::LoadOptions& options) {
  Rpslyzer lyzer(irr::load_irrs(irr::table1_sources(irr_directory), options));

  std::ifstream in(relationships, std::ios::binary);
  if (in) {
    obs::Span span("relations.parse");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lyzer.relations_ =
        relations::AsRelations::parse(std::move(buffer).str(), lyzer.diagnostics_);
  } else {
    lyzer.diagnostics_.warning(util::DiagnosticKind::kOther,
                               "relationship file unavailable: " + relationships.string());
  }
  lyzer.index_ = std::make_unique<irr::Index>(*lyzer.ir_);
  return lyzer;
}

std::shared_ptr<const compile::CompiledPolicySnapshot> Rpslyzer::snapshot() const {
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  if (snapshot_ == nullptr) {
    // Non-owning aliases: this Rpslyzer owns index and relations, and the
    // memoized snapshot cannot outlive it.
    snapshot_ = compile::CompiledPolicySnapshot::build(
        std::shared_ptr<const irr::Index>(std::shared_ptr<void>(), index_.get()),
        std::shared_ptr<const relations::AsRelations>(std::shared_ptr<void>(),
                                                      &relations_));
  }
  return snapshot_;
}

}  // namespace rpslyzer
