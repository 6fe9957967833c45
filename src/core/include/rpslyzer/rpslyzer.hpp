#pragma once
// RPSLyzer: the end-to-end pipeline (§3 + §5).
//
//   Rpslyzer lyzer = Rpslyzer::from_texts(irr_dumps, caida_serial1);
//   verify::Verifier verifier = lyzer.verifier();
//   auto hops = verifier.verify_route(route);
//
// Owns the parsed corpus (IR), the query index, relationship data, and
// accumulated diagnostics; hands out verifiers and JSON exports.

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/ir/json_io.hpp"
#include "rpslyzer/irr/index.hpp"
#include "rpslyzer/irr/loader.hpp"
#include "rpslyzer/relations/relations.hpp"
#include "rpslyzer/verify/verifier.hpp"

namespace rpslyzer {

class Rpslyzer {
 public:
  /// Parse in-memory dumps (IRR name -> text, merged in the given order,
  /// which must be priority order) plus CAIDA serial-1 relationship text.
  /// The dumps go through irr::load_irrs like files do, minus the file
  /// read: an over-limit object or a parser exception quarantines that
  /// source and the others still load. `options.threads` sizes the worker
  /// pool (0 = hardware concurrency); the result is the same at any count.
  static Rpslyzer from_texts(const std::vector<std::pair<std::string, std::string>>& dumps,
                             const std::string& caida_serial1,
                             const irr::LoadOptions& options = {});

  /// Load "<irr>.db" files for the 13 Table-1 IRRs from `irr_directory`
  /// plus `relationships` (CAIDA serial-1). Missing files are tolerated.
  /// `options` carries the integrity-guard and parallelism knobs handed to
  /// irr::load_irrs.
  static Rpslyzer from_files(const std::filesystem::path& irr_directory,
                             const std::filesystem::path& relationships,
                             const irr::LoadOptions& options = {});

  const ir::Ir& ir() const noexcept { return *ir_; }
  const irr::Index& index() const noexcept { return *index_; }
  const relations::AsRelations& relations() const noexcept { return relations_; }
  const util::Diagnostics& diagnostics() const noexcept { return diagnostics_; }
  const std::vector<irr::IrrCounts>& irr_counts() const noexcept { return irr_counts_; }
  /// Per-source load outcome (ok | degraded | quarantined), priority order.
  const std::vector<irr::SourceOutcome>& source_outcomes() const noexcept {
    return source_outcomes_;
  }
  std::size_t raw_route_objects() const noexcept { return raw_route_objects_; }

  /// The compiled policy snapshot for this corpus, built on first use and
  /// memoized (thread-safe). Like verifier(), the result references this
  /// object's members: call it at the Rpslyzer's final address.
  std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot() const;

  /// A verifier bound to this corpus's compiled snapshot.
  verify::Verifier verifier(verify::VerifyOptions options = {}) const {
    return verify::Verifier(snapshot(), options);
  }

  /// Export the IR to JSON (§3's integration story).
  json::Value export_ir() const { return ir::to_json(*ir_); }

 private:
  explicit Rpslyzer(irr::LoadResult&& loaded);

  // Pointer members keep Index's reference into Ir stable across moves.
  std::unique_ptr<ir::Ir> ir_;
  std::unique_ptr<irr::Index> index_;
  relations::AsRelations relations_;
  util::Diagnostics diagnostics_;
  std::vector<irr::IrrCounts> irr_counts_;
  std::vector<irr::SourceOutcome> source_outcomes_;
  std::size_t raw_route_objects_ = 0;

  // Snapshot memo. The mutex lives behind a pointer so Rpslyzer stays
  // movable (from_texts/from_files return by value).
  mutable std::unique_ptr<std::mutex> snapshot_mu_ = std::make_unique<std::mutex>();
  mutable std::shared_ptr<const compile::CompiledPolicySnapshot> snapshot_;
};

}  // namespace rpslyzer
