#pragma once
// Shared scaffolding for the benchmark/figure binaries: build one synthetic
// world (scaled by the RPSLYZER_SCALE environment variable), run the
// pipeline, and print "paper vs measured" rows.

#include <optional>
#include <string>

#include "rpslyzer/report/aggregate.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"

namespace rpslyzer::bench {

/// Scale factor from $RPSLYZER_SCALE (default 1.0, clamped to [0.05, 50]).
double scale_from_env();

struct World {
  synth::InternetGenerator generator;
  Rpslyzer lyzer;
  std::vector<std::string> bgp_dumps;

  explicit World(double scale = scale_from_env());

  /// Verify every route in every dump and aggregate (§5 pipeline).
  report::Aggregator verify_all(verify::VerifyOptions options = {}) const;
  /// Every usable route of every dump, each dump parsed on every hardware
  /// thread.
  std::vector<bgp::Route> all_routes() const;
};

/// Print a section header naming the table/figure being regenerated.
void print_header(const std::string& title, const World& world);

/// Print one "paper vs measured" row. `paper` may be "-" when the paper
/// gives no number for the cell.
void print_row(const std::string& label, const std::string& paper,
               const std::string& measured);

std::string pct(std::size_t part, std::size_t whole);

}  // namespace rpslyzer::bench
