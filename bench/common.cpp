#include "common.hpp"

#include <cstdio>
#include <cstdlib>

namespace rpslyzer::bench {

double scale_from_env() {
  const char* env = std::getenv("RPSLYZER_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  if (value < 0.05) return 0.05;
  if (value > 50.0) return 50.0;
  return value;
}

namespace {

synth::SynthConfig config_for(double scale) {
  synth::SynthConfig config;
  config.scale = scale;
  return config;
}

Rpslyzer parse_world(const synth::InternetGenerator& generator) {
  std::vector<std::pair<std::string, std::string>> ordered;
  for (const auto& name : synth::irr_names()) {
    ordered.emplace_back(name, generator.irr_dumps().at(name));
  }
  return Rpslyzer::from_texts(ordered, generator.caida_serial1());
}

}  // namespace

World::World(double scale)
    : generator(config_for(scale)),
      lyzer(parse_world(generator)),
      bgp_dumps(generator.bgp_dumps()) {}

report::Aggregator World::verify_all(verify::VerifyOptions options) const {
  verify::Verifier verifier = lyzer.verifier(options);
  report::Aggregator agg;
  for (const auto& route : all_routes()) agg.add(route, verifier.verify_route(route));
  return agg;
}

std::vector<bgp::Route> World::all_routes() const {
  std::vector<bgp::Route> routes;
  for (const auto& dump : bgp_dumps) {
    for (auto& route : bgp::parse_table_dump(dump)) routes.push_back(std::move(route));
  }
  return routes;
}

void print_header(const std::string& title, const World& world) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("synthetic corpus: %zu ASes, %zu aut-nums, %zu route objects, %zu collectors\n",
              world.generator.topology().size(), world.lyzer.ir().aut_nums.size(),
              world.lyzer.ir().routes.size(), world.bgp_dumps.size());
  std::printf("%-52s | %-16s | %-16s\n", "metric", "paper", "measured");
  std::printf("%s\n", std::string(90, '-').c_str());
}

void print_row(const std::string& label, const std::string& paper,
               const std::string& measured) {
  std::printf("%-52s | %-16s | %-16s\n", label.c_str(), paper.c_str(), measured.c_str());
}

std::string pct(std::size_t part, std::size_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * double(part) / double(whole));
  return buf;
}

}  // namespace rpslyzer::bench
