// IRRd-style query REPL: the query surface tools like bgpq4 use, answered
// from the compiled policy snapshot. Run without arguments for a scripted
// demo on a synthetic corpus, or pass a data directory and type queries on
// stdin ("!gAS1000", "!iAS-1000-CONE,1", "!aAS-1000-CONE", ... ; EOF ends).

#include <iostream>

#include "rpslyzer/query/query.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace rpslyzer;
  std::optional<Rpslyzer> lyzer;
  if (argc > 1) {
    lyzer = Rpslyzer::from_files(argv[1], std::filesystem::path(argv[1]) / "relationships.txt");
  } else {
    synth::SynthConfig config;
    config.scale = 0.25;
    synth::InternetGenerator generator(config);
    std::vector<std::pair<std::string, std::string>> ordered;
    for (const auto& name : synth::irr_names()) {
      ordered.emplace_back(name, generator.irr_dumps().at(name));
    }
    lyzer = Rpslyzer::from_texts(ordered, generator.caida_serial1());
  }
  query::QueryEngine engine(*lyzer->snapshot());

  if (argc <= 1) {
    // Scripted demo against the first transit AS that has routes.
    for (const auto& [asn, an] : lyzer->ir().aut_nums) {
      if (!lyzer->index().has_routes(asn)) continue;
      const std::string as = "AS" + std::to_string(asn);
      for (const std::string q : {"!g" + as, "!6" + as, "!o" + as}) {
        std::cout << "> " << q << "\n" << engine.evaluate(q);
      }
      break;
    }
    for (const auto& [name, set] : lyzer->ir().as_sets) {
      if (set.members.empty()) continue;
      for (const std::string q : {"!i" + name, "!i" + name + ",1", "!a4" + name}) {
        std::cout << "> " << q << "\n" << engine.evaluate(q);
      }
      break;
    }
    return 0;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "!q" || line == "q") break;  // IRRd quit command
    std::cout << engine.evaluate(line);
  }
  return 0;
}
