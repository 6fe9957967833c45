// Generate router filters from IRR data, the BGPq4 workflow the paper's
// introduction motivates: a provider resolves a customer's as-set to the
// prefixes it may announce and installs them as an import filter.
//
// Usage: generate_filters [dir] [object]   (synthetic corpus by default)

#include <iostream>

#include "rpslyzer/filtergen/filtergen.hpp"
#include "rpslyzer/rpslyzer.hpp"
#include "rpslyzer/synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace rpslyzer;
  std::optional<Rpslyzer> lyzer;
  std::string object;
  if (argc > 1 && std::filesystem::is_directory(argv[1])) {
    lyzer = Rpslyzer::from_files(argv[1], std::filesystem::path(argv[1]) / "relationships.txt");
    if (argc > 2) object = argv[2];
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
  const irr::Index& index = lyzer->index();

  if (object.empty()) {
    // Pick the largest defined as-set for the demo.
    std::size_t best = 0;
    for (const auto& [name, set] : lyzer->ir().as_sets) {
      const irr::FlattenedAsSet* flat = index.flattened(name);
      if (flat != nullptr && flat->asns.size() > best) {
        best = flat->asns.size();
        object = name;
      }
    }
  }
  if (object.empty()) {
    std::cerr << "no as-sets in the corpus\n";
    return 1;
  }

  filtergen::FilterOptions options;
  options.range_op = net::RangeOp::range(8, 24);
  options.aggregate = true;
  auto filter = filtergen::generate(index, object, options);
  if (!filter) {
    std::cerr << "unknown object: " << object << "\n";
    return 1;
  }
  std::cout << "# " << object << ": " << filter->member_ases << " member ASes, "
            << filter->route_objects << " route objects, " << filter->entries.size()
            << " filter entries";
  if (!filter->missing_sets.empty()) {
    std::cout << " (" << filter->missing_sets.size() << " member sets missing!)";
  }
  std::cout << "\n\n--- Cisco IOS ---\n"
            << filtergen::render_cisco_prefix_list(*filter, "AS-IMPORT")
            << "\n--- Juniper ---\n"
            << filtergen::render_juniper_route_filter(*filter, "as-import")
            << "\n--- BIRD ---\n"
            << filtergen::render_bird_prefix_set(*filter, "as_import");
  return 0;
}
