// Lint an IRR corpus and classify ASes by RPSL usage — the paper's §7
// future-work tooling, built on the RPSLyzer IR.
//
// Usage: lint_irr [dir]   (synthetic corpus when no directory is given)

#include <cstdio>
#include <iostream>

#include "rpslyzer/lint/classify.hpp"
#include "rpslyzer/lint/linter.hpp"
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

  auto findings = lint::lint(lyzer->ir(), lyzer->index());
  std::map<lint::LintCode, std::size_t> by_code;
  for (const auto& f : findings) ++by_code[f.code];
  std::printf("=== lint summary (%zu findings) ===\n", findings.size());
  for (const auto& [code, count] : by_code) {
    std::printf("  %-28s %6zu\n", lint::to_string(code), count);
  }
  std::printf("\nfirst findings:\n");
  std::size_t shown = 0;
  for (const auto& f : findings) {
    if (++shown > 12) break;
    std::printf("  %s\n", lint::render({f}).c_str());
  }

  auto classes = lint::histogram(lint::classify_all(lyzer->ir()));
  std::printf("=== AS usage classes ===\n");
  for (const auto& [cls, count] : classes) {
    std::printf("  %-12s %6zu\n", lint::to_string(cls), count);
  }
  return 0;
}
