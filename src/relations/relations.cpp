#include "rpslyzer/relations/relations.hpp"

#include <algorithm>
#include <queue>

#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::relations {

const char* to_string(Relationship r) noexcept {
  switch (r) {
    case Relationship::kProvider:
      return "provider";
    case Relationship::kCustomer:
      return "customer";
    case Relationship::kPeer:
      return "peer";
    case Relationship::kNone:
      return "none";
  }
  return "none";
}

AsRelations AsRelations::parse(std::string_view text, util::Diagnostics& diagnostics) {
  AsRelations rel;
  std::size_t line_no = 0;
  // Lines and the three `|` fields are walked in place; only a comment
  // line's clique is split.
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = util::trim(text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // "# inferred clique: 174 209 ..." / "# input clique: ...".
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos &&
          (line.find("clique") != std::string_view::npos)) {
        std::vector<Asn> clique;
        for (auto token : util::split_ws(line.substr(colon + 1))) {
          if (auto asn = util::parse_u32(token)) clique.push_back(*asn);
        }
        if (!clique.empty()) rel.set_clique(std::move(clique));
      }
      continue;
    }
    auto malformed = [&] {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "malformed relationship line: '" + std::string(line) + "'", {},
                        {"relationships", line_no});
    };
    const std::size_t first = line.find('|');
    const std::size_t second =
        first == std::string_view::npos ? first : line.find('|', first + 1);
    if (second == std::string_view::npos) {
      malformed();
      continue;
    }
    const std::size_t third = line.find('|', second + 1);  // npos: the field ends the line
    auto a = util::parse_u32(util::trim(line.substr(0, first)));
    auto b = util::parse_u32(util::trim(line.substr(first + 1, second - first - 1)));
    std::string_view rel_field = util::trim(
        line.substr(second + 1, third == std::string_view::npos ? third : third - second - 1));
    if (!a || !b || rel_field.empty()) {
      malformed();
      continue;
    }
    if (rel_field == "-1") {
      rel.add_provider_customer(*a, *b);
    } else if (rel_field == "0") {
      rel.add_peer_peer(*a, *b);
    } else {
      diagnostics.error(util::DiagnosticKind::kSyntaxError,
                        "unknown relationship type: '" + std::string(rel_field) + "'", {},
                        {"relationships", line_no});
    }
  }
  return rel;
}

void AsRelations::add_provider_customer(Asn provider, Asn customer) {
  Adjacency& p = ases_[provider];
  if (p.customers.contains(customer)) return;
  p.customers.insert(customer);
  ases_[customer].providers.insert(provider);  // `p` survives a rehash
  ++link_count_;
  invalidate_cache();
}

void AsRelations::add_peer_peer(Asn a, Asn b) {
  Adjacency& x = ases_[a];
  if (x.peers.contains(b)) return;
  x.peers.insert(b);
  ases_[b].peers.insert(a);
  ++link_count_;
  invalidate_cache();
}

void AsRelations::set_clique(std::vector<Asn> clique) {
  std::sort(clique.begin(), clique.end());
  clique.erase(std::unique(clique.begin(), clique.end()), clique.end());
  declared_clique_ = std::move(clique);
  invalidate_cache();
}

Relationship AsRelations::between(Asn a, Asn b) const {
  const auto it = ases_.find(a);
  if (it == ases_.end()) return Relationship::kNone;
  const Adjacency& adjacency = it->second;
  if (adjacency.customers.contains(b)) return Relationship::kProvider;
  if (adjacency.providers.contains(b)) return Relationship::kCustomer;
  if (adjacency.peers.contains(b)) return Relationship::kPeer;
  return Relationship::kNone;
}

std::span<const Asn> AsRelations::providers_of(Asn asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? std::span<const Asn>() : it->second.providers.in_order;
}
std::span<const Asn> AsRelations::customers_of(Asn asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? std::span<const Asn>() : it->second.customers.in_order;
}
std::span<const Asn> AsRelations::peers_of(Asn asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? std::span<const Asn>() : it->second.peers.in_order;
}

std::vector<Asn> AsRelations::customer_cone(Asn asn) const {
  std::vector<Asn> cone;
  std::unordered_set<Asn> seen{asn};
  std::queue<Asn> frontier;
  frontier.push(asn);
  while (!frontier.empty()) {
    Asn current = frontier.front();
    frontier.pop();
    for (Asn customer : customers_of(current)) {
      if (seen.insert(customer).second) {
        cone.push_back(customer);
        frontier.push(customer);
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

const std::vector<Asn>& AsRelations::tier1() const {
  if (tier1_cached_) return tier1_cache_;
  tier1_cached_ = true;
  if (!declared_clique_.empty()) {
    tier1_cache_ = declared_clique_;
    return tier1_cache_;
  }
  // Greedy clique over provider-free ASes: candidates sorted by peer degree
  // (descending); each is added if it peers with every member so far.
  std::vector<Asn> candidates;
  for (const auto& [asn, adjacency] : ases_) {
    if (adjacency.providers.in_order.empty() && !adjacency.peers.in_order.empty()) {
      candidates.push_back(asn);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [&](Asn a, Asn b) {
    const std::size_t da = peers_of(a).size();
    const std::size_t db = peers_of(b).size();
    return da != db ? da > db : a < b;
  });
  std::vector<Asn> clique;
  for (Asn candidate : candidates) {
    bool peers_with_all = true;
    for (Asn member : clique) {
      if (!are_peers(candidate, member)) {
        peers_with_all = false;
        break;
      }
    }
    if (peers_with_all) clique.push_back(candidate);
  }
  std::sort(clique.begin(), clique.end());
  tier1_cache_ = std::move(clique);
  return tier1_cache_;
}

bool AsRelations::is_tier1(Asn asn) const {
  const auto& clique = tier1();
  return std::binary_search(clique.begin(), clique.end(), asn);
}

std::vector<Asn> AsRelations::all_ases() const {
  std::vector<Asn> out;
  out.reserve(ases_.size());
  for (const auto& [asn, adjacency] : ases_) out.push_back(asn);
  std::sort(out.begin(), out.end());
  return out;
}

std::string AsRelations::to_serial1() const {
  std::string out;
  const auto& clique = tier1();
  if (!clique.empty()) {
    out += "# inferred clique:";
    for (Asn asn : clique) out += " " + std::to_string(asn);
    out += "\n";
  }
  // Deterministic order: sorted (a, b) pairs, p2c before p2p.
  std::vector<std::pair<Asn, Asn>> p2c;
  for (const auto& [provider, adjacency] : ases_) {
    for (Asn customer : adjacency.customers.in_order) p2c.emplace_back(provider, customer);
  }
  std::sort(p2c.begin(), p2c.end());
  for (const auto& [provider, customer] : p2c) {
    out += std::to_string(provider) + "|" + std::to_string(customer) + "|-1\n";
  }
  std::vector<std::pair<Asn, Asn>> p2p;
  for (const auto& [a, adjacency] : ases_) {
    for (Asn b : adjacency.peers.in_order) {
      if (a < b) p2p.emplace_back(a, b);
    }
  }
  std::sort(p2p.begin(), p2p.end());
  for (const auto& [a, b] : p2p) {
    out += std::to_string(a) + "|" + std::to_string(b) + "|0\n";
  }
  return out;
}

}  // namespace rpslyzer::relations
