#pragma once
// AS business relationships (the paper's §5.1 checks "leverage the business
// relationship between each pair of ASes", sourced from CAIDA's inference
// database [46]).
//
// Parses CAIDA "serial-1" files: one `<a>|<b>|<rel>` line per link, where
// rel = -1 means a is a provider of b and rel = 0 means a and b peer.
// Comment lines start with '#'; the `# inferred clique:` (or `# input
// clique:`) comment, when present, names the Tier-1 clique. Without it, a
// greedy clique over provider-free ASes is computed.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rpslyzer/util/diagnostics.hpp"

namespace rpslyzer::relations {

using Asn = std::uint32_t;

/// Relationship of AS `a` toward AS `b`.
enum class Relationship : std::uint8_t {
  kProvider,  // a is a provider of b (a sells transit to b)
  kCustomer,  // a is a customer of b
  kPeer,      // settlement-free peers
  kNone,      // no known relationship
};

const char* to_string(Relationship r) noexcept;

class AsRelations {
 public:
  AsRelations() = default;

  /// Parse serial-1 text. Malformed lines raise diagnostics and are skipped.
  static AsRelations parse(std::string_view text, util::Diagnostics& diagnostics);

  /// Incremental construction (used by the synthetic Internet generator).
  void add_provider_customer(Asn provider, Asn customer);
  void add_peer_peer(Asn a, Asn b);
  /// Pre-size the adjacency tables for about `ases` networks — bulk loaders
  /// (the snapshot restore path) know the AS count up front and skip the
  /// incremental rehashing this avoids.
  void reserve(std::size_t ases) { ases_.reserve(ases); }
  /// Declare the Tier-1 clique explicitly (overrides inference).
  void set_clique(std::vector<Asn> clique);

  /// Relationship of `a` toward `b`: a hash lookup and binary searches.
  /// When links of several kinds join the pair, provider wins over
  /// customer, and customer over peer.
  Relationship between(Asn a, Asn b) const;

  bool is_provider_of(Asn provider, Asn customer) const {
    return between(provider, customer) == Relationship::kProvider;
  }
  bool is_customer_of(Asn customer, Asn provider) const {
    return between(customer, provider) == Relationship::kCustomer;
  }
  bool are_peers(Asn a, Asn b) const { return between(a, b) == Relationship::kPeer; }

  std::span<const Asn> providers_of(Asn asn) const;
  std::span<const Asn> customers_of(Asn asn) const;
  std::span<const Asn> peers_of(Asn asn) const;

  /// Every AS in `asn`'s customer cone (its customers, their customers,
  /// ...), excluding `asn` itself. Sorted.
  std::vector<Asn> customer_cone(Asn asn) const;

  /// The Tier-1 clique: from the file's clique comment when present,
  /// otherwise a greedy peering clique over provider-free ASes.
  const std::vector<Asn>& tier1() const;
  bool is_tier1(Asn asn) const;

  /// All ASes appearing in any link. Sorted.
  std::vector<Asn> all_ases() const;
  std::size_t link_count() const noexcept { return link_count_; }

  /// Serialize back to serial-1 (deterministic order), including the
  /// clique comment. parse(to_serial1()) round-trips.
  std::string to_serial1() const;

 private:
  void invalidate_cache() const {
    tier1_cache_.clear();
    tier1_cached_ = false;
  }

  /// One kind of neighbor of one AS, kept twice: in insertion order, as
  /// providers_of() & co. return them, and sorted, for between().
  struct Neighbors {
    std::vector<Asn> in_order;
    std::vector<Asn> sorted;

    bool contains(Asn asn) const {
      return std::binary_search(sorted.begin(), sorted.end(), asn);
    }
    void insert(Asn asn) {
      in_order.push_back(asn);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), asn), asn);
    }
  };
  /// Every link of one AS.
  struct Adjacency {
    Neighbors providers;
    Neighbors customers;
    Neighbors peers;
  };

  std::unordered_map<Asn, Adjacency> ases_;  // every AS in some link
  std::vector<Asn> declared_clique_;
  std::size_t link_count_ = 0;

  mutable std::vector<Asn> tier1_cache_;
  mutable bool tier1_cached_ = false;
};

}  // namespace rpslyzer::relations
