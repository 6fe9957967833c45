#pragma once
// Binary prefix trie with per-family roots.
//
// Used for martian lookups and coverage queries ("is this route prefix
// covered by any prefix in the set, possibly with a range operator?").
// Header-only template so payload types stay flexible.
//
// Every node lives in one vector and names its children by 32-bit index, so
// a trie is copied with one vector copy and a lookup walks one allocation.
// Index 0 is the IPv4 root and index 1 the IPv6 root; since no node points
// back at a root, child index 0 means "no child". erase() unlinks the nodes
// it leaves with neither a value nor a child and reuses their slots; once
// the free slots outnumber the live nodes the vector is re-laid out, so the
// storage of a trie that sees endless insert/erase churn stays bounded.

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "rpslyzer/net/prefix.hpp"

namespace rpslyzer::net {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : nodes_(2) {}

  /// Insert (or overwrite) the value stored at `prefix`.
  void insert(const Prefix& prefix, T value) {
    std::uint32_t node = root(prefix.family());
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      const int side = prefix.address().bit(i) ? 1 : 0;
      std::uint32_t child = nodes_[node].child[side];
      if (child == kNone) {
        child = allocate();
        nodes_[node].child[side] = child;
      }
      node = child;
    }
    if (!nodes_[node].value) ++size_;
    nodes_[node].value = std::move(value);
  }

  /// Remove the value stored at `prefix`, then every node on its path that
  /// is left with neither a value nor a child. False when none was stored.
  bool erase(const Prefix& prefix) {
    std::array<std::uint32_t, 129> path;  // path[i]: the node at depth i
    path[0] = root(prefix.family());
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      const std::uint32_t child = nodes_[path[i]].child[prefix.address().bit(i) ? 1 : 0];
      if (child == kNone) return false;
      path[i + 1] = child;
    }
    Node& target = nodes_[path[prefix.length()]];
    if (!target.value) return false;
    target.value.reset();
    --size_;
    for (std::uint8_t depth = prefix.length(); depth > 0; --depth) {
      Node& node = nodes_[path[depth]];
      if (node.value || node.child[0] != kNone || node.child[1] != kNone) break;
      nodes_[path[depth - 1]].child[prefix.address().bit(depth - 1) ? 1 : 0] = kNone;
      free_.push_back(path[depth]);
    }
    if (free_.size() > node_count()) compact();
    return true;
  }

  /// Value stored exactly at `prefix`, if any.
  const T* exact(const Prefix& prefix) const noexcept {
    const Node* node = find(prefix);
    return node != nullptr && node->value ? &*node->value : nullptr;
  }
  T* exact(const Prefix& prefix) noexcept {
    return const_cast<T*>(std::as_const(*this).exact(prefix));
  }

  /// Longest stored prefix covering `prefix` (including itself); returns the
  /// covering prefix and its value.
  std::optional<std::pair<Prefix, const T*>> longest_match(const Prefix& prefix) const {
    const Node* node = &nodes_[root(prefix.family())];
    const T* best = node->value ? &*node->value : nullptr;
    std::uint8_t best_len = 0;
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      const std::uint32_t child = node->child[prefix.address().bit(i) ? 1 : 0];
      if (child == kNone) break;
      node = &nodes_[child];
      if (node->value) {
        best = &*node->value;
        best_len = static_cast<std::uint8_t>(i + 1);
      }
    }
    if (best == nullptr) return std::nullopt;
    return std::make_pair(Prefix(prefix.address(), best_len), best);
  }

  /// Visit every stored (covering) prefix on the path to `prefix`, most
  /// general first. `visit(covering_prefix, value)` returns false to stop.
  template <typename Visit>
  void for_each_cover(const Prefix& prefix, Visit visit) const {
    const Node* node = &nodes_[root(prefix.family())];
    if (node->value && !visit(Prefix(prefix.address(), 0), *node->value)) return;
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      const std::uint32_t child = node->child[prefix.address().bit(i) ? 1 : 0];
      if (child == kNone) return;
      node = &nodes_[child];
      if (node->value &&
          !visit(Prefix(prefix.address(), static_cast<std::uint8_t>(i + 1)), *node->value)) {
        return;
      }
    }
  }

  /// Visit every stored (prefix, value) pair in deterministic order:
  /// IPv4 before IPv6, then ascending Prefix order (pre-order DFS with the
  /// zero child first — identical to std::map<Prefix, T> iteration). The
  /// snapshot persistence layer relies on this order being reproducible.
  /// `visit(prefix, value)` returns void or bool (false stops early).
  template <typename Visit>
  void for_each(Visit visit) const {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (!walk(root(Family::kIpv4), Family::kIpv4, 0, hi, lo, visit)) return;
    hi = lo = 0;
    walk(root(Family::kIpv6), Family::kIpv6, 0, hi, lo, visit);
  }

  /// Visit every stored value for update, in storage order (not prefix
  /// order): for rewriting payloads in place without a lookup per prefix.
  template <typename Fn>
  void for_each_value(Fn fn) {
    for (Node& node : nodes_) {
      if (node.value) fn(*node.value);
    }
  }

  /// Number of stored values.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Number of live trie nodes across both family roots (capacity metric:
  /// interior nodes and the two roots included, stored values or not). A
  /// trie that reached its contents through erase() counts the same nodes
  /// as one built by inserting them alone.
  std::size_t node_count() const noexcept { return nodes_.size() - free_.size(); }
  /// Node slots held, free ones included: at most twice node_count().
  std::size_t node_slots() const noexcept { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0;

  struct Node {
    std::array<std::uint32_t, 2> child{kNone, kNone};
    std::optional<T> value;
  };

  static constexpr std::uint32_t root(Family f) noexcept { return f == Family::kIpv4 ? 0 : 1; }

  const Node* find(const Prefix& prefix) const noexcept {
    const Node* node = &nodes_[root(prefix.family())];
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      const std::uint32_t child = node->child[prefix.address().bit(i) ? 1 : 0];
      if (child == kNone) return nullptr;
      node = &nodes_[child];
    }
    return node;
  }

  std::uint32_t allocate() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      nodes_[slot] = Node{};
      return slot;
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  /// Re-lay the live nodes out in pre-order, dropping the free slots.
  void compact() {
    std::vector<Node> laid;
    laid.reserve(node_count());
    laid.resize(2);
    const auto copy = [&](auto& self, std::uint32_t from, std::uint32_t to) -> void {
      laid[to].value = std::move(nodes_[from].value);
      for (int side = 0; side < 2; ++side) {
        const std::uint32_t child = nodes_[from].child[side];
        if (child == kNone) continue;
        laid.emplace_back();
        const auto at = static_cast<std::uint32_t>(laid.size() - 1);
        laid[to].child[side] = at;
        self(self, child, at);
      }
    };
    copy(copy, 0, 0);
    copy(copy, 1, 1);
    nodes_ = std::move(laid);
    free_.clear();
  }

  template <typename Visit>
  bool walk(std::uint32_t index, Family family, std::uint8_t depth, std::uint64_t& hi,
            std::uint64_t& lo, Visit& visit) const {
    const Node& node = nodes_[index];
    if (node.value) {
      const Prefix prefix(IpAddress(family, hi, lo), depth);
      if constexpr (std::is_void_v<decltype(visit(prefix, *node.value))>) {
        visit(prefix, *node.value);
      } else {
        if (!visit(prefix, *node.value)) return false;
      }
    }
    if (depth >= max_prefix_len(family)) return true;
    if (node.child[0] != kNone &&
        !walk(node.child[0], family, static_cast<std::uint8_t>(depth + 1), hi, lo, visit)) {
      return false;
    }
    if (node.child[1] == kNone) return true;
    // Set bit `depth` (counting from the most significant bit) for the one
    // branch, then clear it on the way back out.
    std::uint64_t& half = depth < 64 ? hi : lo;
    const std::uint64_t bit = std::uint64_t{1} << (depth < 64 ? 63 - depth : 127 - depth);
    half |= bit;
    const bool go_on =
        walk(node.child[1], family, static_cast<std::uint8_t>(depth + 1), hi, lo, visit);
    half &= ~bit;
    return go_on;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;  // unlinked slots, reused first
  std::size_t size_ = 0;
};

}  // namespace rpslyzer::net
