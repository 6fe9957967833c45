#include "rpslyzer/synth/churn.hpp"

#include <cinttypes>
#include <cstdio>

#include "rpslyzer/ir/objects.hpp"
#include "rpslyzer/util/diagnostics.hpp"

namespace rpslyzer::synth {

namespace {

std::string as_ref(Asn asn) { return "AS" + std::to_string(asn); }

}  // namespace

ChurnGenerator::ChurnGenerator(const std::map<std::string, std::string>& dumps,
                               ChurnConfig config)
    : config_(std::move(config)), rng_(config_.seed), serial_(config_.start_serial) {
  for (const auto& [name, text] : dumps) {
    source_names_.push_back(name);
    util::Diagnostics diags;
    for (rpsl::RawObject& raw : rpsl::lex_objects(text, name, diags)) {
      if (raw.class_name == "route" || raw.class_name == "route6") {
        const auto origin = ir::parse_as_ref(raw.first("origin"));
        if (!origin.has_value()) continue;
        used_prefixes_.insert(std::string(raw.key));
        routes_.push_back({name, raw.key, *origin, raw.class_name == "route6"});
      } else if (raw.class_name == "aut-num") {
        const auto asn = ir::parse_as_ref(raw.key);
        if (!asn.has_value()) continue;
        known_asns_.push_back(*asn);
        aut_nums_.push_back({name, std::move(raw)});
      } else if (raw.class_name == "as-set") {
        as_sets_.push_back({name, std::move(raw)});
      }
    }
  }
  if (source_names_.empty()) source_names_.push_back("RADB");
}

std::string ChurnGenerator::fresh_prefix(bool v6) {
  while (true) {
    const std::uint64_t c = prefix_counter_++;
    char buffer[48];
    if (v6) {
      // 2001:db8::/32 is reserved for documentation — collision-free with
      // the topology allocator, which skips martian space.
      std::snprintf(buffer, sizeof(buffer), "2001:db8:%" PRIx64 "::/48",
                    c & 0xffff);
    } else {
      // 10/8 is martian, so the synthetic corpus never allocates from it.
      std::snprintf(buffer, sizeof(buffer), "10.%u.%u.0/24",
                    static_cast<unsigned>((c >> 8) & 0xff),
                    static_cast<unsigned>(c & 0xff));
    }
    std::string prefix(buffer);
    if (used_prefixes_.insert(prefix).second) return prefix;
  }
}

delta::JournalOp ChurnGenerator::make_op(std::uint64_t serial) {
  delta::JournalOp op;
  op.serial = serial;
  const auto pick_source = [&]() -> const std::string& {
    return source_names_[rng_() % source_names_.size()];
  };
  const auto pick_asn = [&]() -> Asn {
    if (known_asns_.empty()) return 64512 + static_cast<Asn>(rng_() % 1024);
    return known_asns_[rng_() % known_asns_.size()];
  };
  const auto pick_unprotected_asn = [&]() -> Asn {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Asn asn = pick_asn();
      if (!config_.protect_origins.contains(asn)) return asn;
    }
    return 64512 + static_cast<Asn>(rng_() % 1024);
  };

  const unsigned roll = rng_() % 100;
  if (roll < 30 || roll >= 85) {
    // Add a route (v4 or, at the tail of the roll space, v6).
    const bool v6 = roll >= 85 && roll < 95;
    if (roll >= 95) {
      // DEL of a nonexistent as-set: a legal no-op the pipeline must absorb.
      op.kind = delta::JournalOp::Kind::kDel;
      op.source = pick_source();
      op.paragraph = "as-set: AS-NONE" + std::to_string(serial) + "\n";
      return op;
    }
    const Asn origin = pick_unprotected_asn();
    const std::string prefix = fresh_prefix(v6);
    op.kind = delta::JournalOp::Kind::kAdd;
    op.source = pick_source();
    op.paragraph = std::string(v6 ? "route6: " : "route: ") + prefix +
                   "\norigin: " + as_ref(origin) + "\n";
    routes_.push_back({op.source, prefix, origin, v6});
    return op;
  }
  if (roll < 45) {
    // Delete an existing route (never a protected origin's).
    for (int attempt = 0; attempt < 8 && !routes_.empty(); ++attempt) {
      const std::size_t i = rng_() % routes_.size();
      if (config_.protect_origins.contains(routes_[i].origin)) continue;
      const RouteEntry entry = routes_[i];
      routes_[i] = routes_.back();
      routes_.pop_back();
      op.kind = delta::JournalOp::Kind::kDel;
      op.source = entry.source;
      op.paragraph = std::string(entry.v6 ? "route6: " : "route: ") + entry.prefix +
                     "\norigin: " + as_ref(entry.origin) + "\n";
      return op;
    }
    // No deletable route: DEL of a nonexistent one instead.
    op.kind = delta::JournalOp::Kind::kDel;
    op.source = pick_source();
    op.paragraph = "route: " + fresh_prefix(false) + "\norigin: " +
                   as_ref(pick_unprotected_asn()) + "\n";
    return op;
  }
  if (roll < 55 && !aut_nums_.empty()) {
    // Modify an aut-num: append one simple import rule and re-emit.
    ObjectEntry& entry = aut_nums_[rng_() % aut_nums_.size()];
    const Asn peer = pick_asn();
    entry.raw.attributes.push_back(
        {"import", "from " + as_ref(peer) + " accept " + as_ref(peer), 0});
    op.kind = delta::JournalOp::Kind::kAdd;
    op.source = entry.source;
    op.paragraph = rpsl::render_paragraph(entry.raw);
    return op;
  }
  if (roll < 65) {
    // Add a fresh as-set (members: two ASNs, sometimes an existing set).
    rpsl::RawObject raw;
    raw.class_name = "as-set";
    raw.key = "AS-CHURN" + std::to_string(serial);
    std::string members = as_ref(pick_asn()) + ", " + as_ref(pick_asn());
    if (!as_sets_.empty() && rng_() % 2 == 0) {
      members += ", " + as_sets_[rng_() % as_sets_.size()].raw.key;
    }
    raw.attributes.push_back({"as-set", raw.key, 0});
    raw.attributes.push_back({"members", std::move(members), 0});
    op.kind = delta::JournalOp::Kind::kAdd;
    op.source = pick_source();
    op.paragraph = rpsl::render_paragraph(raw);
    as_sets_.push_back({op.source, std::move(raw)});
    return op;
  }
  if (roll < 75 && !as_sets_.empty()) {
    // Modify an as-set: append a member and re-emit.
    ObjectEntry& entry = as_sets_[rng_() % as_sets_.size()];
    entry.raw.attributes.push_back({"members", as_ref(pick_asn()), 0});
    op.kind = delta::JournalOp::Kind::kAdd;
    op.source = entry.source;
    op.paragraph = rpsl::render_paragraph(entry.raw);
    return op;
  }
  if (roll < 80 && !as_sets_.empty()) {
    // Delete an as-set.
    const std::size_t i = rng_() % as_sets_.size();
    const ObjectEntry entry = std::move(as_sets_[i]);
    as_sets_[i] = std::move(as_sets_.back());
    as_sets_.pop_back();
    op.kind = delta::JournalOp::Kind::kDel;
    op.source = entry.source;
    op.paragraph = "as-set: " + entry.raw.key + "\n";
    return op;
  }
  // Fallback (and roll 80-84): DEL of a route that was never registered.
  op.kind = delta::JournalOp::Kind::kDel;
  op.source = pick_source();
  op.paragraph =
      "route: " + fresh_prefix(false) + "\norigin: " + as_ref(pick_unprotected_asn()) + "\n";
  return op;
}

delta::JournalBatch ChurnGenerator::next_batch() {
  delta::JournalBatch batch;
  // Most batches lead with a replay of the previous batch's last op: same
  // serial, so the consumer must recognize and skip it idempotently.
  if (!last_tail_.empty() && rng_() % 4 != 0) {
    batch.ops.push_back(last_tail_.front());
  }
  for (std::size_t i = 0; i < config_.ops_per_batch; ++i) {
    batch.ops.push_back(make_op(serial_));
    serial_ += 1 + (rng_() % 8 == 0 ? rng_() % 3 : 0);  // occasional gaps
  }
  batch.first_serial = batch.ops.front().serial;
  batch.last_serial = batch.ops.back().serial;
  last_tail_ = {batch.ops.back()};
  serial_ += rng_() % 3;  // occasional inter-batch gap
  return batch;
}

}  // namespace rpslyzer::synth
